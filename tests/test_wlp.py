from __future__ import annotations

import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lefschetz_lab import (
    InternalCheckError,
    Monomial,
    MonomialIdeal,
    NotArtinianError,
    NotTypeTwoError,
    analyze_wlp,
    bad_primes,
    build_region,
    classify_type2,
    conjecture_scan,
    parse_ideal,
    peak_shortcut,
    region_invariant_factors,
    socle_profile,
    type2_char0_verdict,
    type2_condition_range,
    type2_poschar_bound,
    type_one_verdict,
    wlp_full_scan,
)
from lefschetz_lab.ideals import ALL_PERMUTATIONS
from lefschetz_lab.intlinalg import biadjacency
from lefschetz_lab.wlp import (
    _degree_factors,
    _primes_up_to,
    _rank_dropping_primes,
    _region_key,
    _scan_range,
    enumerate_type2_ideals,
)
from _oracles import (
    fraction_rank,
    multiplication_matrix,
    plain_rank_mod,
    random_artinian_ideal,
    random_low_socle_ideal,
)

EXA = "x^4,y^4,z^4,x^2z^2"


# -- full scan ----------------------------------------------------------------


def test_full_scan_worked_example():
    report = wlp_full_scan(parse_ideal(EXA), primes=(2, 3, 5))
    assert report.holds_char0
    failing = report.failing_degrees
    assert failing[0] == ()
    assert failing[2] == (5,)
    assert failing[3] == () and failing[5] == ()


def test_full_scan_char0_failure():
    report = wlp_full_scan(parse_ideal("x^2,y^4,z^4,xy,xz"))
    assert not report.holds_char0
    assert report.failing_degrees[0] == (3,)


def test_full_scan_trivial_algebra():
    report = wlp_full_scan(parse_ideal("x,y,z"))
    assert report.holds_char0


def test_full_scan_requires_artinian():
    with pytest.raises(NotArtinianError):
        wlp_full_scan(MonomialIdeal((Monomial(2, 0, 0),)))


def test_full_scan_divisors_pin_bad_primes():
    report = wlp_full_scan(parse_ideal(EXA), divisors=True)
    assert report.bad_primes == (2,)
    for r in report.degrees:
        assert r.leading_divisor is not None


def _count_region_reductions(monkeypatch) -> list:
    """Count ``wlp``'s per-degree Smith reductions; make every dense region
    matrix, every ``IntMatrix`` and every other rank or divisor kernel
    raise on the way."""
    from lefschetz_lab import intlinalg, wlp

    calls = []

    def counted(region):
        calls.append(region)
        return intlinalg.region_invariant_factors(region)

    def forbidden(*args, **kwargs):
        raise AssertionError("the scan built a dense matrix or ran a second kernel")

    monkeypatch.setattr(wlp, "region_invariant_factors", counted)
    for module in (wlp, intlinalg):
        for name in ("biadjacency", "smith_invariant_factors", "bareiss", "rank_q", "rank_mod_p", "determinantal_divisor"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    monkeypatch.setattr(intlinalg.IntMatrix, "__init__", forbidden)
    return calls


@pytest.mark.parametrize("divisors", [False, True])
def test_full_scan_runs_one_smith_form_per_degree(monkeypatch, divisors):
    calls = _count_region_reductions(monkeypatch)
    ideal = parse_ideal(EXA)
    report = wlp_full_scan(ideal, primes=(2, 3, 5), divisors=divisors)
    assert len(calls) == len(report.degrees) == len(_scan_range(ideal))
    assert report.bad_primes == ((2,) if divisors else None)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32), extra=st.integers(0, 3))
def test_full_scan_ranks_match_independent_oracles(seed, extra):
    primes = (2, 3, 5, 2147483659)
    ideal = random_artinian_ideal(random.Random(seed), 6, extra)
    for r in wlp_full_scan(ideal, primes).degrees:
        m = multiplication_matrix(ideal, r.d)
        assert r.rank_q == fraction_rank(m), (str(ideal), r.d)
        assert r.rank_mod == {p: plain_rank_mod(m, p) for p in primes}, (str(ideal), r.d)


# -- peak shortcuts -------------------------------------------------------------


def test_peak_shortcut_strict_peak():
    shortcut = peak_shortcut(parse_ideal(EXA))
    assert shortcut.degrees == (5, 6)
    assert shortcut.kind == "peak-shortcut"


def test_peak_shortcut_twin_peaks_even_ci():
    for (a, b, c) in [(4, 4, 4), (2, 3, 3), (2, 2, 4)]:
        shortcut = peak_shortcut(parse_ideal(f"x^{a},y^{b},z^{c}"))
        assert shortcut.kind == "twin-peak"
        assert shortcut.degrees == ((a + b + c) // 2,)


def test_peak_shortcut_declines_low_socle():
    # socle degrees (3, 8, 11) sit below every usable peak or plateau
    assert peak_shortcut(parse_ideal("x^4, y^5, z^7, x^2y, x^3z")) is None


def test_peak_shortcut_soundness_randomized():
    rng = random.Random(20)
    checked = 0
    while checked < 60:
        ideal = random_artinian_ideal(rng, 5)
        shortcut = peak_shortcut(ideal)
        if shortcut is None:
            continue
        scan = wlp_full_scan(ideal)
        decisive_ok = all(r.ok_char0 for r in scan.degrees if r.d in shortcut.degrees)
        assert decisive_ok == scan.holds_char0
        checked += 1


# -- bad primes -----------------------------------------------------------------


def test_bad_primes_examples():
    assert bad_primes(parse_ideal(EXA)) == (2,)
    assert bad_primes(parse_ideal("x^3,y^3,z^3")) == (3,)
    assert bad_primes(parse_ideal("x^7,y^2,z^2")) == ()


def test_bad_primes_undefined_on_char0_failure():
    with pytest.raises(ValueError):
        bad_primes(parse_ideal("x^2,y^4,z^4,xy,xz"))


def test_bad_primes_of_complete_intersections_match_closed_form():
    for a in range(1, 10):
        for b in range(a, 10):
            for c in range(b, 10):
                d = (a + b + c) // 2
                expected = tuple(
                    p
                    for p in range(2, d)
                    if all(p % q for q in range(2, p)) and not type_one_verdict(a, b, c, p).holds
                )
                assert bad_primes(parse_ideal(f"x^{a},y^{b},z^{c}")) == expected, (a, b, c)


def test_outside_bad_primes_ranks_stay_maximal():
    ideal = parse_ideal(EXA)
    bad = bad_primes(ideal)
    for p in (3, 5, 7, 11, 13):
        assert p not in bad
        scan = wlp_full_scan(ideal, primes=(p,))
        assert scan.holds_mod(p)


# -- complete intersections ------------------------------------------------------


def test_type_one_cases():
    assert type_one_verdict(7, 2, 2, 13).case == "unique-tiling"
    assert type_one_verdict(7, 2, 2, 2).holds
    even = type_one_verdict(4, 4, 4, 7)
    assert even.case == "even-hexagon" and even.witnesses == (20,)
    assert not type_one_verdict(4, 4, 4, 2).holds
    assert not type_one_verdict(4, 4, 4, 5).holds
    assert type_one_verdict(4, 4, 4, 3).holds
    odd = type_one_verdict(3, 3, 3, 3)
    assert odd.case == "odd-restricted-minors" and odd.witnesses == (3, 3)
    assert not odd.holds
    assert type_one_verdict(3, 3, 3, 2).holds
    with pytest.raises(ValueError):
        type_one_verdict(3, 3, 3, 4)


def test_type_one_odd_needs_one_nonvanishing_minor():
    # minor values {2, 1}: 2 divides one of them but not all, so the rank
    # still comes out maximal in characteristic 2
    verdict = type_one_verdict(2, 3, 2, 2)
    assert sorted(verdict.witnesses) == [1, 2]
    assert verdict.holds
    scan = wlp_full_scan(parse_ideal("x^2,y^3,z^2"), primes=(2,))
    assert scan.holds_mod(2)


def test_type_one_matches_scan_small_grid():
    primes = (2, 3, 5, 7)
    for a in range(1, 5):
        for b in range(1, 5):
            for c in range(1, 5):
                ideal = MonomialIdeal((Monomial(a, 0, 0), Monomial(0, b, 0), Monomial(0, 0, c)))
                scan = wlp_full_scan(ideal, primes)
                assert type_one_verdict(a, b, c, 0).holds == scan.holds_char0
                for p in primes:
                    assert type_one_verdict(a, b, c, p).holds == scan.holds_mod(p)


# -- type-2 classification --------------------------------------------------------


def test_classify_form_one_with_swap():
    form = classify_type2(parse_ideal(EXA))
    assert form.form == 1
    assert (form.a, form.b, form.c, form.alpha, form.beta) == (4, 4, 4, 2, 2)
    assert form.gamma is None
    assert form.permutation.image == (0, 2, 1)  # swap y and z
    assert form.is_level and form.socle_degrees == (7, 7)


def test_classify_form_two_identity():
    form = classify_type2(parse_ideal("x^3,y^7,z^7,xy^2,xz^2"))
    assert form.form == 2
    assert (form.a, form.b, form.c, form.alpha, form.beta, form.gamma) == (3, 7, 7, 1, 2, 2)
    assert form.socle_degrees == (4, 12)
    assert not form.is_level


def test_classify_rejects_other_types():
    with pytest.raises(NotTypeTwoError):
        classify_type2(parse_ideal("x^2,y^3,z^4"))


def test_classification_normal_form_has_same_type():
    from lefschetz_lab import socle_profile

    rng = random.Random(21)
    for _ in range(60):
        ideal = random_artinian_ideal(rng, 5)
        if socle_profile(ideal).type_ != 2:
            continue
        form = classify_type2(ideal)
        assert form.normalized_ideal == ideal.permuted(form.permutation)


def test_condition_ranges():
    assert list(type2_condition_range(classify_type2(parse_ideal("x^3,y^7,z^7,xy^2,xz^2")))) == [5, 6]
    assert list(type2_condition_range(classify_type2(parse_ideal("x^4,y^4,z^4,x^3y,x^3z")))) == [5]
    assert list(type2_condition_range(classify_type2(parse_ideal(EXA)))) == []


def test_char0_verdicts_section_examples():
    assert type2_char0_verdict(parse_ideal("x^4,y^4,z^4,x^3y,x^3z")) == (False, range(5, 6))
    holds, rng_ = type2_char0_verdict(parse_ideal("x^3,y^7,z^7,xy^2,xz^2"))
    assert not holds and list(rng_) == [5, 6]
    holds, rng_ = type2_char0_verdict(parse_ideal("x^2,y^4,z^4,xy,xz"))
    assert not holds and list(rng_) == [3]


def test_level_type_two_always_holds():
    for ideal in enumerate_type2_ideals(4):
        if classify_type2(ideal).is_level:
            holds, _ = type2_char0_verdict(ideal)
            assert holds


def test_poschar_bounds():
    # an ideal with an empty auxiliary window gets the linear bound
    ideal = parse_ideal("x^2,y^2,z^2,xy,xz")
    form = classify_type2(ideal)
    assert form.form == 2
    bound = type2_poschar_bound(ideal)
    assert bound.kind == "cond-free-linear"
    assert bound.bound == (form.alpha + form.b + form.c) // 2 == 2
    # four-generator forms fall back to the Hadamard bound, with a note
    bound = type2_poschar_bound(parse_ideal(EXA))
    assert bound.kind == "hadamard"
    assert bound.note is not None
    assert bound.bound == 3**14  # e = binom(8,2)/2 = 14
    assert all(p < bound.bound for p in bad_primes(parse_ideal(EXA)))


def test_poschar_bound_requires_char0_wlp():
    with pytest.raises(ValueError):
        type2_poschar_bound(parse_ideal("x^2,y^4,z^4,xy,xz"))


# -- conjecture scan ---------------------------------------------------------------


def test_conjecture_scan_small():
    assert conjecture_scan(3, 13) == []


PRIMES_TO_31 = _primes_up_to(31)


def _dropping_primes_agree_with_modular_ranks(ideal) -> int:
    """Compare the primes read off each scanned degree's last invariant
    factor with a rank mod p of the dense Z at every prime up to 31; count
    the degrees of full rank over Q where some prime drops the rank."""
    dropped = 0
    for d in _scan_range(ideal):
        region, required, factors = _degree_factors(ideal, d)
        z = biadjacency(region)
        expected = [p for p in PRIMES_TO_31 if plain_rank_mod(z, p) < required]
        if len(factors) < required:  # short over Q: short at every prime
            assert expected == PRIMES_TO_31, (str(ideal), d)
            continue
        assert _rank_dropping_primes(factors, PRIMES_TO_31) == expected, (str(ideal), d)
        dropped += bool(expected)
    return dropped


def test_rank_certificate_matches_modular_ranks_on_the_type2_grid():
    # every prime up to 31, including those with 2p <= a+b+c that the scan
    # skips, so real rank drops occur
    assert sum(_dropping_primes_agree_with_modular_ranks(ideal) for ideal in enumerate_type2_ideals(4))
    # the worked example has bad prime 2, which drops the rank at degree 5
    _, required, factors = _degree_factors(parse_ideal(EXA), 5)
    assert len(factors) == required
    assert _rank_dropping_primes(factors, (2, 3)) == [2]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), extra=st.integers(0, 3))
def test_rank_certificate_matches_modular_ranks_on_random_regions(seed, extra):
    _dropping_primes_agree_with_modular_ranks(random_artinian_ideal(random.Random(seed), 6, extra))


def _admitted_degrees(max_exponent: int, prime_cap: int) -> list:
    """Every (ideal, d) the conjecture scan reads, in its order: the scanned
    degrees of each ideal with the property in characteristic zero and some
    prime p <= prime_cap with 2p > a+b+c."""
    primes = _primes_up_to(prime_cap)
    return [
        (ideal, d)
        for ideal in enumerate_type2_ideals(max_exponent)
        if type2_char0_verdict(ideal)[0] and any(2 * p > sum(ideal.pure_powers) for p in primes)
        for d in _scan_range(ideal)
    ]


def _shape(ideal, d) -> tuple:
    """The degree-d region shape as the orbit, under the six variable
    permutations, of the generators of degree below d."""
    below = [g for g in ideal.gens if g.degree < d]
    return frozenset(frozenset(sigma.apply(g) for g in below) for sigma in ALL_PERMUTATIONS), d


def test_conjecture_scan_reduces_each_region_shape_once(monkeypatch):
    from lefschetz_lab import wlp

    admitted = _admitted_degrees(3, 13)
    shapes = {_shape(ideal, d) for ideal, d in admitted}
    reduced = []

    def spy(ideal, d):
        reduced.append(_shape(ideal, d))
        return _degree_factors(ideal, d)

    calls = _count_region_reductions(monkeypatch)
    monkeypatch.setattr(wlp, "_degree_factors", spy)
    assert conjecture_scan(3, 13) == []
    assert (len(admitted), len(shapes)) == (288, 103)
    assert len(calls) == len(reduced) == len(set(reduced)) == len(shapes)
    assert set(reduced) == shapes


def test_conjecture_scan_reads_the_factors_of_every_admitted_degree(monkeypatch):
    # whatever the scan shares, the factors it tests must be those of each
    # admitted ideal's own region, degree by degree
    from lefschetz_lab import wlp

    expected = [region_invariant_factors(build_region(ideal, d)) for ideal, d in _admitted_degrees(4, 31)]
    seen = []

    def spy(factors, primes):
        seen.append(factors)
        return _rank_dropping_primes(factors, primes)

    monkeypatch.setattr(wlp, "_rank_dropping_primes", spy)
    assert conjecture_scan(4, 31) == []
    assert seen == expected


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32), extra=st.integers(0, 3))
def test_region_factors_survive_truncation_and_permutation(seed, extra):
    # the two invariances the conjecture scan's sharing rests on, and its
    # key's agreement with them
    ideal = random_artinian_ideal(random.Random(seed), 6, extra)
    keys = {d: _region_key(ideal, d, {}) for d in _scan_range(ideal)}
    assert len(set(keys.values())) == len(keys)
    for d, key in keys.items():
        region = build_region(ideal, d)
        factors = region_invariant_factors(region)
        truncated = MonomialIdeal(g for g in ideal.gens if g.degree < d)
        for other in (truncated, *(ideal.permuted(sigma) for sigma in ALL_PERMUTATIONS)):
            twin = build_region(other, d)
            assert (len(twin.up), len(twin.down)) == (len(region.up), len(region.down)), (str(ideal), str(other), d)
            assert region_invariant_factors(twin) == factors, (str(ideal), str(other), d)
            assert _region_key(other, d, {}) == key, (str(ideal), str(other), d)


def test_conjecture_scan_cross_checks_the_char0_verdict(monkeypatch):
    # a verdict that admits an ideal failing in characteristic zero must be
    # caught by the scan's own elimination, not reported as counterexamples
    from lefschetz_lab import wlp

    failing = parse_ideal("x^2,y^4,z^4,xy,xz")
    assert not type2_char0_verdict(failing)[0]
    monkeypatch.setattr(wlp, "enumerate_type2_ideals", lambda cap: iter([failing]))
    monkeypatch.setattr(wlp, "type2_char0_verdict", lambda ideal: (True, range(0, 0)))
    with pytest.raises(InternalCheckError, match="rank"):
        conjecture_scan(4, 13)


def test_conjecture_scan_threshold_is_strict():
    # the worked example has bad prime 2 <= (4+4+4)/2, so it never qualifies
    ideal = parse_ideal(EXA)
    assert bad_primes(ideal) == (2,)
    assert 2 * 2 <= sum(ideal.pure_powers)


# -- driver --------------------------------------------------------------------


def test_analyze_methods():
    assert analyze_wlp(parse_ideal("x^3,y^4,z^5")).method == "type-one"
    assert analyze_wlp(parse_ideal(EXA)).method == "type-two"
    three = parse_ideal("x^2, y^2, z^2, xyz")  # type 3: falls back to shortcuts
    report = analyze_wlp(three)
    assert report.method in ("twin-peak", "peak-shortcut")
    no_shortcut = parse_ideal("x^4, y^5, z^7, x^2y, x^3z")
    from lefschetz_lab import socle_profile

    assert socle_profile(no_shortcut).type_ == 3
    assert analyze_wlp(no_shortcut).method == "full-scan"


def test_analyze_reports_exact_bad_primes():
    report = analyze_wlp(parse_ideal(EXA), primes=(2,))
    assert report.bad_primes == (2,)
    report = analyze_wlp(parse_ideal("x^2,y^4,z^4,xy,xz"))
    assert report.bad_primes is None  # undefined without the property in char 0


@pytest.mark.parametrize("all_primes", [False, True])
def test_analyze_reduces_each_degree_once(monkeypatch, all_primes):
    calls = _count_region_reductions(monkeypatch)
    report = analyze_wlp(parse_ideal(EXA), (2, 3, 5), all_primes=all_primes)
    assert len(calls) == len(report.degrees)
    assert report.bad_primes == (2,)


def test_ci_reduces_only_its_decisive_degrees(monkeypatch, capsys):
    from lefschetz_lab.cli import main

    calls = _count_region_reductions(monkeypatch)
    assert main(["ci", "6", "7", "8", "--json"]) == 0
    assert [r.d for r in calls] == [10, 11]  # the two degrees of the strict peak
    assert json.loads(capsys.readouterr().out)["bad_primes"] == [2, 3, 7]


def test_all_primes_cross_checks_the_decisive_bad_primes(monkeypatch):
    from lefschetz_lab import wlp

    monkeypatch.setattr(wlp, "bad_primes", lambda ideal: (3,))
    assert analyze_wlp(parse_ideal(EXA)).bad_primes == (3,)  # unchecked without the flag
    with pytest.raises(InternalCheckError):
        analyze_wlp(parse_ideal(EXA), all_primes=True)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), extra=st.integers(0, 3), low_socle=st.booleans())
# strict peaks whose bad primes all come from the second decisive degree:
# x^4,x^3y,y^3,z^3 (3) and xy^5,y^6,x^4,z^4 (2 and 5)
@example(seed=65, extra=3, low_socle=False)
@example(seed=301, extra=1, low_socle=False)
def test_decisive_bad_primes_equal_the_all_degree_set(seed, extra, low_socle):
    draw = random_low_socle_ideal if low_socle else random_artinian_ideal
    ideal = draw(random.Random(seed), 6, extra)
    report = analyze_wlp(ideal, all_primes=True)
    assert report.bad_primes == analyze_wlp(ideal).bad_primes
    if peak_shortcut(ideal) is None:
        # every scanned degree is decisive.  With the property, a socle
        # element of degree k forces h(k) > h(k+1) and a falling h beyond,
        # which always places a shortcut; so one degree must be short.
        assert not report.holds_char0
        with pytest.raises(ValueError, match="characteristic zero"):
            bad_primes(ideal)


def test_low_socle_ideals_often_lack_a_peak_shortcut():
    rng = random.Random(0)
    ideals = [random_low_socle_ideal(rng, 6) for _ in range(100)]
    assert all(ideal.is_artinian and min(socle_profile(ideal).degrees) <= 2 for ideal in ideals)
    assert sum(peak_shortcut(ideal) is None for ideal in ideals) >= 20


def test_scan_monotonicity_of_surjectivity_and_injectivity():
    from lefschetz_lab import socle_profile

    rng = random.Random(22)
    for _ in range(40):
        ideal = random_artinian_ideal(rng, 5)
        scan = wlp_full_scan(ideal)
        sp = socle_profile(ideal)
        surj = [r.rank_q == r.region_stats.n_up for r in scan.degrees]
        for i in range(len(surj) - 1):
            if surj[i]:
                assert surj[i + 1]
        inj = {r.d: r.rank_q == r.region_stats.n_down for r in scan.degrees}
        min_socle = min(sp.degrees)
        for d, is_inj in inj.items():
            if is_inj:
                for j in range(2, d):
                    if d <= min_socle + 1:
                        assert inj[j]


def test_scan_range_exhausts_the_algebra():
    from lefschetz_lab import hilbert_function, socle_profile

    for text in (EXA, "x^3,y^7,z^7,xy^2,xz^2", "x,y,z"):
        ideal = parse_ideal(text)
        sp = socle_profile(ideal)
        h = hilbert_function(ideal, sp.socle_degree + 4)
        assert h[sp.socle_degree + 1] == 0
        assert h[sp.socle_degree + 2] == 0


def test_full_scan_empty_side_degrees():
    # Degree 1 has no downward triangles and the last degree no upward ones;
    # both must report a zero required rank, zero ranks and divisor 1.
    ideal = parse_ideal(EXA)
    big = 2147483659  # a prime above 2^31
    report = wlp_full_scan(ideal, primes=(2, 3, big), divisors=True)
    first, last = report.degrees[0], report.degrees[-1]
    assert (first.d, last.d) == (1, socle_profile(ideal).socle_degree + 2)
    assert (first.region_stats.n_down, last.region_stats.n_up) == (0, 0)
    for r in (first, last):
        assert r.required_rank == 0
        assert r.rank_q == 0
        assert r.rank_mod == {2: 0, 3: 0, big: 0}
        assert r.leading_divisor == 1
