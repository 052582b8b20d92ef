"""Property tests: every graded piece read off ``standard_monomials`` and
``TriangularRegion.adjacency`` matches brute-force membership filtering, the
complement S that ``degree_complement`` reads off the staircase has the
lattice path matrix's shape, gives the Smith form of the built region's Z
and equals the per-row path counts of ``_oracles.path_count_complement``,
and the Hilbert function counted off the staircase matches
``standard_monomials`` at depth."""

from __future__ import annotations

import collections

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lefschetz_lab import (
    InternalCheckError,
    Monomial,
    MonomialIdeal,
    HilbertFunction,
    NotArtinianError,
    bad_primes,
    biadjacency,
    build_region,
    factorize,
    hilbert_function,
    macmahon,
    monomials_of_degree,
    parse_ideal,
    peak_shortcut,
    socle_profile,
    standard_monomials,
)
from lefschetz_lab.intlinalg import lattice_points, smith_invariant_factors, sparse_invariant_factors
from lefschetz_lab.regions import degree_complement

from _oracles import path_count_complement, random_artinian_ideal

VARS = (Monomial(1, 0, 0), Monomial(0, 1, 0), Monomial(0, 0, 1))

exponent = st.integers(min_value=0, max_value=6)
generator = st.builds(Monomial, exponent, exponent, exponent).filter(lambda g: g.degree > 0)
# Not necessarily Artinian: a pure power of each variable is optional.
ideals = st.lists(generator, min_size=1, max_size=5).map(MonomialIdeal)


def _outside(ideal, j):
    return [m for m in monomials_of_degree(j) if m not in ideal]


@settings(max_examples=150, deadline=None)
@given(ideal=ideals, d_max=st.integers(min_value=0, max_value=12), d=st.integers(min_value=1, max_value=12))
def test_graded_pieces_match_membership_filtering(ideal, d_max, d):
    for j in range(-1, d_max + 2):
        assert list(standard_monomials(ideal, j)) == _outside(ideal, j)

    h = hilbert_function(ideal, d_max)
    assert [h[j] for j in range(d_max + 1)] == [len(_outside(ideal, j)) for j in range(d_max + 1)]

    if ideal.is_artinian:
        socle = [
            m
            for j in range(sum(ideal.pure_powers) + 1)
            for m in _outside(ideal, j)
            if all(v * m in ideal for v in VARS)
        ]
        assert list(socle_profile(ideal).socle_monomials) == socle
    else:
        with pytest.raises(NotArtinianError):
            socle_profile(ideal)

    region = build_region(ideal, d)
    assert list(region.up) == _outside(ideal, d - 1)
    assert list(region.down) == _outside(ideal, d - 2)
    assert region.adjacency == tuple(
        tuple(region.up.index(v * n) for v in VARS if v * n not in ideal)
        for n in region.down
    )
    z = biadjacency(region)
    assert (z.rows, z.cols) == (len(region.down), len(region.up))
    for row, neighbours in zip(z.entries, region.adjacency):
        assert [j for j, e in enumerate(row) if e] == sorted(neighbours)


artinian_ideals = st.builds(
    lambda a, b, c, extra: MonomialIdeal([Monomial(a, 0, 0), Monomial(0, b, 0), Monomial(0, 0, c), *extra]),
    st.integers(1, 7),
    st.integers(1, 7),
    st.integers(1, 7),
    st.lists(generator, max_size=4),
)


@settings(max_examples=200, deadline=None)
@given(ideal=st.one_of(ideals, artinian_ideals), d=st.integers(min_value=1, max_value=14))
@example(ideal=parse_ideal("x,y,z"), d=1)  # no down triangle
@example(ideal=parse_ideal("x,y,z"), d=2)  # no up triangle
@example(ideal=parse_ideal("x^2,y^2,z^2"), d=6)  # neither
@example(ideal=MonomialIdeal(()), d=2)  # the full triangle
@example(ideal=parse_ideal("x^2*y^2"), d=12)  # slices with gaps
def test_degree_complement_has_the_smith_form_of_the_built_region(ideal, d):
    n_up, units, rows, cols = degree_complement(ideal, d)
    region = build_region(ideal, d)
    assert (n_up, units + len(rows)) == (len(region.up), len(region.down))
    # S is #E x #A, the shape of the lattice path matrix's points
    points = lattice_points(region)
    assert (len(rows), cols) == (len(points.e_points), len(points.a_points))
    assert all(0 <= j < cols for row in rows for j in row)
    factors = (1,) * units + sparse_invariant_factors(rows, cols)
    assert factors == smith_invariant_factors(biadjacency(region))


@st.composite
def artinian_degrees(draw):
    """An ideal of ``random_artinian_ideal(rng, 12, 5)`` and one of the
    degrees the WLP scan reduces."""
    rng = draw(st.randoms(use_true_random=False))
    ideal = random_artinian_ideal(rng, 12, 5)
    return ideal, rng.randint(1, socle_profile(ideal).socle_degree + 2)


def _row_multiset(rows):
    return collections.Counter(tuple(sorted(row.items())) for row in rows)


@settings(max_examples=200, deadline=None)
@given(case=artinian_degrees())
@example(case=(parse_ideal("x^40,y^40,z^40"), 60))  # the hexagon Mac(20, 20, 20): S is 20 x 20 and dense
@example(case=(parse_ideal("x^60,y^3,z^2,x*y*z"), 31))  # xyz splits the runs of the lowest slices
@example(case=(parse_ideal("x^9,y^2,z^10,x^3*z,y*z"), 3))  # S != +-N: yz blocks the path from y^2 to z^2
@example(case=(parse_ideal("x^101,y^2,z^101"), 103))  # S has 101 rows
def test_swept_complement_equals_the_per_row_path_counts(case):
    ideal, d = case
    n_up, units, rows, cols = degree_complement(ideal, d)
    oracle_up, oracle_units, oracle_rows, oracle_cols = path_count_complement(ideal, d)
    assert (n_up, units, cols) == (oracle_up, oracle_units, oracle_cols)
    assert _row_multiset(rows) == _row_multiset(oracle_rows)


def test_degree_complement_refuses_a_walk_that_drops_an_e_down(monkeypatch):
    from lefschetz_lab import regions

    ideal, d = parse_ideal("x^4,y^4,z^4"), 6
    assert len(degree_complement(ideal, d)[2]) == 2
    walk = regions._slices

    def dropping(ideal, j):
        """The slice walk with the first E-down cut off the left end of its run."""
        slices = walk(ideal, j)
        for n, (ez, band) in enumerate(slices):
            s = j - ez
            for k, (lo, hi, w) in enumerate(band):
                if lo <= s - w < hi:
                    slices[n] = (ez, band[:k] + ((s - w + 1, hi, w),) + band[k + 1:])
                    return slices
        raise AssertionError("the degree has no E-down")

    monkeypatch.setattr(regions, "_slices", dropping)
    with pytest.raises(InternalCheckError, match="E-downs"):
        degree_complement(ideal, d)


@st.composite
def deep_ideals(draw):
    """Up to three pure powers (each up to 40, or absent) and up to six
    extra generators, with a range reaching five degrees past the socle of
    an Artinian quotient."""
    powers = draw(st.lists(st.one_of(st.none(), st.integers(1, 40)), min_size=3, max_size=3))
    gens = [Monomial(*(e if v == k else 0 for v in range(3))) for k, e in enumerate(powers) if e]
    small = st.integers(0, 12)
    gens += draw(st.lists(st.builds(Monomial, small, small, small).filter(lambda g: g.degree > 0), max_size=6))
    ideal = MonomialIdeal(gens)
    reach = socle_profile(ideal).socle_degree if ideal.is_artinian else 45
    return ideal, draw(st.integers(-1, reach + 5))


@settings(max_examples=120, deadline=None)
@given(case=deep_ideals())
def test_hilbert_function_counts_the_standard_monomials_at_depth(case):
    ideal, d_max = case
    expected = HilbertFunction(len(standard_monomials(ideal, j)) for j in range(d_max + 1))
    assert hilbert_function(ideal, d_max) == expected
    assert [len(standard_monomials(ideal, j)) for j in range(-1, d_max + 1)] == [0, *(expected[j] for j in range(d_max + 1))]


def test_hilbert_function_builds_no_monomial(monkeypatch):
    from lefschetz_lab import ideals, regions

    ideal = parse_ideal("x^40,y^40,z^40,x^7*y^3*z^11,x^2*y^30")

    def forbidden(*args):
        raise AssertionError("the Hilbert function built a monomial")

    with monkeypatch.context() as patched:
        for name in ("Monomial", "standard_monomials", "monomials_of_degree"):
            patched.setattr(ideals, name, forbidden)
        patched.setattr(MonomialIdeal, "__contains__", forbidden)
        h = hilbert_function(ideal, 200)
    assert h == HilbertFunction(len(standard_monomials(ideal, j)) for j in range(201))

    # bad primes read the decisive regions' rows off the staircase too: past
    # the socle, whose monomials are its answer, they build no monomial
    ci = parse_ideal("x^40,y^40,z^40")
    socle_profile(ci)
    with monkeypatch.context() as patched:
        for name in ("Monomial", "standard_monomials", "monomials_of_degree"):
            patched.setattr(ideals, name, forbidden)
        for name in ("build_region", "TriangularRegion"):
            patched.setattr(regions, name, forbidden)
        patched.setattr(MonomialIdeal, "__contains__", forbidden)
        primes = bad_primes(ci)
    # one decisive degree, the hexagon Mac(20, 20, 20)
    assert peak_shortcut(ci).degrees == (60,)
    assert primes == tuple(sorted(factorize(macmahon(20, 20, 20))))
