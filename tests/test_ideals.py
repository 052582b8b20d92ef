from __future__ import annotations

import pytest

from lefschetz_lab import (
    Monomial,
    MonomialIdeal,
    NotArtinianError,
    ParseError,
    hilbert_function,
    monomials_of_degree,
    parse_ideal,
    socle_profile,
)

from _paper import annihilator_of_two_monomials, ci_peak_profile


def m(a, b, c):
    return Monomial(a, b, c)


# -- parsing ----------------------------------------------------------------


def test_parse_basic():
    ideal = parse_ideal("x^4, y^4, z^4, x^2*z^2")
    assert set(ideal.gens) == {m(4, 0, 0), m(0, 4, 0), m(0, 0, 4), m(2, 0, 2)}


def test_parse_minimalizes():
    ideal = parse_ideal("x^2, x^3, y, z")
    assert set(ideal.gens) == {m(2, 0, 0), m(0, 1, 0), m(0, 0, 1)}


def test_parse_star_optional_and_whitespace():
    assert parse_ideal("x^2z^2,y") == parse_ideal("  x^2 * z^2 ,  y ")
    assert parse_ideal("xxy") == parse_ideal("x^2*y")


def test_parse_repeated_variable_accumulates():
    (gen,) = parse_ideal("x*x^2*y").gens
    assert gen == m(3, 1, 0)


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as exc:
        parse_ideal("x^-1")
    assert exc.value.offset == 2
    with pytest.raises(ParseError):
        parse_ideal("")
    with pytest.raises(ParseError):
        parse_ideal("x,,y")
    with pytest.raises(ParseError):
        parse_ideal("x,")
    with pytest.raises(ParseError):
        parse_ideal("x^999999999999")
    with pytest.raises(ParseError):
        parse_ideal("w^2")


def test_canonical_printing_round_trips():
    for text in ("x^4, y^4, z^4, x^2*z^2", "x, y, z", "x^7,y^7,z^6,x*y^4*z^2,x^3*y*z^2,x^4*y*z"):
        ideal = parse_ideal(text)
        assert parse_ideal(str(ideal)) == ideal


# -- order ------------------------------------------------------------------


def test_revlex_degree_three_chain():
    chain = sorted(monomials_of_degree(3), key=Monomial.revlex_key, reverse=True)
    expected = ["x^3", "x^2y", "xy^2", "y^3", "x^2z", "xyz", "y^2z", "xz^2", "yz^2", "z^3"]
    assert [str(c) for c in chain] == expected


def test_revlex_is_a_strict_total_order():
    ms = [mm for j in range(5) for mm in monomials_of_degree(j)]
    for a in ms:
        for b in ms:
            assert (a < b) + (b < a) + (a == b) == 1
            for c in ms:
                if a < b and b < c:
                    assert a < c


def test_degree_beats_position():
    assert m(0, 0, 3) > m(2, 0, 0)  # z^3 > x^2 since degree is graded first


# -- Hilbert functions -------------------------------------------------------


def test_hilbert_paper_examples():
    assert tuple(hilbert_function(parse_ideal("x^4,y^4,z^4,x^2z^2"))) == (1, 3, 6, 10, 11, 9, 6, 2)
    assert tuple(hilbert_function(parse_ideal("x,y,z"))) == (1,)
    # non-unimodal, strictly unimodal, and non-strictly unimodal shapes
    assert tuple(hilbert_function(parse_ideal("x^3,y^7,z^7,xy^2,xz^2"))) == (
        1, 3, 6, 7, 6, 6, 7, 6, 5, 4, 3, 2, 1,
    )
    assert tuple(hilbert_function(parse_ideal("x^4,y^4,z^4,x^3y,x^3z"))) == (
        1, 3, 6, 10, 10, 9, 6, 3, 1,
    )
    assert tuple(hilbert_function(parse_ideal("x^2,y^4,z^4,xy,xz"))) == (1, 3, 3, 4, 3, 2, 1)


def test_hilbert_indexing_and_trim():
    h = hilbert_function(parse_ideal("x^2,y^2,z^2"), 20)
    assert tuple(h) == (1, 3, 3, 1)
    assert h[-1] == 0 and h[99] == 0
    assert h[2] == 3


def test_hilbert_needs_artinian_for_default_range():
    with pytest.raises(NotArtinianError):
        hilbert_function(MonomialIdeal((m(1, 1, 0),)))
    assert tuple(hilbert_function(MonomialIdeal((m(1, 1, 0),)), 2)) == (1, 3, 5)


# -- socles -------------------------------------------------------------------


def test_socle_complete_intersection():
    sp = socle_profile(parse_ideal("x^3, y^4, z^5"))
    assert sp.socle_monomials == (m(2, 3, 4),)
    assert sp.type_ == 1 and sp.is_level and sp.socle_degree == 9


def test_socle_level_type_two_example():
    sp = socle_profile(parse_ideal("x^4,y^4,z^4,x^2z^2"))
    assert sp.type_ == 2
    assert sp.degrees == (7, 7)
    assert sp.is_level
    assert set(sp.socle_monomials) == {m(1, 3, 3), m(3, 3, 1)}


def test_socle_nonlevel_example():
    sp = socle_profile(parse_ideal("x^3,y^7,z^7,xy^2,xz^2"))
    assert sp.degrees == (4, 12)
    assert not sp.is_level


def test_socle_of_a_deep_thin_ideal_is_exact():
    # a socle degree of 401 must not cost a scan through every lower degree
    sp = socle_profile(parse_ideal("x^400,y^2,z^2"))
    assert sp.socle_monomials == (m(399, 1, 1),)
    assert sp.type_ == 1 and sp.socle_degree == 401 and sp.is_level


def test_socle_requires_artinian():
    with pytest.raises(NotArtinianError):
        socle_profile(MonomialIdeal((m(2, 0, 0), m(0, 2, 0))))


# -- two-monomial annihilators -------------------------------------------------


@pytest.mark.parametrize(
    "m1, m2, expected",
    [
        (m(3, 1, 2), m(1, 4, 2), "x^4, y^5, x^2y^2, z^3"),
        (m(2, 0, 0), m(0, 2, 0), "x^3, y^3, xy, z"),
        (m(2, 0, 0), m(0, 1, 1), "x^3, y^2, xy, xz, z^2"),
    ],
)
def test_annihilator_examples(m1, m2, expected):
    assert annihilator_of_two_monomials(m1, m2) == parse_ideal(expected)


def test_annihilator_round_trip_socle():
    pairs = [
        (m(3, 1, 2), m(1, 4, 2)),
        (m(2, 0, 0), m(0, 1, 1)),
        (m(4, 2, 0), m(1, 3, 3)),
        (m(5, 0, 1), m(0, 2, 2)),
    ]
    for m1, m2 in pairs:
        sp = socle_profile(annihilator_of_two_monomials(m1, m2))
        assert sp.type_ == 2
        assert set(sp.socle_monomials) == {m1, m2}


def test_annihilator_rejects_comparable_monomials():
    with pytest.raises(ValueError):
        annihilator_of_two_monomials(m(1, 0, 0), m(2, 1, 0))


# -- complete-intersection peak profile ----------------------------------------


def test_ci_peak_profile_examples():
    prof = ci_peak_profile(3, 3, 3)
    assert list(prof.flat) == []
    assert list(prof.increasing) == [1, 2, 3, 4]
    assert list(prof.decreasing) == [5, 6, 7, 8]

    prof = ci_peak_profile(4, 4, 4)
    assert list(prof.flat) == [6]
    h = hilbert_function(parse_ideal("x^4,y^4,z^4"))
    assert h[4] == h[5] == 12

    prof = ci_peak_profile(1, 1, 1)
    assert list(prof.decreasing) == [2]
    assert list(prof.increasing) == [1]


def test_ci_peak_profile_matches_hilbert_everywhere():
    for a in range(1, 9):
        for b in range(1, 9):
            for c in range(1, 9):
                prof = ci_peak_profile(a, b, c)
                ideal = MonomialIdeal((m(a, 0, 0), m(0, b, 0), m(0, 0, c)))
                h = hilbert_function(ideal, a + b + c)
                all_js = list(prof.increasing) + list(prof.flat) + list(prof.decreasing)
                assert sorted(all_js) == list(range(1, a + b + c))
                for j in prof.increasing:
                    assert h[j - 2] < h[j - 1]
                for j in prof.flat:
                    assert h[j - 2] == h[j - 1]
                for j in prof.decreasing:
                    assert h[j - 2] > h[j - 1]
