from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lefschetz_lab import (
    Tiling,
    biadjacency,
    build_region,
    determinant,
    enumerate_tilings,
    first_tiling,
    lpsgn,
    msgn,
    parse_ideal,
    permanent,
    signed_enumeration,
    tiling_from_path_family,
    to_path_family,
)
from lefschetz_lab import intlinalg
from _oracles import random_artinian_ideal

FIG3 = "x^7,y^7,z^6,x*y^4*z^2,x^3*y*z^2,x^4*y*z"


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_tilings(build_region(parse_ideal(FIG3), 8))) == 13
    assert sum(1 for _ in enumerate_tilings(build_region(parse_ideal("x^2,y^2,z^2"), 3))) == 2
    assert sum(1 for _ in enumerate_tilings(build_region(parse_ideal("x^2,y^4,z^4,xy,xz"), 3))) == 0


def test_unbalanced_stream_is_empty():
    heavy = build_region(parse_ideal("x^4,y^4,z^4,x^2z^2"), 5)
    assert list(enumerate_tilings(heavy)) == []


def test_empty_region_has_one_empty_tiling():
    empty = build_region(parse_ideal("x,y,z"), 4)
    tilings = list(enumerate_tilings(empty))
    assert tilings == [Tiling(())]


def test_stream_is_deterministic():
    region = build_region(parse_ideal(FIG3), 8)
    first = list(enumerate_tilings(region))
    second = list(enumerate_tilings(region))
    assert first == second
    assert len(set(first)) == 13  # duplicate-free


def test_count_equals_permanent_on_random_regions():
    rng = random.Random(11)
    checked = 0
    while checked < 25:
        ideal = random_artinian_ideal(rng, 5)
        d = rng.randint(2, 6)
        region = build_region(ideal, d)
        if len(region.up) != len(region.down):
            continue
        count = sum(1 for _ in enumerate_tilings(region))
        assert count == permanent(biadjacency(region))
        checked += 1


def test_msgn_values_and_sum():
    hexagon = build_region(parse_ideal("x^2,y^2,z^2"), 3)
    signs = [msgn(hexagon, t) for t in enumerate_tilings(hexagon)]
    assert signs[0] == signs[1]  # no floating punctures: constant sign
    assert all(s in (-1, 1) for s in signs)
    assert abs(sum(signs)) == abs(determinant(biadjacency(hexagon))) == 2


def test_msgn_rejects_foreign_tiling():
    hexagon = build_region(parse_ideal("x^2,y^2,z^2"), 3)
    other = build_region(parse_ideal("x^2,y^3,z^3"), 4)
    tiling = next(enumerate_tilings(other))
    with pytest.raises(ValueError):
        msgn(hexagon, tiling)


def test_hexagon_path_families():
    hexagon = build_region(parse_ideal("x^2,y^2,z^2"), 3)
    for tiling in enumerate_tilings(hexagon):
        family = to_path_family(hexagon, tiling)
        assert family.permutation == (0,)
        assert lpsgn(hexagon, tiling) == 1
        assert tiling_from_path_family(hexagon, family) == tiling


def test_path_families_are_disjoint_and_round_trip():
    rng = random.Random(12)
    checked = 0
    while checked < 20:
        ideal = random_artinian_ideal(rng, 5)
        d = rng.randint(2, 6)
        region = build_region(ideal, d)
        if len(region.up) != len(region.down):
            continue
        tilings = list(enumerate_tilings(region))
        if not tilings:
            continue
        for tiling in tilings[:30]:
            family = to_path_family(region, tiling)
            seen = set()
            for walk in family.paths:
                for vertex in walk:
                    assert vertex not in seen
                    seen.add(vertex)
            assert tiling_from_path_family(region, family) == tiling
        checked += 1


def test_signed_enumeration_reports():
    rep = signed_enumeration(build_region(parse_ideal("x^2,y^2,z^2"), 3))
    assert (rep.count, abs(rep.det_z), rep.per_z) == (2, 2, 2)
    rep = signed_enumeration(build_region(parse_ideal(FIG3), 8))
    assert rep.count == rep.per_z == 13
    assert abs(rep.sum_msgn) == abs(rep.det_z) == abs(rep.det_n) == abs(rep.sum_lpsgn)
    empty = signed_enumeration(build_region(parse_ideal("x,y,z"), 3))
    assert (empty.count, empty.det_z, empty.det_n, empty.per_z) == (1, 1, 1, 1)


def test_signed_enumeration_needs_balance():
    with pytest.raises(ValueError):
        signed_enumeration(build_region(parse_ideal("x^4,y^4,z^4,x^2z^2"), 5))


def test_signed_enumeration_count_cap(monkeypatch):
    hexagon = build_region(parse_ideal("x^4,y^4,z^4"), 6)  # 20 tilings
    # its signed matching count keeps at most 6 live column sets at once
    monkeypatch.setattr(intlinalg, "MAX_LIVE_SETS", 5)
    with pytest.raises(ValueError, match="cap"):
        signed_enumeration(hexagon)
    monkeypatch.setattr(intlinalg, "MAX_LIVE_SETS", 6)
    assert signed_enumeration(hexagon).count == 20


def test_hexagon_family_enumeration():
    # side (d-a, d-b, d-c) hexagons: count = |det| = per
    for (a, b, c) in [(2, 2, 2), (2, 3, 3), (3, 3, 4), (4, 2, 2)]:
        d = (a + b + c) // 2
        region = build_region(parse_ideal(f"x^{a},y^{b},z^{c}"), d)
        rep = signed_enumeration(region)
        assert rep.count == abs(rep.det_z) == rep.per_z


@settings(max_examples=400, deadline=None)
@given(seed=st.integers(0, 2**32), extra=st.integers(0, 3))
def test_signed_enumeration_matches_public_signs(seed, extra):
    # every balanced degree of a random ideal: the index-table signs of
    # signed_enumeration against msgn and lpsgn on the streamed tilings
    ideal = random_artinian_ideal(random.Random(seed), 6, extra)
    for d in range(2, 18):
        region = build_region(ideal, d)
        if len(region.up) != len(region.down):
            continue
        stream = list(enumerate_tilings(region))
        rep = signed_enumeration(region)
        assert rep.count == len(stream)
        assert rep.sum_msgn == sum(msgn(region, t) for t in stream)
        assert rep.sum_lpsgn == sum(lpsgn(region, t) for t in stream)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32), extra=st.integers(0, 3))
@example(seed=1202, extra=2)  # x^3,y^4,z^4,x^2yz at d = 5: the is_tileable witness differs
def test_first_tiling_is_the_first_streamed_tiling(seed, extra):
    # count --svg draws first_tiling; its picture matches the first tiling
    # of the stream only if the two agree
    ideal = random_artinian_ideal(random.Random(seed), 7, extra)
    for d in range(2, 13):
        region = build_region(ideal, d)
        assert first_tiling(region) == next(enumerate_tilings(region), None)
