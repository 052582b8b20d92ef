"""Property tests: every graded piece read off ``standard_monomials`` and
``TriangularRegion.adjacency`` matches brute-force membership filtering."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefschetz_lab import (
    Monomial,
    MonomialIdeal,
    NotArtinianError,
    biadjacency,
    build_region,
    hilbert_function,
    monomials_of_degree,
    socle_profile,
    standard_monomials,
)

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
