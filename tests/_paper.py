"""Results of the source paper kept beside the tests that check them.

These are closed forms and constructions that the command line never
reaches: the annihilator of two monomials, which builds the type-2
quotients the paper classifies, and the shape of the complete-intersection
Hilbert function.  ``test_ideals`` checks them against the package's socle
and Hilbert function.
"""

from __future__ import annotations

from dataclasses import dataclass

from lefschetz_lab import Monomial, MonomialIdeal


def annihilator_of_two_monomials(m1: Monomial, m2: Monomial) -> MonomialIdeal:
    """The ideal of all polynomials whose contraction kills both monomials.

    Computed as the intersection of the two irreducible ideals
    (x^(a+1), y^(b+1), z^(c+1)) attached to m1 and m2, via pairwise lcms plus
    minimalization.  The quotient by the result has type exactly 2, with m1
    and m2 as its socle monomials.
    """
    if m1.divides(m2) or m2.divides(m1):
        raise ValueError("the two monomials must be incomparable under divisibility")
    corners1 = (Monomial(m1.ex + 1, 0, 0), Monomial(0, m1.ey + 1, 0), Monomial(0, 0, m1.ez + 1))
    corners2 = (Monomial(m2.ex + 1, 0, 0), Monomial(0, m2.ey + 1, 0), Monomial(0, 0, m2.ez + 1))
    return MonomialIdeal(tuple(g.lcm(h) for g in corners1 for h in corners2))


@dataclass(frozen=True)
class CiPeakProfile:
    """Integer degree ranges where the Hilbert function of R/(x^a,y^b,z^c)
    strictly rises, stays flat, and strictly falls.

    Each range collects the degrees j compared through h(j-2) vs h(j-1); the
    three ranges partition 1 .. a+b+c-1.
    """

    increasing: range
    flat: range
    decreasing: range


def ci_peak_profile(a: int, b: int, c: int) -> CiPeakProfile:
    """Shape of the complete-intersection Hilbert function, in closed form.

    h(j-2) < h(j-1) iff j < min{a+b, a+c, b+c, (a+b+c)/2}; equality holds up
    to max{a, b, c, (a+b+c)/2}; beyond that the function strictly falls until
    degree a+b+c-1.  Bounds are handled exactly by doubling, so half-integer
    thresholds never touch floating point.
    """
    if min(a, b, c) < 1:
        raise ValueError("exponents must be positive")
    lo2 = min(2 * (a + b), 2 * (a + c), 2 * (b + c), a + b + c)
    hi2 = max(2 * a, 2 * b, 2 * c, a + b + c)
    inc_end = (lo2 - 1) // 2  # largest j with 2j < lo2
    flat_start = (lo2 + 1) // 2  # smallest j with 2j >= lo2
    flat_end = hi2 // 2
    return CiPeakProfile(
        increasing=range(1, inc_end + 1),
        flat=range(flat_start, flat_end + 1),
        decreasing=range(flat_end + 1, a + b + c),
    )
