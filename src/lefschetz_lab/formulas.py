"""Closed-form enumerations of lozenge tilings.  The test suite checks each
against an independent brute-force count.

All quotients run through exact integer division with a final integrality
check; a failed check raises instead of truncating, since it can only mean a
bug or a hypothesis breach.  The binomial convention throughout is
C(n, k) = 0 outside 0 <= k <= n, matching lattice path counts.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .errors import HypothesisError
from .intlinalg import IntMatrix, binom, exact_quotient


@functools.lru_cache(maxsize=None)
def hyperfactorial(n: int) -> int:
    """Product of i! for 0 <= i < n; the empty product for n = 0."""
    if n < 0:
        raise ValueError("hyperfactorial of a negative integer")
    out = 1
    fact = 1
    for i in range(1, n):
        fact *= i
        out *= fact
    return out


def macmahon(a: int, b: int, c: int) -> int:
    """Number of plane partitions in an a x b x c box, equivalently of
    lozenge tilings of the hexagon with those side lengths."""
    if min(a, b, c) < 0:
        raise ValueError("box sides must be nonnegative")
    h = hyperfactorial
    num = h(a) * h(b) * h(c) * h(a + b + c)
    den = h(a + b) * h(a + c) * h(b + c)
    return exact_quotient(num, den)


@dataclass(frozen=True)
class SplitBinomParams:
    """Parameters of the block-binomial matrix: an n x n matrix whose first m
    columns hold C(p, q+j-i) and whose last n-m columns hold C(p, q+r+j-i)."""

    p: int
    q: int
    r: int
    m: int
    n: int

    def __post_init__(self):
        if not (1 <= self.m <= self.n):
            raise HypothesisError("need 1 <= m <= n")
        if min(self.p, self.q, self.r) < 0:
            raise HypothesisError("p, q, r must be nonnegative")


def split_binom_matrix(params: SplitBinomParams) -> IntMatrix:
    """The defining matrix itself, for determinant cross-checks."""
    p, q, r, m, n = params.p, params.q, params.r, params.m, params.n
    return IntMatrix(
        [
            [
                binom(p, q + j - i) if j <= m else binom(p, q + r + j - i)
                for j in range(1, n + 1)
            ]
            for i in range(1, n + 1)
        ],
        cols=n,
    )


def split_binom_det(params: SplitBinomParams) -> int:
    """Closed form for the determinant of the block-binomial matrix.

    Valid whenever every hyperfactorial argument is nonnegative, i.e. for
    p >= q + r; the r = 0 case collapses to a single box count.
    """
    p, q, r, m, n = params.p, params.q, params.r, params.m, params.n
    if p - q - r < 0:
        raise HypothesisError("closed form needs p >= q + r")
    h = hyperfactorial
    num = macmahon(m, q, r) * macmahon(n - m, p - q - r, r)
    num *= h(q + r) * h(p - q) * h(n + r) * h(n + p)
    den = h(n + p - q) * h(n + q + r) * h(p) * h(r)
    return exact_quotient(num, den)


def ci_enumeration(a: int, b: int, c: int) -> int:
    """Signed-tiling enumeration of the degree (a+b+c)/2 region of
    (x^a, y^b, z^c): the hexagon with sides (d-a, d-b, d-c).

    Requires the triangle inequalities and an even exponent sum.  All prime
    divisors of the value stay below d.
    """
    if min(a, b, c) < 1:
        raise HypothesisError("exponents must be positive")
    if (a + b + c) % 2 != 0:
        raise HypothesisError("exponent sum must be even")
    if a > b + c or b > a + c or c > a + b:
        raise HypothesisError("triangle inequality violated")
    d = (a + b + c) // 2
    return macmahon(d - a, d - b, d - c)


def ci_nest_enumeration(a: int, b: int, c: int, alpha: int, beta: int, gamma: int) -> int:
    """Enumeration for a hexagon whose corner puncture was replaced by a
    smaller hexagon: the region of (x^(a+alpha), y^b, z^c, x^a y^beta,
    x^a z^gamma).  Both parameter quadruples must satisfy the hexagon
    hypotheses, the inner one at degree d-a."""
    if min(a, b, c) < 1 or min(alpha, beta, gamma) < 1:
        raise HypothesisError("exponents must be positive")
    if (a + b + c) % 2 != 0 or a > b + c or b > a + c or c > a + b:
        raise HypothesisError("outer hexagon hypotheses violated")
    d = (a + b + c) // 2
    if (alpha + beta + gamma) != 2 * (d - a):
        raise HypothesisError("inner hexagon must live at degree d - a")
    if alpha > beta + gamma or beta > alpha + gamma or gamma > alpha + beta:
        raise HypothesisError("inner triangle inequality violated")
    return macmahon(d - a, d - b, d - c) * macmahon(
        d - a - alpha, d - a - beta, d - a - gamma
    )


def two_mahonian_enumeration(a: int, b: int, c: int, alpha: int, beta: int, d: int) -> int:
    """Enumeration for the four-puncture region of (x^a, y^b, z^c,
    x^alpha y^beta) in degree d = (a+b+c+alpha+beta)/3.

    The degree bounds force all four punctures to have nonnegative side and
    to stay disjoint.  The value is a product of two box counts and one
    hyperfactorial quotient; its prime divisors stay below d.
    """
    if 3 * d != a + b + c + alpha + beta:
        raise HypothesisError("need d = (a+b+c+alpha+beta)/3")
    if not (0 < alpha < a and 0 < beta < b):
        raise HypothesisError("need 0 < alpha < a and 0 < beta < b")
    if max(a, b, c, alpha + beta) > d or d > min(a + beta, alpha + b, a + c, b + c):
        raise HypothesisError("degree outside the admissible window")
    h = hyperfactorial
    s = d - (alpha + beta)
    boxes = macmahon(a + beta - d, d - a, s) * macmahon(alpha + b - d, d - b, s)
    num = h(d - a + s) * h(d - b + s) * h(d - c + s) * h(d)
    den = h(a) * h(b) * h(c) * h(s)
    return exact_quotient(boxes * num, den)


def type_one_odd_minor(a: int, b: int, c: int, i: int) -> int:
    """Enumeration of the i-th restricted minor in the odd-sum complete
    intersection case: the region of (x^a, y^b, z^c, x^i y^(d-1-i)) at
    d = (a+b+c-1)/2.

    This is deliberately the unsimplified specialization of the four-puncture
    product (the published simplified display disagrees with it; see
    ``type_one_odd_minor_simplified``).  Brute-force matching counts side
    with this version.
    """
    if (a + b + c) % 2 != 1:
        raise HypothesisError("exponent sum must be odd")
    d = (a + b + c - 1) // 2
    if d < max(a, b, c):
        raise HypothesisError("need d >= max(a, b, c)")
    if not (d - 1 - b < i < a):
        raise HypothesisError("index outside d-1-b < i < a")
    # The product is evaluated directly rather than through the four-puncture
    # routine: at the boundary indices (i = d-b with b = d, or i = a-1 with
    # a = d) one mixed exponent degenerates to zero, the region collapses to
    # a hexagon, and the product still gives its enumeration.
    h = hyperfactorial
    boxes = macmahon(a - 1 - i, d - a, 1) * macmahon(i + b - d, d - b, 1)
    num = h(d - a + 1) * h(d - b + 1) * h(d - c + 1) * h(d)
    den = h(a) * h(b) * h(c) * h(1)
    return exact_quotient(boxes * num, den)


def type_one_odd_minor_simplified(a: int, b: int, c: int, i: int) -> Fraction:
    """The published simplified display for the same minor, kept verbatim for
    discrepancy reporting: C(d-1,a-1)/C(d-1,i) * C(d-c,a-i-1) * Mac(d-a-1,d-b,d-c).

    Returned as an exact fraction since the leading quotient need not be an
    integer.  At (3,3,3,1) this evaluates to 1 while the unsimplified product
    and a direct matching count both give 3.
    """
    if (a + b + c) % 2 != 1:
        raise HypothesisError("exponent sum must be odd")
    d = (a + b + c - 1) // 2
    if d < max(a, b, c):
        raise HypothesisError("need d >= max(a, b, c)")
    if not (d - 1 - b < i < a):
        raise HypothesisError("index outside d-1-b < i < a")
    if d - a - 1 < 0:
        raise HypothesisError("display undefined: negative box side")
    lead = Fraction(binom(d - 1, a - 1), binom(d - 1, i))
    return lead * binom(d - c, a - i - 1) * macmahon(d - a - 1, d - b, d - c)
