"""Closed-form enumerations of lozenge tilings that the program evaluates:
MacMahon's box count and the hyperfactorial, the block-binomial determinant
and the two-Mahonian product behind ``formula``, and the odd restricted
minors that ``wlp.type_one_verdict`` divides into.  The test suite checks
each against an independent brute-force count.  The paper's other closed
forms (the complete-intersection and nested-hexagon counts, the
block-binomial matrix itself, and the published simplified display of the
odd minor) are proof devices and live in ``tests/_paper.py``.

All quotients are exact: a quotient that is not an integer raises instead
of truncating, since it can only mean a bug or a hypothesis breach.  The
block-binomial determinant and the two-Mahonian product are each stated
once, as the hyperfactorial arguments of their numerator and denominator
(``split_binom_terms``, ``two_mahonian_terms``, with ``mac_terms`` for each
box count); the CLI reads the same lists to size a value before it is
computed, and ``hyperfactorial_quotient`` evaluates them from prime
valuations, so a small value with large arguments is cheap.  The binomial
convention throughout is C(n, k) = 0 outside 0 <= k <= n, matching lattice
path counts.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .errors import ExactnessError, HypothesisError
from .intlinalg import binom, exact_quotient

#: ``hyperfactorial_quotient`` refuses a larger argument before it allocates
#: anything: its tables hold one entry per integer up to the largest one.
MAX_HYPERFACTORIAL_ARGUMENT = 10**6


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
    # MacMahon's triple product, telescoped in k and j, over the smallest side
    a, b, c = sorted((a, b, c))
    num = den = 1
    for i in range(1, a + 1):
        num *= binom(i + b + c - 1, b)
        den *= binom(i + b - 1, b)
    return exact_quotient(num, den)


def hyperfactorial_quotient(num: list[int], den: list[int]) -> int:
    """The integer H(num[0]) H(num[1]) ... / (H(den[0]) H(den[1]) ...),
    from its prime valuations; no hyperfactorial is built.

    H(n) = prod_{t<n} t^(n-t), so the quotient is prod_t t^e(t) with
    e(t) = sum_i (num_i - t)^+ - sum_j (den_j - t)^+.  e is summed twice
    from its second differences, +1 at each num_i and -1 at each den_j, and
    by Legendre v_p of the quotient is the sum of e over the multiples of
    each power of p.  A negative valuation raises ``ExactnessError``.
    """
    args = num + den
    if min(args, default=0) < 0:
        raise ValueError("hyperfactorial of a negative integer")
    top = max(args, default=0)
    if top > MAX_HYPERFACTORIAL_ARGUMENT:
        raise ValueError(
            f"hyperfactorial argument {top} is above "
            f"MAX_HYPERFACTORIAL_ARGUMENT = {MAX_HYPERFACTORIAL_ARGUMENT}"
        )
    second = [0] * (top + 1)
    for n in num:
        second[n] += 1
    for n in den:
        second[n] -= 1
    # summed from the top down: the first sum counts the signed arguments
    # above t, the second is e(t); reversed, exps[t] = e(t)
    above = itertools.accumulate(reversed(second), initial=0)
    exps = list(itertools.accumulate(itertools.islice(above, top + 1)))[::-1]
    composite = bytearray(top)
    powers = []
    for p in range(2, top):
        if composite[p]:
            continue
        if p * p < top:
            composite[p * p :: p] = b"\x01" * len(range(p * p, top, p))
        v, q = 0, p
        while q < top:
            v += sum(exps[q::q])
            q *= p
        if v < 0:
            raise ExactnessError(f"the hyperfactorial quotient has valuation {v} at {p}, not an integer")
        if v:
            powers.append(p**v)
    return math.prod(powers)


def mac_terms(a: int, b: int, c: int) -> tuple[list[int], list[int]]:
    """Mac(a, b, c) = H(a) H(b) H(c) H(a+b+c) / (H(a+b) H(a+c) H(b+c)), as
    the arguments of its numerator and denominator."""
    return [a, b, c, a + b + c], [a + b, a + c, b + c]


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


def split_binom_det(params: SplitBinomParams) -> int:
    """Closed form for the determinant of the block-binomial matrix.

    Valid whenever every hyperfactorial argument is nonnegative, i.e. for
    p >= q + r; the r = 0 case collapses to a single box count.
    """
    if params.p - params.q - params.r < 0:
        raise HypothesisError("closed form needs p >= q + r")
    return hyperfactorial_quotient(*split_binom_terms(params))


def split_binom_terms(params: SplitBinomParams) -> tuple[list[int], list[int]]:
    """The hyperfactorial arguments of ``split_binom_det``'s numerator and
    denominator: Mac(m, q, r) Mac(n-m, p-q-r, r) H(q+r) H(p-q) H(n+r) H(n+p)
    over H(n+p-q) H(n+q+r) H(p) H(r)."""
    p, q, r, m, n = params.p, params.q, params.r, params.m, params.n
    (num1, den1), (num2, den2) = mac_terms(m, q, r), mac_terms(n - m, p - q - r, r)
    return num1 + num2 + [q + r, p - q, n + r, n + p], den1 + den2 + [n + p - q, n + q + r, p, r]


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
    return hyperfactorial_quotient(*two_mahonian_terms(a, b, c, alpha, beta, d))


def two_mahonian_terms(a: int, b: int, c: int, alpha: int, beta: int, d: int) -> tuple[list[int], list[int]]:
    """The hyperfactorial arguments of ``two_mahonian_enumeration``'s
    numerator and denominator: with s = d - alpha - beta, Mac(a+beta-d, d-a,
    s) Mac(alpha+b-d, d-b, s) H(d-a+s) H(d-b+s) H(d-c+s) H(d) over H(a) H(b)
    H(c) H(s)."""
    s = d - (alpha + beta)
    (num1, den1), (num2, den2) = mac_terms(a + beta - d, d - a, s), mac_terms(alpha + b - d, d - b, s)
    return num1 + num2 + [d - a + s, d - b + s, d - c + s, d], den1 + den2 + [a, b, c, s]


def type_one_odd_minor(a: int, b: int, c: int, i: int) -> int:
    """Enumeration of the i-th restricted minor in the odd-sum complete
    intersection case: the region of (x^a, y^b, z^c, x^i y^(d-1-i)) at
    d = (a+b+c-1)/2.

    This is deliberately the unsimplified specialization of the four-puncture
    product: the published simplified display disagrees with it, and the
    tests pin the mismatch at (3,3,3,1).  Brute-force matching counts side
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
