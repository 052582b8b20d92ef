"""Weak Lefschetz decision procedures.

The ground truth is the degree-by-degree scan: multiplication by x+y+z on
R/I has maximal rank in every degree iff every bi-adjacency matrix of the
degree-d regions does, and for monomial ideals the general linear form may be
replaced by x+y+z outright.  On top of the scan sit the fast paths: peak and
plateau shortcuts that reduce the check to one or two matrices, the
complete-intersection classification, and the full type-2 classification in
characteristic zero.  Every fast path is cross-validated against the scan,
both at runtime in ``analyze_wlp`` and exhaustively in the test suite.

For an algebra with the property in characteristic zero, the characteristics
where it fails are exactly the primes dividing the leading determinantal
divisors of the decisive matrices; that set is finite and is computed
exactly, never by scanning a prime range.

Each degree is reduced once per run: ``_degree_factors`` caches the
numbers of up and down triangles of the degree-d region, whose minimum is
the rank of its bi-adjacency matrix Z that maximal rank requires, and the
invariant factors of Z: p ones for Z's unimodular y-pivot block, then those
of the small Schur complement S that ``degree_complement`` reads off the
staircase's run ends in one sweep whose cell values pack every row's path
count; no region, label or dense Z is built or eliminated.
``wlp_full_scan`` and ``bad_primes`` read every rank and leading divisor off
those factors.  Degrees where one side of the region is empty need no
branch: their ranks are 0 and their leading divisor is 1.  ``bad_primes`` is
the one source of bad primes; the all-degree set of the ``divisors=True``
scan (``--all-primes``) is its runtime check.  ``conjecture_scan`` reads the
same factors: a prime lowers the rank of Z over GF(p) exactly when it
divides the last one.

Across the ideals of one conjecture scan, each region shape is reduced
once.  Two invariances make that exact: the degree-d region depends only on
the generators of degree below d (each cuts a puncture of side d - deg g),
and a variable permutation maps the region of I onto that of its image,
reordering the rows and columns of Z without changing its invariant
factors or the required rank.  The sharing lives in a dict local to the
call, keyed by ``_region_key``; each shape is reduced by the uncached
``_shape_factors``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import InternalCheckError, NotArtinianError, NotTypeTwoError
from .ideals import (
    ALL_PERMUTATIONS,
    MAX_HILBERT_DEGREE,
    Monomial,
    MonomialIdeal,
    Permutation,
    hilbert_function,
    socle_profile,
)
from .intlinalg import factorize, is_probable_prime, sparse_invariant_factors
from .formulas import macmahon, type_one_odd_minor
from .regions import Balance, check_region_size, degree_complement

METHOD_FULL_SCAN = "full-scan"
METHOD_PEAK = "peak-shortcut"
METHOD_TWIN = "twin-peak"
METHOD_TYPE_ONE = "type-one"
METHOD_TYPE_TWO = "type-two"


@dataclass(frozen=True)
class DegreeReport:
    """Rank data for multiplication from degree d-2 to degree d-1."""

    d: int
    required_rank: int
    rank_q: int
    rank_mod: dict[int, int]
    leading_divisor: int | None
    region_stats: Balance

    @property
    def ok_char0(self) -> bool:
        return self.rank_q == self.required_rank

    def ok_mod(self, p: int) -> bool:
        return self.rank_mod[p] == self.required_rank


@dataclass(frozen=True)
class WlpReport:
    ideal: MonomialIdeal
    degrees: tuple[DegreeReport, ...]
    holds_char0: bool
    bad_primes: tuple[int, ...] | None
    method: str

    @property
    def failing_degrees(self) -> dict[int, tuple[int, ...]]:
        """Degrees with a rank failure, per characteristic (0 and each
        requested prime)."""
        out: dict[int, tuple[int, ...]] = {0: tuple(r.d for r in self.degrees if not r.ok_char0)}
        if self.degrees:
            for p in self.degrees[0].rank_mod:
                out[p] = tuple(r.d for r in self.degrees if not r.ok_mod(p))
        return out

    def holds_mod(self, p: int) -> bool:
        return all(r.ok_mod(p) for r in self.degrees)


def _scan_range(ideal: MonomialIdeal) -> range:
    # beyond socle degree + 2 every graded piece involved is zero
    top = socle_profile(ideal).socle_degree + 2
    if top > MAX_HILBERT_DEGREE:
        raise ValueError(f"degree {top} is above the limit MAX_HILBERT_DEGREE = {MAX_HILBERT_DEGREE}")
    return range(1, top + 1)


@functools.lru_cache(maxsize=4096)
def _degree_factors(ideal: MonomialIdeal, d: int) -> tuple[int, int, tuple[int, ...]]:
    """h(d-1) and h(d-2), the up and down triangles of the degree-d region,
    and the invariant factors Smith(Z) = 1^p (+) Smith(S) of its matrix Z."""
    n_up, units, rows, cols = degree_complement(ideal, d)
    return n_up, units + len(rows), (1,) * units + sparse_invariant_factors(rows, cols)


_shape_factors = _degree_factors.__wrapped__  # a conjecture scan reduces each shape once


def _prime_set(divisors: Iterable[int]) -> tuple[int, ...]:
    """The sorted primes dividing any of the given positive divisors."""
    found: set[int] = set()
    for divisor in divisors:
        found.update(factorize(divisor))
    return tuple(sorted(found))


def wlp_full_scan(
    ideal: MonomialIdeal,
    primes: tuple[int, ...] = (),
    divisors: bool = False,
) -> WlpReport:
    """Rank scan over all degrees 1 .. socle degree + 2.

    Records required vs actual rank over Q and over each requested prime
    field.  With ``divisors=True`` it also records every leading
    determinantal divisor, which pins the exact bad-prime set directly from
    the scan data.  All of it is read off the invariant factors s_1 | ... |
    s_r of one Smith form per degree: the rank over Q is r, the rank over
    GF(p) counts the s_i that p does not divide, and the leading divisor is
    the product of the factors when there are ``required`` of them, else 0.
    p divides no unit factor, so only the rest are tested.  An oversized
    region is refused before any degree is reduced.
    """
    if not ideal.is_artinian:
        raise NotArtinianError(f"ideal ({ideal}) is not Artinian")
    degrees = _scan_range(ideal)
    for d in degrees:
        check_region_size(ideal, d)
    reports = []
    for d in degrees:
        n_up, n_down, factors = _degree_factors(ideal, d)
        required = min(n_up, n_down)
        units = factors.count(1)
        rmod = {p: units + sum(1 for s in factors[units:] if s % p) for p in primes}
        divisor = None
        if divisors:
            divisor = math.prod(factors) if len(factors) == required else 0
        reports.append(DegreeReport(d, required, len(factors), rmod, divisor, Balance.of(n_up, n_down)))
    holds = all(r.ok_char0 for r in reports)
    bad = _prime_set(r.leading_divisor for r in reports) if divisors and holds else None
    return WlpReport(ideal, tuple(reports), holds, bad, METHOD_FULL_SCAN)


# ---------------------------------------------------------------------------
# Peak shortcuts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PeakShortcut:
    """One or two decisive degrees that settle the property on their own."""

    degrees: tuple[int, ...]
    kind: str  # METHOD_TWIN or METHOD_PEAK
    reason: str


def peak_shortcut(ideal: MonomialIdeal) -> PeakShortcut | None:
    """Reduce the whole check to at most two matrices, when the Hilbert
    function and the socle cooperate.

    Plateau case: h(e-1) = h(e) != 0 with no socle element below degree e-1
    makes the property equivalent to one determinant being nonzero (the
    square matrix of the map between those two pieces, i.e. the degree e+1
    region).  Strict peak case: for the largest d with h(d-2) < h(d-1), if
    also h(d-1) > h(d) and no socle generator sits below degree d-2, the
    property is equivalent to the degree d and d+1 matrices both having a
    nonzero maximal minor.  Returns None when neither hypothesis holds.
    """
    if not ideal.is_artinian:
        raise NotArtinianError(f"ideal ({ideal}) is not Artinian")
    sp = socle_profile(ideal)
    if sp.type_ == 0:
        return None
    h = hilbert_function(ideal)
    min_socle = min(sp.degrees)
    for e in range(1, sp.socle_degree + 2):
        if h[e - 1] == h[e] != 0 and min_socle >= e - 1:
            return PeakShortcut(
                degrees=(e + 1,),
                kind=METHOD_TWIN,
                reason=(
                    f"h({e-1}) = h({e}) = {h[e]} with no socle element below "
                    f"degree {e-1}: one determinant decides"
                ),
            )
    d_star = max((d for d in range(1, sp.socle_degree + 3) if h[d - 2] < h[d - 1]), default=None)
    if d_star is None:
        return None
    if h[d_star - 1] > h[d_star] and min_socle >= d_star - 2:
        return PeakShortcut(
            degrees=(d_star, d_star + 1),
            kind=METHOD_PEAK,
            reason=(
                f"strict peak h({d_star-2}) < h({d_star-1}) > h({d_star}) with no "
                f"socle generator below degree {d_star-2}: two maximal minors decide"
            ),
        )
    return None


@functools.lru_cache(maxsize=4096)
def bad_primes(ideal: MonomialIdeal) -> tuple[int, ...]:
    """The exact, finite set of characteristics where the property is lost.

    Only meaningful when the property holds in characteristic zero (raises
    otherwise).  Computed as the prime divisors of the leading determinantal
    divisors at the shortcut degrees.  Without a peak shortcut the property
    fails in characteristic zero: with it, a socle element of least degree
    k forces h(k) > h(k+1) and no rise of h after k, which places a plateau
    or strict peak that ``peak_shortcut`` accepts.
    """
    shortcut = peak_shortcut(ideal)
    if shortcut is None and ideal.is_proper:  # the zero ring has no socle
        raise ValueError(
            "bad primes are undefined: the property already fails in "
            "characteristic zero (no peak shortcut applies)"
        )
    divisors = []
    for d in shortcut.degrees if shortcut else ():
        n_up, n_down, factors = _degree_factors(ideal, d)
        if len(factors) < min(n_up, n_down):  # every required-size minor vanishes
            raise ValueError(
                "bad primes are undefined: the property already fails in "
                f"characteristic zero (degree {d})"
            )
        divisors.append(math.prod(factors))
    return _prime_set(divisors)


# ---------------------------------------------------------------------------
# Complete intersections (type one)
# ---------------------------------------------------------------------------

CASE_UNIQUE_TILING = "unique-tiling"
CASE_EVEN_HEXAGON = "even-hexagon"
CASE_ODD_MINORS = "odd-restricted-minors"


@dataclass(frozen=True)
class TypeOneVerdict:
    holds: bool
    case: str
    witnesses: tuple[int, ...]  # the enumeration values the verdict divides into


def type_one_verdict(a: int, b: int, c: int, p: int) -> TypeOneVerdict:
    """Weak Lefschetz for R/(x^a, y^b, z^c) in characteristic p (0 or prime).

    Three regimes: if one exponent dominates (d = floor(sum/2) < max), the
    decisive region has a unique tiling and the property holds in every
    characteristic.  For an even exponent sum the property holds iff p does
    not divide the hexagon count Mac(d-a, d-b, d-c).  For an odd sum it holds
    iff p fails to divide at least one of the restricted-minor enumerations
    (the four-puncture products over d-1-b < i < a): maximal rank of the
    decisive matrices needs one nonvanishing minor, not all of them.  In
    every regime the property holds for p = 0 and for p >= d.
    """
    if min(a, b, c) < 1:
        raise ValueError("exponents must be positive")
    if p != 0 and not is_probable_prime(p):
        raise ValueError(f"characteristic must be 0 or prime, got {p}")
    d = (a + b + c) // 2
    if d < max(a, b, c):
        return TypeOneVerdict(True, CASE_UNIQUE_TILING, (1,))
    if (a + b + c) % 2 == 0:
        value = macmahon(d - a, d - b, d - c)
        holds = p == 0 or value % p != 0
        verdict = TypeOneVerdict(holds, CASE_EVEN_HEXAGON, (value,))
    else:
        values = tuple(type_one_odd_minor(a, b, c, i) for i in range(d - b, a))
        holds = p == 0 or any(v % p != 0 for v in values)
        verdict = TypeOneVerdict(holds, CASE_ODD_MINORS, values)
    if (p == 0 or p >= d) and not verdict.holds:
        raise InternalCheckError(f"blanket guarantee violated for ({a},{b},{c}) at p={p}")
    return verdict


# ---------------------------------------------------------------------------
# Type-2 classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Type2Form:
    """A type-2 ideal after normalization by a variable permutation.

    Form 1 is (x^a, y^b, z^c, x^alpha y^beta); form 2 additionally carries
    x^alpha z^gamma.  ``permutation`` maps the input ideal onto the
    normalized generators.
    """

    form: int
    a: int
    b: int
    c: int
    alpha: int
    beta: int
    gamma: int | None
    permutation: Permutation
    socle_degrees: tuple[int, int]
    is_level: bool

    @property
    def normalized_ideal(self) -> MonomialIdeal:
        gens = [
            Monomial(self.a, 0, 0),
            Monomial(0, self.b, 0),
            Monomial(0, 0, self.c),
            Monomial(self.alpha, self.beta, 0),
        ]
        if self.form == 2:
            gens.append(Monomial(self.alpha, 0, self.gamma))
        return MonomialIdeal(gens)


def _match_normal_form(ideal: MonomialIdeal) -> tuple[int, int, int, int, int, int, int | None] | None:
    gens = ideal.gens
    pure = {v: ideal.pure_power_exponent(v) for v in range(3)}
    if any(e is None for e in pure.values()):
        return None
    a, b, c = pure[0], pure[1], pure[2]
    mixed = sorted((g for g in gens if g.degree not in (g.ex, g.ey, g.ez)), key=Monomial.revlex_key)
    if len(gens) == 4 and len(mixed) == 1:
        g = mixed[0]
        if g.ez == 0 and 0 < g.ex < a and 0 < g.ey < b:
            return (1, a, b, c, g.ex, g.ey, None)
    if len(gens) == 5 and len(mixed) == 2:
        xy = next((g for g in mixed if g.ez == 0 and g.ex and g.ey), None)
        xz = next((g for g in mixed if g.ey == 0 and g.ex and g.ez), None)
        if xy is not None and xz is not None and xy.ex == xz.ex:
            alpha, beta, gamma = xy.ex, xy.ey, xz.ez
            if 0 < alpha < a and 0 < beta < b and 0 < gamma < c:
                return (2, a, b, c, alpha, beta, gamma)
    return None


def classify_type2(ideal: MonomialIdeal) -> Type2Form:
    """Find the variable permutation putting a type-2 ideal into one of the
    two normal forms; ties break to the lexicographically least permutation.

    The socle degrees read off the normal form are checked against the
    brute-force socle scan before returning.
    """
    sp = socle_profile(ideal)
    if sp.type_ != 2:
        raise NotTypeTwoError(f"R/({ideal}) has type {sp.type_}, not 2")
    for sigma in ALL_PERMUTATIONS:
        match = _match_normal_form(ideal.permuted(sigma))
        if match is None:
            continue
        form, a, b, c, alpha, beta, gamma = match
        if form == 1:
            degrees = (a + beta + c - 3, alpha + b + c - 3)
        else:
            degrees = (a + beta + gamma - 3, alpha + b + c - 3)
        if tuple(sorted(degrees)) != sp.degrees:
            raise InternalCheckError(
                f"normal-form socle degrees {degrees} disagree with the scan {sp.degrees}"
            )
        return Type2Form(
            form=form,
            a=a,
            b=b,
            c=c,
            alpha=alpha,
            beta=beta,
            gamma=gamma,
            permutation=sigma,
            socle_degrees=degrees,
            is_level=sp.is_level,
        )
    raise InternalCheckError(f"type-2 ideal ({ideal}) matched no normal form")


def _strict_integer_window(lo2: int, hi2: int) -> range:
    """Integers d with lo2 < 2d < hi2, both bounds exact (possibly odd)."""
    first = lo2 // 2 + 1
    last = (hi2 - 1) // 2
    return range(first, last + 1) if first <= last else range(0, 0)


def type2_condition_range(form: Type2Form) -> range:
    """The degrees where a five-generator type-2 algebra drops rank.

    Empty for form 1 (those always have the property in characteristic
    zero).  For form 2 these are the integers strictly between
    max{a, alpha+beta, alpha+gamma, (a+alpha+beta+gamma)/2} and
    min{a+beta+gamma, (alpha+b+c)/2, b+c, alpha+c, alpha+b}; the
    half-integer bounds are handled exactly by doubling.
    """
    if form.form == 1:
        return range(0, 0)
    a, b, c = form.a, form.b, form.c
    alpha, beta, gamma = form.alpha, form.beta, form.gamma
    assert gamma is not None
    lo2 = max(2 * a, 2 * (alpha + beta), 2 * (alpha + gamma), a + alpha + beta + gamma)
    hi2 = min(2 * (a + beta + gamma), alpha + b + c, 2 * (b + c), 2 * (alpha + c), 2 * (alpha + b))
    return _strict_integer_window(lo2, hi2)


def type2_char0_verdict(ideal: MonomialIdeal) -> tuple[bool, range]:
    """Characteristic-zero verdict for a type-2 algebra, with the exact set
    of failing degrees (empty iff the property holds)."""
    form = classify_type2(ideal)
    failing = type2_condition_range(form)
    return (len(failing) == 0, failing)


@dataclass(frozen=True)
class PosCharBound:
    """A characteristic bound above which the property provably survives."""

    kind: str  # "cond-free-linear" or "hadamard"
    bound: int
    e: Fraction | None = None
    note: str | None = None


def _hadamard_bound(a: int, b: int, c: int) -> PosCharBound:
    m = (a + b + c) // 2
    exponent_doubled = math.comb(m + 2, 2)  # e = binom(m+2, 2) / 2
    e = Fraction(exponent_doubled, 2)
    power = 3**exponent_doubled
    bound = math.isqrt(power)
    if bound * bound < power:
        bound += 1
    return PosCharBound(kind="hadamard", bound=bound, e=e)


def type2_poschar_bound(ideal: MonomialIdeal) -> PosCharBound:
    """Lower bound on good characteristics for a type-2 algebra with the
    property in characteristic zero.

    If no integer d falls in the auxiliary window max{alpha, b, c,
    (alpha+b+c)/2} < d < min{a+beta, a+gamma, alpha+beta+c,
    (a+alpha+beta+c)/2} (form 2 only), the linear bound floor((alpha+b+c)/2)
    applies.  Otherwise, and for form 1, the fallback is the Hadamard bound
    3^e with e = binom(floor((a+b+c)/2)+2, 2)/2.  The exact bad primes are
    computed and checked against the returned bound.
    """
    form = classify_type2(ideal)
    holds, _ = type2_char0_verdict(ideal)
    if not holds:
        raise ValueError("no bound: the property already fails in characteristic zero")
    if form.form == 2:
        a, b, c = form.a, form.b, form.c
        alpha, beta, gamma = form.alpha, form.beta, form.gamma
        assert gamma is not None
        lo2 = max(2 * alpha, 2 * b, 2 * c, alpha + b + c)
        hi2 = min(2 * (a + beta), 2 * (a + gamma), 2 * (alpha + beta + c), a + alpha + beta + c)
        if len(_strict_integer_window(lo2, hi2)) == 0:
            result = PosCharBound(kind="cond-free-linear", bound=(alpha + b + c) // 2)
        else:
            result = _hadamard_bound(form.a, form.b, form.c)
    else:
        hadamard = _hadamard_bound(form.a, form.b, form.c)
        result = PosCharBound(
            kind=hadamard.kind,
            bound=hadamard.bound,
            e=hadamard.e,
            note="four-generator form: the linear bound is not claimed",
        )
    for p in bad_primes(ideal):
        if p >= result.bound:
            raise InternalCheckError(f"bad prime {p} reaches the claimed bound {result.bound}")
    return result


# ---------------------------------------------------------------------------
# Conjecture scanner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConjectureCounterexample:
    ideal: MonomialIdeal
    prime: int
    degree: int


def _primes_up_to(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1) if n >= 0 else bytearray()
    out = []
    for p in range(2, n + 1):
        if sieve[p]:
            out.append(p)
            for q in range(p * p, n + 1, p):
                sieve[q] = 0
    return out


def enumerate_type2_ideals(max_exponent: int):
    """All normalized type-2 ideals with every exponent at most the cap.

    Verdicts and rank data are invariant under variable permutations, so one
    normalized representative per ideal suffices for scanning.
    """
    e = max_exponent
    for a in range(2, e + 1):
        for b in range(2, e + 1):
            for alpha in range(1, a):
                for beta in range(1, b):
                    for c in range(1, e + 1):
                        yield MonomialIdeal(
                            (
                                Monomial(a, 0, 0),
                                Monomial(0, b, 0),
                                Monomial(0, 0, c),
                                Monomial(alpha, beta, 0),
                            )
                        )
    for a in range(2, e + 1):
        for b in range(2, e + 1):
            for c in range(2, e + 1):
                for alpha in range(1, a):
                    for beta in range(1, b):
                        for gamma in range(1, c):
                            yield MonomialIdeal(
                                (
                                    Monomial(a, 0, 0),
                                    Monomial(0, b, 0),
                                    Monomial(0, 0, c),
                                    Monomial(alpha, beta, 0),
                                    Monomial(alpha, 0, gamma),
                                )
                            )


def _rank_dropping_primes(factors: tuple[int, ...], primes: Iterable[int]) -> list[int]:
    """The primes among ``primes``, in their order, where a matrix of full
    rank over Q with invariant factors s_1 | ... | s_r loses rank over GF(p).

    The rank over GF(p) counts the s_i that p does not divide, and p divides
    some s_i exactly when it divides s_r.  An empty matrix loses nothing.
    """
    return [p for p in primes if factors and factors[-1] % p == 0]


_AXIS_ORDERS = tuple(itertools.permutations(range(3)))


def _region_key(ideal: MonomialIdeal, d: int, forms: dict) -> tuple:
    """The key under which ``conjecture_scan`` shares the degree-d region:
    the generators of degree below d in canonical form, the least sorted
    tuple of exponent triples over the six variable permutations, and d.
    ``forms`` memoizes the canonical form per truncation."""
    below = tuple(g for g in ideal.gens if g.degree < d)
    form = forms.get(below)
    if form is None:
        form = forms[below] = min(tuple(sorted((g[i], g[j], g[k]) for g in below)) for i, j, k in _AXIS_ORDERS)
    return form, d


def conjecture_scan(max_exponent: int, prime_cap: int) -> list[ConjectureCounterexample]:
    """Search for a type-2 algebra with the property in characteristic zero
    that loses it at some prime p with 2p > a+b+c, up to the given caps.

    Each scanned degree is read off its invariant factors through
    ``_rank_dropping_primes``.  Ideals that agree below a degree up to a
    variable permutation share that degree's reduction: each
    ``_region_key`` is reduced once per call.  The factors also re-check the
    characteristic-zero verdict that admitted each ideal: a degree of short
    rank over Q raises ``InternalCheckError``.  An empty list supports the
    conjecture that no such algebra exists.
    """
    counterexamples = []
    primes = _primes_up_to(prime_cap)
    forms: dict = {}
    shared: dict = {}
    for ideal in enumerate_type2_ideals(max_exponent):
        holds, _ = type2_char0_verdict(ideal)
        if not holds:
            continue
        s = sum(ideal.pure_powers)
        candidates = [p for p in primes if 2 * p > s]
        if not candidates:
            continue
        for d in _scan_range(ideal):
            key = _region_key(ideal, d, forms)
            if key not in shared:
                shared[key] = _shape_factors(ideal, d)
            n_up, n_down, factors = shared[key]
            required = min(n_up, n_down)
            if len(factors) < required:
                raise InternalCheckError(
                    f"type-2 verdict says ({ideal}) has the property, but degree {d} "
                    f"has rank {len(factors)} < {required} over Q"
                )
            counterexamples.extend(
                ConjectureCounterexample(ideal, p, d) for p in _rank_dropping_primes(factors, candidates)
            )
    return counterexamples


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def _is_complete_intersection(ideal: MonomialIdeal) -> bool:
    return len(ideal.gens) == 3 and ideal.is_artinian


def analyze_wlp(
    ideal: MonomialIdeal,
    primes: tuple[int, ...] = (),
    all_primes: bool = False,
) -> WlpReport:
    """Full report: per-degree ranks, verdicts, exact bad primes, and the
    strongest theorem-level explanation that applies.

    The fast path (complete intersection, type-2 classification, or a peak
    shortcut) is recomputed alongside the scan and any disagreement raises:
    a mismatch would mean a bug, not a result.  With ``all_primes`` the
    scan's all-degree bad primes must equal those of ``bad_primes``.
    """
    scan = wlp_full_scan(ideal, tuple(primes), divisors=all_primes)
    method = METHOD_FULL_SCAN
    if _is_complete_intersection(ideal):
        method = METHOD_TYPE_ONE
        a, b, c = ideal.pure_powers
        for p in (0, *primes):
            fast = type_one_verdict(a, b, c, p).holds
            slow = scan.holds_char0 if p == 0 else scan.holds_mod(p)
            if fast != slow:
                raise InternalCheckError(f"complete-intersection verdict at p={p} disagrees with the scan")
    elif socle_profile(ideal).type_ == 2:
        method = METHOD_TYPE_TWO
        holds, failing = type2_char0_verdict(ideal)
        if holds != scan.holds_char0 or tuple(failing) != scan.failing_degrees[0]:
            raise InternalCheckError("type-2 verdict disagrees with the scan")
    else:
        shortcut = peak_shortcut(ideal)
        if shortcut is not None:
            method = shortcut.kind
            decisive_ok = all(r.ok_char0 for r in scan.degrees if r.d in shortcut.degrees)
            if decisive_ok != scan.holds_char0:
                raise InternalCheckError("peak shortcut disagrees with the scan")
    bad = bad_primes(ideal) if scan.holds_char0 else None
    if scan.bad_primes is not None and scan.bad_primes != bad:
        raise InternalCheckError(f"bad primes {bad} disagree with the all-degree scan {scan.bad_primes}")
    return WlpReport(ideal, scan.degrees, scan.holds_char0, bad, method)
