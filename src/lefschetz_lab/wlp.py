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
branch: their ranks are 0 and their leading divisor is 1.

One rule names the primes that lower a degree of full rank over Q:
``_dropping_primes``, the primes of its last invariant factor s_r.  The
rank over GF(p) counts the s_i that p does not divide, and s_i | s_r, so p
divides some s_i exactly when it divides s_r.  ``bad_primes`` is the union
of that set over its shortcut degrees and the one source of bad primes;
the all-degree set of the ``divisors=True`` scan (``--all-primes``), which
factorizes each degree's product of factors, is its runtime check.
``conjecture_scan`` reads the same rule, so the primes it tests come from
the data, never from a sieve up to its cap.

A conjecture scan answers each isomorphism class once, from the normal
form it enumerated: ``_twin_key`` names the class and
``type2_condition_range`` judges it, with no permutation search.  An
admitted class is read at its peak-shortcut degrees, and at every degree
only when a reportable prime drops one.  Each region shape is reduced once,
by the uncached ``_shape_factors``, into a dict local to the call keyed by
the canonical form of the truncation below d (``_truncation_form``) and
then d.  Two invariances make that exact: the degree-d region depends
only on the generators of degree below d (each cuts a puncture of side
d - deg g), and a variable permutation maps the region of I onto that of
its image, reordering the rows and columns of Z without changing its
invariant factors or the required rank.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
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
    SocleProfile,
    hilbert_function,
    socle_profile,
)
from .intlinalg import factorize, is_probable_prime, sparse_invariant_factors
from .formulas import macmahon, type_one_odd_minor
from .regions import check_region_size, degree_complement

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


def _dropping_primes(factors: tuple[int, ...]) -> tuple[int, ...]:
    """The ascending primes where a matrix of full rank over Q with
    invariant factors s_1 | ... | s_r loses rank over GF(p): those dividing
    s_r.  An empty matrix loses nothing."""
    return tuple(sorted(factorize(factors[-1]))) if factors else ()


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
        reports.append(DegreeReport(d, required, len(factors), rmod, divisor))
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
    otherwise).  Computed as the primes that lower the rank at the shortcut
    degrees: those dividing each one's last invariant factor
    (``_dropping_primes``), which are the prime divisors of its leading
    determinantal divisor, the product of the factors.  Without a peak
    shortcut the property fails in characteristic zero: with it, a socle
    element of least degree k forces h(k) > h(k+1) and no rise of h after
    k, which places a plateau or strict peak that ``peak_shortcut`` accepts.
    """
    shortcut = peak_shortcut(ideal)
    if shortcut is None and ideal.is_proper:  # the zero ring has no socle
        raise ValueError(
            "bad primes are undefined: the property already fails in "
            "characteristic zero (no peak shortcut applies)"
        )
    found: set[int] = set()
    for d in shortcut.degrees if shortcut else ():
        n_up, n_down, factors = _degree_factors(ideal, d)
        if len(factors) < min(n_up, n_down):  # every required-size minor vanishes
            raise ValueError(
                "bad primes are undefined: the property already fails in "
                f"characteristic zero (degree {d})"
            )
        found.update(_dropping_primes(factors))
    return tuple(sorted(found))


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
    if not ideal.is_artinian:
        return None
    gens = ideal.gens
    a, b, c = ideal.pure_powers
    # the generators in two or more variables, in any order: a match needs
    # one of them, or one of each pattern below
    mixed = [g for g in gens if g.degree not in g]
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


def _type2_form(
    permutation: Permutation, form: int, a: int, b: int, c: int, alpha: int, beta: int, gamma: int | None
) -> Type2Form:
    """The normal form with these exponents, reached by the permutation, and
    its socle degrees by the normal-form formula: a+beta+c-3 (form 1) or
    a+beta+gamma-3 (form 2), and alpha+b+c-3; it is level when they agree."""
    degrees = (a + beta + (c if form == 1 else gamma) - 3, alpha + b + c - 3)
    return Type2Form(form, a, b, c, alpha, beta, gamma, permutation, degrees, degrees[0] == degrees[1])


def _check_socle(form: Type2Form, sp: SocleProfile) -> Type2Form:
    """The form, once the brute-force socle scan confirms type 2 at its socle degrees."""
    if tuple(sorted(form.socle_degrees)) != sp.degrees:
        raise InternalCheckError(f"normal-form socle degrees {form.socle_degrees} disagree with the scan {sp.degrees}")
    return form


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
        if match is not None:
            return _check_socle(_type2_form(sigma, *match), sp)
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
    """ceil(3^e), e = binom(m+2, 2)/2 with m = floor((a+b+c)/2).  Its digit
    count follows from e, so a bound with more decimal digits than the
    interpreter prints is refused by name before the power is built."""
    m = (a + b + c) // 2
    exponent_doubled = math.comb(m + 2, 2)  # e = binom(m+2, 2) / 2
    e = Fraction(exponent_doubled, 2)
    digits = math.floor(exponent_doubled / 2 * math.log10(3)) + 1
    limit = sys.get_int_max_str_digits()
    if 0 < limit < digits:
        raise ValueError(
            f"the Hadamard bound 3^({e}) has about {digits} decimal digits, "
            f"above sys.get_int_max_str_digits() = {limit}"
        )
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
    computed first, so their size checks refuse an oversized ideal before
    any bound is built, and then checked against the returned bound.
    """
    form = classify_type2(ideal)
    if type2_condition_range(form):
        raise ValueError("no bound: the property already fails in characteristic zero")
    bad = bad_primes(ideal)
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
    for p in bad:
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


#: ``conjecture_scan`` refuses, before it builds anything, exponent caps
#: whose enumeration holds more normal forms than this (cap 11 holds 199,650).
MAX_SCAN_IDEALS = 200_000


def _type2_ideal_count(max_exponent: int) -> int:
    """How many forms ``enumerate_type2_forms`` yields: with n = e(e-1)/2
    choices of (a, alpha), and as many of (b, beta) and of (c, gamma),
    form (i) has e * n^2 and form (ii) n^3."""
    e = max_exponent
    n = e * (e - 1) // 2
    return e * n * n + n**3


def enumerate_type2_forms(max_exponent: int):
    """All type-2 normal forms with every exponent at most the cap, with the
    identity permutation; ``normalized_ideal`` builds each ideal.  Verdicts
    and rank data are invariant under variable permutations, so only normal
    forms are enumerated, but twins remain: both members of each x <-> y
    pair of form (i) and of each y <-> z pair of form (ii), so the 360 forms
    at cap 4 fall in 210 classes (``_twin_key``; 28,224 in 14,616 at cap
    8).  ``_type2_ideal_count`` counts the forms."""
    e, identity = max_exponent, ALL_PERMUTATIONS[0]
    for a, b in itertools.product(range(2, e + 1), repeat=2):
        for alpha, beta, c in itertools.product(range(1, a), range(1, b), range(1, e + 1)):
            yield _type2_form(identity, 1, a, b, c, alpha, beta, None)
    for a, b, c in itertools.product(range(2, e + 1), repeat=3):
        for alpha, beta, gamma in itertools.product(range(1, a), range(1, b), range(1, c)):
            yield _type2_form(identity, 2, a, b, c, alpha, beta, gamma)


def _twin_key(form: Type2Form) -> tuple:
    """The isomorphism class of a normal form: (1, min and max of (a, alpha)
    and (b, beta), c) for form (i), (2, a, alpha, min and max of (b, beta)
    and (c, gamma)) for form (ii).  A variable permutation between normal
    forms maps minimal generators to minimal generators, so it keeps the
    pattern of the mixed ones: it fixes z, which form (i)'s one mixed
    generator lacks, and x, which form (ii)'s two share.  That leaves the
    identity and x <-> y, swapping (a, alpha) with (b, beta), or y <-> z,
    swapping (b, beta) with (c, gamma); the forms differ in generator count.
    """
    if form.form == 1:
        pairs = (form.a, form.alpha), (form.b, form.beta)
        return (1, min(pairs), max(pairs), form.c)
    pairs = (form.b, form.beta), (form.c, form.gamma)
    return (2, form.a, form.alpha, min(pairs), max(pairs))


#: The six variable permutations, each as the getter of a permuted exponent triple.
_AXIS_ORDERS = tuple(operator.itemgetter(*order) for order in itertools.permutations(range(3)))


def _truncation_form(below: tuple[Monomial, ...], forms: dict) -> tuple:
    """The canonical form of a truncation: the least sorted tuple of its
    exponent triples over the six variable permutations, memoized in
    ``forms``."""
    form = forms.get(below)
    if form is None:
        form = forms[below] = min(tuple(sorted(map(permute, below))) for permute in _AXIS_ORDERS)
    return form


def conjecture_scan(max_exponent: int, prime_cap: int) -> list[ConjectureCounterexample]:
    """Search for a type-2 algebra with the property in characteristic zero
    that loses it at some prime p with 2p > a+b+c, up to the given caps.

    The primes tested are those <= ``prime_cap`` dividing each shape's last
    invariant factor (``_dropping_primes``), so the work follows the data,
    not the cap.  The cap is read once more, through q, the largest prime
    <= min(prime_cap, 3N) for N = ``max_exponent``: a+b+c <= 3N, and by
    Bertrand's postulate a prime in (3N/2, 3N] has 2p > a+b+c already.  It
    answers ``[]`` at once when there is no such q >= 3 (2q > 5, the least
    a+b+c enumerated), refuses by ``MAX_SCAN_IDEALS`` before it builds
    anything, and skips a form with 2q <= a+b+c before building its ideal.

    ``_class_failures`` answers each class (``_twin_key``) on its first
    form; the twins reuse its (p, d).  An ideal is built only for that form
    and for each counterexample.  An empty list supports the conjecture
    that no such algebra exists.
    """
    top = min(prime_cap, 3 * max_exponent)
    q = next((n for n in range(top, 2, -1) if is_probable_prime(n)), None)
    if q is None:
        return []
    count = _type2_ideal_count(max_exponent)
    if count > MAX_SCAN_IDEALS:
        raise ValueError(
            f"exponents up to {max_exponent} give {count} type-2 ideals, "
            f"above MAX_SCAN_IDEALS = {MAX_SCAN_IDEALS}"
        )
    counterexamples = []
    forms: dict = {}
    shared: dict = {}  # truncation form -> d -> the dropping primes <= prime_cap
    classes: dict = {}  # twin key -> the (p, d) at which the class fails
    for form in enumerate_type2_forms(max_exponent):
        s = form.a + form.b + form.c
        if 2 * q <= s:
            continue
        key = _twin_key(form)
        failures = classes.get(key)
        if failures is None:
            failures = classes[key] = _class_failures(form, s, prime_cap, forms, shared)
        if failures:
            ideal = form.normalized_ideal
            counterexamples.extend(ConjectureCounterexample(ideal, p, d) for p, d in failures)
    return counterexamples


def _class_failures(form: Type2Form, s: int, prime_cap: int, forms: dict, shared: dict) -> tuple:
    """The (p, d), in scan order, at which a type-2 normal form with a+b+c = s
    loses the property at a prime p <= prime_cap with 2p > s: none unless its
    own window (``type2_condition_range``) admits it, once the socle scan of
    its ideal confirms type 2 at the form's socle degrees.  An admitted class
    has a peak shortcut (see ``bad_primes``) and is read at its shortcut
    degrees first.  The shortcut theorems hold in every characteristic, so a
    prime that drops some degree drops a shortcut degree too; only when one
    does is every degree read, for the full list."""
    ideal = form.normalized_ideal
    _check_socle(form, socle_profile(ideal))
    if type2_condition_range(form):
        return ()
    shortcut = peak_shortcut(ideal)
    if shortcut is None:
        raise InternalCheckError(f"type-2 verdict says ({ideal}) has the property, but it has no peak shortcut")
    failures = _shape_failures(ideal, shortcut.degrees, s, prime_cap, forms, shared)
    if failures:
        failures = _shape_failures(ideal, _scan_range(ideal), s, prime_cap, forms, shared)
    return tuple(failures)


def _shape_failures(
    ideal: MonomialIdeal, degrees: Iterable[int], s: int, prime_cap: int, forms: dict, shared: dict
) -> list:
    """The (p, d) with 2p > s at the given ascending degrees of an admitted
    ideal.  Each shape new to ``shared`` has its rank over Q checked against
    the verdict, and its dropping primes <= prime_cap stored.  The
    generators come in descending degree, so the truncation below d is a
    suffix of them, and its form is looked up once per truncation."""
    failures = []
    gens = ideal.gens
    cut, shapes = len(gens), None  # gens[cut:] have degree below d
    for d in degrees:
        last = cut
        while cut and gens[cut - 1].degree < d:
            cut -= 1
        if shapes is None or cut != last:
            shapes = shared.setdefault(_truncation_form(gens[cut:], forms), {})
        dropping = shapes.get(d)
        if dropping is None:
            n_up, n_down, factors = _shape_factors(ideal, d)
            required = min(n_up, n_down)
            if len(factors) < required:
                raise InternalCheckError(
                    f"type-2 verdict says ({ideal}) has the property, but degree {d} "
                    f"has rank {len(factors)} < {required} over Q"
                )
            dropping = shapes[d] = [p for p in _dropping_primes(factors) if p <= prime_cap]
        failures.extend((p, d) for p in dropping if 2 * p > s)
    return failures


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
