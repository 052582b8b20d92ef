"""Results of the source paper kept beside the tests that check them.

These are closed forms and constructions that the command line never
reaches, each a device of a proof rather than a step of a decision:

- the annihilator of two monomials, which builds the type-2 quotients the
  paper classifies, and the shape of the complete-intersection Hilbert
  function, checked in ``test_ideals`` against the socle and the Hilbert
  function;
- region surgery: monomial subregions, portion splitting along a row,
  puncture merging, and the ideal that cuts out a region, with the helpers
  ``without``, ``divided_by`` and ``is_empty``;
- the maximal and restricted maximal minors of an unbalanced region, as
  balanced subregions;
- the complete-intersection hexagon and nested-hexagon counts, the
  block-binomial matrix behind ``split_binom_det``, and the published
  simplified display of the odd restricted minor, whose mismatch with
  ``type_one_odd_minor`` at (3,3,3,1) the tests pin;
- the tiling a lattice path family comes from, inverting
  ``to_path_family``;
- the JSON parser of a WLP report, the inverse of ``wlp_report_to_dict``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterator

from lefschetz_lab import (
    HypothesisError,
    IntMatrix,
    Monomial,
    MonomialIdeal,
    PathFamily,
    SplitBinomParams,
    Tiling,
    TriangularRegion,
    balance,
    binom,
    lattice_points,
    macmahon,
    monomials_of_degree,
    parse_ideal,
)
from lefschetz_lab.ideals import Y
from lefschetz_lab.regions import BALANCED, UP_HEAVY
from lefschetz_lab.reports import SCHEMA
from lefschetz_lab.wlp import DegreeReport, WlpReport


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


# ---------------------------------------------------------------------------
# Regions
# ---------------------------------------------------------------------------


def is_empty(region: TriangularRegion) -> bool:
    return not region.up and not region.down


def without(region: TriangularRegion, ups=(), downs=()) -> TriangularRegion:
    ups = set(ups)
    downs = set(downs)
    return TriangularRegion(
        region.d,
        (m for m in region.up if m not in ups),
        (n for n in region.down if n not in downs),
    )


def divided_by(region: TriangularRegion, m: Monomial) -> TriangularRegion:
    """Divide every label by m, landing in the degree d - deg(m) triangle.

    Only valid when every label is a multiple of m, e.g. for a monomial
    subregion; this is how an upper portion is compared with the region
    of a smaller ideal.
    """
    return TriangularRegion(region.d - m.degree, (u // m for u in region.up), (n // m for n in region.down))


def monomial_subregion(region: TriangularRegion, m: Monomial) -> TriangularRegion:
    """The part of the region inside the puncture position of m: all labels
    divisible by m, re-wrapped as a region of the same degree-d triangle."""
    if m.degree >= region.d:
        raise ValueError("subregion monomial must have degree below d")
    return TriangularRegion(
        region.d,
        (u for u in region.up if m.divides(u)),
        (n for n in region.down if m.divides(n)),
    )


def split_portions(region: TriangularRegion, alpha: int) -> tuple[TriangularRegion, TriangularRegion]:
    """Cut along the horizontal line alpha rows above the bottom edge.

    The upper portion is the monomial subregion at x^alpha (empty when
    d <= alpha); the lower portion is the complementary trapezoid.
    """
    if alpha < 0:
        raise ValueError("row index must be nonnegative")
    upper = TriangularRegion(
        region.d,
        (u for u in region.up if u.ex >= alpha),
        (n for n in region.down if n.ex >= alpha),
    )
    lower = TriangularRegion(
        region.d,
        (u for u in region.up if u.ex < alpha),
        (n for n in region.down if n.ex < alpha),
    )
    return upper, lower


def merge_touching_punctures(ideal: MonomialIdeal, d: int) -> MonomialIdeal:
    """Repeatedly replace a pair of overlapping-or-touching punctures by the
    puncture of their gcd, whenever the covering region they leave behind is
    met by no other puncture.

    The covering region minus the two punctures is uniquely tileable, so both
    the signed and unsigned enumerations of the degree-d region are unchanged
    (this is verified by tests, not assumed).  The resulting ideal has fewer
    minimal generators.
    """
    current = ideal
    merged = True
    while merged:
        merged = False
        gens = [g for g in current.gens if g.degree <= d - 1]
        gens.sort(key=Monomial.revlex_key)
        for g1, g2 in itertools.combinations(gens, 2):
            if g1.lcm(g2).degree > d:
                continue
            g = Monomial(*map(min, g1, g2))  # their gcd
            others = [h for h in current.gens if h not in (g1, g2)]
            cover_cells = [
                g * rest
                for j in (d - 1 - g.degree, d - 2 - g.degree)
                for rest in monomials_of_degree(j)
            ]
            leftover = [cell for cell in cover_cells if not (g1.divides(cell) or g2.divides(cell))]
            if any(h.divides(cell) for cell in leftover for h in others):
                continue
            current = MonomialIdeal((*current.gens, g))
            merged = True
            break
    return current


# ---------------------------------------------------------------------------
# Maximal minors as regions
# ---------------------------------------------------------------------------


def maximal_minors(region: TriangularRegion) -> Iterator[TriangularRegion]:
    """All balanced subregions obtained by deleting excess-many triangles of
    the heavy orientation; a balanced region yields only itself.

    The stream is deterministic: combinations of ascending reverse-lex labels
    in lexicographic combination order.
    """
    bal = balance(region)
    if bal.kind == BALANCED:
        yield region
    elif bal.kind == UP_HEAVY:
        for combo in itertools.combinations(region.up, bal.excess):
            yield without(region, ups=combo)
    else:
        for combo in itertools.combinations(region.down, bal.excess):
            yield without(region, downs=combo)


def restricted_maximal_minors(region: TriangularRegion) -> Iterator[TriangularRegion]:
    """Maximal minors that only delete lattice start or end triangles.

    In the up-heavy case only A-vertex upward triangles may go; in the
    down-heavy case only the downward triangles carrying an E-vertex.  These
    are exactly the minors visible to the lattice path matrix, and always a
    subset of the full maximal-minor stream.
    """
    bal = balance(region)
    if bal.kind == BALANCED:
        yield region
        return
    pts = lattice_points(region)
    if bal.kind == UP_HEAVY:
        candidates = [label for label, _ in pts.a_points]
        for combo in itertools.combinations(candidates, bal.excess):
            yield without(region, ups=combo)
    else:
        candidates = [label // Y for label, _ in pts.e_points]
        for combo in itertools.combinations(candidates, bal.excess):
            yield without(region, downs=combo)


def region_ideal(region: TriangularRegion) -> MonomialIdeal:
    """Reconstruct a monomial ideal whose degree-d region equals the input.

    Exists for regions cut out by an ideal (in particular every up-deletion
    minor of one): take all absent labels as generators and minimalize.  The
    caller is responsible for only using it on such regions; the round trip
    is asserted in tests.
    """
    d = region.d
    absent = [m for m in monomials_of_degree(d - 1) if m not in region.up_set]
    absent += [n for n in monomials_of_degree(d - 2) if n not in region.down_set]
    return MonomialIdeal(absent)


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# Tilings and reports
# ---------------------------------------------------------------------------


def tiling_from_path_family(region, family: PathFamily) -> Tiling:
    """Invert ``to_path_family``: rebuild the tiling from its walks.

    Every step u -> w of a walk came from the lozenge {w/y, u}; downward
    triangles on no walk were fused straight up with y times themselves.
    """
    pairs: dict[Monomial, Monomial] = {}
    for walk in family.paths:
        for u, w in zip(walk, walk[1:]):
            pairs[w // Y] = u
    for n in region.down:
        if n not in pairs:
            pairs[n] = Y * n
    return Tiling(pairs)


def wlp_report_from_dict(payload: dict[str, Any]) -> WlpReport:
    if payload.get("schema") != SCHEMA:
        raise ValueError(f"unsupported schema {payload.get('schema')!r}")
    ideal = parse_ideal(payload["ideal"])
    degrees = tuple(
        DegreeReport(
            d=entry["d"],
            required_rank=entry["required_rank"],
            rank_q=entry["rank_q"],
            rank_mod={int(p): r for p, r in entry["rank_mod"].items()},
            leading_divisor=entry["leading_divisor"],
        )
        for entry in payload["degrees"]
    )
    bad = payload["bad_primes"]
    return WlpReport(
        ideal=ideal,
        degrees=degrees,
        holds_char0=payload["holds_char0"],
        bad_primes=tuple(bad) if bad is not None else None,
        method=payload["method"],
    )
