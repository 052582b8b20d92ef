"""Monomials, monomial ideals, Hilbert functions and socles in K[x,y,z].

An ideal's graded pieces are read off its staircase, the height function
H(i, k) = min{g.ez : g.ex <= i, g.ey <= k} over the generators g (infinite
where no generator applies): x^i y^k z^e lies outside I iff e < H(i, k).
``hilbert_function`` counts every degree off that table in one pass and
``socle_profile`` reads the socle off its corners.  One walk over the slices,
``_slices``, hands out each slice's band of runs: ``standard_monomials``
lists a degree off it (the triangular regions), and
``regions.check_region_size`` (a region's size) and
``regions.degree_complement`` (the Schur complement the WLP scan reduces)
read two degrees off it by run arithmetic; none of them tests a monomial
against the generators.
``MonomialIdeal.__contains__`` remains the public membership test.
An ideal reads its pure powers off its generators once, in one pass, when
it is built, and keeps them and its hash on the instance: every
``lru_cache`` lookup keyed by an ideal hashes it, and the WLP and type-2
layers ask for its pure powers many times.  The staircase itself is
``lru_cache``d per ideal and built in one prefix-minimum sweep.

Everything is exact integer arithmetic on exponent triples.  All values are
immutable after construction and every function is pure, so the module is safe
for concurrent use and for parallel maps over ideals or degrees.

Monomials are totally ordered by the graded reverse-lexicographic order:
higher degree wins, and at equal degree ``m > m'`` iff the last non-zero entry
of the exponent difference is negative.  In degree 3 the descending chain is

    x^3 > x^2y > xy^2 > y^3 > x^2z > xyz > y^2z > xz^2 > yz^2 > z^3.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Iterator, NamedTuple

from .errors import NotArtinianError, ParseError

_MAX_EXPONENT = 10**9
#: Largest ``d_max`` that ``hilbert_function`` accepts, and largest degree the
#: WLP scan visits.
MAX_HILBERT_DEGREE = 10**5

_VAR_NAMES = ("x", "y", "z")


class Monomial(NamedTuple):
    """A monomial x^ex * y^ey * z^ez with nonnegative exponents."""

    ex: int
    ey: int
    ez: int

    @property
    def degree(self) -> int:
        return self.ex + self.ey + self.ez

    def revlex_key(self) -> tuple[int, int, int, int]:
        # At equal degree the revlex-larger monomial is the one whose
        # (ez, ey, ex) is lexicographically smaller, so negate for sorting.
        return (self.ex + self.ey + self.ez, -self.ez, -self.ey, -self.ex)

    # NamedTuple would otherwise compare tuples lexicographically, which is
    # not the monomial order; all four comparisons go through revlex_key.
    def __lt__(self, other: "Monomial") -> bool:  # type: ignore[override]
        return self.revlex_key() < other.revlex_key()

    def __le__(self, other: "Monomial") -> bool:  # type: ignore[override]
        return self.revlex_key() <= other.revlex_key()

    def __gt__(self, other: "Monomial") -> bool:  # type: ignore[override]
        return self.revlex_key() > other.revlex_key()

    def __ge__(self, other: "Monomial") -> bool:  # type: ignore[override]
        return self.revlex_key() >= other.revlex_key()

    def __mul__(self, other: "Monomial") -> "Monomial":  # type: ignore[override]
        return Monomial(self.ex + other.ex, self.ey + other.ey, self.ez + other.ez)

    def divides(self, other: "Monomial") -> bool:
        return self.ex <= other.ex and self.ey <= other.ey and self.ez <= other.ez

    def __floordiv__(self, other: "Monomial") -> "Monomial":
        """Exact division; raises if ``other`` does not divide ``self``."""
        if not other.divides(self):
            raise ValueError(f"{other} does not divide {self}")
        return Monomial(self.ex - other.ex, self.ey - other.ey, self.ez - other.ez)

    def lcm(self, other: "Monomial") -> "Monomial":
        return Monomial(max(self.ex, other.ex), max(self.ey, other.ey), max(self.ez, other.ez))

    def __str__(self) -> str:
        if self == ONE:
            return "1"
        parts = []
        for name, e in zip(_VAR_NAMES, self):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Monomial({self.ex}, {self.ey}, {self.ez})"


ONE = Monomial(0, 0, 0)
X = Monomial(1, 0, 0)
Y = Monomial(0, 1, 0)
Z = Monomial(0, 0, 1)
VARIABLES = (X, Y, Z)


class Permutation(NamedTuple):
    """A permutation of the variables {x, y, z}.

    ``image[k]`` is the index of the variable that variable ``k`` is sent to,
    so exponent ``k`` of a monomial lands in slot ``image[k]``.
    """

    image: tuple[int, int, int]

    def apply(self, m: Monomial) -> Monomial:
        e = [0, 0, 0]
        for k, target in enumerate(self.image):
            e[target] = m[k]
        return Monomial(*e)

    def __str__(self) -> str:
        return ", ".join(f"{_VAR_NAMES[k]}->{_VAR_NAMES[t]}" for k, t in enumerate(self.image))


#: All six variable permutations, in lexicographic order of their image tuple.
ALL_PERMUTATIONS = tuple(
    Permutation(img)
    for img in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
)


def _minimalize(gens: Iterable[Monomial]) -> tuple[Monomial, ...]:
    """Drop every generator that is a multiple of another one; the rest in
    descending revlex, the order used for canonical printing.  A proper
    divisor has lower degree, so in ascending revlex it comes first."""
    minimal: list[Monomial] = []
    for g in sorted(set(gens), key=lambda g: (g[0] + g[1] + g[2], -g[2], -g[1], -g[0])):
        ex, ey, ez = g
        if not any(h[0] <= ex and h[1] <= ey and h[2] <= ez for h in minimal):
            minimal.append(g)
    return tuple(minimal[::-1])


def _pure_powers_of(gens: tuple[Monomial, ...]) -> tuple[int | None, int | None, int | None]:
    """The exponent of each variable's pure power among minimal generators,
    else None, read in one pass: minimal generators hold at most one pure
    power per variable, and the unit ideal's 1 is x^0, y^0 and z^0."""
    if ONE in gens:
        return (0, 0, 0)
    pure: list[int | None] = [None, None, None]
    for ex, ey, ez in gens:
        if not (ey or ez):
            pure[0] = ex
        elif not (ex or ez):
            pure[1] = ey
        elif not (ex or ey):
            pure[2] = ez
    return tuple(pure)  # type: ignore[return-value]


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal, stored through its minimal generating set.

    The constructor minimalizes and canonically orders whatever generators it
    is given, so downstream code only ever sees minimal generators.  The zero
    ideal is the empty generating set.
    """

    gens: tuple[Monomial, ...]

    def __init__(self, gens: Iterable[Monomial] = ()):
        gens = _minimalize(gens)
        object.__setattr__(self, "gens", gens)
        # read once and kept: every lru_cache lookup hashes the ideal, and the
        # layers above ask for its pure powers many times
        object.__setattr__(self, "_hash", hash(gens))
        object.__setattr__(self, "_pure_exponents", _pure_powers_of(gens))

    def __hash__(self) -> int:
        return self._hash

    def __contains__(self, m: Monomial) -> bool:
        return any(g.divides(m) for g in self.gens)

    def __str__(self) -> str:
        if not self.gens:
            return "0"
        return ", ".join(str(g) for g in self.gens)

    @property
    def is_proper(self) -> bool:
        return ONE not in self.gens

    def pure_power_exponent(self, var: int) -> int | None:
        """Smallest e with (variable)^e among the generators, else None."""
        return self._pure_exponents[var]

    @property
    def is_artinian(self) -> bool:
        """True iff the ideal contains a pure power of each variable."""
        return None not in self._pure_exponents

    @property
    def pure_powers(self) -> tuple[int, int, int]:
        powers = self._pure_exponents
        if None in powers:
            raise NotArtinianError(f"ideal ({self}) lacks a pure power of some variable")
        return powers  # type: ignore[return-value]

    def permuted(self, sigma: Permutation) -> "MonomialIdeal":
        if sigma.image == (0, 1, 2):  # frozen, so the identity can share self
            return self
        return MonomialIdeal(tuple(sigma.apply(g) for g in self.gens))


def parse_ideal(text: str) -> MonomialIdeal:
    """Parse an ideal expression such as ``"x^4, y^4, z^4, x^2*z^2"``.

    Grammar: ideal := mono (',' mono)*;  mono := term (('*')? term)*;
    term := ('x'|'y'|'z') ('^' uint)?.  Whitespace is ignored everywhere and
    '*' between terms is optional.  Errors carry the byte offset.
    """
    n = len(text)
    i = 0

    def skip_ws(i: int) -> int:
        while i < n and text[i].isspace():
            i += 1
        return i

    gens: list[Monomial] = []
    i = skip_ws(i)
    if i == n:
        raise ParseError("empty generator list", i)
    while True:
        exps = [0, 0, 0]
        while True:
            i = skip_ws(i)
            if i >= n or text[i] not in "xyz":
                raise ParseError("expected a variable x, y or z", i)
            var = "xyz".index(text[i])
            i += 1
            power = 1
            j = skip_ws(i)
            if j < n and text[j] == "^":
                i = skip_ws(j + 1)
                if i >= n or not text[i].isdigit():
                    raise ParseError("expected a nonnegative integer exponent", i)
                start = i
                while i < n and text[i].isdigit():
                    i += 1
                power = int(text[start:i])
                if power > _MAX_EXPONENT:
                    raise ParseError("exponent too large", start)
            exps[var] += power
            if exps[var] > _MAX_EXPONENT:
                raise ParseError("exponent too large", i)
            j = skip_ws(i)
            if j < n and text[j] == "*":
                i = j + 1
                continue
            i = j
            if i < n and text[i] in "xyz":
                continue
            break
        gens.append(Monomial(*exps))
        i = skip_ws(i)
        if i == n:
            break
        if text[i] != ",":
            raise ParseError("expected ',' between generators", i)
        i += 1
        i = skip_ws(i)
        if i == n:
            raise ParseError("trailing comma", i)
    return MonomialIdeal(gens)


@functools.lru_cache(maxsize=None)
def monomials_of_degree(j: int) -> tuple[Monomial, ...]:
    """All degree-j monomials in ascending reverse-lexicographic order."""
    if j < 0:
        return ()
    ms = [Monomial(a, b, j - a - b) for a in range(j + 1) for b in range(j + 1 - a)]
    ms.sort(key=Monomial.revlex_key)
    return tuple(ms)


@dataclass(frozen=True)
class HilbertFunction:
    """Hilbert function values from degree 0, with implicit 0 elsewhere.

    Trailing zeros are trimmed on construction, so two computations of the
    same function compare equal regardless of the requested range.
    """

    values: tuple[int, ...]

    def __init__(self, values: Iterable[int]):
        vals = list(values)
        while vals and vals[-1] == 0:
            vals.pop()
        object.__setattr__(self, "values", tuple(vals))

    def __getitem__(self, j: int) -> int:
        if 0 <= j < len(self.values):
            return self.values[j]
        return 0

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)


@dataclass(frozen=True)
class _Staircase:
    """The height function H of a monomial ideal, stored per cell.

    H is constant on the cells cut by the generators' distinct x-exponents
    ``xs`` and y-exponents ``ys`` (both starting at 0): ``heights[a][b]`` is
    H on xs[a] <= i < xs[a+1], ys[b] <= k < ys[b+1], the last row and column
    reaching to infinity, so the table has at most (generators + 1)^2 cells
    whatever the exponents.  ``bands[n]`` describes the slice z^e for every
    e with exactly n finite heights at most e: the runs (lo, hi, width) of x
    exponents lo <= i < hi whose monomials x^i y^k z^e lie outside I exactly
    for k < width, in ascending i.  No monomial outside I has its z exponent
    at or above ``top``.
    """

    xs: tuple[int, ...]
    ys: tuple[int, ...]
    heights: tuple[tuple[float, ...], ...]
    levels: tuple[int, ...]
    bands: tuple[tuple[tuple[int, float, float], ...], ...]
    top: float


@functools.lru_cache(maxsize=8192)
def _staircase(ideal: MonomialIdeal) -> _Staircase:
    xs = sorted({0, *(g.ex for g in ideal.gens)})
    ys = sorted({0, *(g.ey for g in ideal.gens)})
    x_at = {e: a for a, e in enumerate(xs)}
    y_at = {e: b for b, e in enumerate(ys)}
    ny = len(ys)
    cells = [[math.inf] * ny for _ in xs]
    for ex, ey, ez in ideal.gens:
        row = cells[x_at[ex]]
        b = y_at[ey]
        if ez < row[b]:
            row[b] = ez
    # one prefix-minimum sweep: H(a, b) is the least of cell (a, b),
    # H(a, b-1) and H(a-1, b)
    heights = []
    previous = [math.inf] * ny
    for row in cells:
        h = math.inf
        for b in range(ny):
            if row[b] < h:
                h = row[b]
            if previous[b] < h:
                h = previous[b]
            row[b] = h
        heights.append(tuple(row))
        previous = row
    levels = sorted({h for row in heights for h in row if h != math.inf})
    ends = [*xs[1:], math.inf]
    bands = []
    for threshold in (-1, *levels):
        runs = []
        for a, row in enumerate(heights):
            b = 0
            while b < ny and row[b] > threshold:
                b += 1
            if b == 0:  # H is nonincreasing in i: the later runs are empty too
                break
            runs.append((xs[a], ends[a], ys[b] if b < ny else math.inf))
        bands.append(tuple(runs))
    return _Staircase(
        xs=tuple(xs),
        ys=tuple(ys),
        heights=tuple(heights),
        levels=tuple(levels),
        bands=tuple(bands),
        top=levels[-1] if not bands[-1] else math.inf,
    )


def _slices(ideal: MonomialIdeal, j: int) -> list[tuple[int, tuple[tuple[int, float, float], ...]]]:
    """The one walk over the slices z^e that can hold a monomial of degree at
    most j outside I: each e from the top down, with the staircase band."""
    stair = _staircase(ideal)
    bands, levels = stair.bands, stair.levels
    return [(ez, bands[bisect_right(levels, ez)]) for ez in range(min(j, stair.top - 1), -1, -1)]


def standard_monomials(ideal: MonomialIdeal, j: int) -> tuple[Monomial, ...]:
    """The degree-j monomials x^i y^(j-e-i) z^e outside I in ascending revlex
    order, listed off ``_slices`` in time proportional to the output plus the
    slices: each e from the top down, and in a run (lo, hi, width) of its
    band the i with lo <= i < hi and j-e-width < i <= j-e, ascending."""
    return tuple(
        Monomial(i, j - ez - i, ez)
        for ez, band in _slices(ideal, j)
        for lo, hi, width in band
        for i in range(max(lo, j - ez - width + 1), min(hi, j - ez + 1))
    )


@functools.lru_cache(maxsize=8192)
def hilbert_function(ideal: MonomialIdeal, d_max: int | None = None) -> HilbertFunction:
    """Hilbert function of R/I: values[j] counts degree-j monomials outside I.

    ``d_max`` defaults to the socle degree plus two, which covers every degree
    a weak Lefschetz check can ever need; the default requires an Artinian
    ideal.  A caller's ``d_max`` is clamped to a+b+c-1 for pure powers x^a,
    y^b, z^c.  Either way a ``d_max`` above ``MAX_HILBERT_DEGREE`` is
    refused before anything is allocated.

    Counted off the staircase without building a monomial: a run (lo, hi,
    width) of the slice z^e holds, in degree e + s, one monomial per i with
    lo <= i < hi and 0 <= s - i < width.  That count is a trapezoid in s
    whose second difference is +1 at lo and hi + width and -1 at hi and
    lo + width, so four updates per run and two prefix sums give every value.
    """
    if not ideal.is_proper:
        raise ValueError("the unit ideal has no Hilbert function")
    if d_max is None:
        d_max = socle_profile(ideal).socle_degree + 2
    elif ideal.is_artinian:  # a quotient of R/(x^a, y^b, z^c), which is 0 past degree a+b+c-3
        d_max = min(d_max, sum(ideal.pure_powers) - 1)
    if d_max > MAX_HILBERT_DEGREE:
        raise ValueError(f"degree {d_max} is above the limit MAX_HILBERT_DEGREE = {MAX_HILBERT_DEGREE}")
    stair = _staircase(ideal)
    second = [0] * (d_max + 1)
    for ez in range(min(d_max + 1, stair.top)):
        for lo, hi, width in stair.bands[bisect_right(stair.levels, ez)]:
            for at, step in ((lo, 1), (hi, -1), (lo + width, -1), (hi + width, 1)):
                if ez + at <= d_max:  # also skips the infinite corners
                    second[ez + at] += step
    return HilbertFunction(accumulate(accumulate(second)))


@dataclass(frozen=True)
class SocleProfile:
    """The socle of an Artinian quotient R/I: its monomials annihilated by x, y and z."""

    socle_monomials: tuple[Monomial, ...]
    degrees: tuple[int, ...]
    type_: int
    socle_degree: int
    is_level: bool


@functools.lru_cache(maxsize=8192)
def socle_profile(ideal: MonomialIdeal) -> SocleProfile:
    """Exact socle, read off the corners of the staircase.

    A monomial m = x^i y^k z^e outside I is in the socle iff x*m, y*m and
    z*m all lie in I, that is e = H(i, k) - 1 with H(i+1, k) < H(i, k) and
    H(i, k+1) < H(i, k).  H only drops where a cell ends, so each socle
    monomial sits at the last (i, k) of a cell whose right and upper
    neighbours are both lower.  Ordered by degree, then ascending revlex.
    """
    ideal.pure_powers  # raises NotArtinianError; an Artinian staircase is finite
    stair = _staircase(ideal)
    xs, ys, h = stair.xs, stair.ys, stair.heights
    socle = []
    for a in range(len(xs) - 1):
        row, right, i = h[a], h[a + 1], xs[a + 1] - 1
        for b in range(len(ys) - 1):
            corner = row[b]
            if right[b] < corner > row[b + 1]:
                socle.append(Monomial(i, ys[b + 1] - 1, corner - 1))
    socle.sort(key=Monomial.revlex_key)
    degrees = tuple(m.degree for m in socle)
    return SocleProfile(
        socle_monomials=tuple(socle),
        degrees=degrees,
        type_=len(socle),
        socle_degree=max(degrees) if degrees else -1,
        is_level=len(set(degrees)) <= 1,
    )

