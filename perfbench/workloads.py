"""Workloads of the benchmark: seeded pools of CLI argument vectors, and the
checks on their outputs.

Every workload but type2-scan is a ladder of 25 inputs ordered by measured
cost, cut into five strata of five.  A pool is five rounds; each round runs
one rung of every stratum.  The seed assigns rungs to rounds and orders each
round, and on ci-ladder it also orders the three exponents, which moves an
op's cost by about 2%.  (Renaming variables moves the cost of a wlp or count
op by up to 60%, so those ladders keep one variable order.)  Every seed thus
puts the same load on the program.  Draws from the whole input space instead
made the spread between seeds several times wider than run-to-run noise.

The median and the 90th percentile of 25 rungs sit at ranks 12.5 and 22.5.
A run ends inside a pass, which shifts those ranks by up to a rung, so the
rungs on either side of 12 and 22 repeat those inputs: both quantiles then
always read one input's latency, never a mix of two inputs of different cost.

Ladders are drawn from generators that are valid by construction: every
ideal is proper and Artinian, and every ``count`` region is balanced with a
tiling count, known from an independent transfer-matrix count, far below the
program's enumeration cap.  ``build_ladders.py`` measures the candidates once
and stores the ladders in ``ladders.json``.

Checks return ``None`` for a correct output or a one-line reason.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

SCHEMA = "lefschetz-lab/1"
LADDERS = Path(__file__).resolve().parent / "ladders.json"
RUNGS = 25
STRATA = 5
PERMUTATIONS = tuple(itertools.permutations(range(3)))


@dataclass(frozen=True)
class Op:
    """One CLI invocation, with the facts its output check needs."""

    argv: tuple[str, ...]
    facts: dict = field(default_factory=dict, compare=False, hash=False)


#: Rungs of the median and the 90th percentile, each also run by its neighbours.
QUANTILE_RUNGS = (12, 22)


def ladder(candidates: list, cost) -> list:
    """RUNGS candidates at evenly spaced ranks of ``cost``, cheapest first,
    with the neighbours of each QUANTILE_RUNGS rung repeating it."""
    ranked = sorted(candidates, key=cost)
    n = len(ranked)
    rungs = [next((q for q in QUANTILE_RUNGS if abs(j - q) <= 1), j) for j in range(RUNGS)]
    return [ranked[(2 * j + 1) * n // (2 * RUNGS)] for j in rungs]


def _pool(rng: random.Random, rungs: list, make_op) -> list[Op]:
    """Rounds of one rung per stratum, rungs assigned to rounds at random."""
    size = len(rungs) // STRATA
    strata = [rng.sample(rungs[k * size:(k + 1) * size], size) for k in range(STRATA)]
    pool = []
    for r in range(size):
        batch = [make_op(rng, s[r]) for s in strata]
        rng.shuffle(batch)
        pool.extend(batch)
    return pool


def _load_ladder(name: str) -> list:
    with open(LADDERS) as f:
        return json.load(f)[name]


def _ideal_text(gens) -> str:
    def mono(g):
        return "*".join(f"{v}^{e}" if e > 1 else v for v, e in zip("xyz", g) if e)

    return ",".join(mono(g) for g in gens)


def _pure_powers(powers) -> list[tuple[int, int, int]]:
    return [tuple(p if v == i else 0 for v in range(3)) for i, p in enumerate(powers)]


def _oriented(gens, perm) -> list[tuple[int, int, int]]:
    """Generators with the variables renamed: exponent v <- exponent perm[v]."""
    return [tuple(g[perm[v]] for v in range(3)) for g in gens]


def _primes_below(n: int) -> list[int]:
    return [p for p in range(2, n) if all(p % q for q in range(2, math.isqrt(p) + 1))]


# ---------------------------------------------------------------------------
# ci-ladder: complete intersections x^a, y^b, z^c with a, b, c in 6..22
# ---------------------------------------------------------------------------


def _ci_hilbert(j: int, a: int, b: int, c: int) -> int:
    """dim_K of degree j of K[x,y,z]/(x^a,y^b,z^c), by inclusion-exclusion."""

    def f(n):
        return (n + 2) * (n + 1) // 2 if n >= 0 else 0

    return (
        f(j) - f(j - a) - f(j - b) - f(j - c)
        + f(j - a - b) + f(j - a - c) + f(j - b - c) - f(j - a - b - c)
    )


def _ci_cost(t) -> tuple:
    # Smith form on the peak matrix dominates; odd sums decide at two degrees.
    a, b, c = t
    d = (a + b + c) // 2
    up, down = _ci_hilbert(d - 1, a, b, c), _ci_hilbert(d - 2, a, b, c)
    return (up * down * min(up, down) * (2 if (a + b + c) % 2 else 1), sorted(t))


def ci_candidates(n: int) -> list[list[int]]:
    """Distinct exponent triples (sorted) at n evenly spaced ranks of an
    estimated cost over all 17^3 triples, so both parities of a+b+c occur
    about as often as in uniform draws."""
    triples = sorted(itertools.product(range(6, 23), repeat=3), key=_ci_cost)
    picks = (sorted(triples[(2 * j + 1) * len(triples) // (2 * n)]) for j in range(n))
    return [list(t) for t in dict.fromkeys(map(tuple, picks))]


def ci_op(abc) -> Op:
    a, b, c = abc
    return Op(("ci", str(a), str(b), str(c), "--json"), {"abc": (a, b, c)})


def ci_pool(seed: int) -> list[Op]:
    rungs = [rung["abc"] for rung in _load_ladder("ci-ladder")]
    return _pool(random.Random(f"ci-ladder/{seed}"), rungs, lambda rng, abc: ci_op(rng.sample(abc, 3)))


def check_ci(op: Op, payload: dict, lib) -> str | None:
    a, b, c = op.facts["abc"]
    d = (a + b + c) // 2
    verdict = lib.type_one_verdict(a, b, c, 0)
    expected = [p for p in _primes_below(d) if not lib.type_one_verdict(a, b, c, p).holds]
    if payload.get("bad_primes") != expected:
        return f"bad primes {payload.get('bad_primes')} != closed-form {expected}"
    if payload.get("peak_degree") != d or payload.get("case") != verdict.case:
        return "peak degree or case disagrees with the closed form"
    if payload.get("enumerations") != list(verdict.witnesses):
        return "enumerations disagree with the closed form"
    return None


# ---------------------------------------------------------------------------
# wlp-mixed: Artinian ideals with mixed generators, and deep thin ones
# ---------------------------------------------------------------------------

WLP_PRIMES = (2, 3, 5)


def _mixed_generators(rng: random.Random, powers, count: int) -> list[tuple[int, int, int]]:
    """``count`` monomials in at least two variables, each exponent below
    the pure power of its variable: the pure powers stay minimal generators,
    so the ideal stays proper and Artinian."""
    out = []
    while len(out) < count:
        g = tuple(rng.randint(0, p - 1) for p in powers)
        if sum(1 for e in g if e) >= 2:
            out.append(g)
    return out


def wlp_candidates(n: int) -> list[list[tuple[int, int, int]]]:
    """Generator lists: pure powers in 4..16 with 0-4 mixed generators, and
    one in ten deep and thin (one pure power in 40..80, the others 2 or 3,
    at most one mixed generator)."""
    rng = random.Random("wlp-mixed candidates")
    out = []
    for i in range(n):
        if i % 10 == 9:
            powers = [rng.randint(40, 80), rng.randint(2, 3), rng.randint(2, 3)]
            mixed = rng.randint(0, 1)
        else:
            powers = [rng.randint(4, 16) for _ in range(3)]
            mixed = rng.randint(0, 4)
        rng.shuffle(powers)
        out.append(_pure_powers(powers) + _mixed_generators(rng, powers, mixed))
    return out


def wlp_op(gens) -> Op:
    return Op(("wlp", _ideal_text(gens), "--primes", ",".join(map(str, WLP_PRIMES)), "--json"))


def wlp_pool(seed: int) -> list[Op]:
    rungs = [rung["gens"] for rung in _load_ladder("wlp-mixed")]
    return _pool(random.Random(f"wlp-mixed/{seed}"), rungs, lambda rng, gens: wlp_op(gens))


def check_wlp(op: Op, payload: dict, lib) -> str | None:
    degrees = payload.get("degrees") or []
    holds = all(e["rank_q"] == e["required_rank"] for e in degrees)
    if payload.get("holds_char0") != holds:
        return "holds_char0 disagrees with the per-degree ranks"
    bad = payload.get("bad_primes")
    if not holds:
        return None if bad is None else "bad primes reported although char 0 fails"
    for p in WLP_PRIMES:
        fails = any(e["rank_mod"][str(p)] < e["required_rank"] for e in degrees)
        if fails != (p in bad):
            return f"char {p}: rank scan and bad primes {bad} disagree"
    return None


# ---------------------------------------------------------------------------
# type2-scan
# ---------------------------------------------------------------------------

SCAN_PRIMES = (7, 11, 13, 17, 19, 23, 29, 31)


def scan_pool(seed: int) -> list[Op]:
    """Exponent cap 4 at every prime cap, and seven cap-3 scans at seeded
    prime caps, in seeded order.  A cap-4 scan costs more the larger the
    prime cap, and a cap-3 scan a tenth of any of them.  Caps 11 and 29 run
    three times, so the median and the 90th percentile of the 19 ops (ranks
    9.5 and 17.1) read those two inputs, as in the ladders.  Cap 5 is left
    out: at 1-3 s an op, a run could not reach 100 ops."""
    rng = random.Random(f"type2-scan/{seed}")
    caps = [(4, p) for p in SCAN_PRIMES + (11, 11, 29, 29)]
    caps += [(3, rng.choice(SCAN_PRIMES)) for _ in range(7)]
    rng.shuffle(caps)
    return [
        Op(("scan", "--max-exponent", str(e), "--prime-cap", str(p), "--json"), {"ep": (e, p)})
        for e, p in caps
    ]


def check_scan(op: Op, payload: dict, lib) -> str | None:
    e, p = op.facts["ep"]
    if (payload.get("max_exponent"), payload.get("prime_cap")) != (e, p):
        return "scan parameters not echoed"
    if payload.get("counterexamples") != []:
        return f"unexpected counterexamples {payload.get('counterexamples')}"
    return None


# ---------------------------------------------------------------------------
# tiling-count: hexagons and punctured hexagons with known counts
# ---------------------------------------------------------------------------

COUNT_RANGE = (20, 5000)
#: Most search nodes per (tiling x up triangle) a count region may cost.
SEARCH_FACTOR = 4


def region_labels(gens, d: int) -> tuple[set, set]:
    """Up (degree d-1) and down (degree d-2) labels outside the ideal."""

    def outside(m):
        return not any(all(g[i] <= m[i] for i in range(3)) for g in gens)

    def labels(deg):
        return {
            (i, j, deg - i - j)
            for i in range(deg + 1)
            for j in range(deg + 1 - i)
            if outside((i, j, deg - i - j))
        }

    return labels(d - 1), labels(d - 2)


def count_tilings(ups: set, downs: set, d: int) -> int:
    """Lozenge tilings of a region, by a transfer matrix over the rows of
    fixed z-exponent.

    A down triangle n pairs with x*n or y*n in its own row, or with z*n in the
    row above.  The state between rows is the set of up triangles of the next
    row already covered from below; within a row a sweep along the
    x-exponent carries whether the next up triangle is taken by x*n.
    """
    if len(ups) != len(downs):
        return 0
    states = {0: 1}
    for k in range(d):
        new: dict[int, int] = defaultdict(int)
        for mask, ways in states.items():
            sweep = {(0, 0): ways}
            for i in range(d - k):
                need = 1 if (i, d - 1 - k - i, k) in ups else 0
                above = (mask >> i) & 1
                has_down = i <= d - 2 - k and (i, d - 2 - k - i, k) in downs
                nxt: dict[tuple[int, int], int] = defaultdict(int)
                for (carry, out), w in sweep.items():
                    have = above + carry
                    if has_down:
                        if have + 1 == need:
                            nxt[(0, out)] += w  # y*n covers this up triangle
                        if have == need:
                            nxt[(1, out)] += w  # x*n covers the next one
                            nxt[(0, out | 1 << i)] += w  # z*n, in the row above
                    elif have == need:
                        nxt[(0, out)] += w
                sweep = nxt
            for (carry, out), w in sweep.items():
                if not carry:
                    new[out] += w
        states = new
    return states.get(0, 0)


class _Budget(Exception):
    pass


def search_nodes(ups: set, downs: set, budget: int) -> int | None:
    """Nodes of a depth-first tiling search that extends the least uncovered
    down triangle in reverse-lexicographic order by x, y, then z; None once
    ``budget`` is exceeded.

    This is the program's enumeration order.  It explores dead ends
    exponentially on some shapes (``count x^11,y^5,z^14 --d 15``: 1,001
    tilings, over 30 s), so a run containing one would be timed by that
    input alone; such regions, and variable orders, are left out.
    """
    order = sorted(downs, key=lambda m: (-m[2], -m[1], -m[0]))
    index = {m: j for j, m in enumerate(ups)}
    adj = [
        [index[p] for p in ((i + 1, j, k), (i, j + 1, k), (i, j, k + 1)) if p in index]
        for i, j, k in order
    ]
    used = [False] * len(ups)
    nodes = 0

    def extend(depth):
        nonlocal nodes
        if depth == len(adj):
            return
        for u in adj[depth]:
            if not used[u]:
                nodes += 1
                if nodes > budget:
                    raise _Budget
                used[u] = True
                extend(depth + 1)
                used[u] = False

    try:
        extend(0)
    except _Budget:
        return None
    return nodes


def _box_count(a: int, b: int, c: int) -> int:
    """Plane partitions in an a x b x c box: tilings of that hexagon."""

    def h(n):
        return math.prod(math.factorial(i) for i in range(n))

    return h(a) * h(b) * h(c) * h(a + b + c) // (h(a + b) * h(a + c) * h(b + c))


def count_region(gens, d: int, hexagon=None) -> dict | None:
    """Ladder entry for a region under the first variable order that keeps
    the search within SEARCH_FACTOR, or None unless the region is balanced,
    its tiling count lies in COUNT_RANGE and such an order exists."""
    ups, downs = region_labels(gens, d)
    if len(ups) != len(downs):
        return None
    tilings = count_tilings(ups, downs, d)
    if not COUNT_RANGE[0] <= tilings < COUNT_RANGE[1]:
        return None
    for perm in PERMUTATIONS:
        oriented = _oriented(gens, perm)
        if search_nodes(*region_labels(oriented, d), SEARCH_FACTOR * tilings * len(ups)) is not None:
            return {"gens": oriented, "d": d, "tilings": tilings,
                    "triangles": len(ups) + len(downs), "hexagon": hexagon}
    return None


def count_candidates(punctured: int) -> list[dict]:
    """Every admissible hexagon with sides 2..8 (up to order), and the first
    ``punctured`` admissible regions with one to three floating punctures.

    A punctured region has corner punctures of sides 2 or 3 and interior
    punctures of sides 1 or 2 adding up to d, the balance condition for
    disjoint punctures; overlapping draws fail the balance check.
    """
    out = []
    for A, B, C in itertools.combinations_with_replacement(range(2, 9), 3):
        if COUNT_RANGE[0] <= _box_count(A, B, C) < COUNT_RANGE[1]:
            entry = count_region(_pure_powers((B + C, A + C, A + B)), A + B + C, (A, B, C))
            if entry is not None:
                out.append(entry)
    rng = random.Random("tiling-count candidates")
    found = 0
    while found < punctured:
        sides = [rng.randint(1, 2) for _ in range(rng.randint(1, 3))]
        corners = [rng.randint(2, 3) for _ in range(3)]
        d = sum(corners) + sum(sides)
        gens = _pure_powers(tuple(d - s for s in corners))
        for t in sides:
            i = rng.randint(1, d - t - 2)
            j = rng.randint(1, d - t - 1 - i)
            gens.append((i, j, d - t - i - j))
        entry = count_region(gens, d)
        if entry is not None:
            out.append(entry)
            found += 1
    return out


def count_op(entry: dict) -> Op:
    return Op(("count", _ideal_text(entry["gens"]), "--d", str(entry["d"]), "--json"), entry)


def count_pool(seed: int) -> list[Op]:
    return _pool(random.Random(f"tiling-count/{seed}"), _load_ladder("tiling-count"), lambda rng, e: count_op(e))


def check_count(op: Op, payload: dict, lib) -> str | None:
    expected = op.facts["tilings"]
    if not payload.get("balanced") or payload.get("count") != expected:
        return f"count {payload.get('count')} != transfer-matrix count {expected}"
    sides = op.facts["hexagon"]
    if sides is not None and expected != lib.macmahon(*sides):
        return f"hexagon {sides}: count {expected} != Mac{tuple(sides)}"
    if payload.get("per_Z") != expected:
        return "permanent disagrees with the count"
    return None


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    pool: object  # seed -> list[Op]
    check: object  # (op, payload, lib) -> str | None
    warmup: tuple[str, ...]  # a fixed small op, the same for every seed


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ci-ladder", ci_pool, check_ci, ("ci", "6", "7", "8", "--json")),
        Workload(
            "wlp-mixed",
            wlp_pool,
            check_wlp,
            ("wlp", "x^4,y^4,z^4,x^2*z^2", "--primes", "2,3,5", "--json"),
        ),
        Workload(
            "type2-scan",
            scan_pool,
            check_scan,
            ("scan", "--max-exponent", "3", "--prime-cap", "7", "--json"),
        ),
        Workload(
            "tiling-count",
            count_pool,
            check_count,
            ("count", "x^7,y^7,z^6,x*y^4*z^2,x^3*y*z^2,x^4*y*z", "--d", "8", "--json"),
        ),
    )
}
