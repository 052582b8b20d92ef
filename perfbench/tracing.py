"""Span tracing of the program from outside its source.

``Tracer.install`` replaces each public function of each layer module with a
wrapper that records a span (name, start, end, parent span) around the call,
in every module namespace that holds the function, and ``uninstall`` puts
the originals back.  Generator functions get one span per ``next``.  Calls to
``MonomialIdeal.__contains__`` are counted, not timed: there are hundreds of
thousands per op.  Arguments and results of a few functions are kept during
an op and measured after it ends, so matrix sizes and digit counts cost
nothing inside the spans.

A layer's self time is the time of its spans minus the time of their child
spans.  A function that disappears from the program simply has no span; the
metrics derived from it are left out rather than reported as zero.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import statistics
import time
from array import array

#: Module (last dotted part) -> layer.  The CLI layer includes its reports
#: and rendering.
LAYERS = {
    "ideals": "ideals",
    "regions": "regions",
    "intlinalg": "intlinalg",
    "tilings": "tilings",
    "formulas": "formulas",
    "wlp": "wlp",
    "cli": "cli",
    "reports": "cli",
    "render": "cli",
}

#: Functions whose arguments and results are measured after each op.
OBSERVED = (
    "regions.build_region",
    "intlinalg.biadjacency",
    "intlinalg.rank_q",
    "intlinalg.determinantal_divisor",
    "intlinalg.factorize",
)


def find_caches(modules) -> list:
    """Every object with ``cache_clear`` reachable from the modules'
    attributes (also class attributes), following ``__wrapped__`` through
    decorators such as the tracer's own wrappers."""
    found = {}
    for module in modules:
        values = list(vars(module).values())
        values += [v for c in values if isinstance(c, type) for v in vars(c).values()]
        for obj in values:
            for _ in range(8):
                if obj is None or callable(getattr(obj, "cache_clear", None)):
                    break
                obj = getattr(obj, "__wrapped__", None)
            if obj is not None and callable(getattr(obj, "cache_clear", None)):
                found[id(obj)] = obj
    return list(found.values())


def _short(module_name: str) -> str:
    return module_name.rpartition(".")[2]


def _matrix_shape(m) -> tuple[int, int] | None:
    rows, cols = getattr(m, "rows", None), getattr(m, "cols", None)
    return (rows, cols) if isinstance(rows, int) and isinstance(cols, int) else None


def _nonzeros_and_bandwidth(m) -> tuple[int, int] | None:
    entries = getattr(m, "entries", None)
    if entries is None:
        return None
    nonzeros = bandwidth = 0
    for i, row in enumerate(entries):
        cols = [j for j, e in enumerate(row) if e]
        nonzeros += len(cols)
        if cols:
            bandwidth = max(bandwidth, i - cols[0], cols[-1] - i)
    return nonzeros, bandwidth


class Tracer:
    def __init__(self, modules):
        self.modules = list(modules)
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self._wrappers: dict[int, tuple[object, object]] = {}
        self._patched: list[tuple[object, str, object]] = []
        self._spans: list[list] = []
        self._stack = [-1]
        self._active: list[int] = []
        self._yields: list[int] = []
        self._observed: list[tuple[int, tuple, object]] = []
        self._membership = [0]
        self._ideal_class = None
        self._orig_contains = None
        self.layers = sorted({LAYERS[_short(m.__name__)] for m in self.modules if _short(m.__name__) in LAYERS})
        for module in self.modules:
            short = _short(module.__name__)
            if short not in LAYERS:
                continue
            for attr, obj in sorted(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) or callable(getattr(obj, "cache_info", None)):
                    self._add(f"{short}.{attr}", LAYERS[short], obj)
            if short == "ideals":
                cls = getattr(module, "MonomialIdeal", None)
                if isinstance(cls, type) and "__contains__" in vars(cls):
                    self._ideal_class = cls
                    self._orig_contains = vars(cls)["__contains__"]
        self.nid = {name: i for i, name in enumerate(self.names)}
        self.caches = [
            (f"{_short(c.__module__)}.{c.__name__}", LAYERS[_short(c.__module__)], c)
            for c in find_caches(self.modules)
            if callable(getattr(c, "cache_info", None)) and _short(c.__module__) in LAYERS
        ]
        # Run-level span store, in compact arrays; written out by dump().
        self.store = {k: array("i") for k in ("op", "name", "parent")}
        self.store.update({k: array("d") for k in ("start", "end")})

    # -- wrapping -----------------------------------------------------------

    def _add(self, name: str, layer: str, fn) -> None:
        nid = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        self._active.append(0)
        self._yields.append(0)
        if inspect.isgeneratorfunction(inspect.unwrap(fn)):
            wrapper = self._wrap_generator(fn, nid)
        else:
            wrapper = self._wrap_function(fn, nid, name in OBSERVED)
        self._wrappers[id(fn)] = (fn, wrapper)

    def _wrap_function(self, fn, nid: int, observe: bool):
        spans, stack, active, observed = self._spans, self._stack, self._active, self._observed
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [nid, stack[-1], 0.0, 0.0, active[nid]]
            stack.append(len(spans))
            spans.append(rec)
            active[nid] += 1
            rec[2] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf()
                active[nid] -= 1
                stack.pop()
            if observe:
                observed.append((nid, args, result))
            return result

        return functools.update_wrapper(wrapper, fn)

    def _wrap_generator(self, fn, nid: int):
        spans, stack, yields = self._spans, self._stack, self._yields
        perf = time.perf_counter

        def timed(it):
            while True:
                rec = [nid, stack[-1], 0.0, 0.0, 0]
                stack.append(len(spans))
                spans.append(rec)
                rec[2] = perf()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    rec[3] = perf()
                    stack.pop()
                yields[nid] += 1
                yield item

        def wrapper(*args, **kwargs):
            return timed(fn(*args, **kwargs))

        return functools.update_wrapper(wrapper, fn)

    def install(self) -> None:
        for module in self.modules:
            for attr, value in list(vars(module).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._patched.append((module, attr, value))
        if self._ideal_class is not None:
            orig, counter = self._orig_contains, self._membership

            def __contains__(ideal, m):
                counter[0] += 1
                return orig(ideal, m)

            self._ideal_class.__contains__ = __contains__

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()
        if self._ideal_class is not None:
            self._ideal_class.__contains__ = self._orig_contains

    # -- one op -------------------------------------------------------------

    def begin_op(self) -> None:
        self._spans.clear()
        self._observed.clear()
        self._stack[:] = [-1]
        self._yields[:] = [0] * len(self._yields)
        self._membership[0] = 0
        self.op_start = time.perf_counter()
        self._cache_base = {name: c.cache_info() for name, _, c in self.caches}

    def end_op(self, op_id: int, wall_s: float) -> dict:
        """Per-op values, keyed by metric name; ratios as (num, den)."""
        spans, op_start = self._spans, self.op_start
        n = len(self.names)
        covered = [0.0] * len(spans)
        for rec in spans:
            if rec[1] >= 0:
                covered[rec[1]] += rec[3] - rec[2]
        vals: dict = {f"{layer}.self_ms": 0.0 for layer in self.layers}
        fn_ms, calls = [0.0] * n, [0] * n
        store = self.store
        for idx, (nid, parent, start, end, nested) in enumerate(spans):
            vals[f"{self.layer_of[nid]}.self_ms"] += (end - start - covered[idx]) * 1e3
            calls[nid] += 1
            if not nested:
                fn_ms[nid] += (end - start) * 1e3
            store["op"].append(op_id)
            store["name"].append(nid)
            store["parent"].append(parent)
            store["start"].append(start - op_start)
            store["end"].append(end - op_start)
        for nid, name in enumerate(self.names):
            vals[f"{name}.ms"] = fn_ms[nid]
            vals[f"{name}.calls"] = calls[nid]
        if "tilings.enumerate_tilings" in self.nid:
            vals["tilings.tilings_enumerated"] = self._yields[self.nid["tilings.enumerate_tilings"]]
        if self._ideal_class is not None:
            vals["ideals.membership_tests"] = self._membership[0]
        vals["trace.self_share"] = (sum(vals[f"{layer}.self_ms"] for layer in self.layers), wall_s * 1e3)
        self._observe(vals)
        self._cache_ratios(vals)
        self._spans.clear()
        self._observed.clear()
        return vals

    def _observe(self, vals: dict) -> None:
        names = self.nid
        triangles = max_dim = digits = 0
        regions: set = set()
        if "regions.build_region" in names:
            vals["regions.triangles_built"] = 0
        if "intlinalg.biadjacency" in names:
            vals.update({"intlinalg.matrix_cells": 0, "intlinalg.matrix_nonzeros": 0, "intlinalg.max_bandwidth": 0})
        if "intlinalg.rank_q" in names:
            vals["intlinalg.rank_certificate_hit_ratio"] = (0, 0)
        if "intlinalg.determinantal_divisor" in names:
            vals.update({"intlinalg.divisor_max_dim": 0, "intlinalg.divisor_max_digits": 0})
        if "intlinalg.factorize" in names:
            vals["intlinalg.factorize_max_digits"] = 0
        for nid, args, result in self._observed:
            name = self.names[nid]
            arg = args[0] if args else None
            if name == "regions.build_region":
                size = len(getattr(result, "up", ())) + len(getattr(result, "down", ()))
                vals["regions.triangles_built"] += size
                triangles = max(triangles, size)
            elif name == "intlinalg.biadjacency":
                regions.add(arg)
                shape = _matrix_shape(result)
                if shape:
                    vals["intlinalg.matrix_cells"] += shape[0] * shape[1]
                    max_dim = max(max_dim, *shape)
                nb = _nonzeros_and_bandwidth(result)
                if nb:
                    vals["intlinalg.matrix_nonzeros"] += nb[0]
                    vals["intlinalg.max_bandwidth"] = max(vals["intlinalg.max_bandwidth"], nb[1])
            elif name == "intlinalg.rank_q":
                shape = _matrix_shape(arg)
                hit, total = vals["intlinalg.rank_certificate_hit_ratio"]
                full = shape is not None and result == min(shape)
                vals["intlinalg.rank_certificate_hit_ratio"] = (hit + full, total + 1)
            elif name == "intlinalg.determinantal_divisor":
                shape = _matrix_shape(arg)
                if shape:
                    vals["intlinalg.divisor_max_dim"] = max(vals["intlinalg.divisor_max_dim"], *shape)
                size = len(str(abs(result)))
                vals["intlinalg.divisor_max_digits"] = max(vals["intlinalg.divisor_max_digits"], size)
                digits = max(digits, size)
            elif name == "intlinalg.factorize":
                vals["intlinalg.factorize_max_digits"] = max(
                    vals["intlinalg.factorize_max_digits"], len(str(arg))
                )
        if "intlinalg.biadjacency" in names:
            vals["wlp.degree_recompute_ratio"] = (vals["intlinalg.biadjacency.calls"], len(regions))
        vals["op.max_region_triangles"] = triangles
        vals["op.max_matrix_dim"] = max_dim
        vals["op.max_divisor_digits"] = digits

    def _cache_ratios(self, vals: dict) -> None:
        for name, layer, cache in self.caches:
            info, base = cache.cache_info(), self._cache_base[name]
            hits, misses = info.hits - base.hits, info.misses - base.misses
            for key in (f"{layer}.cache_hit_ratio", f"{name}.cache_hit_ratio"):
                h, t = vals.get(key, (0, 0))
                vals[key] = (h + hits, t + hits + misses)

    # -- output -------------------------------------------------------------

    def dump(self, path) -> None:
        """Write every span as tab-separated text: op, span index within its
        op, parent index, name, start and end in microseconds from op start."""
        s = self.store
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("op\tspan\tparent\tname\tstart_us\tend_us\n")
            op, first = None, 0
            for i in range(len(s["op"])):
                if s["op"][i] != op:
                    op, first = s["op"][i], i
                f.write(
                    f"{op}\t{i - first}\t{s['parent'][i]}\t{self.names[s['name'][i]]}\t"
                    f"{s['start'][i] * 1e6:.1f}\t{s['end'][i] * 1e6:.1f}\n"
                )


#: How per-op values combine into one run metric.
MAX_METRICS = {
    "intlinalg.max_bandwidth",
    "intlinalg.divisor_max_dim",
    "intlinalg.divisor_max_digits",
    "intlinalg.factorize_max_digits",
}


def aggregate(per_op: list[dict]) -> dict[str, float]:
    """Run metrics: ratios pool numerators and denominators, ``max_`` metrics
    take the run maximum, ``op.`` input sizes the median op, and everything
    else the mean per op."""
    out: dict[str, float] = {}
    if not per_op:
        return out
    for key in dict.fromkeys(k for vals in per_op for k in vals):
        values = [v[key] for v in per_op if key in v]
        if isinstance(values[0], tuple):
            num, den = sum(v[0] for v in values), sum(v[1] for v in values)
            out[key] = num / den if den else 0.0
        elif key in MAX_METRICS:
            out[key] = max(values)
        elif key.startswith("op."):
            out[key] = statistics.median(values)
        else:
            out[key] = sum(values) / len(per_op)
    return out
