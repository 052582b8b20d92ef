"""Benchmark of the lefschetz-lab command line, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ci-ladder --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process each
    python3 perfbench/run.py --record-digests        # re-record outputs for the default seed

One process runs one workload as a closed loop with a single client and no
threads.  Each op is one in-process ``cli.main(argv)`` call with stdout
captured; every ``lru_cache`` of the package is cleared (and garbage
collected) before each op, so each op pays what a fresh CLI invocation pays
after interpreter start.  Outputs are checked between ops, outside the timed
region.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json:

- ``ops_per_s``: ops that passed their checks per second of summed op wall
  time (the client's checks and cache clearing between ops excluded);
- ``op_p50_ms``, ``op_p90_ms``: median and 90th percentile of op wall time
  over every op attempted (a run makes well over 100);
- ``setup_s``: median over five set-ups of package import in a fresh
  interpreter, input generation, and one fixed warm-up op;
- ``peak_rss_mb``: peak resident memory of the process.

It also prints ``fail_rate`` (failed over attempted ops; the result line
carries both counts) and, on the ``info`` line, the line count of the
package sources, which is tracked beside the timings but never scored.

``--trace 1`` runs each op twice, untraced and then traced (see tracing.py),
and reports the per-layer metrics, the tracing overhead (traced over
untraced median op time) and the share of op wall time the layers' self
times account for.  Spans and per-op records, with each op's input size,
are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import Tracer, aggregate, find_caches
from workloads import SCHEMA, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = "lefschetz_lab"
DIGESTS = HERE / "digests.json"
OUT = HERE / "out"

DEFAULT_SEED = 0
SETUP_REPEATS = 5


def load_program():
    """Import the package from this checkout's ``src``; exit 1 if absent."""
    if not (SRC / PACKAGE / "cli.py").is_file():
        sys.exit(f"error: no {PACKAGE} sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import lefschetz_lab
    import lefschetz_lab.cli

    if Path(lefschetz_lab.__file__).resolve().parent != SRC / PACKAGE:
        sys.exit(f"error: imported {PACKAGE} from outside this checkout")
    modules = [m for n, m in sorted(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
    return lefschetz_lab, lefschetz_lab.cli, modules


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / PACKAGE).glob("*.py")))


def clear_caches(modules) -> None:
    for cache in find_caches(modules):
        cache.cache_clear()
    gc.collect()


def run_op(cli, argv) -> tuple[int | None, str, str, float]:
    """One op: exit code (None if it raised), stdout, stderr, wall seconds."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(list(argv))
        except Exception as exc:  # a raising op is a failed op, not a failed run
            rc = None
            err.write(f"{type(exc).__name__}: {exc}")
        wall = time.perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), wall


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Checker:
    """Output checks: exit code, schema, the workload's own check, output
    stable across repeats of an input, and for the default seed the digest
    recorded in digests.json."""

    def __init__(self, workload, lib, seed: int | None):
        self.workload, self.lib = workload, lib
        self.recorded = None
        if seed == DEFAULT_SEED:
            with open(DIGESTS) as f:
                self.recorded = json.load(f).get(workload.name, {})
        self.seen: dict[str, str] = {}

    def __call__(self, op, rc, stdout: str, stderr: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}: {stderr.strip()[:200]}"
        try:
            payload = json.loads(stdout)
        except ValueError:
            return "output is not JSON"
        if payload.get("schema") != SCHEMA:
            return f"schema {payload.get('schema')!r}"
        key, value = " ".join(op.argv), digest(stdout)
        if self.seen.setdefault(key, value) != value:
            return "output differs from an earlier run of the same input"
        if self.recorded is not None and self.recorded.get(key) != value:
            return "output differs from the digest recorded for the default seed"
        return self.workload.check(op, payload, self.lib)


def time_setup(workload, seed: int, cli, modules) -> tuple[float, list, str | None]:
    """Median over SETUP_REPEATS of: package import in a fresh interpreter,
    pool generation, and one fixed warm-up op with cold caches."""
    samples, pool, failure = [], None, None
    probe = (
        "import time; t = time.perf_counter(); import lefschetz_lab.cli; "
        "print(time.perf_counter() - t)"
    )
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, "-c", probe],
            cwd=ROOT,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        start = time.perf_counter()
        pool = workload.pool(seed)
        generated = time.perf_counter()
        clear_caches(modules)
        warm = time.perf_counter()
        rc, _, err, _ = run_op(cli, workload.warmup)
        done = time.perf_counter()
        if rc != 0:
            failure = f"warm-up op failed: exit code {rc}: {err.strip()[:200]}"
        samples.append(float(child.stdout) + (generated - start) + (done - warm))
    return statistics.median(samples), pool, failure


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    lib, cli, modules = load_program()
    spec = benchmark_spec()
    workload = WORKLOADS[name]
    setup_s, pool, warm_failure = time_setup(workload, seed, cli, modules)
    check = Checker(workload, lib, seed)
    tracer = Tracer(modules) if traced else None
    records, failures = [], []
    if warm_failure:
        failures.append(warm_failure)
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        op = pool[i % len(pool)]
        record = {"op": i, "argv": list(op.argv), **op.facts}
        clear_caches(modules)
        rc, out, err, wall = run_op(cli, op.argv)
        record["ms"] = wall * 1e3
        failure = check(op, rc, out, err)
        if tracer is not None and failure is None:
            clear_caches(modules)
            tracer.begin_op()
            tracer.install()
            try:
                rc, out, err, traced_wall = run_op(cli, op.argv)
            finally:
                tracer.uninstall()
            record["traced_ms"] = traced_wall * 1e3
            record["layers"] = tracer.end_op(i, traced_wall)
            failure = check(op, rc, out, err)
        record["failure"] = failure
        if failure:
            failures.append(f"{' '.join(op.argv)}: {failure}")
        records.append(record)
        i += 1

    attempted = len(records) + (1 if warm_failure else 0)
    failed = len(failures)
    fail_rate = failed / attempted if attempted else 0.0
    latencies = [r["ms"] for r in records]
    if traced:
        per_op = [r["layers"] for r in records if "layers" in r]
        values = aggregate(per_op)
        if per_op:
            values["trace.overhead_ratio"] = statistics.median(
                r["traced_ms"] for r in records if "layers" in r
            ) / statistics.median(r["ms"] for r in records if "layers" in r)
        wanted = spec["per_layer"]
    else:
        values = {
            "ops_per_s": sum(not r["failure"] for r in records) / (sum(latencies) / 1e3) if latencies else 0.0,
            "op_p50_ms": statistics.median(latencies) if latencies else 0.0,
            "op_p90_ms": statistics.quantiles(latencies, n=10)[8] if len(latencies) > 1 else 0.0,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted if m["name"] in values}

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{name}-seed{seed}-trace{int(traced)}"
    info = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "src_lines": src_lines(),
        "pool_size": len(pool),
        "fail_rate": fail_rate,
        "setup_s": setup_s,
    }
    with open(f"{stem}.json", "w") as f:
        json.dump({"info": info, "metrics": values, "failures": failures, "ops": records}, f, indent=1)
    if tracer is not None:
        tracer.dump(f"{stem}.spans.tsv.gz")

    print(f"workload {name}, seed {seed}, trace {int(traced)}: {attempted} ops, {failed} failed")
    for failure in failures[:10]:
        print(f"  FAILED {failure}")
    for key, m in metrics.items():
        print(f"  {key:<40} {m['value']:>14.6g} {m['unit']}")
    if not traced:
        print(f"  {'fail_rate':<40} {fail_rate:>14.6g} ratio")
    print("info " + json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    worst = 0
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        child = subprocess.run(cmd, cwd=ROOT, timeout=600)
        worst = max(worst, child.returncode)
    return worst


def record_digests() -> int:
    """Run every pool input of the default seed once and record its digest.
    Refuses to record an output that fails its checks."""
    lib, cli, modules = load_program()
    table = {}
    for name, workload in WORKLOADS.items():
        check = Checker(workload, lib, seed=None)
        table[name] = {}
        for op in workload.pool(DEFAULT_SEED):
            key = " ".join(op.argv)
            if key in table[name]:
                continue
            clear_caches(modules)
            rc, out, err, _ = run_op(cli, op.argv)
            failure = check(op, rc, out, err)
            if failure:
                sys.exit(f"error: {name}: {key}: {failure}")
            table[name][key] = digest(out)
        print(f"{name}: {len(table[name])} inputs")
    with open(DIGESTS, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if args.record_digests:
        return record_digests()
    if args.seconds is None:
        args.seconds = float(benchmark_spec()["run_seconds"])
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
