"""Rebuild ladders.json, the fixed inputs of the ci-ladder, wlp-mixed and
tiling-count workloads, or only the named ones:

    python3 perfbench/build_ladders.py [workload ...]

Each candidate op runs twice with cold caches; rungs are ordered by the
better of the two latencies measured here.  Only that order is used.  A
candidate whose output fails its check stops the build.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    lib, cli, modules = run.load_program()

    def ladder(name, candidates, make_op):
        check = run.Checker(workloads.WORKLOADS[name], lib, seed=None)
        timed = []
        for candidate in candidates:
            op = make_op(candidate)
            best = float("inf")
            for _ in range(2):
                run.clear_caches(modules)
                rc, out, err, wall = run.run_op(cli, op.argv)
                failure = check(op, rc, out, err)
                if failure:
                    sys.exit(f"error: {' '.join(op.argv)}: {failure}")
                best = min(best, wall)
            timed.append({**candidate, "ms": round(best * 1e3, 2)})
        return workloads.ladder(timed, lambda c: c["ms"])

    builders = {
        "ci-ladder": lambda: ladder(
            "ci-ladder", [{"abc": t} for t in workloads.ci_candidates(100)], lambda c: workloads.ci_op(c["abc"])
        ),
        "wlp-mixed": lambda: ladder(
            "wlp-mixed", [{"gens": g} for g in workloads.wlp_candidates(200)], lambda c: workloads.wlp_op(c["gens"])
        ),
        "tiling-count": lambda: ladder("tiling-count", workloads.count_candidates(25), workloads.count_op),
    }
    names = sys.argv[1:] or list(builders)
    ladders = {}
    if workloads.LADDERS.exists():
        with open(workloads.LADDERS) as f:
            ladders = json.load(f)
    for name in names:
        ladders[name] = builders[name]()
    with open(workloads.LADDERS, "w") as f:
        json.dump(ladders, f, indent=0)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
