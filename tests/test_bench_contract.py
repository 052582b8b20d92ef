"""The benchmark's result line survives changes to the program.

``perfbench/run.py`` reads the program from outside: its traced metrics
derive from public functions and ``lru_cache``s by name, and a metric whose
function is gone is left out.  A traced run must still end in one strict
JSON line that carries every per-layer metric ``BENCHMARK.json`` names, so
each workload runs here briefly, traced, on the seed whose outputs have
recorded digests.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _reject_constant(token: str):
    raise ValueError(f"{token} is not strict JSON")


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_ends_in_a_strict_result_line(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0", "--seconds", "0.2", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_reject_constant)
    assert result["attempted"] > 0
    assert result["failed"] == 0
    missing = [m["name"] for m in SPEC["per_layer"] if m["name"] not in result["metrics"]]
    assert not missing, missing
