"""Every seed-0 input of the benchmark prints the output recorded for it.

``perfbench/run.py`` checks each op of the default seed against the digest
in ``perfbench/digests.json``, but a short traced run reaches only a few
inputs.  Here every distinct input of every workload's seed-0 pool runs once
through ``cli.main`` with cold caches, and its stdout must hash to the
recorded digest (the first 16 hex digits of its SHA-256)."""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from lefschetz_lab import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
RECORDED = json.loads((PERFBENCH / "digests.json").read_text())


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _pool_inputs() -> list[tuple[str, tuple[str, ...]]]:
    """(workload, argv) for each distinct input of each seed-0 pool."""
    inputs = {}
    for name, workload in _workloads().items():
        for op in workload.pool(0):
            inputs.setdefault((name, " ".join(op.argv)), op.argv)
    return [(name, argv) for (name, _), argv in inputs.items()]


INPUTS = _pool_inputs()


def test_every_recorded_digest_has_a_pool_input():
    assert {(name, " ".join(argv)) for name, argv in INPUTS} == {
        (name, key) for name, table in RECORDED.items() for key in table
    }
    assert len(INPUTS) == 76


@pytest.mark.parametrize("name, argv", INPUTS, ids=[f"{name}: {' '.join(argv)}" for name, argv in INPUTS])
def test_pool_input_matches_its_recorded_digest(name, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    assert (code, err.getvalue()) == (0, "")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest()[:16] == RECORDED[name][" ".join(argv)]
