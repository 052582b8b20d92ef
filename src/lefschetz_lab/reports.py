"""Schema-versioned JSON views of the analysis results.

All reports serialize under the ``lefschetz-lab/1`` schema with stable key
order.  The program only writes them; the tests parse a printed WLP report
back (``tests/_paper.py``) and check that it reconstructs an equal report.
"""

from __future__ import annotations

import json
from typing import Any

from .ideals import MonomialIdeal
from .regions import balance, build_region, puncture_analysis
from .tilings import EnumerationReport, is_tileable
from .wlp import WlpReport

SCHEMA = "lefschetz-lab/1"


def dumps(payload: dict[str, Any]) -> str:
    return json.dumps(payload, indent=2, sort_keys=False)


def wlp_report_to_dict(report: WlpReport) -> dict[str, Any]:
    return {
        "schema": SCHEMA,
        "ideal": str(report.ideal),
        "degrees": [
            {
                "d": r.d,
                "required_rank": r.required_rank,
                "rank_q": r.rank_q,
                "rank_mod": {str(p): rank for p, rank in sorted(r.rank_mod.items())},
                "leading_divisor": r.leading_divisor,
            }
            for r in report.degrees
        ],
        "holds_char0": report.holds_char0,
        "bad_primes": list(report.bad_primes) if report.bad_primes is not None else None,
        "method": report.method,
    }


def region_report_to_dict(ideal: MonomialIdeal, d: int) -> dict[str, Any]:
    region = build_region(ideal, d)
    stats = balance(region)
    return {
        "schema": SCHEMA,
        "report": "region",
        "ideal": str(ideal),
        "d": d,
        "up": stats.n_up,
        "down": stats.n_down,
        "kind": stats.kind,
        "excess": stats.excess,
        "tileable": bool(is_tileable(region)),
        "punctures": [
            {
                "generator": str(p.generator),
                "side": p.side_length,
                "floating": p.floating,
                "overlaps": [str(g) for g in p.overlap_partners],
                "touches": [str(g) for g in p.touch_partners],
            }
            for p in puncture_analysis(ideal, d)
        ],
    }


def enumeration_report_to_dict(
    ideal: MonomialIdeal, d: int, report: EnumerationReport | None
) -> dict[str, Any]:
    """Count report; ``report`` is None for an unbalanced region (0 tilings,
    no determinant quantities)."""
    base: dict[str, Any] = {
        "schema": SCHEMA,
        "report": "count",
        "ideal": str(ideal),
        "d": d,
        "balanced": report is not None,
    }
    if report is None:
        base.update(
            count=0, sum_msgn=None, sum_lpsgn=None, det_Z=None, det_N=None, per_Z=None
        )
    else:
        base.update(
            count=report.count,
            sum_msgn=report.sum_msgn,
            sum_lpsgn=report.sum_lpsgn,
            det_Z=report.det_z,
            det_N=report.det_n,
            per_Z=report.per_z,
        )
    return base
