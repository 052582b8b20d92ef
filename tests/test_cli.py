from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from lefschetz_lab import build_region, enumerate_tilings, macmahon, parse_ideal, tilings
from lefschetz_lab.cli import main
from lefschetz_lab.render import render_ascii, render_svg_text
from lefschetz_lab.reports import wlp_report_from_dict, wlp_report_to_dict
from lefschetz_lab.wlp import analyze_wlp

README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# -- exit codes ---------------------------------------------------------------


def test_exit_codes():
    assert run_cli(["wlp", "x^4,y^4,z^4,x^2*z^2"])[0] == 0
    assert run_cli(["wlp", "x^-1"])[0] == 2  # syntax error in the ideal
    assert run_cli(["wlp", "x^2, y^2"])[0] == 1  # not Artinian
    assert run_cli(["type2", "x^2,y^2,z^2"])[0] == 1  # type 1, not 2
    assert run_cli(["nonsense"])[0] == 2  # argparse usage error
    assert run_cli(["wlp", "x,y,z", "--primes", "4"])[0] == 2  # not a prime


def test_error_messages_name_the_problem():
    code, _, err = run_cli(["wlp", "x^2, y^2"])
    assert code == 1 and "Artinian" in err
    code, _, err = run_cli(["count", "x^-1"])
    assert code == 2 and "byte" in err


@pytest.mark.parametrize("flag", ["--max-exponent", "--prime-cap"])
@pytest.mark.parametrize("value", ["-3", "1"])
def test_scan_refuses_caps_that_scan_nothing(flag, value):
    code, out, err = run_cli(["scan", flag, value])
    assert code == 2 and flag in err and "below 2" in err
    assert out == ""


def test_count_refuses_a_huge_region_before_enumerating(monkeypatch):
    # Mac(10,10,10): its signed matching count outgrows the live-set cap
    def no_search(region):
        raise AssertionError("the tiling stream must not start")

    monkeypatch.setattr(tilings, "enumerate_tilings", no_search)
    code, _, err = run_cli(["count", "x^20,y^20,z^20", "--d", "30"])
    assert code == 1 and "cap" in err


def test_count_answers_without_visiting_tilings():
    # the backtracking stream hits dead ends here and takes tens of seconds
    code, out, _ = run_cli(["count", "x^11,y^5,z^14", "--d", "15", "--json"])
    payload = json.loads(out)
    assert code == 0
    assert [payload[k] for k in ("count", "sum_msgn", "sum_lpsgn", "per_Z")] == [1001] * 4


def test_count_answers_a_large_hexagon():
    code, out, _ = run_cli(["count", "x^12,y^12,z^12", "--d", "18", "--json"])
    assert code == 0 and json.loads(out)["count"] == macmahon(6, 6, 6) == 1_478_619_421_136


def test_module_entry_point_runs_from_a_checkout():
    root = README.parent
    proc = subprocess.run(
        [sys.executable, "-m", "lefschetz_lab", "count", "x^2,y^2,z^2", "--d", "3"],
        cwd=root,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "tilings: 2" in proc.stdout


# -- README examples are golden tests ------------------------------------------


def readme_console_blocks():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```console\n(.*?)```", text, flags=re.DOTALL)
    assert blocks, "README must carry console examples"
    for block in blocks:
        lines = block.splitlines()
        assert lines[0].startswith("$ lefschetz-lab ")
        argv = shlex.split(lines[0][2:])[1:]
        expected = "\n".join(lines[1:])
        yield argv, expected


@pytest.mark.parametrize(
    "argv, expected", list(readme_console_blocks()), ids=lambda v: v[0] if isinstance(v, list) else None
)
def test_readme_examples(argv, expected):
    code, out, err = run_cli(argv)
    assert code == 0, err
    assert out.rstrip("\n") == expected.rstrip("\n")


# -- JSON ----------------------------------------------------------------------


def test_wlp_json_round_trip():
    for text, primes in [("x^4,y^4,z^4,x^2*z^2", (2, 3)), ("x^3,y^3,z^3", (3,))]:
        report = analyze_wlp(parse_ideal(text), primes=primes, all_primes=True)
        payload = wlp_report_to_dict(report)
        recovered = wlp_report_from_dict(json.loads(json.dumps(payload)))
        assert recovered == report


def test_cli_json_outputs_are_valid_and_stable():
    for argv in [
        ["wlp", "x^4,y^4,z^4,x^2*z^2", "--primes", "2", "--json"],
        ["region", "x^2,y^2,z^2", "--d", "3", "--json"],
        ["count", "x^2,y^2,z^2", "--d", "3", "--json"],
        ["hilbert", "x^3,y^3,z^3", "--json"],
        ["ci", "4", "4", "4", "--json"],
        ["type2", "x^4,y^4,z^4,x^2*z^2", "--json"],
        ["scan", "--max-exponent", "2", "--prime-cap", "7", "--json"],
        ["formula", "mac", "1", "1", "1", "--json"],
    ]:
        code1, out1, _ = run_cli(argv)
        code2, out2, _ = run_cli(argv)
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["schema"] == "lefschetz-lab/1"
        assert json.loads(json.dumps(payload)) == payload


def test_wlp_json_matches_schema_example():
    _, out, _ = run_cli(["wlp", "x^4,y^4,z^4,x^2*z^2", "--json"])
    payload = json.loads(out)
    assert payload["holds_char0"] is True
    assert payload["bad_primes"] == [2]
    entry = payload["degrees"][4]  # degree 5
    assert entry["d"] == 5 and entry["required_rank"] == 10 and entry["rank_q"] == 10


def test_region_json_carries_the_stat_trio():
    _, out, _ = run_cli(["region", "x,y,z", "--d", "4", "--json"])
    payload = json.loads(out)
    assert (payload["up"], payload["down"], payload["kind"]) == (0, 0, "balanced")


def test_degree_defaults_to_the_first_decisive_degree():
    _, out, _ = run_cli(["region", "x^4,y^4,z^4,x^2*z^2", "--json"])
    assert json.loads(out)["d"] == 5  # strict peak: degrees {5, 6}
    _, out, _ = run_cli(["count", "x^2,y^2,z^2", "--json"])
    payload = json.loads(out)
    assert payload["d"] == 3 and payload["count"] == 2


# -- rendering -----------------------------------------------------------------


def test_svg_is_deterministic_and_matches_frozen_hash():
    hexagon = build_region(parse_ideal("x^2,y^2,z^2"), 3)
    text1 = render_svg_text(hexagon)
    text2 = render_svg_text(hexagon)
    assert text1 == text2
    digest = hashlib.sha256(text1.encode()).hexdigest()
    assert digest == "44466cd7ab7b2b35d7f0ce5745753135769921cbaf4f667ed2a950275d97ed81"


def test_svg_cell_and_lozenge_counts():
    hexagon = build_region(parse_ideal("x^2,y^2,z^2"), 3)
    plain = render_svg_text(hexagon)
    assert plain.count("<polygon") == 9  # 6 up + 3 down cells in the full triangle
    assert plain.count('fill="#555555"') == 3  # the three corner punctures
    first = next(enumerate_tilings(hexagon))
    tiled = render_svg_text(hexagon, first)
    assert tiled.count('fill="#d9d9d9"') == 3  # one rhombus per lozenge

    t5 = build_region(parse_ideal("x^4,y^4,z^4,x^2*z^2"), 5)
    svg5 = render_svg_text(t5)
    assert svg5.count('fill="#555555"') == 4  # three corners plus x^2z^2


def test_svg_file_writing(tmp_path):
    target = tmp_path / "out.svg"
    code, out, _ = run_cli(["region", "x^2,y^2,z^2", "--d", "3", "--svg", str(target)])
    assert code == 0 and "svg written" in out
    assert target.read_text().startswith("<?xml")


def test_ascii_picture():
    art = render_ascii(build_region(parse_ideal("x^2,y^2,z^2"), 3))
    assert art == "  #\n ^v^\n#v^v#"
