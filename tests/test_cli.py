from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefschetz_lab import build_region, cli, enumerate_tilings, hyperfactorial, macmahon, parse_ideal, tilings
from lefschetz_lab.cli import COMMANDS, main
from lefschetz_lab.ideals import MAX_HILBERT_DEGREE, hilbert_function
from lefschetz_lab.render import render_ascii, render_svg_text
from lefschetz_lab.reports import wlp_report_to_dict
from lefschetz_lab.wlp import analyze_wlp
from _paper import wlp_report_from_dict

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
    code, _, err = run_cli(["foo"])
    assert code == 2 and "argument command: invalid choice: 'foo'" in err


@pytest.mark.parametrize("flag", ["--max-exponent", "--prime-cap"])
@pytest.mark.parametrize("value", ["-3", "1"])
def test_scan_refuses_caps_that_scan_nothing(flag, value):
    code, out, err = run_cli(["scan", flag, value])
    assert code == 2 and flag in err and "below 2" in err
    assert out == ""


def test_scan_answers_or_refuses_before_it_enumerates(monkeypatch):
    from lefschetz_lab import wlp

    monkeypatch.setattr(wlp, "enumerate_type2_forms", lambda e: pytest.fail("the enumeration must not start"))
    # no prime p <= 2 has 2p > 5, the least a+b+c enumerated
    code, out, _ = run_cli(["scan", "--max-exponent", "30", "--prime-cap", "2", "--json"])
    assert code == 0 and json.loads(out)["counterexamples"] == []
    for cap in ("12", "30"):
        code, out, err = run_cli(["scan", "--max-exponent", cap, "--prime-cap", "31"])
        assert code == 1 and out == "" and "MAX_SCAN_IDEALS" in err
    # cap 11 passes the size check and reaches the enumeration, here an empty one
    started = []
    monkeypatch.setattr(wlp, "enumerate_type2_forms", lambda e: started.append(e) or iter(()))
    code, out, _ = run_cli(["scan", "--max-exponent", "11", "--prime-cap", "37", "--json"])
    assert code == 0 and json.loads(out)["counterexamples"] == [] and started == [11]


@pytest.mark.parametrize("max_exponent", ["2", "3"])
def test_scan_reads_its_primes_off_the_data_not_the_cap(max_exponent):
    # the primes come from each shape's last invariant factor, so a cap of
    # 10^10 answers as fast as 13 and lists the same counterexamples
    def scan(cap):
        start = time.perf_counter()
        code, out, err = run_cli(["scan", "--max-exponent", max_exponent, "--prime-cap", cap, "--json"])
        assert (code, err) == (0, "")
        assert time.perf_counter() - start < 1.0
        return json.loads(out)["counterexamples"]

    found = scan("10000000000")
    assert found == scan("13")
    if max_exponent == "2":
        assert found == []


def test_count_answers_a_huge_floating_region_before_enumerating(monkeypatch):
    # a hexagon of sides 9 and 11 with a floating side-2 puncture, whose
    # signed matching count would outgrow the live-set cap
    def no_search(region):
        raise AssertionError("the tiling stream must not start")

    monkeypatch.setattr(tilings, "enumerate_tilings", no_search)
    code, out, _ = run_cli(["count", "x^20,y^20,z^20,x^9*y^9*z^9", "--d", "29"])
    assert code == 0 and "tilings: 238961518860614976732480734070000\n" in out


@pytest.mark.parametrize("n", [10, 30])
def test_count_answers_hexagons_past_the_matching_cap(n):
    code, out, _ = run_cli(["count", f"x^{2 * n},y^{2 * n},z^{2 * n}", "--d", str(3 * n), "--json"])
    payload = json.loads(out)
    assert code == 0
    assert payload["count"] == payload["per_Z"] == abs(payload["det_N"]) == macmahon(n, n, n)


def test_count_never_runs_the_matching_count(monkeypatch):
    from lefschetz_lab import intlinalg

    dp = ("biadjacency", "matching_counts", "permanent")
    assert not any(hasattr(tilings, name) for name in dp)
    for name in dp:
        monkeypatch.setattr(intlinalg, name, lambda *args, name=name: pytest.fail(f"count called {name}"))
    # a hexagon, an even floating hole, and two odd ones
    for ideal, d in (
        ("x^4,y^4,z^4", 6),
        ("x^8,y^8,z^8,x^2*y^2*z^2", 10),
        ("x^7,y^7,z^6,x*y^4*z^2,x^3*y*z^2,x^4*y*z", 8),
    ):
        assert run_cli(["count", ideal, "--d", str(d)])[0] == 0


def test_count_and_region_answer_a_long_thin_strip():
    # a witness matching whose augmenting paths run the length of the strip
    code, out, _ = run_cli(["count", "x^2,y^1000,z^1000", "--d", "1001"])
    assert code == 0
    assert "tilings: 1000\n" in out and "det Z = -1000, det N = 1000, per Z = 1000" in out
    code, out, _ = run_cli(["region", "x^2,y^1000,z^1000", "--d", "1001"])
    assert code == 0 and "tileable: yes" in out


@pytest.mark.parametrize(
    "argv, limit",
    [
        (["hilbert", "x^3000000,y,z"], "MAX_HILBERT_DEGREE"),
        (["wlp", "x^400000,y,z^2"], "MAX_HILBERT_DEGREE"),
        (["ci", "300", "300", "300"], "MAX_REGION_TRIANGLES"),
        (["count", "x^200,y^200,z^200", "--d", "300"], "MAX_REGION_TRIANGLES"),
        (["wlp", "x^200,y^200,z^200"], "MAX_REGION_TRIANGLES"),
        # a picture draws all d^2 triangles, however few the region has
        (["region", "x^2,y^1000,z^1000", "--d", "1001", "--svg", "strip.svg"], "MAX_REGION_TRIANGLES"),
        (["region", "x^2,y^1000,z^1000", "--d", "1001", "--ascii"], "MAX_REGION_TRIANGLES"),
        (["count", "x^2,y^1000,z^1000", "--d", "1001", "--svg", "strip.svg"], "MAX_REGION_TRIANGLES"),
        (["count", "x^2,y^3000,z^3000", "--d", "3001", "--svg", "strip.svg"], "MAX_REGION_TRIANGLES"),
        # a value too long for str(int), however it would be printed
        (["formula", "hyper", "100"], "sys.get_int_max_str_digits()"),
        (["formula", "hyper", "100", "--json"], "sys.get_int_max_str_digits()"),
        (["formula", "mac", "150", "150", "150"], "sys.get_int_max_str_digits()"),
        (["formula", "mac", "150", "150", "150", "--json"], "sys.get_int_max_str_digits()"),
        (["formula", "hyper", "3000"], "sys.get_int_max_str_digits()"),
        (["formula", "hyper", "1000000000"], "sys.get_int_max_str_digits()"),
        # a small value whose hyperfactorial arguments are too large to tabulate
        (["formula", "splitdet", "10000000", "1", "1", "1", "1"], "MAX_HYPERFACTORIAL_ARGUMENT"),
    ],
)
def test_oversized_inputs_are_refused_by_name(argv, limit, monkeypatch, tmp_path):
    # refused before the region is built, the value computed or a file written
    monkeypatch.chdir(tmp_path)
    if "--svg" in argv or "--ascii" in argv:
        monkeypatch.setattr(cli, "build_region", lambda *args: pytest.fail("built the region"))
    for name in ("hyperfactorial", "macmahon"):
        monkeypatch.setattr(cli, name, lambda *args: pytest.fail("computed the value"))
    code, out, err = run_cli(argv)
    assert (code, out) == (1, "") and limit in err
    assert list(tmp_path.iterdir()) == []


def test_a_value_just_below_the_print_limit_prints_exactly():
    # H(80) has 4,037 digits, within the default limit of 4,300
    code, out, err = run_cli(["formula", "hyper", "80", "--json"])
    assert (code, err) == (0, "") and json.loads(out)["value"] == hyperfactorial(80)
    assert len(str(hyperfactorial(80))) == 4037


def test_formula_estimates_and_answers_large_arguments_at_once():
    def lgamma_sum(n):
        return math.fsum(map(math.lgamma, range(2, n + 1)))

    for n in (0, 1, 2, 80, 1000):
        assert cli._log_hyperfactorial(n) == lgamma_sum(n)
    for n in (1001, 1500, 5000, 30000):
        assert cli._log_hyperfactorial(n) == pytest.approx(lgamma_sum(n), rel=1e-14, abs=1e-6)
    code, out, err = run_cli(["formula", "mac", "20000", "1", "1"])
    assert (code, out, err) == (0, "Mac(20000,1,1) = 20001 = 3 * 59 * 113\n", "")


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["splitdet", "3000", "1", "1", "1", "1"], "splitdet(p=3000,q=1,r=1,m=1,n=1) = 3000 = 2^3 * 3 * 5^3\n"),
        (["twomahonian", "3000", "2", "3001", "2999", "1", "3001"], "twomahonian(a=3000,b=2,c=3001,alpha=2999,beta=1,d=3001) = 1\n"),
    ],
)
def test_formula_answers_a_small_value_of_large_arguments_at_once(argv, expected):
    # the value comes from prime valuations, not from the hyperfactorials
    start = time.perf_counter()
    assert run_cli(["formula", *argv]) == (0, expected, "")
    assert time.perf_counter() - start < 1.0


def test_oversized_wlp_is_refused_before_any_reduction(monkeypatch):
    from lefschetz_lab import wlp

    monkeypatch.setattr(wlp, "degree_complement", lambda ideal, d: pytest.fail(f"reduced degree {d}"))
    code, out, err = run_cli(["wlp", "x^200,y^200,z^200"])
    assert (code, out) == (1, "")
    assert err == "error: the degree-174 region has 30276 triangles, above the limit MAX_REGION_TRIANGLES = 30000\n"


@pytest.mark.parametrize(
    "argv, limit",
    [
        (["ci", "3000", "3000", "3000"], "MAX_REGION_TRIANGLES"),  # even sum: one hexagon count
        (["ci", "3000", "3001", "3000"], "MAX_REGION_TRIANGLES"),  # odd sum: the restricted minors
        (["ci", "50000", "50000", "50000"], "MAX_HILBERT_DEGREE"),
        (["ci", "50000", "50001", "50000", "--char", "2"], "MAX_HILBERT_DEGREE"),
    ],
)
def test_ci_checks_its_size_before_the_closed_forms(monkeypatch, argv, limit):
    from lefschetz_lab import wlp

    for name in ("macmahon", "type_one_odd_minor"):
        monkeypatch.setattr(wlp, name, lambda *args, name=name: pytest.fail(f"ci computed {name}"))
    code, out, err = run_cli(argv)
    assert (code, out) == (1, "") and f"{limit} = " in err


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_type2_checks_its_size_before_the_hadamard_bound(monkeypatch, json_flag):
    # the bad primes' size checks come first, so 3^binom(m+2, 2) is never built
    from lefschetz_lab import wlp

    monkeypatch.setattr(wlp, "_hadamard_bound", lambda *args: pytest.fail("built the Hadamard bound"))
    code, out, err = run_cli(["type2", "x^200000,y^2,z^2,y*z", *json_flag])
    assert (code, out) == (1, "") and "MAX_HILBERT_DEGREE = " in err


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_type2_refuses_a_bound_too_long_to_print(json_flag):
    # the Hadamard bound here has 4,606 digits, past the interpreter's 4,300
    code, out, err = run_cli(["type2", "x^130,y^130,z^130,x*y", *json_flag])
    assert (code, out) == (1, "")
    assert err == (
        "error: the Hadamard bound 3^(9653) has about 4606 decimal digits, "
        f"above sys.get_int_max_str_digits() = {sys.get_int_max_str_digits()}\n"
    )


def test_a_large_degree_counts_its_size_off_the_staircase():
    # no graded piece past MAX_HILBERT_DEGREE is refused by name: the size
    # check counts h(d-1) + h(d-2) off the staircase, whatever the degree
    code, out, _ = run_cli(["region", "x^0", "--d", "200"])
    assert code == 0 and "triangles: 0 up, 0 down (balanced, excess 0)\n" in out
    code, out, _ = run_cli(["count", "x^200000,y^2,z^2", "--d", "200"])
    assert code == 0 and "tilings: 1\n" in out
    for d in (MAX_HILBERT_DEGREE + 1, MAX_HILBERT_DEGREE + 2):
        code, out, _ = run_cli(["region", "x^2,y^2", "--d", str(d)])
        assert code == 0 and "triangles: 4 up, 4 down (balanced, excess 0)\n" in out
    # past the socle degree + 2 both pieces are 0, and the region is empty
    code, out, _ = run_cli(["region", f"x^{MAX_HILBERT_DEGREE},y,z", "--d", str(MAX_HILBERT_DEGREE + 2)])
    assert code == 0 and "triangles: 0 up, 0 down (balanced, excess 0)\n" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["wlp", "x^4,y^4,z^4,x^2*z^2", "--primes", "2,3,5", "--all-primes"],  # type two
        ["wlp", "x^3,y^4,z^5", "--primes", "2,3", "--json"],  # type one
        ["wlp", "x^4,y^4,z^4,xyz", "--all-primes"],  # twin peak
        ["wlp", "x^5,y^5,z^5,x^2y^2,x^2z^2,y^2z^2"],  # peak shortcut
        ["wlp", "x^4,y^5,z^7,x^2y,x^3z", "--primes", "2"],  # full scan
        ["ci", "6", "7", "8", "--char", "7"],
        ["ci", "5", "5", "5", "--json"],
        ["scan", "--max-exponent", "3", "--json"],
    ],
)
def test_wlp_ci_and_scan_build_no_region(monkeypatch, argv):
    # their degrees are reduced from the complement ``degree_complement``
    # reads off the staircase: no region, no standard monomial list
    import lefschetz_lab
    from lefschetz_lab import ideals, regions, reports

    def forbidden(*args, **kwargs):
        raise AssertionError(f"{argv[0]} built a region or listed standard monomials")

    monkeypatch.setattr(regions.TriangularRegion, "__init__", forbidden)
    for module in (lefschetz_lab, ideals, regions, reports, cli):
        for name in ("build_region", "standard_monomials"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    code, out, err = run_cli(argv)
    assert (code, err) == (0, "") and out


def test_count_answers_without_visiting_tilings():
    # the backtracking stream hits dead ends here and takes tens of seconds
    code, out, _ = run_cli(["count", "x^11,y^5,z^14", "--d", "15", "--json"])
    payload = json.loads(out)
    assert code == 0
    assert [payload[k] for k in ("count", "sum_msgn", "sum_lpsgn", "per_Z")] == [1001] * 4


def test_count_builds_no_witness_tiling(monkeypatch, tmp_path):
    # the path sum is det N, so count matches nothing and builds or signs no
    # tiling; with --svg, first_tiling's matching is the only one
    matchings = []
    hopcroft_karp, tiling = tilings._hopcroft_karp, tilings.Tiling
    monkeypatch.setattr(tilings, "_hopcroft_karp", lambda *args: matchings.append(1) or hopcroft_karp(*args))
    for name in ("Tiling", "PathFamily", "permutation_sign", "msgn", "lpsgn", "to_path_family"):
        monkeypatch.setattr(tilings, name, lambda *args, name=name: pytest.fail(f"count called {name}"))
    code, out, _ = run_cli(["count", "x^4,y^4,z^4", "--d", "6"])
    assert code == 0 and "tilings: 20\n" in out and matchings == []
    monkeypatch.setattr(tilings, "Tiling", tiling)
    monkeypatch.chdir(tmp_path)
    assert run_cli(["count", "x^4,y^4,z^4", "--d", "6", "--svg", "hexagon.svg"])[0] == 0
    assert matchings == [1]


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


def test_runs_without_numpy():
    root = README.parent
    argv = ["wlp", "x^4,y^4,z^4,x^2*z^2", "--primes", "2,3,5", "--json"]
    # a None entry in sys.modules makes every import of numpy fail; runpy is
    # ``python -m`` started after that entry is in place
    code = "import runpy, sys; sys.modules['numpy'] = None; runpy.run_module('lefschetz_lab', run_name='__main__')"
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        cwd=root,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run_cli(argv)[1]


# -- plain command lines and the parser of one command ---------------------------

PARSER_CASES = [
    *([name, "-h"] for name in COMMANDS),
    ["ci"],
    ["ci", "1", "2"],
    ["hilbert"],
    ["wlp", "--primes", "2"],
    ["ci", "1", "x", "3"],
    ["region", "x^2,y^2,z^2", "--d", "three"],
    ["scan", "--max-exponent", "1"],
    ["wlp", "x,y,z", "--primes", "4"],
    ["ci", "1", "2", "3", "extra"],
    ["type2", "x^4,y^4,z^4,x^2*z^2", "--json", "extra"],
    ["wlp", "x^4,y^4,z^4,x^2*z^2", "--prim", "2"],
    ["wlp", "x^4,y^4,z^4,x^2*z^2", "--all"],
    ["formula"],
    ["formula", "mac", "1", "2"],
    ["formula", "mac", "-h"],
    ["formula", "nope"],
    ["formula", "mac", "1", "2", "3", "--json"],
    ["formula", "--json", "mac", "1", "2", "3"],
    ["ci", "2", "2", "2"],
    ["ci", "3", "4", "5", "--char", "3317044064679887385961981"],
    ["count", "x^2,y^2,z^2"],
    ["region", "x^2,y^2,z^2", "--ascii", "--d", "3"],
    ["wlp", "x^4,y^4,z^4,x^2*z^2", "--all-primes", "--primes", "2,3", "--json"],
    ["scan", "--prime-cap", "7", "--max-exponent", "2"],
    ["hilbert", "x^3,y^3,z^3", "--max-degree=4"],
    ["ci", "--char", "-3", "2", "2", "2"],
    [],
    ["-h"],
    ["foo"],
    ["c", "1", "2", "3"],
    ["--json", "ci", "1", "2", "3"],
    ["ci", "--json", "ci"],
]

#: The PARSER_CASES that ``cli._plain_args`` reads without argparse.
PLAIN_CASES = [
    ["formula", "mac", "1", "2", "3", "--json"],
    ["ci", "2", "2", "2"],
    ["ci", "3", "4", "5", "--char", "3317044064679887385961981"],
    ["count", "x^2,y^2,z^2"],
    ["region", "x^2,y^2,z^2", "--ascii", "--d", "3"],
    ["wlp", "x^4,y^4,z^4,x^2*z^2", "--all-primes", "--primes", "2,3", "--json"],
    ["scan", "--prime-cap", "7", "--max-exponent", "2"],
]


@pytest.mark.parametrize("argv", PARSER_CASES, ids=" ".join)
def test_one_command_parser_answers_as_the_full_parser(monkeypatch, argv):
    built = []
    real = cli.build_parser

    def spy(command=None):
        built.append(command)
        return real(command)

    monkeypatch.setattr(cli, "build_parser", spy)
    fast = run_cli(argv)
    monkeypatch.setattr(cli, "build_parser", lambda command=None: real())
    monkeypatch.setattr(cli, "_plain_args", lambda argv: None)
    assert fast == run_cli(argv)
    assert built == ([] if argv in PLAIN_CASES else [argv[0] if argv and argv[0] in COMMANDS else None])


def test_a_call_registers_only_its_subcommand(monkeypatch):
    added = []
    real = argparse._SubParsersAction.add_parser

    def spy(self, name, **kwargs):
        added.append(name)
        return real(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    assert run_cli(["ci", "6", "7", "8", "--json"])[0] == 0
    assert added == []
    assert run_cli(["ci", "6", "7", "8", "--js"])[0] == 0
    assert added == ["ci"]
    added.clear()
    cli.build_parser()
    assert added == [*COMMANDS, "mac", "hyper", "splitdet", "twomahonian"]


def test_formula_json_reads_the_same_before_or_after_the_formula_name():
    after = run_cli(["formula", "mac", "1", "2", "3", "--json"])
    assert json.loads(after[1])["value"] == 10
    assert run_cli(["formula", "--json", "mac", "1", "2", "3"]) == after
    assert run_cli(["formula", "--json", "mac", "--json", "1", "2", "3"]) == after
    assert run_cli(["formula", "mac", "1", "2", "3"])[1] == "Mac(1,2,3) = 10 = 2 * 5\n"


def test_a_composite_characteristic_is_refused():
    psi_13 = "3317044064679887385961981"  # 1,287,836,182,261 * 2,575,672,364,521
    code, out, err = run_cli(["wlp", "x^2,y^2,z^2", "--primes", psi_13])
    assert (code, out) == (2, "") and f"{psi_13} is not prime" in err
    code, out, err = run_cli(["ci", "3", "4", "5", "--char", psi_13])
    assert (code, out) == (1, "") and "characteristic must be 0 or prime" in err


_OPTIONS = sorted({flag for _, _, arguments in COMMANDS.values() for flag, _ in arguments if flag.startswith("-")} | {"--json"})
_VALUES = ["3", "-3", "x", "2,3", "x^2,y^2,z^2", ""]
_TOKENS = [
    *COMMANDS,
    *cli.FORMULAS,
    *(flag[:n] for flag in _OPTIONS for n in range(3, len(flag) + 1)),
    *(f"{flag}={value}" for flag in _OPTIONS for value in _VALUES),
    "-h",
    "--",
    *_VALUES,
]


@st.composite
def _command_lines(draw):
    """A command line that is mostly plain: a command, its positionals and
    some of its options, each option with a value unless it is a flag, in a
    drawn order; then up to two tokens of _TOKENS spliced in, and maybe one dropped."""
    command = draw(st.sampled_from([*COMMANDS, "foo"]))
    head, arguments = [command], COMMANDS[command][2] if command in COMMANDS else ()
    if command == "formula":
        formula = draw(st.sampled_from([*cli.FORMULAS, "nope"]))
        head, arguments = [command, formula], cli.FORMULAS.get(formula, ())
    value = st.one_of(st.just("3"), st.sampled_from(_VALUES))  # "3" converts for every argument
    groups = [[draw(value)] for flag, _ in arguments if not flag.startswith("-")]
    for flag, kwargs in (("--json", {"action": "store_true"}), *arguments):
        if flag.startswith("-") and draw(st.booleans()):
            groups.append([flag] if kwargs.get("action") == "store_true" else [flag, draw(value)])
    tokens = [token for group in draw(st.permutations(groups)) for token in group]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(_TOKENS)))
    if tokens and draw(st.integers(0, 3)) == 0:
        del tokens[draw(st.integers(0, len(tokens) - 1))]
    return head + tokens


@settings(max_examples=400, deadline=None)
@given(_command_lines())
def test_plain_reader_agrees_with_argparse(argv):
    plain = cli._plain_args(argv)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            parsed = cli.build_parser(argv[0] if argv[0] in COMMANDS else None).parse_args(argv)
        except SystemExit:
            parsed = None
    if plain is not None:
        assert parsed == plain
    if parsed is None:
        assert plain is None


def _benchmark_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("workloads", README.parent / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module.WORKLOADS


def test_readme_and_benchmark_command_lines_build_no_parser(monkeypatch):
    built = []
    real = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    workloads = _benchmark_workloads(monkeypatch).values()
    argvs = [argv for argv, _ in readme_console_blocks()]
    argvs += [list(w.warmup) for w in workloads] + [list(w.pool(0)[0].argv) for w in workloads]
    for argv in argvs:
        assert run_cli(argv)[0] == 0, argv
        assert built == [], argv


def test_repeated_primes_are_scanned_and_reported_once():
    code, out, _ = run_cli(["wlp", "x^2,y^2,z^2", "--primes", "3,2,3,2"])
    assert code == 0 and out.count("char 2:") == out.count("char 3:") == 1
    assert out.splitlines()[-2:] == ["char 3: WLP holds", "char 2: fails at degrees 3"]


def test_ci_factorizes_each_enumeration_once(monkeypatch):
    calls = []
    real = cli.factorize
    monkeypatch.setattr(cli, "factorize", lambda n: calls.append(n) or real(n))
    code, out, _ = run_cli(["ci", "40", "40", "41"])
    values = json.loads(run_cli(["ci", "40", "40", "41", "--json"])[1])["enumerations"]
    assert code == 0 and len(values) == 20
    assert sorted(calls) == sorted(values)
    shown = out.splitlines()[2].removeprefix("decisive enumerations: ").split(", ")
    assert [int(item.split(" = ")[0]) for item in shown] == values


def test_hilbert_clamps_a_deep_artinian_request():
    # the values past the socle degree are zeros and are trimmed, so a huge
    # request must neither allocate its range nor change the answer
    ideal = parse_ideal("x^2,y^2,z^2")
    assert hilbert_function(ideal, 10**15) == hilbert_function(ideal) == hilbert_function(ideal, 5)
    assert hilbert_function(ideal, 1).values == (1, 3)
    code, out, _ = run_cli(["hilbert", "x^2,y^2,z^2", "--max-degree", "10000000"])
    assert code == 0 and "hilbert: 1 3 3 1\n" in out


def test_hilbert_refuses_a_deep_non_artinian_request_by_name():
    ideal = parse_ideal("x^3*y,y^5")
    assert len(hilbert_function(ideal, MAX_HILBERT_DEGREE)) == MAX_HILBERT_DEGREE + 1
    with pytest.raises(ValueError, match="MAX_HILBERT_DEGREE"):
        hilbert_function(ideal, 10**15)
    code, out, err = run_cli(["hilbert", "x^3*y,y^5", "--max-degree", str(MAX_HILBERT_DEGREE + 1)])
    assert (code, out) == (1, "") and f"MAX_HILBERT_DEGREE = {MAX_HILBERT_DEGREE}" in err


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


def test_hilbert_counts_a_deep_non_artinian_quotient():
    # outside (x^3*y, y^5): x^i z^e for y^0, and i < 3 for each y^k, 1 <= k <= 4
    code, out, _ = run_cli(["hilbert", "x^3*y,y^5", "--max-degree", "1500", "--json"])
    assert code == 0
    values = json.loads(out)["values"]
    assert len(values) == 1501
    assert values == [j + 1 + sum(max(0, min(3, j - k + 1)) for k in range(1, 5)) for j in range(1501)]
    assert all(values[j] == j + 13 for j in range(6, 1501))


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
