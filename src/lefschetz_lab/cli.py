"""Command-line front end.

Exit codes: 0 on success, 1 on a domain error (not Artinian, wrong type,
inadmissible parameters), 2 on a usage or ideal-syntax error.  Every
subcommand takes ``--json`` for machine-readable output under the
``lefschetz-lab/1`` schema.

``main`` reads a plain command line straight off the argument table
``COMMANDS``; argparse answers help, abbreviations and usage errors.
"""

from __future__ import annotations

import argparse
import math
import sys

from .errors import ExactnessError, NotArtinianError, ParseError
from .formulas import (
    SplitBinomParams,
    hyperfactorial,
    mac_terms,
    macmahon,
    split_binom_det,
    split_binom_terms,
    two_mahonian_enumeration,
    two_mahonian_terms,
)
from .ideals import MonomialIdeal, hilbert_function, parse_ideal, socle_profile
from .intlinalg import factorize, is_probable_prime
from .regions import MAX_REGION_TRIANGLES, balance, build_region
from .render import render_ascii, render_svg
from .reports import (
    SCHEMA,
    dumps,
    enumeration_report_to_dict,
    region_report_to_dict,
    wlp_report_to_dict,
)
from .tilings import first_tiling, signed_enumeration
from .wlp import (
    analyze_wlp,
    bad_primes,
    conjecture_scan,
    peak_shortcut,
    type2_char0_verdict,
    type2_poschar_bound,
    type_one_verdict,
    classify_type2,
)


def _prime_list(text: str) -> tuple[int, ...]:
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        p = int(chunk)
        if not is_probable_prime(p):
            raise argparse.ArgumentTypeError(f"{p} is not prime")
        out.append(p)
    return tuple(dict.fromkeys(out))  # repeats dropped, first-seen order kept


def _scan_cap(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"{value} is below 2, so nothing would be scanned")
    return value


def _default_degree(ideal: MonomialIdeal) -> int:
    """First decisive degree: the peak-shortcut degree when one exists, else
    the degree with the largest required rank."""
    shortcut = peak_shortcut(ideal)
    if shortcut is not None:
        return shortcut.degrees[0]
    sp = socle_profile(ideal)
    h = hilbert_function(ideal)
    return max(range(1, sp.socle_degree + 3), key=lambda d: (min(h[d - 2], h[d - 1]), -d))


def _check_picture_size(d: int) -> None:
    """A picture draws all d^2 triangles of the degree-d triangle, punctures
    included, so past ``MAX_REGION_TRIANGLES`` it is refused before the
    region is built."""
    if d * d > MAX_REGION_TRIANGLES:
        raise ValueError(
            f"the degree-{d} picture has {d * d} triangles, above MAX_REGION_TRIANGLES = {MAX_REGION_TRIANGLES}"
        )


def _factor_str(n: int) -> str:
    if n <= 1:
        return str(n)
    return " * ".join(
        f"{p}^{e}" if e > 1 else str(p) for p, e in sorted(factorize(n).items())
    )


def _cmd_hilbert(args) -> int:
    ideal = parse_ideal(args.ideal)
    h = hilbert_function(ideal, args.max_degree)
    payload = {
        "schema": SCHEMA,
        "report": "hilbert",
        "ideal": str(ideal),
        "values": list(h.values),
    }
    if ideal.is_artinian:
        sp = socle_profile(ideal)
        payload["socle"] = {
            "type": sp.type_,
            "degrees": list(sp.degrees),
            "level": sp.is_level,
            "socle_degree": sp.socle_degree,
            "monomials": [str(m) for m in sp.socle_monomials],
        }
    if args.json:
        print(dumps(payload))
        return 0
    print(f"ideal: {ideal}")
    print("hilbert:", " ".join(str(v) for v in h.values))
    if "socle" in payload:
        s = payload["socle"]
        level = "level" if s["level"] else "not level"
        print(
            f"socle: type {s['type']}, degrees {' '.join(map(str, s['degrees']))}, "
            f"{level}, socle degree {s['socle_degree']}"
        )
    return 0


def _cmd_region(args) -> int:
    ideal = parse_ideal(args.ideal)
    d = args.d if args.d is not None else _default_degree(ideal)
    if args.svg or args.ascii:
        _check_picture_size(d)
    region = build_region(ideal, d)
    payload = region_report_to_dict(ideal, d)
    if args.svg:
        render_svg(region, None, args.svg)
    if args.json:
        print(dumps(payload))
        return 0
    stats = balance(region)
    print(f"ideal: {ideal}")
    print(f"region degree: {d}")
    print(f"triangles: {stats.n_up} up, {stats.n_down} down ({stats.kind}, excess {stats.excess})")
    print(f"tileable: {'yes' if payload['tileable'] else 'no'}")
    for p in payload["punctures"]:
        extras = []
        if p["overlaps"]:
            extras.append("overlaps " + ", ".join(p["overlaps"]))
        if p["touches"]:
            extras.append("touches " + ", ".join(p["touches"]))
        suffix = f" ({'; '.join(extras)})" if extras else ""
        kind = "floating" if p["floating"] else "non-floating"
        print(f"puncture {p['generator']}: side {p['side']}, {kind}{suffix}")
    if args.ascii:
        print(render_ascii(region))
    if args.svg:
        print(f"svg written: {args.svg}")
    return 0


def _cmd_count(args) -> int:
    ideal = parse_ideal(args.ideal)
    d = args.d if args.d is not None else _default_degree(ideal)
    if args.svg:
        _check_picture_size(d)
    region = build_region(ideal, d)
    stats = balance(region)
    report = signed_enumeration(region) if stats.kind == "balanced" else None
    payload = enumeration_report_to_dict(ideal, d, report)
    if args.svg:
        render_svg(region, first_tiling(region), args.svg)
    if args.json:
        print(dumps(payload))
        return 0
    print(f"ideal: {ideal}")
    print(f"region degree: {d}")
    if report is None:
        print(f"unbalanced region ({stats.n_up} up vs {stats.n_down} down): 0 tilings")
    else:
        print(f"tilings: {report.count}")
        print(f"signed sums: matching {report.sum_msgn}, path {report.sum_lpsgn}")
        print(f"det Z = {report.det_z}, det N = {report.det_n}, per Z = {report.per_z}")
    if args.svg:
        print(f"svg written: {args.svg}")
    return 0


def _cmd_wlp(args) -> int:
    ideal = parse_ideal(args.ideal)
    if not ideal.is_proper:
        raise NotArtinianError("the unit ideal has no Lefschetz theory")
    report = analyze_wlp(ideal, args.primes, all_primes=args.all_primes)
    if args.json:
        print(dumps(wlp_report_to_dict(report)))
        return 0
    print(f"ideal: {ideal}")
    print(f"method: {report.method}")
    print(f"char 0: {'WLP holds' if report.holds_char0 else 'WLP fails'}")
    failing = report.failing_degrees
    if not report.holds_char0:
        print(f"  failing degrees: {' '.join(map(str, failing[0]))}")
    if report.bad_primes is not None:
        if report.bad_primes:
            print(f"bad primes: {' '.join(map(str, report.bad_primes))}")
        else:
            print("bad primes: none (WLP in every characteristic)")
    for p in args.primes:
        if failing[p]:
            print(f"char {p}: fails at degrees {' '.join(map(str, failing[p]))}")
        else:
            print(f"char {p}: WLP holds")
    return 0


def _cmd_ci(args) -> int:
    a, b, c = args.a, args.b, args.c
    ideal = parse_ideal(f"x^{a}, y^{b}, z^{c}")
    bad = bad_primes(ideal)  # its size checks refuse an oversized input before the closed forms run
    verdict0 = type_one_verdict(a, b, c, 0)
    values = verdict0.witnesses
    d = (a + b + c) // 2
    payload = {
        "schema": SCHEMA,
        "report": "ci",
        "ideal": str(ideal),
        "case": verdict0.case,
        "peak_degree": d,
        "enumerations": list(values),
        "bad_primes": list(bad),
    }
    if args.char is not None:
        payload["char"] = args.char
        payload["holds"] = type_one_verdict(a, b, c, args.char).holds
    if args.json:
        print(dumps(payload))
        return 0
    print(f"ideal: {ideal}")
    print(f"case: {verdict0.case} (peak degree {d})")
    shown = [f"{v} = {f}" if (f := _factor_str(v)) != str(v) else str(v) for v in values]
    print("decisive enumerations:", ", ".join(shown))
    if bad:
        print(f"bad primes: {' '.join(map(str, bad))}")
    else:
        print("bad primes: none (WLP in every characteristic)")
    if args.char is not None:
        print(f"char {args.char}: {'WLP holds' if payload['holds'] else 'WLP fails'}")
    return 0


def _cmd_type2(args) -> int:
    ideal = parse_ideal(args.ideal)
    form = classify_type2(ideal)
    holds, failing = type2_char0_verdict(ideal)
    payload = {
        "schema": SCHEMA,
        "report": "type2",
        "ideal": str(ideal),
        "form": form.form,
        "parameters": {
            "a": form.a,
            "b": form.b,
            "c": form.c,
            "alpha": form.alpha,
            "beta": form.beta,
            "gamma": form.gamma,
        },
        "permutation": str(form.permutation),
        "socle_degrees": list(form.socle_degrees),
        "level": form.is_level,
        "holds_char0": holds,
        "failing_degrees": list(failing),
    }
    if holds:
        bound = type2_poschar_bound(ideal)
        payload["bad_primes"] = list(bad_primes(ideal))
        payload["pos_char_bound"] = {
            "kind": bound.kind,
            "bound": bound.bound,
            "e": str(bound.e) if bound.e is not None else None,
            "note": bound.note,
        }
    if args.json:
        print(dumps(payload))
        return 0
    params = payload["parameters"]
    shown = {k: v for k, v in params.items() if v is not None}
    print(f"ideal: {ideal}")
    print(f"type 2, form ({'i' if form.form == 1 else 'ii'}): " + ", ".join(f"{k}={v}" for k, v in shown.items()))
    print(f"normalizing permutation: {form.permutation}")
    level = "level" if form.is_level else "not level"
    print(f"socle degrees: {form.socle_degrees[0]}, {form.socle_degrees[1]} ({level})")
    if holds:
        print("char 0: WLP holds")
        bp = payload["bad_primes"]
        print(f"bad primes: {' '.join(map(str, bp)) if bp else 'none'}")
        pcb = payload["pos_char_bound"]
        note = f" [{pcb['note']}]" if pcb["note"] else ""
        print(f"good characteristic bound: {pcb['bound']} ({pcb['kind']}){note}")
    else:
        print(f"char 0: WLP fails exactly at degrees {' '.join(map(str, failing))}")
    return 0


def _cmd_scan(args) -> int:
    found = conjecture_scan(args.max_exponent, args.prime_cap)
    payload = {
        "schema": SCHEMA,
        "report": "scan",
        "max_exponent": args.max_exponent,
        "prime_cap": args.prime_cap,
        "counterexamples": [
            {"ideal": str(c.ideal), "prime": c.prime, "degree": c.degree} for c in found
        ],
    }
    if args.json:
        print(dumps(payload))
        return 0
    print(
        f"scanned type-2 ideals with exponents <= {args.max_exponent}, "
        f"primes <= {args.prime_cap}"
    )
    if not found:
        print("no counterexamples")
    for c in found:
        print(f"counterexample: ({c.ideal}) fails at p={c.prime}, degree {c.degree}")
    return 0


def _log_hyperfactorial(n: int) -> float:
    """ln H(n) = ln G(n+1): the sum of ln i! over i < n up to n = 1000; above,
    Barnes G's expansion, ending in zeta'(-1) = -0.16542..., whose first
    dropped term 1/(240 n^2) is below 1e-8."""
    if n <= 1000:
        return math.fsum(map(math.lgamma, range(2, n + 1)))
    return n * n / 2 * math.log(n) - 0.75 * n * n + n / 2 * math.log(2 * math.pi) - math.log(n) / 12 - 0.1654211437004509


def _check_printable(desc: str, num: list[int], den: list[int]) -> None:
    """Refuse the value H(num[0]) H(num[1]) ... / (H(den[0]) ...) before it
    is computed if it has more decimal digits than the interpreter prints.
    A negative argument is left to the formula's own hypothesis checks."""
    logs = [_log_hyperfactorial(n) / math.log(10) for n in num + den]
    digits = math.floor(sum(logs[: len(num)]) - sum(logs[len(num) :])) + 1
    limit = sys.get_int_max_str_digits()
    if 0 < limit < digits and min(num + den) >= 0:
        raise ValueError(f"{desc} has about {digits} decimal digits, above sys.get_int_max_str_digits() = {limit}")


def _cmd_formula(args) -> int:
    # each value is a quotient of hyperfactorials H(n), of these arguments n
    if args.formula == "mac":
        desc, (num, den) = f"Mac({args.a},{args.b},{args.c})", mac_terms(args.a, args.b, args.c)
        compute, params = macmahon, (args.a, args.b, args.c)
    elif args.formula == "hyper":
        desc, num, den = f"H({args.n})", [args.n], []
        compute, params = hyperfactorial, (args.n,)
    elif args.formula == "splitdet":
        p, q, r, m, n = args.p, args.q, args.r, args.m, args.n
        desc = f"splitdet(p={p},q={q},r={r},m={m},n={n})"
        compute, params = split_binom_det, (SplitBinomParams(p, q, r, m, n),)
        num, den = split_binom_terms(*params)
    else:
        a, b, c, alpha, beta, d = params = args.a, args.b, args.c, args.alpha, args.beta, args.d
        desc = f"twomahonian(a={a},b={b},c={c},alpha={alpha},beta={beta},d={d})"
        compute, (num, den) = two_mahonian_enumeration, two_mahonian_terms(*params)
    _check_printable(desc, num, den)
    value = compute(*params)
    if args.json:
        print(dumps({"schema": SCHEMA, "report": "formula", "expression": desc, "value": value}))
        return 0
    print(f"{desc} = {value}" + (f" = {_factor_str(value)}" if value > 1 else ""))
    return 0


_IDEAL = ("ideal", {})
_INT = {"type": int}
_DEGREE = ("--d", {"type": int, "default": None, "help": "degree (default: first decisive degree)"})
_JSON = ("--json", {"action": "store_true", "help": "emit JSON instead of text"})
_ALL_PRIMES_HELP = "compute leading divisors at every degree (exact bad primes from scan data)"

#: Every subcommand: name -> (handler, help text, its arguments after --json,
#: each a name and the keyword arguments ``add_argument`` takes).
COMMANDS = {
    "hilbert": (_cmd_hilbert, "Hilbert function and socle data", (_IDEAL, ("--max-degree", {"type": int, "default": None}))),
    "region": (_cmd_region, "triangular region statistics and punctures", (
        _IDEAL, _DEGREE, ("--svg", {"metavar": "PATH", "default": None}), ("--ascii", {"action": "store_true"}))),
    "count": (_cmd_count, "tiling count and signed enumerations", (
        _IDEAL, _DEGREE, ("--svg", {"metavar": "PATH", "default": None, "help": "render the first tiling"}))),
    "wlp": (_cmd_wlp, "weak Lefschetz verdicts and bad primes", (
        _IDEAL,
        ("--primes", {"type": _prime_list, "default": (), "help": "comma-separated primes to scan"}),
        ("--all-primes", {"action": "store_true", "help": _ALL_PRIMES_HELP}))),
    "ci": (_cmd_ci, "complete-intersection classification", (
        ("a", _INT), ("b", _INT), ("c", _INT), ("--char", {"type": int, "default": None, "help": "also report one characteristic"}))),
    "type2": (_cmd_type2, "type-2 normal form, verdict, and bounds", (_IDEAL,)),
    "scan": (_cmd_scan, "search for conjecture counterexamples", (
        ("--max-exponent", {"type": _scan_cap, "default": 4}), ("--prime-cap", {"type": _scan_cap, "default": 13}))),
    "formula": (_cmd_formula, "evaluate a closed-form enumeration", ()),
}

#: ``formula``'s own subcommands: formula -> its arguments before --json.
FORMULAS = {
    formula: tuple((name, _INT) for name in names.split())
    for formula, names in {"mac": "a b c", "hyper": "n", "splitdet": "p q r m n", "twomahonian": "a b c alpha beta d"}.items()
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with every subcommand, or with ``command`` alone.  A
    one-command parser lists every command in its usage line, so usage errors
    print the same text either way."""
    parser = argparse.ArgumentParser(
        prog="lefschetz-lab",
        description=(
            "Decide the weak Lefschetz property of Artinian monomial quotients "
            "of K[x,y,z] by exact arithmetic on triangular regions, signed "
            "lozenge tilings, and determinants."
        ),
    )
    # the full parser keeps the default, which names a bad command "argument command"
    metavar = "{" + ",".join(COMMANDS) + "}" if command else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in [command] if command else COMMANDS:
        func, help_text, arguments = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        for flag, kwargs in (_JSON, *arguments):
            p.add_argument(flag, **kwargs)
        if name == "formula":
            fsub = p.add_subparsers(dest="formula", required=True)
            for formula, positionals in FORMULAS.items():
                f = fsub.add_parser(formula)
                for flag, kwargs in positionals:
                    f.add_argument(flag, **kwargs)
                # SUPPRESS keeps an unset inner flag from overwriting a --json before the formula's name
                f.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
    return parser


def _plain_args(argv: list[str]) -> argparse.Namespace | None:
    """The namespace ``build_parser`` parses from a plain command line: a
    command (``formula`` with a formula's name next), options in full, each a
    flag or followed by one value, and exactly the command's positionals, no
    value starting with "-".  None for anything else (help, abbreviations,
    ``--opt=value``, ``--``, usage and conversion errors)."""
    if not argv or argv[0] not in COMMANDS:
        return None
    func, _, arguments = COMMANDS[argv[0]]
    args, tokens = argparse.Namespace(command=argv[0], func=func), argv[1:]
    if argv[0] == "formula":
        if not tokens or tokens[0] not in FORMULAS:
            return None
        args.formula, tokens, arguments = tokens[0], tokens[1:], FORMULAS[tokens[0]]
    options = {flag: kwargs for flag, kwargs in (_JSON, *arguments) if flag.startswith("-")}
    names = [(name, kwargs) for name, kwargs in arguments if name not in options]
    given, values, tokens = {}, [], iter(tokens)
    try:
        for token in tokens:
            kwargs = options.get(token)
            if kwargs is None and token.startswith("-"):
                return None
            if kwargs is None:
                values.append(token)
            elif kwargs.get("action") == "store_true":
                given[token] = True
            elif (value := next(tokens, "-")).startswith("-"):
                return None
            else:
                given[token] = kwargs.get("type", str)(value)
        if len(values) != len(names):
            return None
        for (name, kwargs), value in zip(names, values):
            setattr(args, name, kwargs.get("type", str)(value))
    except (ValueError, argparse.ArgumentTypeError):
        return None
    for flag, kwargs in options.items():
        default = kwargs.get("default", False if kwargs.get("action") == "store_true" else None)
        setattr(args, flag[2:].replace("-", "_"), given.get(flag, default))
    return args


def main(argv: list[str] | None = None) -> int:
    """Run one command line.  A plain one is read straight off ``COMMANDS``;
    for anything else argparse answers, with the parser of the named
    subcommand only."""
    argv = sys.argv[1:] if argv is None else argv
    args = _plain_args(argv)
    if args is None:
        try:
            args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ExactnessError, OSError) as exc:  # every other domain error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
