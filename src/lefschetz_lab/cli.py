"""Command-line front end.

Exit codes: 0 on success, 1 on a domain error (not Artinian, wrong type,
inadmissible parameters), 2 on a usage or ideal-syntax error.  Every
subcommand takes ``--json`` for machine-readable output under the
``lefschetz-lab/1`` schema.
"""

from __future__ import annotations

import argparse
import sys

from .errors import (
    ExactnessError,
    HypothesisError,
    NotArtinianError,
    NotTypeTwoError,
    ParseError,
)
from .formulas import (
    SplitBinomParams,
    hyperfactorial,
    macmahon,
    split_binom_det,
    two_mahonian_enumeration,
)
from .ideals import MonomialIdeal, hilbert_function, parse_ideal, socle_profile
from .intlinalg import factorize, is_probable_prime
from .regions import balance, build_region, first_tiling
from .render import render_ascii, render_svg
from .reports import (
    SCHEMA,
    dumps,
    enumeration_report_to_dict,
    region_report_to_dict,
    wlp_report_to_dict,
)
from .tilings import signed_enumeration
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
    return tuple(out)


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
    verdict0 = type_one_verdict(a, b, c, 0)
    values = verdict0.witnesses
    bad = bad_primes(ideal)
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
    shown = [
        f"{v} = {_factor_str(v)}" if _factor_str(v) != str(v) else str(v) for v in values
    ]
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


def _cmd_formula(args) -> int:
    if args.formula == "mac":
        value = macmahon(args.a, args.b, args.c)
        desc = f"Mac({args.a},{args.b},{args.c})"
    elif args.formula == "hyper":
        value = hyperfactorial(args.n)
        desc = f"H({args.n})"
    elif args.formula == "splitdet":
        value = split_binom_det(SplitBinomParams(args.p, args.q, args.r, args.m, args.n))
        desc = f"splitdet(p={args.p},q={args.q},r={args.r},m={args.m},n={args.n})"
    else:
        value = two_mahonian_enumeration(args.a, args.b, args.c, args.alpha, args.beta, args.d)
        desc = (
            f"twomahonian(a={args.a},b={args.b},c={args.c},"
            f"alpha={args.alpha},beta={args.beta},d={args.d})"
        )
    if args.json:
        print(dumps({"schema": SCHEMA, "report": "formula", "expression": desc, "value": value}))
        return 0
    print(f"{desc} = {value}" + (f" = {_factor_str(value)}" if value > 1 else ""))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lefschetz-lab",
        description=(
            "Decide the weak Lefschetz property of Artinian monomial quotients "
            "of K[x,y,z] by exact arithmetic on triangular regions, signed "
            "lozenge tilings, and determinants."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        return p

    p = add("hilbert", _cmd_hilbert, "Hilbert function and socle data")
    p.add_argument("ideal")
    p.add_argument("--max-degree", type=int, default=None)

    p = add("region", _cmd_region, "triangular region statistics and punctures")
    p.add_argument("ideal")
    p.add_argument("--d", type=int, default=None, help="degree (default: first decisive degree)")
    p.add_argument("--svg", metavar="PATH", default=None)
    p.add_argument("--ascii", action="store_true")

    p = add("count", _cmd_count, "tiling count and signed enumerations")
    p.add_argument("ideal")
    p.add_argument("--d", type=int, default=None, help="degree (default: first decisive degree)")
    p.add_argument("--svg", metavar="PATH", default=None, help="render the first tiling")

    p = add("wlp", _cmd_wlp, "weak Lefschetz verdicts and bad primes")
    p.add_argument("ideal")
    p.add_argument("--primes", type=_prime_list, default=(), help="comma-separated primes to scan")
    p.add_argument(
        "--all-primes",
        action="store_true",
        help="compute leading divisors at every degree (exact bad primes from scan data)",
    )

    p = add("ci", _cmd_ci, "complete-intersection classification")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("c", type=int)
    p.add_argument("--char", type=int, default=None, help="also report one characteristic")

    p = add("type2", _cmd_type2, "type-2 normal form, verdict, and bounds")
    p.add_argument("ideal")

    p = add("scan", _cmd_scan, "search for conjecture counterexamples")
    p.add_argument("--max-exponent", type=_scan_cap, default=4)
    p.add_argument("--prime-cap", type=_scan_cap, default=13)

    p = add("formula", _cmd_formula, "evaluate a closed-form enumeration")
    fsub = p.add_subparsers(dest="formula", required=True)
    f = fsub.add_parser("mac")
    for name in "abc":
        f.add_argument(name, type=int)
    f.add_argument("--json", action="store_true")
    f = fsub.add_parser("hyper")
    f.add_argument("n", type=int)
    f.add_argument("--json", action="store_true")
    f = fsub.add_parser("splitdet")
    for name in "pqrmn":
        f.add_argument(name, type=int)
    f.add_argument("--json", action="store_true")
    f = fsub.add_parser("twomahonian")
    for name in ("a", "b", "c", "alpha", "beta", "d"):
        f.add_argument(name, type=int)
    f.add_argument("--json", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        NotArtinianError,
        NotTypeTwoError,
        HypothesisError,
        ExactnessError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
