"""Command-line front end: decompose, eval, oracle, verify, relation.

Exit codes: 0 success, 1 verification failure or tolerance not met, 2
argument/constraint error.  Default colors are alpha = 1/2 (i.e. -1) and
beta = 0/1 (i.e. 1), so the bare commands work on the alternating R series.
"""
from __future__ import annotations

import argparse
import json
import sys

from .algebra import RootOfUnity
from .bounds import DEFAULT_CONFIG, EvalConfig, ValueWithError
from .decompose import MTIndex, decompose, to_level2
from .li import eval_decomposition
from .oracle import eval_mt_direct
from .verify import (
    Report,
    check_relation,
    cross_check_grid,
    format_report_table,
    grid_cases,
    load_relations,
    reports_to_json,
    verify_fixtures,
    verify_r212,
)

_GRID_ORACLE_CUTOFF = 2000


def _root(text: str) -> RootOfUnity:
    try:
        return RootOfUnity.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _orders(text: str) -> list[int]:
    try:
        orders = [int(chunk) for chunk in text.split(",") if chunk.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad orders list {text!r}") from None
    if not orders or any(n < 1 for n in orders):
        raise argparse.ArgumentTypeError("orders must be positive integers")
    return orders


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tornheim",
        description="Colored Tornheim double series: decomposition, evaluation, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_index_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--p", type=int, required=True)
        p.add_argument("--q", type=int, required=True)
        p.add_argument("--r", type=int, required=True)
        p.add_argument("--alpha", type=_root, default=RootOfUnity(1, 2), help='root "k/N" (default 1/2 = -1)')
        p.add_argument("--beta", type=_root, default=RootOfUnity(0, 1), help='root "k/N" (default 0/1 = 1)')

    p_dec = sub.add_parser("decompose", help="print the exact double-polylog decomposition")
    add_index_args(p_dec)
    p_dec.add_argument("--notation", choices=("li", "bar"), default="li")
    p_dec.add_argument("--format", choices=("text", "json", "pretty"), default="text")

    p_eval = sub.add_parser("eval", help="evaluate via the decomposition")
    add_index_args(p_eval)
    p_eval.add_argument("--tol", type=float, default=DEFAULT_CONFIG.tolerance)

    p_or = sub.add_parser("oracle", help="evaluate via the direct double sum")
    add_index_args(p_or)
    p_or.add_argument("--cutoff", type=int, default=DEFAULT_CONFIG.oracle_cutoff)

    p_ver = sub.add_parser("verify", help="run fixtures, cross-check grid and the R(2,1,2) checks")
    p_ver.add_argument("--fixtures", default=None, help="fixture file (default: packaged table)")
    p_ver.add_argument("--grid-weight", type=int, default=7)
    p_ver.add_argument("--orders", type=_orders, default=[1, 2], help="comma list, e.g. 1,2,3,4")
    p_ver.add_argument("--json", default=None, help="also write structured reports to this path")

    p_rel = sub.add_parser("relation", help="check closed-form relation specs from a file")
    p_rel.add_argument("--file", default=None, help="relation file (default: packaged examples)")

    return parser


def _format_value(v: ValueWithError) -> str:
    if abs(v.value.imag) <= 1e-12:
        body = f"{v.value.real:.10f}"
    else:
        body = f"{v.value.real:.10f}{v.value.imag:+.10f}i"
    return f"{body} ± {v.error_bound:.2g}"


def cmd_decompose(args) -> int:
    d = decompose(MTIndex(args.p, args.q, args.r), args.alpha, args.beta)
    if args.notation == "bar":
        terms = to_level2(d)
        if args.format == "json":
            signed = [(t.coefficient, *t.signed()) for t in terms]
            print(json.dumps({"terms": [{"coeff": c, "s": a, "t": b} for c, a, b in signed]}))
        elif args.format == "pretty":
            print(" + ".join(t.pretty() for t in terms))
        else:
            print(" + ".join(t.z_text() for t in terms))
        return 0
    if args.format == "json":
        print(json.dumps({"terms": d.to_records()}))
    else:
        print(d.to_text())
    return 0


def cmd_eval(args) -> int:
    cfg = EvalConfig(tolerance=args.tol)
    d = decompose(MTIndex(args.p, args.q, args.r), args.alpha, args.beta)
    v = eval_decomposition(d, cfg)
    print(_format_value(v))
    if v.error_bound <= args.tol:
        return 0
    print(f"error: achieved bound {v.error_bound:.2g} exceeds --tol {args.tol:g}", file=sys.stderr)
    return 1


def cmd_oracle(args) -> int:
    cfg = EvalConfig(oracle_cutoff=args.cutoff)
    v = eval_mt_direct(MTIndex(args.p, args.q, args.r), args.alpha, args.beta, cfg)
    print(_format_value(v))
    return 0


def cmd_verify(args) -> int:
    grid_cases(args.grid_weight, args.orders)  # refuse a bad grid before the fixtures run
    reports: list[Report] = []

    fixture_reports = verify_fixtures(args.fixtures)
    reports += fixture_reports
    print(f"fixtures: {sum(r.passed for r in fixture_reports)}/{len(fixture_reports)} pass")

    r212_reports = verify_r212()
    reports += r212_reports
    for r in r212_reports:
        print(f"{r.status}: {r.label} (|diff| = {r.absdiff:.3g})")

    grid_cfg = EvalConfig(oracle_cutoff=_GRID_ORACLE_CUTOFF)
    grid_reports = cross_check_grid(args.grid_weight, args.orders, grid_cfg)
    reports += grid_reports
    failures = [r for r in grid_reports if not r.passed]
    print(
        f"grid (weight <= {args.grid_weight}, orders {args.orders}): "
        f"{len(grid_reports) - len(failures)}/{len(grid_reports)} pass"
    )
    for r in failures:
        print(f"fail: {r.label}  |diff| = {r.absdiff:.3g} > bound {r.bound:.3g}")

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(reports_to_json(reports))

    ok = all(r.passed for r in reports)
    print("verify: all checks pass" if ok else "verify: FAILURES above")
    return 0 if ok else 1


def cmd_relation(args) -> int:
    reports = [check_relation(spec) for spec in load_relations(args.file)]
    print(format_report_table(reports))
    return 0 if all(r.passed for r in reports) else 1


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "decompose": cmd_decompose,
        "eval": cmd_eval,
        "oracle": cmd_oracle,
        "verify": cmd_verify,
        "relation": cmd_relation,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
