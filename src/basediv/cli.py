"""Command-line front end.

    basediv classify         --input ctx.json --class 3,1 [--format json]
    basediv reflect-bk       --input ctx.json --class 0,1
    basediv rr-eval          --input ctx.json --q 4 [--allow-odd]
    basediv nl-types         --input ctx.json --qh 4
    basediv scan-kumn        [--n-max 10 --m-max 30 --d-max 30]
    basediv rank2-scan       [--bound 100]
    basediv validate-context --input ctx.json

Context files are JSON objects:

    {"lattice": {"gram": [[0,1],[1,-2]], "even": true},
     "ample": [3, 1],
     "peds": [[0, 1]],
     "walls": [],
     "deformation": {"kind": "K3n", "n": 1},
     "strong_rlf": true,
     "note": "optional free-form provenance"}

rr-eval and nl-types also accept a bare deformation object
({"kind": ..., "n": ..., ...}) as --input.

Exit codes: 0 success, 1 domain/hypothesis/consistency/capability violations
(with a diagnostic naming the violated condition, e.g. kind "OG6"), 2 malformed
input, e.g. a string where an array belongs (the message names its path, such
as peds[1]).  Every command, validate-context included, reads a context through
cones.validate_context_payload and exits by the class of the library's error,
a structural one first.  A result or diagnostic holding an integer longer than
Python prints (4300 digits by default) exits 1.
JSON output is deterministic: identical inputs produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import sys

from .classifier import classification_report, kumn_nonexistence_search, nl_numerical_types
from .cones import (
    GeometricContext,
    reflect_into_bk,
    validate_context_payload,
    rank2_exceptional_scan,
)
from .errors import BasedivError, StructuralError
from .lattice import pairing
from .riemann_roch import deformation_from_json_dict, rr_eval


def _parse_class(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part.strip()) for part in text.split(","))
    except ValueError as exc:
        raise StructuralError(f"--class must be a comma-separated integer vector: {exc}") from None


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise StructuralError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, over-long integers, deep nesting
        raise StructuralError(f"{path} is not valid JSON: {exc}") from None


def _load_deformation(path: str):
    """Accept either a full context file or a bare deformation object."""
    data = _load_json(path)
    if isinstance(data, dict) and "deformation" in data:
        data = data["deformation"]
    return deformation_from_json_dict(data)


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False))


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_classify(args) -> int:
    ctx = GeometricContext.from_json_dict(_load_json(args.input))
    report = classification_report(ctx, _parse_class(args.class_vec))
    if args.format == "json":
        _print_json(report)
        return 0
    print(f"q(H) = {report['q_H']}")
    print(f"chi = RR(q(H)) = {report['rr_value']}")
    dec = report["decomposition"]
    if dec is None:
        print("base divisor: none")
    else:
        print("base divisor: yes")
        print(f"H = {dec['m']}*L + F")
        print(f"L = {dec['L']}")
        print(f"F = {dec['F']}")
        print(f"d = (L, F) = {dec['d']}")
    return 0


def _cmd_reflect_bk(args) -> int:
    ctx = GeometricContext.from_json_dict(_load_json(args.input))
    alpha = ctx.lat.vector(_parse_class(args.class_vec))
    trace = reflect_into_bk(ctx, alpha)
    if args.format == "json":
        _print_json(trace.to_json_dict())
        return 0
    # replay the walk so the descending (alpha_i, ample) column is auditable
    print(f"{'step':>4}  {'ped':<16} {'a':>3}  {'alpha':<20} (alpha, ample)")
    current = alpha
    print(f"{'-':>4}  {'-':<16} {'-':>3}  {str(list(current)):<20} {pairing(ctx.lat, current, ctx.ample)}")
    for i, (ped, a) in enumerate(trace.steps):
        current = tuple(c - a * p for c, p in zip(current, ped))
        print(
            f"{i:>4}  {str(list(ped)):<16} {a:>3}  {str(list(current)):<20}"
            f" {pairing(ctx.lat, current, ctx.ample)}"
        )
    print(f"result: {list(trace.result)}")
    return 0


def _cmd_rr_eval(args) -> int:
    dtype = _load_deformation(args.input)
    chi = rr_eval(dtype, args.q, allow_odd=args.allow_odd)
    if args.format == "json":
        _print_json({"kind": dtype.kind, "n": dtype.n, "q": args.q, "chi": chi})
        return 0
    print(f"chi(q={args.q}) = {chi}   [{dtype.kind}, n={dtype.n}]")
    return 0


def _cmd_nl_types(args) -> int:
    dtype = _load_deformation(args.input)
    types = nl_numerical_types(dtype, args.qh)
    if args.format == "json":
        _print_json({"q_H": args.qh, "types": [t.to_json_dict() for t in types]})
        return 0
    if not types:
        print("no numerical types")
    for t in types:
        print(f"m={t.m} d={t.d} q_F={t.qF}")
    return 0


def _cmd_scan_kumn(args) -> int:
    sols = kumn_nonexistence_search(args.n_max, args.m_max, args.d_max)
    if args.format == "json":
        _print_json(
            {
                "ranges": {"n": [2, args.n_max], "m": [2, args.m_max], "d": [1, args.d_max]},
                "count": len(sols),
                "solutions": [{"n": n, "m": m, "d": d, "q_F": qf} for n, m, d, qf in sols],
            }
        )
        return 0
    print(f"{len(sols)} solutions found")
    for n, m, d, qf in sols:
        print(f"n={n} m={m} d={d} q_F={qf}")
    return 0


def _cmd_rank2_scan(args) -> int:
    classes = rank2_exceptional_scan(args.bound)
    if args.format == "json":
        _print_json({"bound": args.bound, "classes": [list(v) for v in classes]})
        return 0
    print(f"{len(classes)} classes found")
    for v in classes:
        print(str(list(v)))
    return 0


def _cmd_validate_context(args) -> int:
    ctx, checks = validate_context_payload(_load_json(args.input))
    if args.format == "json":
        _print_json(
            {
                "valid": ctx is not None,
                "checks": [
                    {"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks
                ],
            }
        )
    else:
        for c in checks:
            print(f"{'ok  ' if c.passed else 'FAIL'}  {c.name}: {c.detail}")
        print("context valid" if ctx is not None else "context invalid")
    if ctx is not None:
        return 0
    return 2 if any(c.structural and not c.passed for c in checks) else 1


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="basediv",
        description="Exact lattice computations: pairings, RR values, reflections,"
        " and base-divisor classification for big-and-nef classes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        p.add_argument("--format", choices=("text", "json"), default="text")
        return p

    p = add("classify", _cmd_classify, help="decide whether a big-and-nef class has a base divisor")
    p.add_argument("--input", required=True, help="context JSON file")
    p.add_argument("--class", dest="class_vec", required=True, help="comma-separated coordinates of H")

    p = add("reflect-bk", _cmd_reflect_bk, help="reflect a class into the declared BK closure")
    p.add_argument("--input", required=True)
    p.add_argument("--class", dest="class_vec", required=True)

    p = add("rr-eval", _cmd_rr_eval, help="evaluate the RR polynomial at q")
    p.add_argument("--input", required=True, help="context or deformation JSON file")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--allow-odd", action="store_true", help="permit odd q for Generic types")

    p = add("nl-types", _cmd_nl_types, help="enumerate numerical Noether-Lefschetz types for q(H)")
    p.add_argument("--input", required=True, help="context or deformation JSON file")
    p.add_argument("--qh", type=int, required=True, help="the (positive even) square of H")

    p = add("scan-kumn", _cmd_scan_kumn, help="Kum^n base-divisor non-existence over a box, by its proof")
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--m-max", type=int, default=30)
    p.add_argument("--d-max", type=int, default=30)

    p = add("rank2-scan", _cmd_rank2_scan, help="scan U for classes satisfying the ped inequality")
    p.add_argument("--bound", type=int, default=100)

    p = add("validate-context", _cmd_validate_context, help="run all context invariants, report per item")
    p.add_argument("--input", required=True)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except StructuralError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BasedivError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # Python's digit limit, met printing a result or a diagnostic
        if "integer string conversion" not in str(exc):
            raise
        print(f"error: cannot print an integer of more than {sys.get_int_max_str_digits()} digits", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
