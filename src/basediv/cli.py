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
as peds[1]).  classify, reflect-bk and validate-context read a context through
cones.validate_context_payload; rr-eval and nl-types read only its deformation
object, so a fault elsewhere in the file, such as an asymmetric Gram matrix,
does not stop them.  Every command exits by the class of the library's error,
a structural one first.  A result or diagnostic holding an integer longer than
Python prints (4300 digits by default) exits 1, after the text lines before it.
JSON output is deterministic: identical inputs produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import os
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


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (exit code, JSON report, text lines).  Text
# that costs work or can fail to print is a generator, so JSON mode never runs
# it and text mode prints each line before it builds the next

def _classify_lines(report):
    yield f"q(H) = {report['q_H']}"
    yield f"chi = RR(q(H)) = {report['rr_value']}"
    dec = report["decomposition"]
    if dec is None:
        yield "base divisor: none"
    else:
        yield "base divisor: yes"
        yield f"H = {dec['m']}*L + F"
        yield f"L = {dec['L']}"
        yield f"F = {dec['F']}"
        yield f"d = (L, F) = {dec['d']}"


def _cmd_classify(args):
    ctx = GeometricContext.from_json_dict(_load_json(args.input))
    report = classification_report(ctx, _parse_class(args.class_vec))
    return 0, report, _classify_lines(report)


def _walk_table(ctx, alpha, trace):
    """The walk replayed, so the descending (alpha_i, ample) column is auditable."""
    yield f"{'step':>4}  {'ped':<16} {'a':>3}  {'alpha':<20} (alpha, ample)"
    current = alpha
    yield f"{'-':>4}  {'-':<16} {'-':>3}  {list(current)!s:<20} {pairing(ctx.lat, current, ctx.ample)}"
    for i, (ped, a) in enumerate(trace.steps):
        current = tuple(c - a * p for c, p in zip(current, ped))
        yield f"{i:>4}  {list(ped)!s:<16} {a:>3}  {list(current)!s:<20} {pairing(ctx.lat, current, ctx.ample)}"
    yield f"result: {list(trace.result)}"


def _cmd_reflect_bk(args):
    ctx = GeometricContext.from_json_dict(_load_json(args.input))
    alpha = ctx.lat.vector(_parse_class(args.class_vec))
    trace = reflect_into_bk(ctx, alpha)
    return 0, trace.to_json_dict(), _walk_table(ctx, alpha, trace)


def _cmd_rr_eval(args):
    dtype = _load_deformation(args.input)
    chi = rr_eval(dtype, args.q, allow_odd=args.allow_odd)
    report = {"kind": dtype.kind, "n": dtype.n, "q": args.q, "chi": chi}
    return 0, report, [f"chi(q={args.q}) = {chi}   [{dtype.kind}, n={dtype.n}]"]


def _cmd_nl_types(args):
    dtype = _load_deformation(args.input)
    types = nl_numerical_types(dtype, args.qh)
    lines = (f"m={t.m} d={t.d} q_F={t.qF}" for t in types) if types else ["no numerical types"]
    return 0, {"q_H": args.qh, "types": [t.to_json_dict() for t in types]}, lines


def _cmd_scan_kumn(args):
    sols = kumn_nonexistence_search(args.n_max, args.m_max, args.d_max)
    report = {
        "ranges": {"n": [2, args.n_max], "m": [2, args.m_max], "d": [1, args.d_max]},
        "count": len(sols),
        "solutions": [{"n": n, "m": m, "d": d, "q_F": qf} for n, m, d, qf in sols],
    }
    return 0, report, [f"{len(sols)} solutions found", *(f"n={n} m={m} d={d} q_F={qf}" for n, m, d, qf in sols)]


def _cmd_rank2_scan(args):
    classes = rank2_exceptional_scan(args.bound)
    report = {"bound": args.bound, "classes": [list(v) for v in classes]}
    return 0, report, [f"{len(classes)} classes found", *(str(list(v)) for v in classes)]


def _cmd_validate_context(args):
    ctx, checks = validate_context_payload(_load_json(args.input))
    report = {
        "valid": ctx is not None,
        "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks],
    }
    lines = [f"{'ok  ' if c.passed else 'FAIL'}  {c.name}: {c.detail}" for c in checks]
    lines.append("context valid" if ctx is not None else "context invalid")
    code = 0 if ctx is not None else 2 if any(c.structural and not c.passed for c in checks) else 1
    return code, report, lines


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


_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        code, report, lines = args.handler(args)
        if args.format == "json":
            lines = [json.dumps(report, indent=2, sort_keys=True, ensure_ascii=False)]
        for line in lines:
            print(line)
        sys.stdout.flush()  # a reader that closed the pipe fails here, not in the interpreter's exit
        return code
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # the buffered rest goes nowhere
        print("error: standard output was closed by its reader", file=sys.stderr)
        return 1
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
