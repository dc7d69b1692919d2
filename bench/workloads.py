"""Workload inputs, made from a seed, and the checks of their outputs.

This module runs in the benchmark's parent process and never imports
``basediv``: the program sees only the plain data built here.  Each
``make_*`` function returns ``(spec, expect)``.  ``spec`` holds only
marshal-able data and goes to the process that runs the program; ``expect``
stays here and holds what each operation must return, fixed by construction
and confirmed with the independent scan in ``checks``.

The structure of every input (ranks, ped counts, n, walk lengths, the q(H)
band, box shapes) is fixed; the seed picks values inside it, so the cost of
an operation does not depend on the seed.
"""

from __future__ import annotations

import json
import math
import random

import checks

# Kinds of operation in one round of the cli workload.  rank2-scan is the
# slowest and fills the top two elevenths of a round, so the 90th percentile
# lands in the middle of its block rather than on the edge between two kinds;
# the median falls among the cheap commands, which cost about the same.
CLI_CYCLE = (
    "classify-small", "classify-moderate", "reflect-bk", "validate-valid",
    "validate-invalid", "rr-eval", "nl-types", "scan-kumn",
    "rank2-scan", "rank2-scan", "classify-strong-rlf-string",
)

# The operation that fails in every run today: a JSON string "false" is
# truthy, so the context is taken as certifying strong_rlf.  Its input does
# not depend on the seed.
STRONG_RLF_STRING = {
    "lattice": {"gram": [[0, 1], [1, -2]], "even": True},
    "ample": [3, 1],
    "peds": [[0, 1]],
    "walls": [],
    "deformation": {"kind": "K3n", "n": 1},
    "strong_rlf": "false",
}


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _unit(r, i):
    return tuple(int(j == i) for j in range(r))


def _lin(*terms):
    """Sum of coefficient * vector pairs."""
    r = len(terms[0][1])
    return tuple(sum(c * v[j] for c, v in terms) for j in range(r))


def family_context(kind, n, k, t, rng):
    """U + <-2>^k [+ <-2t>] with basis e, f, c_1..c_k [, delta].

    Peds: every c_i, every f - c_i, f - e and delta, in seed order.  All are
    primitive, satisfy q(D) | 2 div(D) and pair positively with the ample
    class A e + 2 f - sum c_i - delta.  The isotropic class e pairs >= 0 with
    every ped, so m*e + F is a base-divisor class for each ped F of the form
    f - c_i or f - e.
    """
    r = 2 + k + (1 if t else 0)
    gram = [[0] * r for _ in range(r)]
    gram[0][1] = gram[1][0] = 1
    for i in range(k):
        gram[2 + i][2 + i] = -2
    if t:
        gram[r - 1][r - 1] = -2 * t
    e, f = _unit(r, 0), _unit(r, 1)
    cs = [_unit(r, 2 + i) for i in range(k)]
    fibre_peds = [_lin((1, f), (-1, c)) for c in cs] + [_lin((1, f), (-1, e))]
    peds = cs + fibre_peds + ([_unit(r, r - 1)] if t else [])
    rng.shuffle(peds)
    ample = _lin((k + t + 3, e), (2, f), *[(-1, c) for c in cs], *([(-1, _unit(r, r - 1))] if t else []))
    ctx = {"gram": tuple(map(tuple, gram)), "ample": ample, "peds": peds, "kind": kind, "n": n, "pencil": False}
    return ctx, e, fibre_peds


def pencil_context(n, rng):
    """The elliptic pencil: basis (E, C) with E^2 = 0, E.C = 1, C^2 = -2."""
    ample = (rng.randint(3, 6), 1)
    return {"gram": ((0, 1), (1, -2)), "ample": ample, "peds": [(0, 1)], "kind": "K3n", "n": n, "pencil": True}


def payload(ctx, generic: bool = False) -> dict:
    """The context JSON object the program reads."""
    if generic:
        # the K3^[n] polynomial, handed over as explicit Generic coefficients
        assert ctx["n"] == 2
        deformation = {"kind": "Generic", "n": 2, "coeffs": ["3", "5/4", "1/8"]}
    else:
        deformation = {"kind": ctx["kind"], "n": ctx["n"]}
    return {
        "lattice": {"gram": [list(r) for r in ctx["gram"]], "even": True},
        "ample": list(ctx["ample"]),
        "peds": [list(p) for p in ctx["peds"]],
        "walls": [],
        "deformation": deformation,
        "strong_rlf": True,
    }


def _expect_classes(ctx, h, expected):
    assert checks.big_and_nef(ctx, h), (h, ctx)
    found = checks.decompositions(ctx, h)
    assert found == ([] if expected is None else [expected]), (h, found, expected)
    return expected


def positive_class(ctx, e, fibre_peds, m, rng):
    """H = m*e + F for a seed-chosen F; Kum^n contexts never classify."""
    f_vec = rng.choice(fibre_peds)
    h = _lin((m, e), (1, f_vec))
    expected = None if ctx["kind"] == "Kumn" else (m, e, f_vec, 1)
    return h, _expect_classes(ctx, h, expected)


def negative_class(ctx, x, rng):
    """A big and nef class x*e + y*f - ... with y >= 2, so no ped splits off."""
    r = len(ctx["gram"])
    if ctx["pencil"]:
        h = (x, 2)
    else:
        h = (x, rng.randint(2, 3)) + tuple(-rng.randint(0, 1) for _ in range(r - 2))
    return h, _expect_classes(ctx, h, None)


def walk_steps(ctx, alpha):
    """Steps of the first-violated-ped walk, replayed here to pick inputs."""
    g = ctx["gram"]
    cur = alpha
    for steps in range(64):
        d = next((d for d in ctx["peds"] if checks.pair(g, cur, d) < 0), None)
        if d is None:
            return steps
        a = 2 * checks.pair(g, d, cur) // checks.sq(g, d)
        cur = tuple(x - a * y for x, y in zip(cur, d))
    return None


def walk_class(ctx, target, rng):
    """A class with q >= 0 on the ample side whose walk takes `target` steps."""
    g = ctx["gram"]
    r = len(g)
    best = None
    for _ in range(5000):
        alpha = (rng.randint(0, 6), rng.randint(1, 6)) + tuple(rng.randint(-4, 4) for _ in range(r - 2))
        if checks.sq(g, alpha) < 0 or checks.pair(g, alpha, ctx["ample"]) <= 0:
            continue
        steps = walk_steps(ctx, alpha)
        if steps is None or steps == 0:
            continue
        if steps == target:
            return alpha
        if best is None or abs(steps - target) < abs(best[0] - target):
            best = (steps, alpha)
    return best[1]


# (kind, n, k, t) of the non-pencil lib-warm contexts: ranks 3 to 5.
WARM_FAMILIES = (
    ("K3n", 2, 1, 0),
    ("K3n", 3, 1, 2),
    ("K3n", 4, 2, 3),
    ("K3n", 1, 3, 0),
    ("Kumn", 2, 0, 3),
    ("Kumn", 3, 1, 4),
)
WARM_M = (200, 260)


def make_lib_warm(seed):
    rng = _rng("lib-warm", seed)
    contexts, ops, expect = [], [], []
    built = [(pencil_context(1, rng), None, None)]
    built += [family_context(*fam, rng) for fam in WARM_FAMILIES]
    for ci, (ctx, e, fibre) in enumerate(built):
        contexts.append(payload(ctx))
        for _ in range(3):
            m = rng.randint(*WARM_M)
            if ctx["pencil"]:
                h = (m, 1)
                exp = _expect_classes(ctx, h, (m, (1, 0), (0, 1), 1))
            else:
                h, exp = positive_class(ctx, e, fibre, m, rng)
            ops.append(("classify", ci, h))
            expect.append(("classify", ctx, h, exp))
        for _ in range(2):
            h, exp = negative_class(ctx, rng.randint(WARM_M[0] // 2, WARM_M[1] // 2), rng)
            ops.append(("classify", ci, h))
            expect.append(("classify", ctx, h, exp))
        for target in ((1, 1) if ctx["pencil"] else (1, 3)):
            alpha = walk_class(ctx, target, rng)
            ops.append(("walk", ci, alpha))
            expect.append(("walk", ctx, alpha, None))
    return {"contexts": contexts, "ops": ops}, expect


COLD_FAMILIES = (("Generic", 2, 1, 0), ("Generic", 2, 1, 2), ("Generic", 2, 2, 3), ("Generic", 2, 3, 0))
COLD_M = (4950, 5050)
COLD_OPS = 10


def make_lib_cold(seed):
    """Generic-type contexts as JSON text, each with one class at q(H) near 1e4.

    Every fourth class is 2H' for a classified H' with q(2H') in the same
    band, so it has no base divisor.
    """
    rng = _rng("lib-cold", seed)
    built = [family_context(*fam, rng) for fam in COLD_FAMILIES]
    texts, ops, expect = [], [], []
    for i in range(COLD_OPS):
        ctx, e, fibre = built[i % len(built)]
        if i % 4 < 3:
            h, exp = positive_class(ctx, e, fibre, rng.randint(*COLD_M), rng)
        else:
            half, _ = positive_class(ctx, e, fibre, rng.randint(COLD_M[0] // 4 + 1, COLD_M[1] // 4 + 1), rng)
            h = tuple(2 * x for x in half)
            exp = _expect_classes(ctx, h, None)
        texts.append(json.dumps(payload(ctx, generic=True)))
        ops.append(("cold", i, h))
        expect.append(("classify", ctx, h, exp))
    warm = pencil_context(2, rng)
    warm_text = json.dumps(payload(warm, generic=True))
    return {"texts": texts, "ops": ops, "warmup": (warm_text, (3, 1))}, expect


def _ample_off_zero(blocks, bound):
    """An integral class h whose pairing (h, v) = sum_i w_i v_i has weights
    w_i = L * (2*bound + 1)^i, so it is nonzero on every nonzero box vector."""
    lcm = 1
    for b in blocks:
        if b[0] == "k":
            lcm = lcm * abs(b[1]) // math.gcd(lcm, abs(b[1]))
    rank = sum(2 if b[0] == "U" else 1 for b in blocks)
    w = [lcm * (2 * bound + 1) ** i for i in range(rank)]
    h, i = [], 0
    for b in blocks:
        if b[0] == "U":
            h += [w[i + 1], w[i]]
            i += 2
        else:
            h.append(w[i] // b[1])
            i += 1
    return tuple(h)


def make_enumerate(seed):
    """The five box enumerations of a lib round, with similar point counts
    (14641 to 16807): rank 4 bound 5 twice, rank 5 bound 3 once, rank 6
    bound 2 twice, with U first and last."""
    rng = _rng("enumerate", seed)
    d = [rng.randint(1, 4) for _ in range(5)]
    kinds = (
        ("enumerate_vectors", (("U",), ("k", -2), ("k", 2 * d[0])), 5, rng.choice((-2, 0))),
        ("k3_ped_candidates", (("k", 2 * d[1]), ("k", -2), ("U",)), 5, -2),
        ("enumerate_vectors", (("k", -2), ("k", -2), ("k", 2 * d[2]), ("U",)), 3, rng.choice((0, 2 * d[2]))),
        ("enumerate_vectors", (("U",), ("k", -2), ("k", -2), ("k", -2), ("k", 2 * d[3])), 2, rng.choice((-2, 0))),
        ("k3_ped_candidates", (("k", 2 * d[4]), ("k", -2), ("k", -2), ("k", -2), ("U",)), 2, -2),
    )
    ops, expect = [], []
    for name, blocks, bound, square in kinds:
        ample = _ample_off_zero(blocks, bound) if name == "k3_ped_candidates" else None
        ops.append((name, blocks, bound, square, ample))
        expect.append(("enumerate", blocks, bound, square, ample))
    return {"ops": ops}, expect


# One lib operation: WARM_PASSES passes of the lib-warm stream, then one
# lib-cold parse-and-classify, then one enumeration.  Operation k of a round
# takes cold text k and enumeration k mod 5, so a round of ten holds each
# enumeration twice.  The enumeration sets the cost class: the rank-4 pair
# fills the cheapest two fifths, and the median and the 90th percentile fall
# among the rank-5 and rank-6 requests, whose costs are close, rather than on
# the gap above the rank-4 pair.  Twelve warm passes cost about as much as
# the cold part (a pass is about 7 ms, a cold call 75 ms), so a change to the
# warm path moves a request by as much as one to the cold path.
WARM_PASSES = 12


def make_lib(seed):
    parts = {"warm": make_lib_warm(seed), "cold": make_lib_cold(seed), "enumerate": make_enumerate(seed)}
    spec = {name: s for name, (s, _) in parts.items()}
    spec["warm_passes"] = WARM_PASSES
    return spec, {name: e for name, (_, e) in parts.items()}


CLI_MODERATE_M = (1500, 1520)


def make_cli(seed):
    """Context files and argument lists for one round of CLI_CYCLE.

    Returns (files, spec, expect): files maps a file name to its JSON object;
    each argument list names files relative to the run's input directory.
    """
    rng = _rng("cli", seed)
    files, ops, expect = {}, [], []
    pencil = pencil_context(1, rng)
    k3n2, e2, fibre2 = family_context("K3n", 2, 1, 0, rng)
    k3n3, _, _ = family_context("K3n", 3, 1, 2, rng)
    files["pencil.json"] = payload(pencil)
    files["k3n2.json"] = payload(k3n2)
    files["k3n3.json"] = payload(k3n3)
    invalid = dict(payload(k3n2))
    bad_ped = (-1, 3) + (0,) * (len(k3n2["gram"]) - 2)  # q = -6, div = 1: fails q(D) | 2 div(D)
    invalid["peds"] = [list(bad_ped)] + invalid["peds"]
    files["invalid.json"] = invalid
    invalid_ctx = dict(k3n2, peds=[bad_ped] + list(k3n2["peds"]))
    files["strong_rlf_string.json"] = STRONG_RLF_STRING

    def cls(vec):
        return ",".join(map(str, vec))

    for name in CLI_CYCLE:
        if name == "classify-small":
            a = rng.randint(3, 30)
            args, exp = ["classify", "--input", "pencil.json", "--class", cls((a, 1))], (pencil, (a, 1), (a, (1, 0), (0, 1), 1))
        elif name == "classify-moderate":
            h, dec = positive_class(k3n2, e2, fibre2, rng.randint(*CLI_MODERATE_M), rng)
            args, exp = ["classify", "--input", "k3n2.json", "--class", cls(h)], (k3n2, h, dec)
        elif name == "reflect-bk":
            alpha = walk_class(k3n3, 3, rng)
            args, exp = ["reflect-bk", "--input", "k3n3.json", "--class", cls(alpha)], (k3n3, alpha)
        elif name == "validate-valid":
            args, exp = ["validate-context", "--input", "k3n3.json"], (k3n3,)
        elif name == "validate-invalid":
            args, exp = ["validate-context", "--input", "invalid.json"], (invalid_ctx,)
        elif name == "rr-eval":
            q = 2 * rng.randint(20, 200)
            args, exp = ["rr-eval", "--input", "k3n3.json", "--q", str(q)], (k3n3, q)
        elif name == "nl-types":
            q = 2 * rng.randint(20, 200)
            args, exp = ["nl-types", "--input", "k3n3.json", "--qh", str(q)], (k3n3, q)
        elif name == "scan-kumn":
            args, exp = ["scan-kumn"], ()
        elif name == "rank2-scan":
            args, exp = ["rank2-scan"], ()
        else:
            args, exp = ["classify", "--input", "strong_rlf_string.json", "--class", "3,1"], ()
        ops.append(args + ["--format", "json"])
        expect.append((name,) + exp)
    return files, {"ops": ops, "warmup": ["validate-context", "--input", "pencil.json", "--format", "json"]}, expect


# ---------------------------------------------------------------------------
# checking what came back


def check_library(expect, refs, extras):
    """refs[i] is the plain output of operation i; extras holds the chi values
    and 2H answers computed after the timed loop (lib-warm, lib-cold)."""
    problems = []
    for i, (exp, got) in enumerate(zip(expect, refs)):
        if exp[0] == "classify":
            _, ctx, h, want = exp
            problems += checks.check_classify(ctx, h, want, got)
            if extras is not None:
                problems += checks.check_chi(ctx["kind"], ctx["n"], checks.sq(ctx["gram"], h), extras[i]["chi"])
                if "double" in extras[i]:
                    problems += checks.check_double(h, extras[i]["double"])
        elif exp[0] == "walk":
            problems += checks.check_walk(exp[1], exp[2], got)
        else:
            _, blocks, bound, square, ample = exp
            problems += checks.check_enumeration(blocks, bound, square, ample, got)
    return problems


def check_lib(expect, refs, extras):
    """refs[k] is operation k's (warm pass outputs, cold output, enumeration)."""
    passes = [p for r in refs for p in r[0]]
    problems = [f"lib operation {k}: a warm pass differs from the first" for k, r in enumerate(refs)
                if any(p != passes[0] for p in r[0])]
    problems += check_library(expect["warm"], list(passes[0]), extras and extras["warm"])
    problems += check_library(expect["cold"][:len(refs)], [r[1] for r in refs], extras and extras["cold"])
    enum = expect["enumerate"]
    problems += check_library([enum[k % len(enum)] for k in range(len(refs))], [r[2] for r in refs], None)
    return problems


def check_cli(exp, returncode, stdout, stderr):
    """Returns (problems, failed) for one CLI call.

    The strong_rlf string context must be refused: exit 1 or 2 with a
    message that starts with ``error:``.  An exit 0 counts the operation as
    failed, not as a wrong answer.  A Python traceback is never a refusal and
    is a problem on every operation.
    """
    name = exp[0]
    if "Traceback (most recent call last)" in stderr:
        return [f"{name}: the program crashed: {stderr.strip().splitlines()[-1]!r}"], False
    if name == "classify-strong-rlf-string":
        refused = returncode in (1, 2) and stderr.startswith("error:")
        if returncode != 0 and not refused:
            return [f"{name}: exit {returncode} without an error message: {stderr[:200]!r}"], False
        return [], not refused
    want_rc = 1 if name == "validate-invalid" else 0
    if returncode != want_rc:
        return [f"{name}: exit {returncode}, expected {want_rc}"], False
    try:
        out = json.loads(stdout)
    except ValueError:
        return [f"{name}: stdout is not JSON: {stdout[:200]!r}"], False
    if name in ("classify-small", "classify-moderate"):
        ctx, h, want = exp[1:]
        dec = out.get("decomposition")
        got = None if dec is None else (dec["m"], tuple(dec["L"]), tuple(dec["F"]), dec["d"])
        q = checks.sq(ctx["gram"], h)
        problems = checks.check_classify(ctx, h, want, got)
        problems += checks.check_chi(ctx["kind"], ctx["n"], q, out.get("rr_value"))
        if out.get("q_H") != q or out.get("has_base_divisor") != (want is not None):
            problems.append(f"{name}: report header {out.get('q_H')}, {out.get('has_base_divisor')}")
        return problems, False
    if name == "reflect-bk":
        steps = tuple((tuple(s["ped"]), s["a"]) for s in out.get("steps", []))
        return checks.check_walk(exp[1], exp[2], (tuple(out.get("result", ())), steps)), False
    if name in ("validate-valid", "validate-invalid"):
        return checks.check_validate(exp[1], out), False
    if name == "rr-eval":
        ctx, q = exp[1:]
        return checks.check_chi(ctx["kind"], ctx["n"], q, out.get("chi")), False
    if name == "nl-types":
        return checks.check_nl_types(exp[1], exp[2], out), False
    if name == "scan-kumn":
        return checks.check_scan_kumn(out), False
    return checks.check_rank2_scan(out), False
