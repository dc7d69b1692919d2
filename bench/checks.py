"""Output checks made apart from the program.

Nothing here imports ``basediv``.  Every function re-derives what the
program's answer must be, or a property the method guarantees, from plain
integer arithmetic and ``math.comb``, and returns a list of problems (empty
when the answer passes).  Vectors are tuples of ints, Gram matrices tuples of
rows, and a context is the plain dict the benchmark generates.
"""

from __future__ import annotations

import math
from itertools import product


def pair(gram, a, b) -> int:
    return sum(ai * gij * bj for ai, row in zip(a, gram) for gij, bj in zip(row, b))


def sq(gram, v) -> int:
    return pair(gram, v, v)


def div(gram, v) -> int:
    return math.gcd(*(sum(g * x for g, x in zip(row, v)) for row in gram))


def chi_k3(n: int, q: int) -> int:
    """chi on K3^[n] at even q >= 0: C(q/2 + n + 1, n)."""
    return math.comb(q // 2 + n + 1, n)


def chi_kum(n: int, q: int) -> int:
    """chi on Kum^n at even q >= 0: (n + 1) * C(q/2 + n, n)."""
    return (n + 1) * math.comb(q // 2 + n, n)


def chi(kind: str, n: int, q: int) -> int:
    # Generic types in this benchmark always carry the K3^[n] coefficients.
    return chi_kum(n, q) if kind == "Kumn" else chi_k3(n, q)


def multiplicity(chi_value: int, n: int):
    """The m >= 2 with C(m + n, n) == chi_value, by a linear walk, or None."""
    m = 2
    while math.comb(m + n, n) < chi_value:
        m += 1
    return m if math.comb(m + n, n) == chi_value else None


def in_bk_closure(ctx, v) -> bool:
    g = ctx["gram"]
    return sq(g, v) >= 0 and pair(g, v, ctx["ample"]) > 0 and all(pair(g, v, d) >= 0 for d in ctx["peds"])


def big_and_nef(ctx, h) -> bool:
    g = ctx["gram"]
    return sq(g, h) > 0 and pair(g, h, ctx["ample"]) > 0 and all(pair(g, h, d) >= 0 for d in ctx["peds"])


def decompositions(ctx, h) -> list:
    """Every (m, L, F, d) with H = m*L + F over the declared peds, scanned directly."""
    g = ctx["gram"]
    n = ctx["n"]
    m = multiplicity(chi(ctx["kind"], n, sq(g, h)), n)
    if m is None:
        return []
    found = []
    for f in ctx["peds"]:
        diff = [a - b for a, b in zip(h, f)]
        if not any(diff) or any(c % m for c in diff):
            continue
        l_vec = tuple(c // m for c in diff)
        d = pair(g, l_vec, f)
        if sq(g, l_vec) == 0 and math.gcd(*l_vec) == 1 and d > 0 and in_bk_closure(ctx, l_vec):
            found.append((m, l_vec, tuple(f), d))
    return found


def valid_ped(ctx, d) -> bool:
    g = ctx["gram"]
    qd = sq(g, d)
    return (
        any(d) and qd < 0 and math.gcd(*d) == 1
        and pair(g, d, ctx["ample"]) > 0 and (2 * div(g, d)) % qd == 0
    )


# ---------------------------------------------------------------------------
# per-operation checks


def check_classify(ctx, h, expected, got) -> list:
    """got is None or (m, L, F, d); expected was fixed when the input was built."""
    problems = []
    if got != expected:
        problems.append(f"classify {list(h)}: expected {expected}, got {got}")
    if ctx["kind"] == "Kumn" and got is not None:
        problems.append(f"Kum^n context classified {list(h)}")
    if got is not None and ctx["kind"] != "Kumn":
        m, l_vec, f_vec, d = got
        g = ctx["gram"]
        if tuple(m * a + b for a, b in zip(l_vec, f_vec)) != tuple(h):
            problems.append(f"{m}*L + F does not rebuild {list(h)}")
        if d != 1 or sq(g, f_vec) != -2:
            problems.append(f"K3^[n] decomposition of {list(h)} has d={d}, q(F)={sq(g, f_vec)}")
    if ctx.get("pencil") and h[1] >= 1:
        # the pencil lattice in closed form: a base divisor iff b == 1
        a, b = h
        closed = (a, (1, 0), (0, 1), 1) if b == 1 else None
        if got != closed:
            problems.append(f"pencil class {list(h)}: closed form gives {closed}, got {got}")
    return problems


def check_chi(kind, n, q, got) -> list:
    want = chi(kind, n, q)
    return [] if got == want else [f"chi({kind}, n={n}, q={q}) = {got}, product form gives {want}"]


def check_double(h, got_2h) -> list:
    return [] if got_2h is None else [f"2H = {[2 * x for x in h]} classified as {got_2h}"]


def check_walk(ctx, alpha, got) -> list:
    """got is (result, ((ped, a), ...))."""
    g = ctx["gram"]
    result, steps = got
    problems = []
    if sq(g, result) != sq(g, alpha):
        problems.append(f"walk of {list(alpha)}: q(result) = {sq(g, result)} != q(alpha) = {sq(g, alpha)}")
    acc = list(result)
    peds = [tuple(p) for p in ctx["peds"]]
    for ped, a in steps:
        if tuple(ped) not in peds or a <= 0:
            problems.append(f"walk of {list(alpha)}: bad step ({list(ped)}, {a})")
        acc = [x + a * c for x, c in zip(acc, ped)]
    if tuple(acc) != tuple(alpha):
        problems.append(f"walk of {list(alpha)}: reconstruction {acc} != input")
    for d in peds:
        if pair(g, result, d) < 0:
            problems.append(f"walk of {list(alpha)}: result pairs negatively with ped {list(d)}")
    return problems


def square_histogram(blocks, bound: int) -> dict:
    """Count of box vectors by square, convolved block by block.

    blocks are ("U",) or ("k", k) for the rank-one lattice <k>.
    """
    coords = range(-bound, bound + 1)
    total = {0: 1}
    for block in blocks:
        if block[0] == "U":
            hist = _histogram(2 * x * y for x, y in product(coords, coords))
        else:
            hist = _histogram(block[1] * x * x for x in coords)
        conv: dict = {}
        for s1, c1 in total.items():
            for s2, c2 in hist.items():
                conv[s1 + s2] = conv.get(s1 + s2, 0) + c1 * c2
        total = conv
    return total


def _histogram(values) -> dict:
    hist: dict = {}
    for v in values:
        hist[v] = hist.get(v, 0) + 1
    return hist


def block_gram(blocks):
    rank = sum(2 if b[0] == "U" else 1 for b in blocks)
    rows = [[0] * rank for _ in range(rank)]
    i = 0
    for b in blocks:
        if b[0] == "U":
            rows[i][i + 1] = rows[i + 1][i] = 1
            i += 2
        else:
            rows[i][i] = b[1]
            i += 1
    return tuple(tuple(r) for r in rows)


def check_enumeration(blocks, bound, square, ample, got) -> list:
    """got is the vector list from enumerate_vectors (ample None) or k3_ped_candidates.

    The ample vector, when given, pairs to nonzero with every nonzero box
    vector, so the candidates are exactly half of the square -2 vectors.
    """
    g = block_gram(blocks)
    count = square_histogram(blocks, bound).get(square, 0)
    problems = []
    want = count if ample is None else count // 2
    if len(got) != want:
        problems.append(f"{len(got)} vectors of square {square}, histogram convolution gives {want}")
    if any(a >= b for a, b in zip(got, got[1:])):
        problems.append("vectors are not in strict lexicographic order")
    for v in got:
        if len(v) != len(g) or max(map(abs, v)) > bound or sq(g, v) != square:
            problems.append(f"vector {list(v)} is outside the box or has the wrong square")
            break
    if ample is None:
        if set(got) != {tuple(-x for x in v) for v in got}:
            problems.append("vector set is not closed under negation")
    elif any(pair(g, ample, v) <= 0 for v in got):
        problems.append("a ped candidate pairs nonpositively with the ample class")
    return problems


def check_scan_kumn(payload) -> list:
    if payload.get("count") != 0 or payload.get("solutions") != []:
        return [f"scan-kumn found solutions: {payload.get('solutions')}"]
    return []


def check_rank2_scan(payload) -> list:
    if payload.get("classes") != [[-1, 1], [1, -1]]:
        return [f"rank2-scan returned {payload.get('classes')}, expected exactly +-(E - F)"]
    return []


def check_nl_types(ctx, q_h, payload) -> list:
    want = [] if ctx["kind"] == "Kumn" else [{"m": q_h // 2 + 1, "d": 1, "q_F": -2}]
    got = payload.get("types")
    return [] if got == want else [f"nl-types at q(H)={q_h}: expected {want}, got {got}"]


def context_check_names(ctx) -> list:
    names = ["lattice", "deformation", "ample-positive-square"]
    for i in range(len(ctx["peds"])):
        names += [f"ped[{i}]-{s}" for s in ("negative-square", "primitive", "ample-pairing", "divisibility")]
    return names


def check_validate(ctx, payload) -> list:
    """The report of validate-context on a context built valid, or on one built with a bad ped."""
    checks = payload.get("checks", [])
    names = [c.get("name") for c in checks]
    bad = [f"ped[{i}]-divisibility" for i, d in enumerate(ctx["peds"]) if not valid_ped(ctx, d)]
    failed = [c.get("name") for c in checks if not c.get("passed")]
    problems = []
    if names != context_check_names(ctx):
        problems.append(f"validate-context checks {names}")
    if failed != bad or payload.get("valid") != (not bad):
        problems.append(f"validate-context failed {failed}, valid={payload.get('valid')}; expected failures {bad}")
    return problems
