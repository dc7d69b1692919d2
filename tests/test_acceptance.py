"""Acceptance suite: one test per release criterion, exact arithmetic throughout.

Each test prints a single [PASS]/[FAIL] line (visible with `pytest -s` or on
failure).  Where a criterion carries a wall-clock budget the elapsed time is
part of the assertion.
"""

import json
import math
import random
import time
from itertools import product

import pytest

from basediv import (
    Decomposition,
    GeometricContext,
    K3N,
    KUMN,
    Lattice,
    NumericalNLType,
    check_strict_monotonic,
    classify,
    direct_sum,
    hyperbolic_plane,
    kumn_nonexistence_search,
    make_type,
    nl_numerical_types,
    pairing,
    ped_inequality_check,
    rank2_exceptional_scan,
    rank_one,
    reflect,
    reflect_into_bk,
    rr_eval,
    square,
    verify_decomposition,
)
from basediv.cli import main as cli_main
from basediv.oracle import oracle_classify, oracle_rr

from conftest import FIXTURES


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:>2}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# shared corpora

def _pencil_context():
    lat = Lattice([[0, 1], [1, -2]])
    return GeometricContext(lat, (3, 1), peds=[(0, 1)], dtype=make_type(K3N, 1), strong_rlf=True)


def _generated_contexts():
    """Deterministic grid of valid rank-2/3 even contexts with K3n types."""
    u = hyperbolic_plane()
    diag = Lattice([[2, 0], [0, -2]])
    contexts = []
    rank2_data = [
        (u, (1, 2), [(1, -1)]),
        (u, (2, 1), [(-1, 1)]),
        (u, (1, 3), [(1, -1)]),
        (u, (3, 1), [(-1, 1)]),
        (u, (2, 3), [(1, -1)]),
        (u, (3, 2), [(-1, 1)]),
        (diag, (2, 1), [(0, -1)]),
        (diag, (2, -1), [(0, 1)]),
        (diag, (3, 2), [(0, -1)]),
    ]
    rank3_data = []
    for k in (1, 2, 3):
        lat = direct_sum(u, rank_one(-2 * k))
        for ample in [(1, 2, -1), (1, 3, -1), (2, 3, -1), (1, 4, -1)]:
            if square(lat, ample) <= 0:
                continue
            ped_sets = [
                [(1, -1, 0), (0, 0, 1)],
                [(1, -1, 0)],
                [(0, 0, 1)],
            ]
            for peds in ped_sets:
                rank3_data.append((lat, ample, peds))
    for lat, ample, peds in rank2_data + rank3_data:
        for n in range(2, 6):
            contexts.append(
                GeometricContext(lat, ample, peds=peds, dtype=make_type(K3N, n), strong_rlf=True)
            )
    return contexts


def _big_nef(ctx, h):
    if square(ctx.lat, h) <= 0:
        return False
    if pairing(ctx.lat, h, ctx.ample) <= 0:
        return False
    return all(pairing(ctx.lat, h, d) >= 0 for d in ctx.peds + ctx.walls)


@pytest.fixture(scope="module")
def generated_corpus():
    """All classified (ctx, H, dec) triples from the generated contexts."""
    contexts = _generated_contexts()
    assert len(contexts) >= 100
    classified = []
    for ctx in contexts:
        bound = 4 if ctx.lat.rank == 2 else 3
        for h in product(range(-bound, bound + 1), repeat=ctx.lat.rank):
            if not _big_nef(ctx, h):
                continue
            dec = classify(ctx, h)
            if dec is not None:
                classified.append((ctx, h, dec))
    return contexts, classified


@pytest.fixture(scope="module")
def pencil_corpus():
    ctx = _pencil_context()
    classified = []
    for m in range(2, 21):
        dec = classify(ctx, (m, 1))
        assert dec is not None
        classified.append((ctx, (m, 1), dec))
    return ctx, classified


# ---------------------------------------------------------------------------

def test_criterion_01_rr_closed_forms_match_product_oracle():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 11):
        t = make_type(K3N, n)
        for q in range(-2 * n, 101, 2):
            ok = ok and rr_eval(t, q) == oracle_rr(t, q)
    for n in range(2, 11):
        t = make_type(KUMN, n)
        for q in range(-2 * n, 101, 2):
            ok = ok and rr_eval(t, q) == oracle_rr(t, q)
    elapsed = time.perf_counter() - t0
    report(1, ok and elapsed < 1.0, f"RR closed forms match the product oracle ({elapsed:.2f}s < 1s)")


def test_criterion_02_chi_of_trivial_bundle():
    ok = all(rr_eval(make_type(K3N, n), 0) == n + 1 for n in range(1, 21)) and all(
        rr_eval(make_type(KUMN, n), 0) == n + 1 for n in range(2, 21)
    )
    report(2, ok, "chi at q = 0 equals n + 1 for every registered type")


def test_criterion_03_strict_monotonicity_certified():
    ok = all(check_strict_monotonic(make_type(K3N, n), 200) for n in range(1, 21)) and all(
        check_strict_monotonic(make_type(KUMN, n), 200) for n in range(2, 21)
    )
    report(3, ok, "strict monotonicity up to q = 200 for K3^[n] and Kum^n, n <= 20")


def test_criterion_04_rank2_exceptional_scan():
    t0 = time.perf_counter()
    result = rank2_exceptional_scan(100)
    elapsed = time.perf_counter() - t0
    ok = result == [(-1, 1), (1, -1)] and elapsed < 1.0
    report(4, ok, f"rank-2 scan at bound 100 finds exactly +-(E - F) ({elapsed:.2f}s < 1s)")


def test_criterion_05_kumn_nonexistence():
    t0 = time.perf_counter()
    sols = kumn_nonexistence_search(10, 30, 30)
    # case 1: (n+1) * C(m-1+n, n) == C(m+n, n) holds only at m = 1
    case1_ok = all(
        ((n + 1) * math.comb(m - 1 + n, n) == math.comb(m + n, n)) == (m == 1)
        for n in range(2, 21)
        for m in range(1, 61)
    )
    # the cross-multiplied linear form of the case-1 identity
    linear_ok = all(
        ((n + 1) * m == m + n) == (m == 1) for n in range(2, 21) for m in range(1, 61)
    )
    # case-2 square lower bound over the grid
    bound_ok = all(
        2 * m * d + q_f >= 4 * (m - 1)
        for m in range(2, 31)
        for d in range(2, 31)
        for q_f in range(-2 * d, 0, 2)
    )
    elapsed = time.perf_counter() - t0
    ok = sols == [] and case1_ok and linear_ok and bound_ok and elapsed < 10.0
    report(5, ok, f"Kum^n grid search empty; case-1 identity forces m = 1 ({elapsed:.2f}s < 10s)")


def test_criterion_06_pencil_reproduction(pencil_corpus):
    ctx, classified = pencil_corpus
    ok = all(
        dec == Decomposition(m=h[0], L=(1, 0), F=(0, 1), d=1) for _, h, dec in classified
    )
    mismatches = 0
    hits = []
    for h in product(range(-8, 9), repeat=2):
        if not _big_nef(ctx, h):
            continue
        dec = classify(ctx, h)
        sweep = oracle_classify(ctx, h, 8)
        if sweep != ([dec] if dec is not None else []):
            mismatches += 1
        if dec is not None:
            hits.append(h)
    ok = ok and mismatches == 0 and hits == [(m, 1) for m in range(2, 9)]
    report(6, ok, "pencil classifications match the exhaustive oracle on the box")


def test_criterion_07_k3n_specialization(generated_corpus):
    t0 = time.perf_counter()
    contexts, classified = generated_corpus
    ok = len(contexts) >= 100 and len(classified) >= 30
    for ctx, h, dec in classified:
        ok = ok and dec.d == 1 and square(ctx.lat, dec.F) == -2
        ok = ok and verify_decomposition(ctx, h, dec)
        # exact square expansion of H = m*L + F with q(L) = 0
        ok = ok and square(ctx.lat, h) == 2 * dec.m * dec.d + square(ctx.lat, dec.F)
    elapsed = time.perf_counter() - t0
    report(
        7,
        ok and elapsed < 30.0,
        f"{len(classified)} decompositions over {len(contexts)} K3n contexts all have"
        f" d = 1, q(F) = -2 ({elapsed:.2f}s < 30s)",
    )


def test_criterion_08_doubling_clears_base_divisors(pencil_corpus, generated_corpus):
    ctx_p, pencil_classified = pencil_corpus
    _, generated_classified = generated_corpus
    ok = True
    for ctx, h, _ in pencil_classified + generated_classified:
        ok = ok and classify(ctx, tuple(2 * x for x in h)) is None
    report(8, ok, f"2H is base-divisor free for all {len(pencil_classified) + len(generated_classified)} classified instances")


def test_criterion_09_reflection_engine():
    t0 = time.perf_counter()
    rng = random.Random(20240)
    u = hyperbolic_plane()
    pool = [
        GeometricContext(u, (1, 2), peds=[(1, -1)]),
        GeometricContext(u, (3, 1), peds=[(-1, 1)]),
        GeometricContext(direct_sum(u, rank_one(-2)), (1, 2, -1), peds=[(1, -1, 0), (0, 0, 1)]),
        GeometricContext(direct_sum(u, rank_one(-4)), (1, 3, -1), peds=[(1, -1, 0)]),
        GeometricContext(
            direct_sum(u, rank_one(-2), rank_one(-2)),
            (1, 3, -1, -1),
            peds=[(1, -1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
        ),
    ]
    ok = True
    done = 0
    while done < 1000:
        ctx = pool[rng.randrange(len(pool))]
        rank = ctx.lat.rank
        alpha = tuple(rng.randint(-8, 8) for _ in range(rank))
        # reflect in a random declared ped: q-preserving involution on any class
        d = ctx.peds[rng.randrange(len(ctx.peds))]
        image = reflect(ctx, d, alpha)
        ok = ok and square(ctx.lat, image) == square(ctx.lat, alpha)
        ok = ok and reflect(ctx, d, image) == alpha
        if square(ctx.lat, alpha) < 0 or pairing(ctx.lat, alpha, ctx.ample) <= 0:
            continue
        trace = reflect_into_bk(ctx, alpha)
        ok = ok and trace.reconstruction() == alpha
        current = alpha
        height = pairing(ctx.lat, current, ctx.ample)
        for ped, a in trace.steps:
            ok = ok and a > 0 and isinstance(a, int)
            current = tuple(c - a * p for c, p in zip(current, ped))
            new_height = pairing(ctx.lat, current, ctx.ample)
            ok = ok and 0 < new_height < height
            height = new_height
        ok = ok and current == trace.result
        ok = ok and len(trace.steps) <= pairing(ctx.lat, alpha, ctx.ample)
        done += 1
    elapsed = time.perf_counter() - t0
    report(9, ok and elapsed < 10.0, f"1000 reflection/walk instances verified ({elapsed:.2f}s < 10s)")


def test_criterion_10_ped_inequality_and_rejection(capsys):
    ok = True
    for path in sorted(FIXTURES.glob("*.json")):
        data = json.loads(path.read_text())
        lat = Lattice.from_json_dict(data["lattice"])
        peds = [tuple(p) for p in data.get("peds", [])]
        passes = all(ped_inequality_check(lat, d) for d in peds)
        if path.name == "corrupted_ped.json":
            ok = ok and not passes
        else:
            ok = ok and passes
    code = cli_main(["validate-context", "--input", str(FIXTURES / "corrupted_ped.json")])
    out = capsys.readouterr().out
    ok = ok and code == 1 and "q(D) | 2*div(D)" in out
    report(10, ok, "fixture peds satisfy q(D) | 2*div(D); corrupted fixture rejected with diagnostic")


def test_criterion_11_nl_numerical_types():
    ok = True
    for n in range(1, 6):
        t = make_type(K3N, n)
        for q_h in range(2, 61, 2):
            ok = ok and nl_numerical_types(t, q_h) == [NumericalNLType(m=q_h // 2 + 1, d=1, qF=-2)]
    for n in range(2, 6):
        t = make_type(KUMN, n)
        for q_h in range(2, 61, 2):
            ok = ok and nl_numerical_types(t, q_h) == []
    report(11, ok, "NL numerical types: single (q_H/2 + 1, 1, -2) for K3^[n], none for Kum^n")
