import json

import pytest
from hypothesis import example, given, settings, strategies as st

from basediv import (
    CapabilityError,
    ConsistencyError,
    Decomposition,
    DomainError,
    GENERIC,
    GeometricContext,
    K3N,
    KUMN,
    classify,
    direct_sum,
    hyperbolic_plane,
    make_type,
    rank_one,
    rr_eval,
)
from basediv.oracle import oracle_classify, oracle_rr

from conftest import fixture_path

# the declared contexts of rank <= 3 the oracle can sweep
ORACLE_FIXTURES = {
    name: GeometricContext.from_json_dict(json.loads(fixture_path(f"{name}.json").read_text()))
    for name in ("k3_pencil", "k3n2_rank3", "kum2_u")
}


def test_oracle_rr_examples():
    assert oracle_rr(make_type(K3N, 2), 4) == 10
    assert oracle_rr(make_type(KUMN, 3), 0) == 4
    for m in range(1, 21):
        assert oracle_rr(make_type(K3N, 1), 2 * (m - 1)) == m + 1


def test_oracle_rr_guards():
    with pytest.raises(DomainError):
        oracle_rr(make_type(K3N, 2), 3)
    with pytest.raises(DomainError):
        oracle_rr(make_type(GENERIC, 1, coeffs=[2, 1]), 2)


def test_oracle_rr_agrees_with_polynomial_evaluation():
    for n in range(1, 7):
        t = make_type(K3N, n)
        for q in range(-2 * n, 101, 2):
            assert oracle_rr(t, q) == rr_eval(t, q)
    for n in range(2, 7):
        t = make_type(KUMN, n)
        for q in range(-2 * n, 101, 2):
            assert oracle_rr(t, q) == rr_eval(t, q)


def test_oracle_classify_pencil(k3_pencil):
    assert oracle_classify(k3_pencil, (3, 1), 4) == [
        Decomposition(m=3, L=(1, 0), F=(0, 1), d=1)
    ]


def test_oracle_classify_rejects_non_big(k3_pencil):
    with pytest.raises(DomainError):
        oracle_classify(k3_pencil, (1, 0), 4)


def test_oracle_classify_rank_one_empty():
    ctx = GeometricContext(rank_one(2), (1,), dtype=make_type(K3N, 1), strong_rlf=True)
    assert oracle_classify(ctx, (1,), 4) == []


def test_oracle_capability_guards(k3_pencil):
    rank4 = direct_sum(hyperbolic_plane(), hyperbolic_plane())
    ctx = GeometricContext(rank4, (1, 1, 0, 0), dtype=make_type(K3N, 1), strong_rlf=True)
    with pytest.raises(CapabilityError):
        oracle_classify(ctx, (1, 1, 0, 0), 2)
    with pytest.raises(CapabilityError):
        oracle_classify(k3_pencil, (3, 1), 9)


def test_oracle_agrees_with_classifier_on_pencil_box(k3_pencil):
    ctx = k3_pencil
    lat = ctx.lat
    for a in range(-4, 5):
        for b in range(-4, 5):
            h = (a, b)
            try:
                dec = classify(ctx, h)
            except DomainError:
                continue
            sweep = oracle_classify(ctx, h, 4)
            assert sweep == ([dec] if dec is not None else [])


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(ORACLE_FIXTURES)), st.lists(st.integers(-6, 6), min_size=3, max_size=3))
@example("k3_pencil", [4, 1, 0])
@example("k3n2_rank3", [1, 3, 0])
def test_classify_agrees_with_oracle_on_fixtures(name, coords):
    # with |H_i| <= 6 and ped entries in {-1, 0, 1}, every L = (H - F)/m lies
    # in the oracle's box of bound 8, so the sweep sees every decomposition
    ctx = ORACLE_FIXTURES[name]
    h = tuple(coords[: ctx.lat.rank])
    try:
        sweep = oracle_classify(ctx, h, 8)
    except DomainError:
        with pytest.raises(DomainError):
            classify(ctx, h)
        return
    if len(sweep) > 1:
        with pytest.raises(ConsistencyError):
            classify(ctx, h)
        return
    dec = classify(ctx, h)
    assert sweep == ([dec] if dec is not None else [])
