import itertools
import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from basediv import (
    ConsistencyError,
    DomainError,
    GeometricContext,
    IntegralityError,
    ReflectionTrace,
    StructuralError,
    classify,
    direct_sum,
    hyperbolic_plane,
    in_bk_closure,
    in_positive_cone,
    k3_ped_candidates,
    pairing,
    ped_inequality_check,
    rank2_exceptional_scan,
    rank_one,
    reflect,
    reflect_into_bk,
    run_context_checks,
    square,
    validate_context_payload,
)

U = hyperbolic_plane()
U_MINUS4 = direct_sum(hyperbolic_plane(), rank_one(-4))


# ---------------------------------------------------------------------------
# context validation

def test_context_rejects_bad_peds():
    with pytest.raises(DomainError, match="negative-square"):
        GeometricContext(U, (1, 1), peds=[(1, 1)])
    with pytest.raises(DomainError, match="primitive"):
        GeometricContext(U, (1, 2), peds=[(2, -2)])
    with pytest.raises(DomainError, match="ample-pairing"):
        GeometricContext(U, (1, 2), peds=[(-1, 1)])
    with pytest.raises(DomainError, match="divisibility"):
        GeometricContext(U, (2, 1), peds=[(-1, 3)])
    with pytest.raises(DomainError, match="nonzero"):
        GeometricContext(U, (1, 1), peds=[(0, 0)])


def test_context_rejects_non_positive_ample():
    with pytest.raises(DomainError, match="ample"):
        GeometricContext(U, (1, 0))
    with pytest.raises(DomainError, match="ample"):
        GeometricContext(U, (1, -1))


def test_context_checks_report_granularity():
    checks = run_context_checks(U, (2, 1), peds=[(-1, 3)])
    by_name = {c.name: c for c in checks}
    assert by_name["ample-positive-square"].passed
    assert by_name["ped[0]-negative-square"].passed
    assert by_name["ped[0]-primitive"].passed
    assert not by_name["ped[0]-divisibility"].passed
    assert "q(D) | 2*div(D)" in by_name["ped[0]-divisibility"].detail


def test_validate_payload_reports_structural_issues():
    ctx, checks = validate_context_payload({"lattice": {"gram": [[0, 1], [2, 0]]}, "ample": [1, 1]})
    assert ctx is None
    assert any(c.structural and not c.passed for c in checks)
    ctx, checks = validate_context_payload({"ample": [1, 1]})
    assert ctx is None
    assert checks[0].name == "schema"


def test_validate_payload_accepts_good_context():
    data = {
        "lattice": {"gram": [[0, 1], [1, -2]], "even": True},
        "ample": [3, 1],
        "peds": [[0, 1]],
        "deformation": {"kind": "K3n", "n": 1},
        "strong_rlf": True,
    }
    ctx, checks = validate_context_payload(data)
    assert ctx is not None
    assert all(c.passed for c in checks)
    assert ctx.to_json_dict()["peds"] == [[0, 1]]


# ---------------------------------------------------------------------------
# reflections

def test_reflect_examples(u_walk_ctx):
    ctx = u_walk_ctx
    assert reflect(ctx, (1, -1), (0, 1)) == (1, 0)
    assert reflect(ctx, (1, -1), (1, -1)) == (-1, 1)  # a reflection negates its root
    assert reflect(ctx, (1, -1), (1, 1)) == (1, 1)  # orthogonal classes are fixed


def test_reflect_rejects_nonnegative_roots(u_walk_ctx):
    with pytest.raises(DomainError):
        reflect(u_walk_ctx, (1, 1), (0, 1))
    with pytest.raises(DomainError):
        reflect(u_walk_ctx, (1, 0), (0, 1))


def test_reflect_adhoc_root_integrality(u_walk_ctx):
    # (1, -2) has q = -4; it acts integrally on e but not on f
    assert reflect(u_walk_ctx, (1, -2), (1, 0)) == (0, 2)
    with pytest.raises(IntegralityError):
        reflect(u_walk_ctx, (1, -2), (0, 1))


def test_walk_single_step(u_walk_ctx):
    trace = reflect_into_bk(u_walk_ctx, (0, 1))
    assert trace.result == (1, 0)
    assert trace.steps == (((-1, 1), 1),)
    assert trace.reconstruction() == (0, 1)
    # (alpha, h) drops 2 -> 1
    assert pairing(u_walk_ctx.lat, (0, 1), u_walk_ctx.ample) == 2
    assert pairing(u_walk_ctx.lat, trace.result, u_walk_ctx.ample) == 1


def test_walk_noop_when_already_inside(u_walk_ctx):
    trace = reflect_into_bk(u_walk_ctx, (1, 0))
    assert trace.result == (1, 0)
    assert trace.steps == ()


def test_walk_symmetric_configuration():
    ctx = GeometricContext(U, (1, 2), peds=[(1, -1)])
    trace = reflect_into_bk(ctx, (1, 0))
    assert trace.result == (0, 1)
    assert trace.steps == (((1, -1), 1),)


def test_walk_preconditions(u_walk_ctx):
    with pytest.raises(DomainError):
        reflect_into_bk(u_walk_ctx, (0, 0))
    with pytest.raises(DomainError):
        reflect_into_bk(u_walk_ctx, (1, -1))  # q = -2
    with pytest.raises(DomainError):
        reflect_into_bk(u_walk_ctx, (0, -1))  # pairs negatively with ample


def test_trace_json_shape(u_walk_ctx):
    trace = reflect_into_bk(u_walk_ctx, (0, 1))
    payload = trace.to_json_dict()
    assert payload == {"result": [1, 0], "steps": [{"ped": [-1, 1], "a": 1}]}
    json.dumps(payload)  # serializable


# ---------------------------------------------------------------------------
# cone membership

def test_positive_cone_examples():
    ctx = GeometricContext(U, (1, 1))
    assert in_positive_cone(ctx, (1, 1))
    assert not in_positive_cone(ctx, (1, 0))
    assert in_positive_cone(ctx, (1, 0), closed=True)
    assert not in_positive_cone(ctx, (1, -1))
    assert not in_positive_cone(ctx, (1, -1), closed=True)
    assert in_positive_cone(ctx, (0, 0), closed=True)
    assert not in_positive_cone(ctx, (0, 0))


def test_bk_closure_examples(u_walk_ctx):
    assert in_bk_closure(u_walk_ctx, (1, 0))
    assert not in_bk_closure(u_walk_ctx, (0, 1))
    assert in_bk_closure(u_walk_ctx, (1, 1))


def test_bk_closure_wall_strict_mode():
    ctx = GeometricContext(U, (1, 1), walls=[(1, -1)])
    assert in_bk_closure(ctx, (2, 1))
    assert not in_bk_closure(ctx, (2, 1), include_walls=True)
    assert in_bk_closure(ctx, (1, 1), include_walls=True)


def test_ped_inequality_examples():
    assert ped_inequality_check(U, (1, -1))
    assert not ped_inequality_check(U, (1, -2))
    assert ped_inequality_check(U_MINUS4, (0, 0, 1))
    with pytest.raises(DomainError):
        ped_inequality_check(U, (1, 1))
    with pytest.raises(DomainError):
        ped_inequality_check(U, (0, 0))


@pytest.mark.parametrize("bound", [1, 10, 50])
def test_rank2_scan(bound):
    assert rank2_exceptional_scan(bound) == [(-1, 1), (1, -1)]


def test_k3_ped_candidates():
    assert k3_ped_candidates(U, 1) == [(-1, 1), (1, -1)]
    assert k3_ped_candidates(U, 1, ample=(1, 2)) == [(1, -1)]
    assert k3_ped_candidates(U, 1, ample=(2, 1)) == [(-1, 1)]


# ---------------------------------------------------------------------------
# algebraic properties

vec2 = st.tuples(st.integers(-20, 20), st.integers(-20, 20))


@given(vec2)
def test_reflect_preserves_square_and_involutes(alpha):
    ctx = GeometricContext(U, (1, 2), peds=[(1, -1)])
    d = (1, -1)
    image = reflect(ctx, d, alpha)
    assert square(U, image) == square(U, alpha)
    assert reflect(ctx, d, image) == tuple(alpha)


def test_walk_descent_random_instances():
    rng = random.Random(7)
    lat3 = direct_sum(hyperbolic_plane(), rank_one(-2))
    ctx = GeometricContext(
        lat3, (1, 2, -1), peds=[(1, -1, 0), (0, 0, 1)]
    )
    done = 0
    while done < 200:
        alpha = tuple(rng.randint(-6, 6) for _ in range(3))
        if square(lat3, alpha) < 0 or pairing(lat3, alpha, ctx.ample) <= 0:
            continue
        trace = reflect_into_bk(ctx, alpha)
        assert trace.reconstruction() == alpha
        assert all(a > 0 for _, a in trace.steps)
        assert in_bk_closure(ctx, trace.result)
        done += 1


def test_walk_step_count_bounded_by_initial_height():
    ctx = GeometricContext(U, (2, 1), peds=[(-1, 1)])
    for alpha in [(0, 1), (1, 3), (2, 5)]:
        trace = reflect_into_bk(ctx, alpha)
        assert len(trace.steps) <= pairing(U, alpha, ctx.ample)


def test_walk_reports_broken_descent_on_non_hyperbolic_lattice():
    # U + <+2> passes every declared-data check, but its signature is wrong
    # for the descent argument: reflecting e in (2, -1, 1) drops (alpha, h)
    # to 0, which the walk must report instead of looping
    lat = direct_sum(hyperbolic_plane(), rank_one(2))
    ctx = GeometricContext(lat, (1, 1, 0), peds=[(2, -1, 1)])
    with pytest.raises(ConsistencyError, match="descent"):
        reflect_into_bk(ctx, (1, 0, 0))


# ---------------------------------------------------------------------------
# the walk against a reference written with the validating public pairing

WALK_CONTEXTS = (
    GeometricContext(U, (2, 1), peds=[(-1, 1)]),
    GeometricContext(direct_sum(U, rank_one(-2)), (1, 2, -1), peds=[(1, -1, 0), (0, 0, 1)]),
    GeometricContext(
        direct_sum(U, rank_one(-2), rank_one(-2)),
        (5, 2, -1, -1),
        peds=[(0, 0, 1, 0), (0, 1, 0, -1), (-1, 1, 0, 0), (0, 0, 0, 1), (0, 1, -1, 0)],
    ),
    # U + <+2>: its signature breaks the descent argument (see above)
    GeometricContext(direct_sum(U, rank_one(2)), (1, 1, 0), peds=[(2, -1, 1)]),
)


def reference_walk(ctx, alpha):
    """The walk of reflect_into_bk, every pairing through the public pairing."""
    lat = ctx.lat
    current = lat.vector(alpha)
    if all(c == 0 for c in current):
        raise DomainError("cannot walk the zero class")
    qa = pairing(lat, current, current)
    if qa < 0:
        raise DomainError(f"q(alpha) = {qa} must be nonnegative (closed positive cone)")
    height = pairing(lat, current, ctx.ample)
    if height <= 0:
        raise DomainError(f"(alpha, ample) = {height} must be positive")
    steps = []
    while True:
        violated = next((d for d in ctx.peds if pairing(lat, current, d) < 0), None)
        if violated is None:
            break
        if len(steps) >= pairing(lat, alpha, ctx.ample):
            raise ConsistencyError(
                "reflection walk exceeded its iteration budget (alpha, ample);"
                " the declared context data is inconsistent"
            )
        qd = pairing(lat, violated, violated)
        num = 2 * pairing(lat, violated, current)
        if num % qd != 0:
            raise ConsistencyError(f"declared ped {list(violated)} produced a non-integral reflection scalar")
        a = num // qd
        nxt = tuple(c - a * v for c, v in zip(current, violated))
        new_height = pairing(lat, nxt, ctx.ample)
        if not (0 < new_height < height):
            raise ConsistencyError(
                f"descent failed: (alpha, ample) went {height} -> {new_height};"
                " the declared context data is inconsistent"
            )
        steps.append((violated, a))
        current, height = nxt, new_height
    if not in_bk_closure(ctx, current):
        raise ConsistencyError("walk terminated outside the declared BK closure")
    return ReflectionTrace(result=current, steps=tuple(steps))


def _outcome(walk, ctx, alpha):
    try:
        return walk(ctx, alpha)
    except (DomainError, ConsistencyError) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, len(WALK_CONTEXTS) - 1), st.lists(st.integers(-8, 8), min_size=4, max_size=4))
@example(3, [1, 0, 0, 0])
@example(2, [0, 8, -3, 2])
def test_walk_matches_reference_walk(i, coords):
    ctx = WALK_CONTEXTS[i]
    alpha = tuple(coords[: ctx.lat.rank])
    assert _outcome(reflect_into_bk, ctx, alpha) == _outcome(reference_walk, ctx, alpha)


def test_walk_with_peds_of_two_squares_matches_reference_walk():
    """Peds of square -4 and -2: the walk takes each q(D) from the context, so
    a misread square changes a reflection scalar or the step's integrality."""
    ctx = GeometricContext(direct_sum(U, rank_one(-4)), (3, 1, -1), peds=[(0, 0, 1), (-1, 1, 0)])
    assert reflect_into_bk(ctx, (2, 2, 1)).steps == (((0, 0, 1), 2),)
    for alpha in itertools.product(range(-3, 4), repeat=3):
        assert _outcome(reflect_into_bk, ctx, alpha) == _outcome(reference_walk, ctx, alpha)


# ---------------------------------------------------------------------------
# validation at the public boundary

@pytest.mark.parametrize(
    "call",
    [
        lambda ctx: classify(ctx, (1, True)),
        lambda ctx: classify(ctx, (3, 1, 0)),
        lambda ctx: reflect_into_bk(ctx, [1.5, 2]),
        lambda ctx: in_bk_closure(ctx, ("1", 0)),
        lambda ctx: in_positive_cone(ctx, (1, 1, 1)),
        lambda ctx: pairing(ctx.lat, (1, 0), (False, 1)),
    ],
    ids=["classify-bool", "classify-length", "walk-float", "closure-string", "cone-length", "pairing-bool"],
)
def test_public_entry_points_validate_their_vectors(k3_pencil, call):
    with pytest.raises(StructuralError):
        call(k3_pencil)
