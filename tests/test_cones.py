import copy
import itertools
import json
import pickle
import random
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from basediv import (
    CapabilityError,
    ConsistencyError,
    DomainError,
    GeometricContext,
    IntegralityError,
    K3N,
    Lattice,
    ReflectionTrace,
    StructuralError,
    classify,
    direct_sum,
    hyperbolic_plane,
    in_bk_closure,
    in_positive_cone,
    k3_ped_candidates,
    make_type,
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
from basediv.cones import CONTEXT_CLASS_LIMIT, CONTEXT_RANK_LIMIT, WALK_STEP_LIMIT
from basediv.oracle import oracle_rank2_scan

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


def sized_payload(rank, n_peds, n_walls):
    """U + <-2>^(rank - 2) with basis e, f, c_i, the ample class e + f, the peds a*f - c_i
    (q = -2, (ample, D) = a, a = 1, 2, ...) and the walls e."""
    gram = [[-2 * (i == j >= 2) + (i + j == 1) for j in range(rank)] for i in range(rank)]
    peds = [[0, 1 + k // (rank - 2)] + [-(i == k % (rank - 2)) for i in range(rank - 2)] for k in range(n_peds)]
    return {"lattice": {"gram": gram}, "ample": [1, 1] + [0] * (rank - 2), "peds": peds, "walls": [[1] + [0] * (rank - 1)] * n_walls}


def test_context_at_the_size_limits_is_accepted():
    data = sized_payload(CONTEXT_RANK_LIMIT, CONTEXT_CLASS_LIMIT - 100, 100)
    ctx, checks = validate_context_payload(data)
    assert ctx is not None and all(c.passed for c in checks)
    assert ctx.lat.rank == CONTEXT_RANK_LIMIT and len(ctx.peds) + len(ctx.walls) == CONTEXT_CLASS_LIMIT


@pytest.mark.parametrize("rank, n_peds, n_walls", [(CONTEXT_RANK_LIMIT + 1, 1, 0), (4, CONTEXT_CLASS_LIMIT + 1, 0), (4, 500, 501)])
def test_context_over_the_size_limits_is_refused_before_any_item(rank, n_peds, n_walls):
    data = sized_payload(rank, n_peds, n_walls)
    message = f"^a context of rank {rank} with {n_peds + n_walls} peds and walls exceeds the limits: rank <= {CONTEXT_RANK_LIMIT}, peds plus walls <= {CONTEXT_CLASS_LIMIT}$"
    ctx, checks = validate_context_payload(data)
    assert ctx is None
    assert [c.name for c in checks if not c.passed] == ["context-size"]
    assert not any(c.name.startswith(("ped[", "wall[")) for c in checks)
    with pytest.raises(CapabilityError, match=message):
        GeometricContext.from_json_dict(data)
    with pytest.raises(CapabilityError, match=message):
        GeometricContext(Lattice(data["lattice"]["gram"]), data["ample"], data["peds"], data["walls"])


def test_a_million_peds_are_refused_at_once():
    data = dict(sized_payload(3, 1, 0), peds=[[0, 1, -1]] * 10**6)
    start = time.perf_counter()
    with pytest.raises(CapabilityError, match="with 1000000 peds and walls"):
        GeometricContext.from_json_dict(data)
    assert time.perf_counter() - start < 0.1


PENCIL_ARGS = (Lattice([[0, 1], [1, -2]]), (3, 1), [(0, 1)], (), make_type(K3N, 1))


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"strong_rlf": "false"}, "^context \"strong_rlf\" must be a JSON boolean, got 'false'$"),
        ({"strong_rlf": 1}, "^context \"strong_rlf\" must be a JSON boolean, got 1$"),
        ({"note": 5}, "^note must be a string, got 5$"),
        ({"note": b"x", "strong_rlf": True}, "^note must be a string, got b'x'$"),
    ],
    ids=["strong-rlf-string", "strong-rlf-int", "note-int", "note-bytes"],
)
def test_constructor_checks_the_flags_as_the_reader_does(kwargs, message):
    with pytest.raises(StructuralError, match=message):
        GeometricContext(*PENCIL_ARGS, **kwargs)
    data = dict(GeometricContext(*PENCIL_ARGS).to_json_dict(), **kwargs)
    with pytest.raises(StructuralError, match=message):
        GeometricContext.from_json_dict(data)


def test_flag_checks_keep_their_place_in_the_report():
    """strong_rlf is checked before the ample class and the peds, note after them."""
    with pytest.raises(StructuralError, match="strong_rlf"):
        GeometricContext(PENCIL_ARGS[0], (3, 1), [(0, 1), 5], strong_rlf="false", note=5)
    with pytest.raises(StructuralError, match=r"peds\[1\]"):
        GeometricContext(PENCIL_ARGS[0], (3, 1), [(0, 1), 5], note=5)
    with pytest.raises(DomainError, match=r"ped\[0\]-ample-pairing"):
        GeometricContext(PENCIL_ARGS[0], (2, 1), [(0, 1)])
    assert GeometricContext(*PENCIL_ARGS, note=None).note is None


def test_contexts_and_lattices_are_immutable():
    ctx = GeometricContext(*PENCIL_ARGS, strong_rlf=True)
    for obj in (ctx, ctx.lat):
        for field in type(obj).__slots__:
            with pytest.raises(AttributeError, match=f"immutable {type(obj).__name__}"):
                setattr(obj, field, getattr(obj, field))
            with pytest.raises(AttributeError, match=f"immutable {type(obj).__name__}"):
                delattr(obj, field)
    # assignments the derived tables would not have followed
    with pytest.raises(AttributeError):
        ctx.lat = Lattice([[0, 1], [1, -4]])
    with pytest.raises(AttributeError):
        ctx.peds = ()
    with pytest.raises(AttributeError):
        Lattice([[2]]).gram = ((3,),)
    assert classify(ctx, (3, 1)).m == 3


def test_contexts_compare_by_value_and_copy_through_the_constructor():
    text = json.dumps(GeometricContext(*PENCIL_ARGS, strong_rlf=True, note="pencil").to_json_dict())
    ctx = GeometricContext.from_json_dict(json.loads(text))
    assert ctx == GeometricContext.from_json_dict(json.loads(text)) == GeometricContext(*PENCIL_ARGS, strong_rlf=True, note="pencil")
    assert hash(ctx) == hash(GeometricContext.from_json_dict(json.loads(text)))
    assert ctx != GeometricContext(*PENCIL_ARGS, strong_rlf=True)
    for copied in (pickle.loads(pickle.dumps(ctx)), copy.deepcopy(ctx), copy.copy(ctx)):
        assert type(copied) is GeometricContext and copied == ctx
        assert (copied.rows, copied.ped_table) == (ctx.rows, ctx.ped_table)
        assert (copied.cols, copied.bias, copied.vmax, copied.words.format) == (ctx.cols, ctx.bias, ctx.vmax, ctx.words.format)
        assert classify(copied, (3, 1)) == classify(ctx, (3, 1))
    lat = Lattice([[2, 1], [1, 2]], even=True)
    assert pickle.loads(pickle.dumps(lat)) == lat == Lattice(((2, 1), (1, 2))) and copy.deepcopy(lat).rank == 2
    assert lat != Lattice([[2, 1], [1, 2]], even=False) and hash(lat) == hash(Lattice([[2, 1], [1, 2]]))


def test_a_context_without_a_deformation_type_round_trips():
    ctx = GeometricContext(*PENCIL_ARGS[:4], strong_rlf=True)
    data = ctx.to_json_dict()
    assert "deformation" not in data
    assert GeometricContext.from_json_dict(json.loads(json.dumps(data))) == ctx


def test_derived_tables():
    ctx = GeometricContext(U_MINUS4, (3, 1, -1), peds=[(0, 0, 1), (-1, 1, 0)], walls=[(1, 0, 1)])
    # the Gram rows, then G*ample, G*D per ped and G*W per wall
    assert ctx.rows == U_MINUS4.gram + ((1, 3, 4), (0, 0, -4), (1, -1, 0), (0, 1, -4))
    # column i packs rows[j][i] into word j; G*ample has the largest L1 norm, 8
    assert ctx.cols[0] == sum(row[0] << 64 * j for j, row in enumerate(ctx.rows))
    assert ctx.vmax == 2**60 and ctx.words.format == "<7q"


# U + <-2> whose largest rows, G*W = (2, 2, 0) and (0, 0, -4), have the L1
# norm 4: a coordinate of vmax = 2^61 pairs one of them to exactly +2^63, one
# word past the packed form, from either side of zero
WORD_LIMIT_CTX = GeometricContext(direct_sum(U, rank_one(-2)), (1, 1, 0), peds=[(1, 0, 1)], walls=[(2, 2, 0), (0, 0, 2)])


@st.composite
def packed_pairing_cases(draw):
    """A context of rank 1 to 6 with peds and walls, some scaled so that vmax is
    small or 0, and a class whose coordinates are small, at vmax or one inside
    it, 2^64 or 10^1500."""
    r = draw(st.integers(1, 6))
    # a diagonal entry -1 or -2 makes its basis vector a ped candidate; the
    # first is positive, so that its basis vector can be the ample class
    upper = {(i, j): draw(st.integers(-3, 3) if i < j else st.sampled_from([-2, -1, 1, 2])) for i in range(r) for j in range(i, r)}
    upper[0, 0] = draw(st.integers(1, 3))
    lat = Lattice([[upper[min(i, j), max(i, j)] for j in range(r)] for i in range(r)])
    small = st.tuples(*[st.integers(-3, 3)] * r)
    ample = draw(small)
    if square(lat, ample) <= 0:
        ample = (1,) + (0,) * (r - 1)
    basis = st.integers(0, r - 1).map(lambda i: (0,) * i + (1,) + (0,) * (r - 1 - i))
    peds = [d if pairing(lat, ample, d) > 0 else tuple(-x for x in d) for d in draw(st.lists(st.one_of(basis, small), max_size=6))]
    peds = [d for d in peds if all(c.passed for c in run_context_checks(lat, ample, [d]))]
    scale = draw(st.sampled_from([1, 1, 2**20, 2**40 + 1, 2**61, 2**63]))
    walls = [tuple(scale * x for x in w) for w in draw(st.lists(small, max_size=3))]
    ctx = GeometricContext(lat, ample, peds, walls)
    m = ctx.vmax
    coordinate = st.one_of(st.integers(-3, 3), st.sampled_from([m - 1, 1 - m, m, -m, 2**64, -(10**1500)]))
    return ctx, draw(st.tuples(*[coordinate] * r))


@settings(max_examples=300, deadline=None)
@given(packed_pairing_cases())
@example((WORD_LIMIT_CTX, (2**61, 2**61, 0)))  # (v, G*W) = +2^63
@example((WORD_LIMIT_CTX, (0, 0, -(2**61))))  # (v, G*W) = +2^63 from the other side
@example((WORD_LIMIT_CTX, (2**61 - 1, 2**61 - 1, 1 - 2**61)))  # the packed path's largest pairings
@example((WORD_LIMIT_CTX, (-1, 0, 1)))
def test_packed_pairings_match_the_lattice(case):
    """_pairings, packed or row by row, returns q(v), (v, ample), then (v, D)
    for each ped and (v, W) for each wall, as lattice.pairing computes them."""
    ctx, v = case
    q, pa, pairs = ctx._pairings(v)
    lat = ctx.lat
    assert (q, pa) == (square(lat, v), pairing(lat, v, ctx.ample))
    assert list(pairs) == [pairing(lat, v, x) for x in ctx.peds + ctx.walls]


# U + <-2> with a wall whose G*W has the L1 norm 2^63, so vmax = 1 and both
# peds, of coordinate 1, are paired row by row
ROW_PATH_CTX = GeometricContext(direct_sum(U, rank_one(-2)), (1, 1, 0), peds=[(1, 0, 1), (0, 1, 1)], walls=[(2**62, 2**62, 0)])


def test_row_path_context_pairs_its_peds_row_by_row():
    assert ROW_PATH_CTX.vmax == 1  # so each ped, of coordinate 1, is not below it


@settings(max_examples=100, deadline=None)
@given(packed_pairing_cases())
@example((ROW_PATH_CTX, (0, 0, 0)))
@example((WORD_LIMIT_CTX, (0, 0, 0)))
def test_ped_table_rows_are_the_peds_pairing_passes(case):
    """Row i of the ped table is (q(D_i), (D_i, ample), ((D_i, D_j))_j), with
    no wall pairing, whether D_i was paired packed or row by row."""
    ctx, lat = case[0], case[0].lat
    assert ctx.ped_table == tuple(
        (square(lat, d), pairing(lat, d, ctx.ample), tuple(pairing(lat, d, e) for e in ctx.peds)) for d in ctx.peds
    )


def test_word_limit_context_reaches_two_to_the_63():
    ctx = WORD_LIMIT_CTX
    assert ctx.vmax == 2**61
    assert ctx._pairings((2**61, 2**61, 0))[2][1] == 2**63
    assert ctx._pairings((0, 0, -(2**61)))[2][2] == 2**63
    assert ctx._pairings((1 - 2**61, 1 - 2**61, 0))[2][1] == 4 - 2**63


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


@pytest.mark.parametrize("flag", ["x", 0, None])
def test_closed_takes_only_a_bool(flag):
    with pytest.raises(DomainError, match="^closed must be a bool, got "):
        in_positive_cone(GeometricContext(U, (1, 1)), (0, 0), closed=flag)


def test_bk_closure_examples(u_walk_ctx):
    assert in_bk_closure(u_walk_ctx, (1, 0))
    assert not in_bk_closure(u_walk_ctx, (0, 1))
    assert in_bk_closure(u_walk_ctx, (1, 1))


def test_walls_cut_neither_the_closure_nor_the_walk():
    """The walk and the closure test cut the context's pairings to the peds,
    leaving out the wall pairings listed after them."""
    ctx = GeometricContext(U, (1, 1), walls=[(1, -1)])
    assert in_bk_closure(ctx, (2, 1))
    ctx = GeometricContext(U, (2, 1), peds=[(-1, 1)], walls=[(1, -1)])
    assert in_bk_closure(ctx, (1, 0)) and not in_bk_closure(ctx, (0, 1))
    assert reflect_into_bk(ctx, (0, 1)) == ReflectionTrace((1, 0), (((-1, 1), 1),))
    # (2, 1) pairs 1 with the ped and -1 with the wall: the walk leaves it as it is
    assert reflect_into_bk(ctx, (2, 1)) == ReflectionTrace((2, 1))


def test_ped_inequality_examples():
    assert ped_inequality_check(U, (1, -1))
    assert not ped_inequality_check(U, (1, -2))
    assert ped_inequality_check(U_MINUS4, (0, 0, 1))
    with pytest.raises(DomainError):
        ped_inequality_check(U, (1, 1))
    with pytest.raises(DomainError):
        ped_inequality_check(U, (0, 0))


@pytest.mark.parametrize("bound", range(1, 61))
def test_rank2_scan(bound):
    assert rank2_exceptional_scan(bound) == oracle_rank2_scan(bound) == [(-1, 1), (1, -1)]


def test_rank2_scan_refuses_bound_zero():
    # the box of bound 0 holds only (0, 0), where the closed form would be wrong
    assert oracle_rank2_scan(0) == []
    with pytest.raises(DomainError, match="bound must be >= 1"):
        rank2_exceptional_scan(0)


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


# U + <-2> with basis e, f, c: (1, k^2, k) reflects in c to (1, k^2, -k), then in f - c
# to (1, (k - 1)^2, k - 1), so it walks 2k steps to e, and (1, k^2, -k) walks 2k - 1
LONG_WALK_CTX = GeometricContext(direct_sum(hyperbolic_plane(), rank_one(-2)), (3, 2, -1), peds=[(0, 0, 1), (0, 1, -1)])


def test_walk_of_the_step_limit_is_taken():
    k = WALK_STEP_LIMIT // 2
    trace = reflect_into_bk(LONG_WALK_CTX, (1, k * k, k))
    assert len(trace.steps) == WALK_STEP_LIMIT
    assert trace.result == (1, 0, 0) and trace.reconstruction() == (1, k * k, k)


@pytest.mark.parametrize("sign", [-1, 1], ids=["limit-plus-one", "limit-plus-two"])
def test_walk_past_the_step_limit_is_refused(sign):
    k = WALK_STEP_LIMIT // 2 + 1
    with pytest.raises(CapabilityError, match=f"^the reflection walk needs more than {WALK_STEP_LIMIT} steps$"):
        reflect_into_bk(LONG_WALK_CTX, (1, k * k, sign * k))


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
    # walls, which the walk must not reflect in: (1, 1, -1) pairs -1 with the first
    GeometricContext(direct_sum(U, rank_one(-2)), (1, 2, -1), peds=[(1, -1, 0), (0, 0, 1)], walls=[(1, -2, 0), (2, -1, 1)]),
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
@example(4, [1, 1, -1, 0])
def test_walk_matches_reference_walk(i, coords):
    """The walk agrees with the reference, and a completed walk is an isometry
    ending in the closed positive cone: the exit check reflect_into_bk leaves
    out because its invariants imply it."""
    ctx = WALK_CONTEXTS[i]
    alpha = tuple(coords[: ctx.lat.rank])
    got = _outcome(reflect_into_bk, ctx, alpha)
    assert got == _outcome(reference_walk, ctx, alpha)
    if isinstance(got, ReflectionTrace):
        assert square(ctx.lat, got.result) == square(ctx.lat, alpha)
        assert in_positive_cone(ctx, got.result, closed=True)


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
