"""Only BasedivError escapes the library's parsing and certifying entry points,
and each call returns within a time budget, on huge, degenerate and wrongly
typed inputs.

The deformation types handed to rr_eval, check_strict_monotonic and
nl_numerical_types are built ones, and so are the lattices and the context
handed to the constructor, the walk, the classifier and the enumeration;
every other argument is drawn.  A call that returns also has its result
written back (repr, of lists of records too, and to_json_dict), since that
is where long integers used to surface as Python's ValueError.
"""

import copy
import json
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from basediv import (
    BasedivError,
    DeformationType,
    DomainError,
    GENERIC,
    GeometricContext,
    K3N,
    KUMN,
    Lattice,
    RRPolynomial,
    StructuralError,
    check_strict_monotonic,
    classify,
    deformation_from_json_dict,
    direct_sum,
    enumerate_vectors,
    hyperbolic_plane,
    invert_binomial,
    make_type,
    nl_numerical_types,
    rank_one,
    reflect_into_bk,
    rr_eval,
    validate_context_payload,
)

from conftest import fixture_path

BUDGET_S = 2.0
HUGE = 10**5000  # more digits than str() writes
CONTEXT = json.loads(fixture_path("k3n2_rank3.json").read_text())

# a huge value is made by a map, since a strategy that holds it cannot be shown
HUGE_INTS = st.sampled_from([1, -1, 2]).map(lambda k: k * HUGE if k != 2 else 2**2**20)
WRONG = st.one_of(
    st.sampled_from(
        [None, True, 1.5, float("nan"), float("inf"), "2", "x", b"2", (), [], [2], {}, {"n": 2}, Decimal("sNaN"), Fraction(1, 2), object(),
         ["7" * 5000], {"k": "9" * 5000}, b"7" * 5000]
    ),
    st.just(-1).map(lambda k: k * (2**2**21 - 1)),  # a multi-million-bit integer
)
INTS = st.one_of(st.integers(-3, 12), st.sampled_from([499, 500, 501, 2**64, -(2**64)]), HUGE_INTS, st.integers())
COEFFICIENTS = st.one_of(
    INTS,
    WRONG,
    st.sampled_from(["5/4", "-1", "1/0", "1e5000", "-1e-5000", "1e1000000", "1_0.5e-3", " 7 ", "nan", "", "9" * 5000]),
    st.sampled_from([Decimal("1e1000000"), Decimal("1e-1000000"), Decimal("2.5"), Decimal("Infinity"), 1e300, -0.0]),
    HUGE_INTS.map(lambda k: Fraction(k, 3)),
)
JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), INTS, st.floats(), st.text(max_size=8), COEFFICIENTS.filter(lambda c: isinstance(c, str))),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=12,
)


@st.composite
def coefficient_lists(draw):
    out = draw(st.lists(COEFFICIENTS, min_size=0, max_size=5))
    return tuple(out) if draw(st.booleans()) else out


@st.composite
def make_type_calls(draw):
    kind = draw(st.one_of(st.sampled_from([K3N, KUMN, GENERIC, GENERIC, "OG6"]), WRONG, INTS))
    coeffs = draw(st.one_of(st.none(), coefficient_lists(), WRONG, INTS))
    n = draw(st.one_of(INTS, WRONG))
    if isinstance(coeffs, (list, tuple)) and draw(st.booleans()):
        n = len(coeffs) - 1  # so that the degree check passes and the coefficients are read
    return make_type, (kind, n), {"coeffs": coeffs}


@st.composite
def deformation_calls(draw):
    data = draw(st.fixed_dictionaries({"kind": st.one_of(st.sampled_from([K3N, KUMN, GENERIC]), JSON), "n": JSON}))
    if draw(st.booleans()):
        data["coeffs"] = draw(st.one_of(JSON, st.lists(JSON, max_size=5)))
    return deformation_from_json_dict, (draw(st.one_of(st.just(data), JSON)),), {}


@st.composite
def context_calls(draw):
    """The k3n2_rank3 fixture with some fields replaced by drawn values, read
    by from_json_dict or validate_context_payload."""
    data = copy.deepcopy(CONTEXT)
    if draw(st.booleans()):
        data["lattice"]["gram"][2][2] = draw(st.one_of(INTS, JSON))
    if draw(st.booleans()):
        data["peds"][0] = draw(st.lists(st.one_of(INTS, JSON), min_size=3, max_size=3))
    for key in draw(st.lists(st.sampled_from(["lattice", "ample", "peds", "walls", "deformation", "strong_rlf", "note"]), max_size=3)):
        data[key] = draw(JSON)
    reader = draw(st.sampled_from([GeometricContext.from_json_dict, validate_context_payload]))
    return reader, (draw(st.one_of(st.just(data), JSON)),), {}


FIXTURE = GeometricContext.from_json_dict(CONTEXT)
# a class of the fixture's rank, or anything else
VECTORS = st.one_of(st.tuples(INTS, INTS, INTS), st.lists(st.one_of(INTS, WRONG), max_size=4), WRONG, INTS)
LATTICES = [rank_one(2), hyperbolic_plane(), FIXTURE.lat, direct_sum(hyperbolic_plane(), hyperbolic_plane(), hyperbolic_plane())]


@st.composite
def lattice_calls(draw):
    gram = draw(st.one_of(st.lists(st.lists(st.one_of(INTS, WRONG), max_size=3), max_size=3), JSON, WRONG))
    return Lattice, (gram,), {"even": draw(st.one_of(st.none(), st.booleans(), WRONG, JSON))}


@st.composite
def constructor_calls(draw):
    """The constructor on the fixture's lattice and type with drawn ample class,
    peds, strong_rlf and note."""
    ample = draw(st.one_of(st.just(FIXTURE.ample), VECTORS))
    peds = draw(st.one_of(st.just(FIXTURE.peds), st.lists(VECTORS, max_size=3), JSON))
    flags = {"strong_rlf": draw(st.one_of(st.booleans(), WRONG, JSON)), "note": draw(st.one_of(st.none(), st.text(max_size=4), WRONG, INTS))}
    return GeometricContext, (FIXTURE.lat, ample, peds), dict(flags, dtype=FIXTURE.dtype)


@st.composite
def library_calls(draw):
    """The walk, the classifier, the numerical types, the enumeration, the
    binomial inversion and the polynomial constructor."""
    kind = draw(st.sampled_from(["class", "nl", "enumerate", "invert", "polynomial"]))
    if kind == "class":
        return draw(st.sampled_from([classify, reflect_into_bk])), (FIXTURE, draw(VECTORS)), {}
    if kind == "nl":
        return nl_numerical_types, (draw(st.sampled_from(built_types())), draw(st.one_of(INTS, WRONG))), {}
    if kind == "enumerate":
        return enumerate_vectors, (draw(st.sampled_from(LATTICES)), draw(st.one_of(INTS, WRONG)), draw(st.one_of(INTS, WRONG))), {}
    if kind == "invert":
        return invert_binomial, (draw(st.one_of(INTS, WRONG)), draw(st.one_of(INTS, WRONG))), {}
    return RRPolynomial, (draw(st.one_of(coefficient_lists(), WRONG, INTS)),), {}


def built_types():
    return [
        make_type(K3N, 1),
        make_type(K3N, 3),
        make_type(KUMN, 2),
        make_type(GENERIC, 2, coeffs=[3, -4, 1]),  # drops at q = 2
        make_type(GENERIC, 1, coeffs=[Fraction(1, 3), 1]),  # not integral at q = 0
        make_type(GENERIC, 3, coeffs=["0", "300000060000005/6", "-10000001/2", "1/6"]),  # step without a real root
        make_type(GENERIC, 3, coeffs=[0, HUGE, -(10**2500), 1]),  # a far, huge root bound
        make_type(GENERIC, 2, coeffs=[-HUGE, 0, 1]),
    ]


@st.composite
def evaluation_calls(draw):
    t = draw(st.sampled_from(built_types()))
    q = draw(st.one_of(INTS, WRONG))
    if draw(st.booleans()):
        return rr_eval, (t, q), {"allow_odd": draw(st.one_of(st.booleans(), WRONG))}
    return check_strict_monotonic, (t, q), {}


@settings(max_examples=300, deadline=None)
@given(
    call=st.one_of(
        make_type_calls(), deformation_calls(), context_calls(), evaluation_calls(),
        lattice_calls(), constructor_calls(), library_calls(),
    )
)
@example(call=(make_type, (GENERIC, 1), {"coeffs": iter([1, 1])}))
@example(call=(make_type, (GENERIC, 1), {"coeffs": 5}))
@example(call=(make_type, (GENERIC, 1), {"coeffs": ["1e5000", 1]}))
@example(call=(make_type, (GENERIC, 1), {"coeffs": [Decimal("1e1000000"), 1]}))
@example(call=(make_type, (GENERIC, 1), {"coeffs": [Decimal("1e-1000000"), 1]}))
@example(call=(deformation_from_json_dict, ({"kind": GENERIC, "n": 1, "coeffs": ["1e5000", 1]},), {}))
@example(call=(GeometricContext.from_json_dict, (dict(CONTEXT, note=HUGE, strong_rlf=HUGE),), {}))
@example(call=(GeometricContext.from_json_dict, (dict(CONTEXT, lattice={"gram": [[0]], "even": HUGE}),), {}))
@example(call=(GeometricContext, (FIXTURE.lat, FIXTURE.ample, FIXTURE.peds), {"strong_rlf": "false", "note": HUGE}))
@example(call=(Lattice, ([[2]],), {"even": "false"}))
@example(call=(Lattice, (HUGE,), {}))
@example(call=(enumerate_vectors, (rank_one(2), 0, HUGE), {}))
@example(call=(enumerate_vectors, (LATTICES[-1], 0, 2**2**20), {}))
@example(call=(invert_binomial, (HUGE, 3), {}))
@example(call=(nl_numerical_types, (make_type(K3N, 3), HUGE), {}))
@example(call=(reflect_into_bk, (FIXTURE, (HUGE, HUGE, 1)), {}))
@example(call=(rr_eval, (make_type(K3N, 1), [HUGE]), {}))
def test_only_typed_errors_escape_within_the_budget(call):
    fn, args, kwargs = call
    start = time.perf_counter()
    try:
        result = fn(*args, **kwargs)
        if not isinstance(result, int):  # a record, or a list or tuple of them: write it back
            repr(result)
        if hasattr(result, "to_json_dict"):
            repr(getattr(result, "rr", None)), result.to_json_dict()
    except BasedivError as exc:
        assert len(str(exc)) < 300
    assert time.perf_counter() - start < BUDGET_S


@pytest.mark.parametrize(
    "fn, args, match",
    [
        (invert_binomial, ("3", 2), "integer"),
        (DeformationType, (K3N, "2", make_type(K3N, 2).rr), "integer"),
        (DeformationType, (10**5000, 2, make_type(K3N, 2).rr), "^unknown deformation kind <integer of 5001 digits>$"),
        (enumerate_vectors, (Lattice([[2]]), "x", 3), "integer"),
        (enumerate_vectors, (Lattice([[2]]), 0, "3"), "integer"),
        (RRPolynomial, (5,), "^coeffs must be a list or tuple, got 5$"),
    ],
    ids=["invert-binomial-value", "deformation-type-n", "deformation-type-kind", "enumerate-square", "enumerate-bound", "rr-polynomial"],
)
def test_wrongly_typed_value_arguments_are_domain_errors(fn, args, match):
    with pytest.raises(DomainError, match=match):
        fn(*args)


def test_a_vector_that_is_not_a_sequence_is_a_structural_error():
    with pytest.raises(StructuralError, match="^a vector must be a sequence of integers, got 5$"):
        Lattice([[1]]).vector(5)
