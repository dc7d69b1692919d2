import time
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from basediv import (
    CapabilityError,
    DomainError,
    Lattice,
    StructuralError,
    direct_sum,
    divisibility,
    enumerate_vectors,
    hyperbolic_plane,
    is_primitive,
    pairing,
    rank_one,
    square,
)
from basediv import lattice
from basediv.lattice import dot, gram_image

U = hyperbolic_plane()
U_MINUS4 = direct_sum(hyperbolic_plane(), rank_one(-4))

coord = st.integers(-50, 50)
vec2 = st.tuples(coord, coord)
vec3 = st.tuples(coord, coord, coord)


def test_pairing_gram_entries():
    assert pairing(U, (1, 0), (0, 1)) == 1
    assert pairing(U, (1, 1), (1, 1)) == 2
    assert pairing(U, (1, 0), (1, 0)) == 0


def test_pairing_dimension_mismatch():
    with pytest.raises(StructuralError):
        pairing(U, (1, 0, 0), (0, 1))
    with pytest.raises(StructuralError):
        pairing(U, (1, 0), (0,))
    with pytest.raises(StructuralError, match="integer entry"):
        pairing(U, (1, 0), (True, 1))


def test_gram_validation():
    with pytest.raises(StructuralError):
        Lattice([[0, 1], [2, 0]])  # not symmetric
    with pytest.raises(StructuralError):
        Lattice([[0, 1]])  # not square
    with pytest.raises(StructuralError):
        Lattice([])
    with pytest.raises(StructuralError):
        Lattice([[0, 1.5], [1.5, 0]])  # non-integer entries


def test_even_flag():
    assert hyperbolic_plane().even
    assert not rank_one(3).even
    assert rank_one(-4).even
    assert Lattice([[2]], even=False).even is False and Lattice([[2]]).even is True
    with pytest.raises(StructuralError, match="odd entry"):
        Lattice([[1]], even=True)


@pytest.mark.parametrize(
    "args, message",
    [
        ((5,), "^lattice.gram must be an array, got 5$"),
        ((None,), "^lattice.gram must be an array, got None$"),
        (([5],), r"^lattice.gram\[0\] must be an array, got 5$"),
        (([[1.5], 5],), r"^lattice.gram\[1\] must be an array, got 5$"),  # rows before entries, as the reader checks them
        (([[2]], "false"), "^lattice \"even\" must be a JSON boolean or null, got 'false'$"),
        (([[1]], "x"), "^lattice \"even\" must be a JSON boolean or null, got 'x'$"),
        ((5, 1), "^lattice \"even\" must be a JSON boolean or null, got 1$"),  # even before the Gram matrix
    ],
    ids=["gram-int", "gram-none", "row-int", "row-order", "even-string", "even-string-odd", "even-int"],
)
def test_constructor_checks_each_field_as_the_reader_does(args, message):
    with pytest.raises(StructuralError, match=message):
        Lattice(*args)
    data = {"gram": args[0]} if len(args) == 1 else {"gram": args[0], "even": args[1]}
    with pytest.raises(StructuralError, match=message):
        Lattice.from_json_dict(data)
    with pytest.raises(StructuralError):
        Lattice([[1]], even=True)
    # an explicit False is kept even when the diagonal happens to be even
    assert not Lattice([[2]], even=False).even


def test_divisibility_examples():
    assert divisibility(U, (2, 4)) == 2
    assert divisibility(U, (1, -1)) == 1
    assert divisibility(U_MINUS4, (0, 0, 1)) == 4


def test_divisibility_zero_vector_rejected():
    with pytest.raises(DomainError):
        divisibility(U, (0, 0))


def test_divisibility_degenerate_profile_is_zero():
    degenerate = Lattice([[0, 0], [0, 2]])
    assert divisibility(degenerate, (1, 0)) == 0


def test_is_primitive():
    assert is_primitive(U, (1, 0))
    assert not is_primitive(U, (2, 4))
    assert is_primitive(U, (3, 5))
    with pytest.raises(DomainError):
        is_primitive(U, (0, 0))


def test_enumerate_vectors_examples():
    assert enumerate_vectors(U, 0, 1) == [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)]
    assert enumerate_vectors(U, -2, 1) == [(-1, 1), (1, -1)]
    assert enumerate_vectors(U, 2, 1) == [(-1, -1), (1, 1)]


def test_enumerate_vectors_guards():
    big = Lattice([[0] * 7 for _ in range(7)])
    with pytest.raises(CapabilityError):
        enumerate_vectors(big, 0, 1)
    with pytest.raises(DomainError):
        enumerate_vectors(U, 0, 0)
    # (2B+1)^(r-1) prefixes: 17^5 at rank 6, bound 8; one row of 2B+1 at rank 1
    rank6 = direct_sum(U, U, U)
    assert len(enumerate_vectors(rank6, 0, 1)) > 0
    with pytest.raises(CapabilityError, match="prefixes"):
        enumerate_vectors(rank6, 0, 8)
    with pytest.raises(CapabilityError, match="prefixes"):
        enumerate_vectors(rank_one(0), 0, 10**9)


@pytest.mark.parametrize("bound", [10**5000, 2**2**20], ids=["5001-digits", "2^2^20"])
@pytest.mark.parametrize("lat", [rank_one(2), direct_sum(U, U, U)], ids=["rank-1", "rank-6"])
def test_enumerate_vectors_refuses_a_huge_bound_quickly(lat, bound):
    start = time.perf_counter()
    with pytest.raises(CapabilityError, match=r"^box enumeration at rank \d, bound <integer of (about )?\d+ digits> visits more than \d+ prefixes"):
        enumerate_vectors(lat, 0, bound)
    assert time.perf_counter() - start < 2.0


def test_enumerate_vectors_output_guard(monkeypatch):
    # a zero row solves for every x in the box: 999999^2 and 2001^2 vectors
    zero = Lattice([[0, 0], [0, 0]])
    for bound in (499_999, 1000):
        with pytest.raises(CapabilityError, match="returns more than 1000000 vectors"):
            enumerate_vectors(zero, 0, bound)
    assert len(enumerate_vectors(zero, 0, 499)) == 999**2
    # the inner completion list of a rank-3 zero form (21^2 pairs) is refused too
    monkeypatch.setattr(lattice, "ENUM_OUTPUT_LIMIT", 400)
    with pytest.raises(CapabilityError, match="returns more than 400 vectors"):
        enumerate_vectors(Lattice([[0] * 3] * 3), 0, 10)
    assert len(enumerate_vectors(Lattice([[0] * 3] * 3), 0, 3)) == 7**3


@st.composite
def gram_matrices(draw):
    r = draw(st.integers(1, 5))
    rows = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            rows[i][j] = rows[j][i] = draw(st.integers(-3, 3))
    return Lattice(rows)


@settings(max_examples=150, deadline=None)
@given(gram_matrices(), st.integers(1, 3), st.integers(-8, 8))
@example(Lattice([[0, 0], [0, 0]]), 2, 0)
@example(Lattice([[2, 0], [0, 0]]), 2, 2)
@example(Lattice([[0, 1], [1, 0]]), 3, 0)
@example(Lattice([[-1]]), 3, -4)
def test_enumerate_vectors_matches_naive_sweep(lat, bound, target):
    box = range(-bound, bound + 1)
    naive = [v for v in product(box, repeat=lat.rank) if pairing(lat, v, v) == target]
    assert enumerate_vectors(lat, target, bound) == naive


@st.composite
def orthogonal_sum_boxes(draw):
    """direct_sum of U, <2k> and random 2x2 blocks, rank 2-6, with a bound whose
    box holds at most 20000 points: a prefix that ends a summand pairs to zero
    with every later basis vector, so prefixes share stored completion lists."""
    entry = st.integers(-3, 3)
    block = st.one_of(
        st.just(U),
        st.builds(lambda k: rank_one(2 * k), entry),
        st.builds(lambda a, b, c: Lattice([[a, b], [b, c]]), entry, entry, entry),
    )
    blocks = st.lists(block, min_size=1, max_size=6)
    lat = direct_sum(*draw(blocks.filter(lambda bs: 2 <= sum(x.rank for x in bs) <= 6)))
    top = max(b for b in range(1, 71) if (2 * b + 1) ** lat.rank <= 20000)
    return lat, draw(st.integers(1, top))


@settings(max_examples=150, deadline=None)
@given(orthogonal_sum_boxes(), st.integers(-8, 8))
@example((direct_sum(U, rank_one(-2), rank_one(-2), rank_one(4)), 2), -2)
@example((direct_sum(rank_one(0), U, Lattice([[2, 1], [1, -2]]), rank_one(-2)), 2), 0)
@example((direct_sum(rank_one(2), rank_one(-2), rank_one(2), rank_one(-2)), 3), 0)
def test_enumerate_vectors_on_orthogonal_sums_matches_naive_sweep(case, target):
    lat, bound = case
    box, g, r = range(-bound, bound + 1), lat.gram, lat.rank
    naive = [
        v for v in product(box, repeat=r)
        if sum(v[i] * g[i][j] * v[j] for i in range(r) for j in range(r)) == target
    ]
    assert enumerate_vectors(lat, target, bound) == naive


BIG = 10**30


@st.composite
def gram_and_vectors(draw):
    """A symmetric Gram matrix of rank 1-6 (diagonals may be zero or the whole
    form degenerate) with two vectors, entries up to about 10^30."""
    r = draw(st.integers(1, 6))
    entry = st.one_of(st.integers(-3, 3), st.integers(-BIG, BIG))
    rows = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            rows[i][j] = rows[j][i] = draw(entry)
    vec = st.tuples(*[entry] * r)
    return Lattice(rows), draw(vec), draw(vec)


@given(gram_and_vectors())
@example((Lattice([[0, 0], [0, 0]]), (BIG, -1), (3, BIG)))
@example((Lattice([[0, BIG], [BIG, 0]]), (BIG, BIG), (-BIG, 1)))
def test_dot_of_gram_image_matches_naive_double_sum(case):
    lat, a, b = case
    r = lat.rank
    naive = 0
    for i in range(r):
        for j in range(r):
            naive += a[i] * lat.gram[i][j] * b[j]
    assert dot(a, gram_image(lat, b)) == naive
    assert pairing(lat, a, b) == naive


def test_direct_sum_block_structure():
    lat = direct_sum(rank_one(2), hyperbolic_plane())
    assert lat.gram == ((2, 0, 0), (0, 0, 1), (0, 1, 0))
    assert lat.rank == 3


def test_direct_sum_needs_a_summand():
    with pytest.raises(DomainError, match="at least one summand"):
        direct_sum()


def test_json_round_trip():
    data = U_MINUS4.to_json_dict()
    assert data == {"gram": [[0, 1, 0], [1, 0, 0], [0, 0, -4]], "even": True}
    assert Lattice.from_json_dict(data) == U_MINUS4


@given(vec3, vec3)
def test_pairing_symmetric(a, b):
    assert pairing(U_MINUS4, a, b) == pairing(U_MINUS4, b, a)


@given(vec3, vec3, vec3)
def test_pairing_bilinear(a, b, c):
    assert pairing(U_MINUS4, tuple(x + y for x, y in zip(a, c)), b) == pairing(U_MINUS4, a, b) + pairing(
        U_MINUS4, c, b
    )


@given(vec3, vec3)
def test_divisibility_divides_every_pairing(x, d):
    if all(c == 0 for c in d):
        return
    dv = divisibility(U_MINUS4, d)
    p = pairing(U_MINUS4, x, d)
    if dv == 0:
        assert p == 0
    else:
        assert p % dv == 0


@given(vec3)
def test_even_lattice_has_even_squares(v):
    assert square(U_MINUS4, v) % 2 == 0


@pytest.mark.parametrize("target", [-4, -2, 0, 2, 4])
def test_enumeration_negation_closed_and_duplicate_free(target):
    vs = enumerate_vectors(U, target, 2)
    assert len(vs) == len(set(vs))
    assert vs == sorted(vs)
    for v in vs:
        assert tuple(-c for c in v) in vs


def test_enumeration_is_exhaustive_against_direct_filter():
    # independent re-enumeration with explicit loops
    expected = []
    for a in range(-2, 3):
        for b in range(-2, 3):
            if 2 * a * b == -4:
                expected.append((a, b))
    assert enumerate_vectors(U, -4, 2) == expected
