import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

import basediv.classifier
from basediv import (
    CapabilityError,
    ConsistencyError,
    ContextCheck,
    Decomposition,
    DomainError,
    GENERIC,
    GeometricContext,
    HypothesisError,
    K3N,
    KUMN,
    Lattice,
    NumericalNLType,
    ReflectionTrace,
    StructuralError,
    classification_report,
    classify,
    enumerate_vectors,
    hyperbolic_plane,
    in_bk_closure,
    invert_binomial,
    kumn_nonexistence_search,
    make_type,
    nl_numerical_types,
    pairing,
    rank2_exceptional_scan,
    rank_one,
    rr_eval,
    run_context_checks,
    square,
    verify_decomposition,
)
from basediv.classifier import KUMN_SEARCH_LIMIT
from basediv.oracle import oracle_kumn_search


def test_pencil_classification(k3_pencil):
    dec = classify(k3_pencil, (3, 1))
    assert dec == Decomposition(m=3, L=(1, 0), F=(0, 1), d=1)


def test_pencil_rejects_non_big_class(k3_pencil):
    with pytest.raises(DomainError, match="not big"):
        classify(k3_pencil, (1, 1))  # q = 0


def test_rank_one_lattice_has_no_isotropic_l():
    ctx = GeometricContext(rank_one(2), (1,), dtype=make_type(K3N, 1), strong_rlf=True)
    assert classify(ctx, (1,)) is None  # chi = 3 pins m = 2, but no isotropic L exists


def test_hypotheses_are_enforced():
    lat = Lattice([[0, 1], [1, -2]])
    no_flag = GeometricContext(lat, (3, 1), peds=[(0, 1)], dtype=make_type(K3N, 1))
    with pytest.raises(HypothesisError, match="strong_rlf"):
        classify(no_flag, (3, 1))
    no_dtype = GeometricContext(lat, (3, 1), peds=[(0, 1)], strong_rlf=True)
    with pytest.raises(HypothesisError, match="deformation"):
        classify(no_dtype, (3, 1))
    wobbly = GeometricContext(
        hyperbolic_plane(),
        (1, 1),
        dtype=make_type(GENERIC, 2, coeffs=[3, -4, 1]),
        strong_rlf=True,
    )
    with pytest.raises(HypothesisError, match="monotonic"):
        classify(wobbly, (1, 1))


@pytest.mark.parametrize("entry", [classify, classification_report])
def test_h_is_checked_before_the_hypotheses(entry):
    """classify and classification_report, and so the CLI, raise the same
    class for an H of the wrong length on a context without strong_rlf."""
    no_flag = GeometricContext(Lattice([[0, 1], [1, -2]]), (3, 1), peds=[(0, 1)], dtype=make_type(K3N, 1))
    with pytest.raises(StructuralError):
        entry(no_flag, (3, 1, 0))


def test_classify_rejects_non_nef_h(k3_pencil):
    # (3, 2) is big (q = 4) but pairs to -1 with the declared ped
    with pytest.raises(DomainError, match="nef"):
        classify(k3_pencil, (3, 2))


def test_declared_walls_tighten_the_nef_gate(k3_pencil):
    lat = k3_pencil.lat
    walled = GeometricContext(
        lat, (3, 1), peds=[(0, 1)], walls=[(1, -2)],
        dtype=make_type(K3N, 1), strong_rlf=True,
    )
    # (3, 1) classifies without the wall but pairs to -1 with it
    with pytest.raises(DomainError, match="nef"):
        classify(walled, (3, 1))


def test_walls_do_not_cut_the_closure_test(k3_pencil):
    """(F, W) = 4 > (H, W) = 1, so (L, W) < 0: a wall gates H, never L."""
    walled = GeometricContext(
        k3_pencil.lat, (3, 1), peds=[(0, 1)], walls=[(2, -1)],
        dtype=make_type(K3N, 1), strong_rlf=True,
    )
    assert classify(walled, (3, 1)) == classify(k3_pencil, (3, 1)) == Decomposition(3, (1, 0), (0, 1), 1)


def test_non_primitive_isotropic_candidate_is_rejected():
    """U + <-2>: L = (H - F)/2 = (2, 2, -2) is isotropic with d = 4 and lies in
    the closure, so only its gcd 2 rejects it (without that test, m = 2)."""
    ctx = GeometricContext(
        Lattice([[0, 1, 0], [1, 0, 0], [0, 0, -2]]),
        (2, 2, -1),
        peds=[(0, 0, 1)],
        dtype=make_type(GENERIC, 1, coeffs=[-4, Fraction(1, 2)]),
        strong_rlf=True,
    )
    assert rr_eval(ctx.dtype, 14) == 3 and invert_binomial(3, 1) == 2
    assert classify(ctx, (4, 4, -3)) is None


def test_non_isotropic_candidate_is_rejected():
    """U + <-2>, K3: H - F = (2, 0, 2) has content m = 2 with chi = 3 = C(3, 1),
    and L = (1, 0, 1) pairs positively with the ample class and with F, but
    q(L) = -2, so only the isotropy test rejects it."""
    ctx = GeometricContext(
        Lattice([[0, 1, 0], [1, 0, 0], [0, 0, -2]]),
        (1, 2, 0),
        peds=[(0, 1, -1)],
        dtype=make_type(K3N, 1),
        strong_rlf=True,
    )
    assert rr_eval(ctx.dtype, square(ctx.lat, (2, 1, 1))) == 3 and square(ctx.lat, (1, 0, 1)) == -2
    assert classify(ctx, (2, 1, 1)) is None


def test_class_orthogonal_to_the_ample_class_is_refused():
    """U + <+2> is not hyperbolic, so a class of positive square can pair to
    zero with the ample class; (H, ample) = 0 is refused, not only < 0."""
    ctx = GeometricContext(
        Lattice([[0, 1, 0], [1, 0, 0], [0, 0, 2]]), (1, 1, 0), dtype=make_type(K3N, 1), strong_rlf=True
    )
    with pytest.raises(DomainError, match=r"\(H, ample\) = 0 must be positive"):
        classify(ctx, (0, 0, 1))


def _generic_n1_context(gram, ample, peds, b0):
    """A context whose RR polynomial is b0 + q/2, so that chi = m + 1 pins m
    at q(H) = 2(m + 1 - b0)."""
    return GeometricContext(
        Lattice(gram), ample, peds=peds,
        dtype=make_type(GENERIC, 1, coeffs=[b0, Fraction(1, 2)]), strong_rlf=True,
    )


def test_candidate_cut_by_a_second_ped_is_rejected():
    """U + <-2>: L = (H - F)/2 = (-4, -1, -2) is primitive and isotropic with
    d = 24 > 0, but (L, D) = -1 for the second ped D, so only the ped half of
    the closure test rejects it (without it, m = 2)."""
    ctx = _generic_n1_context([[0, 1, 0], [1, 0, 0], [0, 0, -2]], (-4, -4, -3), [(-4, -2, 3), (-3, -1, -2)], -44)
    assert rr_eval(ctx.dtype, 94) == 3 and invert_binomial(3, 1) == 2
    assert pairing(ctx.lat, (-4, -1, -2), (-3, -1, -2)) == -1
    assert classify(ctx, (-12, -4, -1)) is None


def test_two_decompositions_are_inconsistent_declared_data():
    """U + <-2>: H = (-2, -2, -1) is 2*(0, -1, 0) + (-2, 0, -1) and also
    2*(-1, 0, 0) + (0, -2, -1), each passing every test, so the declared
    peds contradict the uniqueness of the fixed divisor."""
    ctx = _generic_n1_context([[0, 1, 0], [1, 0, 0], [0, 0, -2]], (-4, -3, 2), [(-2, 0, -1), (0, -2, -1)], 0)
    with pytest.raises(ConsistencyError, match="admits 2 distinct decompositions of \\[-2, -2, -1\\]"):
        classify(ctx, (-2, -2, -1))


def test_candidate_orthogonal_to_the_ample_class_is_rejected():
    """U + <2>: L = (H - F)/2 = (-4, 1, -2) passes every test before the
    closure test and pairs nonnegatively with the one ped, but (L, ample) = 0,
    so only the ample half of the closure test rejects it."""
    ctx = _generic_n1_context([[0, 1, 0], [1, 0, 0], [0, 0, 2]], (-4, -3, 2), [(1, -2, -1)], -22)
    assert pairing(ctx.lat, (-4, 1, -2), ctx.ample) == 0
    assert pairing(ctx.lat, (-4, 1, -2), (1, -2, -1)) > 0
    assert classify(ctx, (-7, 0, -5)) is None


def reference_scan(ctx, h_vec):
    """classify's verdict from the public pairing and in_bk_closure, with m
    pinned by inverting chi = C(m+n, n); DomainError when H is not big and nef."""
    lat = ctx.lat
    q_h = pairing(lat, h_vec, h_vec)
    if q_h <= 0 or pairing(lat, h_vec, ctx.ample) <= 0:
        return DomainError
    if any(pairing(lat, h_vec, d) < 0 for d in ctx.peds):
        return DomainError
    chi = rr_eval(ctx.dtype, q_h)
    m = invert_binomial(chi, ctx.dtype.n) if chi >= 1 else None
    if m is None or m < 2:
        return None
    found = []
    for f_vec in ctx.peds:
        diff = tuple(a - b for a, b in zip(h_vec, f_vec))
        if not any(diff) or any(c % m for c in diff):
            continue
        l_vec = tuple(c // m for c in diff)
        if pairing(lat, l_vec, l_vec) != 0 or math.gcd(*l_vec) != 1:
            continue
        d = pairing(lat, l_vec, f_vec)
        if d > 0 and in_bk_closure(ctx, l_vec) and Decomposition(m, l_vec, f_vec, d) not in found:
            found.append(Decomposition(m, l_vec, f_vec, d))
    if len(found) > 1:
        return ConsistencyError
    return found[0] if found else None


def _verdict(ctx, h_vec):
    try:
        return classify(ctx, h_vec)
    except (DomainError, ConsistencyError) as exc:
        return type(exc)


@st.composite
def scan_cases(draw):
    """(gram, ample, peds, H, m): a random rank-3 or rank-4 even Gram with an
    isotropic first basis vector, 2-4 declared peds of square -2 or -4, and
    H = m*L + F + e for an isotropic L in a small box with (L, ample) >= 0,
    a declared F and an offset e that is often 0."""
    r = draw(st.sampled_from([3, 4]))
    gram = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            x = draw(st.integers(-2, 2)) * 2 if i == j else draw(st.integers(-3, 3))
            gram[i][j] = gram[j][i] = 0 if i == j == 0 else x
    lat = Lattice(gram)
    ample = tuple(draw(st.lists(st.integers(-4, 4), min_size=r, max_size=r)))
    assume(square(lat, ample) > 0)
    valid = [
        d for q in (-2, -4) for d in enumerate_vectors(lat, q, 2)
        if all(c.passed for c in run_context_checks(lat, ample, [d]))
    ]
    assume(len(valid) >= 2)
    peds = draw(st.lists(st.sampled_from(valid), min_size=2, max_size=4))
    # oriented towards the ample class, so that H is more often nef
    isotropic = [v for v in enumerate_vectors(lat, 0, 2) if pairing(lat, v, ample) >= 0 and any(v)]
    l_vec, f_vec = draw(st.sampled_from(isotropic)), draw(st.sampled_from(peds))
    m = draw(st.integers(2, 4))
    offset = draw(st.just((0,) * r) | st.lists(st.integers(-1, 1), min_size=r, max_size=r).map(tuple))
    h_vec = tuple(m * l + f + e for l, f, e in zip(l_vec, f_vec, offset))
    return gram, ample, peds, h_vec, m


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(scan_cases())
@example(([[0, 1, 0], [1, 0, 0], [0, 0, -2]], (-4, -4, -3), [(-4, -2, 3), (-3, -1, -2)], (-12, -4, -1), 2))
@example(([[0, 1, 0], [1, 0, 0], [0, 0, 2]], (-4, -3, 2), [(1, -2, -1)], (-7, 0, -5), 2))
@example(([[0, 1, 0], [1, 0, 0], [0, 0, -2]], (2, 2, -1), [(0, 0, 1), (0, 1, 1)], (4, 4, -3), 2))
def test_classify_matches_reference_scan(case):
    gram, ample, peds, h_vec, m = case
    q_h = square(Lattice(gram), h_vec)
    ctx = _generic_n1_context(gram, ample, peds, m + 1 - q_h // 2)
    assert _verdict(ctx, h_vec) == reference_scan(ctx, h_vec)


# U + <-2>, ped F = (0, 0, 1): H - F = (4, 4, -4) = 4*(1, 1, -1) with L = (1, 1, -1)
# primitive, isotropic, d = 2 and in the closure; H' = L + F = (1, 1, 0)
U_M2 = [[0, 1, 0], [1, 0, 0], [0, 0, -2]]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(scan_cases(), st.none() | st.integers(1, 8))
@example((U_M2, (2, 2, -1), [(0, 0, 1)], (4, 4, -3), 4), None)  # a hit: content 4, chi = C(6, 2)
@example((U_M2, (2, 2, -1), [(0, 0, 1)], (4, 4, -3), 2), None)  # content 4 = 2m, chi = C(4, 2)
@example((U_M2, (2, 2, -1), [(0, 0, 1)], (1, 1, 0), 1), None)  # content 1, chi = C(3, 2) = n + 1
def test_classify_matches_reference_scan_at_n_equal_two(case, t):
    """Generic n = 2 with RR(q) = b0 + C(q/2 + 1, 2) = b0 + q/4 + q^2/8, whose
    chi at q(H) is C(t+2, 2) for the drawn H = m*L + F + e and t = m unless
    drawn too: content and chi then agree, disagree, or pin t = 1."""
    gram, ample, peds, h_vec, m = case
    t = m if t is None else t
    k = square(Lattice(gram), h_vec) // 2
    b0 = math.comb(t + 2, 2) - k * (k + 1) // 2
    ctx = GeometricContext(
        Lattice(gram), ample, peds=peds,
        dtype=make_type(GENERIC, 2, coeffs=[b0, Fraction(1, 4), Fraction(1, 8)]), strong_rlf=True,
    )
    assert _verdict(ctx, h_vec) == reference_scan(ctx, h_vec)


# the k3_pencil lattice plus <2>: H = 3E + C with E isotropic and C a ped of square -2, d = 1
K3_PENCIL_PLUS = ([[0, 1, 0], [1, -2, 0], [0, 0, 2]], (3, 1, 0), [(0, 1, 0)], (3, 1, 0), 3)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(scan_cases(), st.sampled_from([GENERIC, K3N, KUMN]), st.integers(1, 3))
@example(K3_PENCIL_PLUS, K3N, 1)
@example(K3_PENCIL_PLUS, K3N, 3)
@example(K3_PENCIL_PLUS, KUMN, 1)
@example(([[0, 1, 0], [1, 0, 0], [0, 0, -2]], (2, 2, -1), [(0, 0, 1), (0, 1, 1)], (4, 4, -3), 2), GENERIC, 1)
def test_decompositions_meet_the_paper_invariants(case, kind, n):
    """On the random contexts of the reference scan, every decomposition found
    has its numerical type (m, d, q(F)) among nl_numerical_types and passes
    verify_decomposition; on K3^[n] that type is (q(H)/2 + 1, 1, -2) and 2H
    has none, and on Kum^(n+1) no big-and-nef class has one.

    2H never classifies on a K3^[n] context that passes the checks.  Suppose
    2H = m'L' + F' with d' = (L', F') > 0.  The checks give q(F') | 2*div(F'),
    and div(F') divides d', so -q(F') <= 2d'.  chi = C(m' + n, n) forces
    m' = q(2H)/2 + 1 = 2q(H) + 1, and then 4q(H) = 2m'd' + q(F') >= 4q(H)d'
    forces d' = 1 and q(F') = -2.  So (2H, F') = m' + q(F') = 2q(H) - 1 is
    odd, yet it equals 2(H, F')."""
    gram, ample, peds, h_vec, m = case
    lat = Lattice(gram)
    q_h = square(lat, h_vec)
    if kind == GENERIC:
        ctx = _generic_n1_context(gram, ample, peds, m + 1 - q_h // 2)
    else:
        dtype = make_type(kind, n if kind == K3N else n + 1)
        ctx = GeometricContext(lat, ample, peds=peds, dtype=dtype, strong_rlf=True)
    dec = _verdict(ctx, h_vec)
    if kind == KUMN:
        assert dec in (None, DomainError)
    if not isinstance(dec, Decomposition):
        return
    q_f = square(lat, dec.F)
    assert NumericalNLType(dec.m, dec.d, q_f) in nl_numerical_types(ctx.dtype, q_h)
    assert verify_decomposition(ctx, h_vec, dec)
    if kind == K3N:
        assert (dec.m, dec.d, q_f) == (q_h // 2 + 1, 1, -2)
        assert classify(ctx, tuple(2 * x for x in h_vec)) is None


def test_classify_on_hyperbolic_plane_context():
    ctx = GeometricContext(
        hyperbolic_plane(), (1, 2), peds=[(1, -1)], dtype=make_type(K3N, 1), strong_rlf=True
    )
    # H = (1, m-1) = m*f + (e - f): the f-ray is the movable side here
    for m in range(2, 9):
        dec = classify(ctx, (1, m - 1))
        assert dec == Decomposition(m=m, L=(0, 1), F=(1, -1), d=1)
    # the reflected partner m*e + (f - e) is not even nef here
    with pytest.raises(DomainError, match="nef"):
        classify(ctx, (4, 1))
    # nef without any matching decomposition
    assert classify(ctx, (3, 3)) is None


def test_duplicate_ped_declarations_do_not_trip_uniqueness(k3_pencil):
    lat = k3_pencil.lat
    ctx = GeometricContext(
        lat, (3, 1), peds=[(0, 1), (0, 1)], dtype=make_type(K3N, 1), strong_rlf=True
    )
    assert classify(ctx, (3, 1)) == Decomposition(m=3, L=(1, 0), F=(0, 1), d=1)


def test_verify_decomposition_and_tampering(k3_pencil):
    dec = classify(k3_pencil, (3, 1))
    assert verify_decomposition(k3_pencil, (3, 1), dec)
    assert not verify_decomposition(k3_pencil, (3, 1), Decomposition(2, dec.L, dec.F, dec.d))
    assert not verify_decomposition(k3_pencil, (3, 1), Decomposition(dec.m, dec.L, dec.F, 2))
    assert not verify_decomposition(k3_pencil, (3, 1), Decomposition(dec.m, (0, 1), dec.F, dec.d))
    assert not verify_decomposition(k3_pencil, (3, 1), Decomposition(dec.m, dec.L, (1, 0), dec.d))


def test_verify_decomposition_returns_false_only_on_library_errors(k3_pencil, monkeypatch):
    dec = classify(k3_pencil, (3, 1))

    def raising(error):
        def rr_eval(*args, **kwargs):
            raise error

        return rr_eval

    monkeypatch.setattr(basediv.classifier, "rr_eval", raising(DomainError("refused")))
    assert verify_decomposition(k3_pencil, (3, 1), dec) is False
    monkeypatch.setattr(basediv.classifier, "rr_eval", raising(RuntimeError("a bug")))
    with pytest.raises(RuntimeError, match="a bug"):
        verify_decomposition(k3_pencil, (3, 1), dec)


# (id, deformation type, H, decomposition) on the pencil lattice with its ped
# (0, 1).  H = 3*(1, 0) + (0, 1) with d = 1 on K3^[1] is valid; each row breaks
# it so that verify_decomposition returns False at a different check
K3_1 = make_type(K3N, 1)
BROKEN_DECOMPOSITIONS = [
    ("no-deformation-type", None, (3, 1), Decomposition(3, (1, 0), (0, 1), 1)),
    ("H-of-rank-three", K3_1, (3, 1, 0), Decomposition(3, (1, 0), (0, 1), 1)),
    ("L-of-rank-three", K3_1, (3, 1), Decomposition(3, (1, 0, 0), (0, 1), 1)),
    ("m-below-two", K3_1, (1, 1), Decomposition(1, (1, 0), (0, 1), 1)),
    ("H-not-mL-plus-F", K3_1, (3, 2), Decomposition(3, (1, 0), (0, 1), 1)),  # q(H) = 4 as for (3, 1)
    ("L-zero", K3_1, (0, 1), Decomposition(3, (0, 0), (0, 1), 1)),
    ("L-not-isotropic", K3_1, (6, 4), Decomposition(3, (2, 1), (0, 1), 1)),
    ("L-not-primitive", K3_1, (6, 1), Decomposition(3, (2, 0), (0, 1), 2)),
    ("F-not-declared", K3_1, (4, -1), Decomposition(3, (1, 0), (1, -1), 1)),
    ("L-outside-the-closure", K3_1, (-3, -2), Decomposition(3, (-1, -1), (0, 1), 1)),  # (L, ample) = -2
    ("chi-not-binomial", make_type(KUMN, 2), (3, 1), Decomposition(3, (1, 0), (0, 1), 1)),  # chi = 18, C(5, 2) = 10
]


@pytest.mark.parametrize(
    "dtype, h, dec", [c[1:] for c in BROKEN_DECOMPOSITIONS], ids=[c[0] for c in BROKEN_DECOMPOSITIONS]
)
def test_verify_decomposition_refuses_each_broken_condition(dtype, h, dec):
    ctx = GeometricContext(Lattice([[0, 1], [1, -2]]), (3, 1), peds=[(0, 1)], dtype=dtype, strong_rlf=True)
    assert verify_decomposition(ctx, h, dec) is False


def test_verify_decomposition_tests_the_closure_against_every_ped():
    """L = (1, 0, 0) is isotropic and primitive and pairs 2 with the ample class
    and 1 with F, but -1 with the second declared ped."""
    lat = Lattice([[0, 1, 0], [1, 0, 0], [0, 0, -2]])
    dec = Decomposition(3, (1, 0, 0), (0, 1, -1), 1)
    ctx = GeometricContext(lat, (1, 2, 0), peds=[(0, 1, -1)], dtype=K3_1, strong_rlf=True)
    assert verify_decomposition(ctx, (3, 1, -1), dec) is True
    ctx = GeometricContext(lat, (1, 2, 0), peds=[(0, 1, -1), (1, -1, 0)], dtype=K3_1, strong_rlf=True)
    assert verify_decomposition(ctx, (3, 1, -1), dec) is False
    assert not in_bk_closure(ctx, dec.L)


@pytest.mark.parametrize(
    "record, same, other, text",
    [
        (Decomposition(m=3, L=(1, 0), F=(0, 1), d=1), Decomposition(3, (1, 0), (0, 1), 1),
         Decomposition(3, (1, 0), (0, 1), 2), "Decomposition(m=3, L=(1, 0), F=(0, 1), d=1)"),
        (NumericalNLType(m=2, d=1, qF=-2), NumericalNLType(2, 1, -2), NumericalNLType(2, 1, -4),
         "NumericalNLType(m=2, d=1, qF=-2)"),
        (ContextCheck("schema", False, "bad", StructuralError("bad")), ContextCheck("schema", False, "bad"),
         ContextCheck("schema", True, "bad"), "ContextCheck(name='schema', passed=False, detail='bad')"),
        (ReflectionTrace(result=(1, 0), steps=(((-1, 1), 1),)), ReflectionTrace((1, 0), (((-1, 1), 1),)),
         ReflectionTrace((1, 0)), "ReflectionTrace(result=(1, 0), steps=(((-1, 1), 1),))"),
        (Lattice([[0, 1], [1, -2]]), Lattice(((0, 1), (1, -2)), even=True), Lattice([[0, 1], [1, -2]], even=False),
         "Lattice(rank=2, even=True)"),
        (GeometricContext(Lattice([[0, 1], [1, -2]]), [3, 1], [[0, 1]], dtype=make_type(K3N, 1), strong_rlf=True),
         GeometricContext(Lattice([[0, 1], [1, -2]]), (3, 1), ((0, 1),), (), make_type(K3N, 1), True),
         GeometricContext(Lattice([[0, 1], [1, -2]]), (3, 1), [(0, 1)], dtype=make_type(K3N, 1)),
         "GeometricContext(rank=2, peds=1, walls=0, dtype=DeformationType(K3n, n=1), strong_rlf=True)"),
    ],
    ids=["Decomposition", "NumericalNLType", "ContextCheck", "ReflectionTrace", "Lattice", "GeometricContext"],
)
def test_records_compare_hash_and_print_by_their_fields(record, same, other, text):
    fields = type(record).__slots__
    assert record == same and hash(record) == hash(same)
    assert record != other and {record, same, other} == {record, other}
    # a record never equals a plain tuple of its fields
    assert record != tuple(getattr(record, f) for f in fields)
    assert record != tuple(getattr(record, f) for f in fields if f != "error")
    assert repr(record) == text
    assert pickle.loads(pickle.dumps(record)) == record
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(record, f, 0)
        with pytest.raises(AttributeError):
            delattr(record, f)
    with pytest.raises(AttributeError):
        record.extra = 0


@pytest.mark.parametrize(
    "record, text",
    [
        (NumericalNLType(m=10**5000, d=1, qF=-2), "NumericalNLType(m=<integer of 5001 digits>, d=1, qF=-2)"),
        (Decomposition(2, (10**5000, 0), (0, 1), 1), "Decomposition(m=2, L=<tuple holding an integer too long to print>, F=(0, 1), d=1)"),
        (ReflectionTrace((10**5000,), ()), "ReflectionTrace(result=<tuple holding an integer too long to print>, steps=())"),
    ],
    ids=["NumericalNLType", "Decomposition", "ReflectionTrace"],
)
def test_record_repr_abbreviates_long_integers(record, text):
    assert repr(record) == text


def test_context_check_error_is_ignored_by_eq_hash_and_repr():
    check = ContextCheck("schema", False, "bad", StructuralError("bad"))
    plain = ContextCheck("schema", False, "bad")
    assert check == plain and hash(check) == hash(plain) and repr(check) == repr(plain)
    assert check.structural and not plain.structural
    assert pickle.loads(pickle.dumps(check)).structural
    assert ReflectionTrace((1, 0)).steps == ()


def test_classification_report_certifies_once(k3_pencil, monkeypatch):
    calls = {"rr_eval": 0, "check_strict_monotonic": 0, "square": 0}
    for name in calls:
        original = getattr(basediv.classifier, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(basediv.classifier, name, counted)
    classification_report(k3_pencil, (3, 1))
    assert calls == {"rr_eval": 1, "check_strict_monotonic": 1, "square": 0}


def test_doubled_pencil_classes_carry_no_base_divisor(k3_pencil):
    assert classify(k3_pencil, (3, 1)) == Decomposition(3, (1, 0), (0, 1), 1)
    assert classify(k3_pencil, (2, 1)) == Decomposition(2, (1, 0), (0, 1), 1)
    assert classify(k3_pencil, (6, 2)) is None
    assert classify(k3_pencil, (4, 2)) is None


def family_context(dtype, k, t, order):
    """U + <-2>^k [+ <-2t>] with basis e, f, c_1..c_k [, delta], as the benchmark's
    workloads build their geometric families: the peds are every c_i, every f - c_i,
    f - e and delta, permuted by order, and the ample class is
    (k + t + 3)e + 2f - sum c_i - delta.  Returns the context, e and the fibre
    peds f - c_i and f - e: for each such F, m*e + F has the decomposition (m, e, F, 1)."""
    r = 2 + k + (1 if t else 0)
    gram = [[0] * r for _ in range(r)]
    gram[0][1] = gram[1][0] = 1
    for i in range(2, r):
        gram[i][i] = -2 * t if t and i == r - 1 else -2
    unit = [tuple(int(j == i) for j in range(r)) for i in range(r)]
    e, f, cs = unit[0], unit[1], unit[2:2 + k]
    fibre = [tuple(a - b for a, b in zip(f, c)) for c in cs + [e]]
    peds = cs + fibre + unit[2 + k:]
    ample = (k + t + 3, 2) + (-1,) * (r - 2)
    ctx = GeometricContext(Lattice(gram), ample, peds=[peds[i] for i in order], dtype=dtype, strong_rlf=True)
    return ctx, e, fibre


@st.composite
def family_classes(draw):
    """A geometric family on K3^[n], Kum^n or a Generic type holding K3^[n]'s
    polynomial, with H = m*e + F for a fibre ped F."""
    kind = draw(st.sampled_from([K3N, KUMN, GENERIC]))
    n = draw(st.integers(2 if kind == KUMN else 1, 4))
    dtype = make_type(kind, n, coeffs=list(make_type(K3N, n).rr.coeffs) if kind == GENERIC else None)
    k, t = draw(st.integers(0, 3)), draw(st.integers(0, 4))
    count = 2 * k + 1 + (1 if t else 0)
    ctx, e, fibre = family_context(dtype, k, t, draw(st.permutations(range(count))))
    m, f_vec = draw(st.integers(2, 300)), draw(st.sampled_from(fibre))
    return ctx, tuple(m * x + y for x, y in zip(e, f_vec)), Decomposition(m, e, f_vec, 1)


@settings(max_examples=150, deadline=None)
@given(family_classes())
def test_doubling_clears_base_divisors_on_geometric_families(case):
    """On a consistent geometric family H classifies as expected and 2H has no
    decomposition; on Kum^n, H has none either."""
    ctx, h_vec, expected = case
    assert classify(ctx, h_vec) == (None if ctx.dtype.kind == KUMN else expected)
    assert classify(ctx, tuple(2 * x for x in h_vec)) is None


def test_classification_report_shape(k3_pencil):
    report = classification_report(k3_pencil, (3, 1))
    assert report == {
        "q_H": 4,
        "rr_value": 4,
        "has_base_divisor": True,
        "decomposition": {"m": 3, "L": [1, 0], "F": [0, 1], "d": 1},
        "certificates": {"monotonic": True, "strong_rlf": True},
    }
    report = classification_report(k3_pencil, (5, 2))
    assert report["has_base_divisor"] is False
    assert report["decomposition"] is None


def test_kumn_search_small_grid_is_empty():
    for n_max in range(-1, 6):
        for m_max in (-1, 0, 1, 2, 3, 7, 12):
            for d_max in (-1, 0, 1, 2, 5, 11):
                sweep = oracle_kumn_search(range(2, n_max + 1), range(2, m_max + 1), range(1, d_max + 1))
                assert kumn_nonexistence_search(n_max, m_max, d_max) == sweep == []


def test_kumn_search_guard_boundary():
    # n_max = 2 and d_max = 1 leave m_max - 1 cases, each costing n = 2
    m_max = KUMN_SEARCH_LIMIT // 2 + 1
    assert kumn_nonexistence_search(2, m_max, 1) == []
    with pytest.raises(CapabilityError) as info:
        kumn_nonexistence_search(2, m_max + 1, 1)
    assert str(info.value) == (
        "Kum^n search over 50000001 (n, m, d, q_F) cases up to n = 2 costs 100000002;"
        " the limit on cases * max(n) is 100000000"
    )


def test_kumn_search_proof_step():
    # at the least k = m - 1 the Kum^n side already exceeds C(m+n, n)
    for n in range(2, 21):
        for m in range(2, 61):
            assert (m + n) * math.comb(m - 1 + n, n) == m * math.comb(m + n, n)
            assert (n + 1) * math.comb(m - 1 + n, n) > math.comb(m + n, n)


@pytest.mark.parametrize(
    "fn, args",
    [
        (rank2_exceptional_scan, (2.5,)),
        (rank2_exceptional_scan, ("3",)),
        (rank2_exceptional_scan, (True,)),
        (kumn_nonexistence_search, (2.5, 2, 1)),
        (kumn_nonexistence_search, ([2.5], [2], [1])),
        (kumn_nonexistence_search, (3, "30", 30)),
        (kumn_nonexistence_search, (3, 30, True)),
    ],
)
def test_scans_refuse_non_integer_arguments(fn, args):
    with pytest.raises(DomainError, match="must be an integer"):
        fn(*args)


def test_kumn_case1_reduces_to_m_equals_one():
    for n in range(2, 8):
        sweep = [m for m in range(1, 41) if (n + 1) * math.comb(m - 1 + n, n) == math.comb(m + n, n)]
        assert sweep == [1]
        # the cross-multiplied linear form of the identity
        for m in range(1, 41):
            assert ((n + 1) * m == m + n) == (m == 1)


def test_kumn_case2_square_lower_bound():
    for m in range(2, 15):
        for d in range(2, 15):
            for q_f in range(-2 * d, 0, 2):
                assert 2 * m * d + q_f >= 4 * (m - 1)


def test_kumn_contexts_never_classify(kum2_ctx):
    found = []
    for a in range(-5, 6):
        for b in range(-5, 6):
            h = (a, b)
            try:
                dec = classify(kum2_ctx, h)
            except DomainError:
                continue
            if dec is not None:
                found.append((h, dec))
    assert found == []


def test_nl_types_examples():
    k3n2 = make_type(K3N, 2)
    assert nl_numerical_types(k3n2, 2) == [NumericalNLType(m=2, d=1, qF=-2)]
    assert nl_numerical_types(k3n2, 4) == [NumericalNLType(m=3, d=1, qF=-2)]
    assert nl_numerical_types(make_type(KUMN, 2), 2) == []


def test_nl_types_preconditions():
    t = make_type(K3N, 2)
    with pytest.raises(DomainError):
        nl_numerical_types(t, 3)
    # rr_eval's parity rule refuses an odd q(H) on every kind, a Generic one included
    with pytest.raises(DomainError, match=r"^q must be even \(even-lattice convention\), got 3$"):
        nl_numerical_types(make_type(GENERIC, 1, coeffs=[2, 1]), 3)
    with pytest.raises(DomainError):
        nl_numerical_types(t, 0)
    with pytest.raises(DomainError):
        nl_numerical_types(t, -2)


def test_nl_types_kumn_binomial_match_still_infeasible():
    # chi = 3*C(21,2) = 630 = C(36,2) inverts to m = 34, but no (d, qF) window
    # survives: q_H = 38 < 2d(m-1) for every d >= 1
    t = make_type(KUMN, 2)
    assert nl_numerical_types(t, 38) == []


def test_nl_types_with_chi_below_one_are_none():
    # RR(q) = q/2 - 2 is -1 at q = 2 and 0 at q = 4: no C(m+1, 1) is that small
    t = make_type(GENERIC, 1, coeffs=[-2, Fraction(1, 2)])
    assert nl_numerical_types(t, 2) == []
    assert nl_numerical_types(t, 4) == []


def test_nl_types_limit_admits_a_window_of_its_size(monkeypatch):
    # RR(q) = q/2 - 996 is 4 = C(3 + 1, 1) at q = 2000, so m = 3 and d runs over 334..500
    t = make_type(GENERIC, 1, coeffs=[-996, Fraction(1, 2)])
    monkeypatch.setattr(basediv.classifier, "NL_TYPES_LIMIT", 167)
    assert [x.d for x in nl_numerical_types(t, 2000)] == list(range(334, 501))
    monkeypatch.setattr(basediv.classifier, "NL_TYPES_LIMIT", 166)
    with pytest.raises(CapabilityError, match="admits 167 numerical types"):
        nl_numerical_types(t, 2000)


@given(st.integers(1, 5), st.integers(1, 60), st.integers(1, 40))
def test_nl_types_window_matches_the_filtered_loop(c0, k, j):
    # RR(q) = c0 + q/(2k) is integral at q = 2kj, where chi = c0 + j pins m = chi - 1
    t = make_type(GENERIC, 1, coeffs=[c0, Fraction(1, 2 * k)])
    q_h = 2 * k * j
    m = invert_binomial(rr_eval(t, q_h), 1)
    loop = [
        NumericalNLType(m=m, d=d, qF=q_h - 2 * m * d)
        for d in range(1, q_h // (2 * (m - 1)) + 1)
        if q_h - 2 * m * d < 0 and 2 * d + q_h - 2 * m * d >= 0
    ] if m >= 2 else []
    assert nl_numerical_types(t, q_h) == loop
