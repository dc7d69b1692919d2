import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import basediv.classifier
from basediv import (
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
    check_2H,
    classification_report,
    classify,
    hyperbolic_plane,
    invert_binomial,
    kumn_case1_solutions,
    kumn_nonexistence_search,
    make_type,
    nl_numerical_types,
    rank_one,
    rr_eval,
    verify_decomposition,
)


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
    ],
    ids=["Decomposition", "NumericalNLType", "ContextCheck", "ReflectionTrace"],
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


def test_context_check_error_is_ignored_by_eq_hash_and_repr():
    check = ContextCheck("schema", False, "bad", StructuralError("bad"))
    plain = ContextCheck("schema", False, "bad")
    assert check == plain and hash(check) == hash(plain) and repr(check) == repr(plain)
    assert check.structural and not plain.structural
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


def test_check_2h(k3_pencil):
    assert check_2H(k3_pencil, (3, 1))
    assert check_2H(k3_pencil, (2, 1))
    # (5, 2) is big and nef but carries no base divisor, so the check refuses
    assert classify(k3_pencil, (5, 2)) is None
    with pytest.raises(DomainError):
        check_2H(k3_pencil, (5, 2))


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
    assert kumn_nonexistence_search(range(2, 5), range(2, 12), range(1, 12)) == []


def test_kumn_case1_reduces_to_m_equals_one():
    for n in range(2, 8):
        assert kumn_case1_solutions(n, 40) == [1]
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
    with pytest.raises(DomainError):
        nl_numerical_types(t, 0)
    with pytest.raises(DomainError):
        nl_numerical_types(t, -2)


def test_nl_types_kumn_binomial_match_still_infeasible():
    # chi = 3*C(21,2) = 630 = C(36,2) inverts to m = 34, but no (d, qF) window
    # survives: q_H = 38 < 2d(m-1) for every d >= 1
    t = make_type(KUMN, 2)
    assert nl_numerical_types(t, 38) == []


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
