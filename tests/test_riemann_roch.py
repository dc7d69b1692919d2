import copy
import functools
import json
import math
import pickle
import sys
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from basediv import (
    BasedivError,
    CapabilityError,
    ConsistencyError,
    DeformationType,
    DomainError,
    GENERIC,
    GeometricContext,
    K3N,
    KUMN,
    NumericalNLType,
    RRPolynomial,
    StructuralError,
    check_strict_monotonic,
    deformation_from_json_dict,
    invert_binomial,
    make_type,
    nl_numerical_types,
    rr_eval,
)
from basediv import riemann_roch
from basediv.riemann_roch import HALF_DIM_LIMIT, RR_EVAL_BITS_LIMIT, _first_event, _iroot, _root_bound, _step

from conftest import fixture_path


# (kind, n) pairs of the closed-form families, the half-dimension limit included
REGISTERED = [(K3N, 1), (K3N, 2), (KUMN, 2), (KUMN, 3), (K3N, 7), (KUMN, 7), (K3N, HALF_DIM_LIMIT), (KUMN, HALF_DIM_LIMIT)]


def assert_equal_types(a, b) -> None:
    """Types compare by value: equal fields, equal hash and the same verdict."""
    assert type(a) is DeformationType and a == b and hash(a) == hash(b) and a._verdict == b._verdict


def binom_product(top: int, n: int) -> int:
    """Independent generalized binomial: explicit product over n terms."""
    num = 1
    for j in range(n):
        num *= top - j
    q, r = divmod(num, math.factorial(n))
    assert r == 0
    return q


def test_k3_surface_polynomial():
    t = make_type(K3N, 1)
    assert t.rr.coeffs == (Fraction(2), Fraction(1, 2))  # chi = q/2 + 2
    assert rr_eval(t, 0) == 2
    assert rr_eval(t, 4) == 4


def test_chi_at_zero_is_n_plus_one():
    assert rr_eval(make_type(K3N, 2), 0) == 3
    assert rr_eval(make_type(KUMN, 2), 0) == 3
    assert rr_eval(make_type(K3N, 3), 0) == 4
    for n in range(1, 21):
        assert rr_eval(make_type(K3N, n), 0) == n + 1
    for n in range(2, 21):
        assert rr_eval(make_type(KUMN, n), 0) == n + 1


def test_rr_eval_examples():
    assert rr_eval(make_type(K3N, 2), 2) == 6
    assert rr_eval(make_type(KUMN, 2), 2) == 9


def test_kum1_rejected():
    with pytest.raises(DomainError):
        make_type(KUMN, 1)


def test_generic_validation():
    with pytest.raises(DomainError):
        make_type(GENERIC, 2, coeffs=[3, 1, 0])  # b_n = 0
    with pytest.raises(DomainError):
        make_type(GENERIC, 2, coeffs=[3, 1, -1])  # b_n < 0
    with pytest.raises(DomainError):
        make_type(GENERIC, 2)  # coefficients required
    with pytest.raises(DomainError):
        make_type(GENERIC, 3, coeffs=[1, 1])  # degree mismatch
    with pytest.raises(DomainError):
        make_type(K3N, 2, coeffs=[1, 1, 1])  # not K3^[2]'s closed form


def test_rr_eval_parity_rules():
    t = make_type(K3N, 2)
    with pytest.raises(DomainError):
        rr_eval(t, 3)
    g = make_type(GENERIC, 1, coeffs=[2, 1])
    with pytest.raises(DomainError):
        rr_eval(g, 3)
    assert rr_eval(g, 3, allow_odd=True) == 5
    # the escape hatch stays closed for registered families
    with pytest.raises(DomainError):
        rr_eval(t, 3, allow_odd=True)


@pytest.mark.parametrize("flag", ["no", 1, None])
def test_allow_odd_takes_only_a_bool(flag):
    """A truthy non-bool no longer opens the escape hatch."""
    with pytest.raises(DomainError, match="^allow_odd must be a bool, got "):
        rr_eval(make_type(GENERIC, 1, coeffs=[1, 1]), 3, allow_odd=flag)


def test_rr_eval_refuses_values_past_the_bit_limit():
    """n * q.bit_length() may reach RR_EVAL_BITS_LIMIT but not pass it."""
    t = make_type(K3N, 2)
    q = 2 ** (RR_EVAL_BITS_LIMIT // 2 - 1)  # n * q.bit_length() is the limit
    assert rr_eval(t, q) == binom_product(q // 2 + 3, 2)
    with pytest.raises(CapabilityError, match=r"passes the limit 524288 on n \* bit_length\(q\)"):
        rr_eval(t, 2 * q)
    with pytest.raises(CapabilityError):
        rr_eval(make_type(K3N, 500), 2**1049)


def test_rr_eval_flags_non_integral_values():
    g = make_type(GENERIC, 1, coeffs=[Fraction(1, 3), 1])
    with pytest.raises(ConsistencyError):
        rr_eval(g, 2)


def test_monotonicity():
    assert check_strict_monotonic(make_type(K3N, 2), 40)
    assert check_strict_monotonic(make_type(KUMN, 3), 40)
    g = make_type(GENERIC, 2, coeffs=[3, -4, 1])
    assert rr_eval(g, 2) == -1  # drops below rr(0) = 3
    assert not check_strict_monotonic(g, 4)
    # the verdict, fixed at construction, answers every bound in either query order
    assert check_strict_monotonic(g, 0)
    assert not check_strict_monotonic(g, 2)
    g2 = make_type(GENERIC, 2, coeffs=[3, -4, 1])
    assert check_strict_monotonic(g2, 0)
    assert not check_strict_monotonic(g2, 40)


def brute_force_walk(coeffs, q_top):
    """Verdict of a direct walk over {0, 2, ..., q_max} for every even q_max <= q_top."""
    verdicts, prev, event = {}, None, None
    for q in range(0, q_top + 1, 2):
        if event is None:
            v = sum(c * q**i for i, c in enumerate(coeffs))
            if v.denominator != 1:
                event = ("raise", f"RR value at q={q} is {v}, not an integer; the coefficient vector is malformed")
            elif prev is not None and v <= prev:
                event = ("return", False)
            prev = v
        verdicts[q] = event or ("return", True)
    return verdicts


def certificate(t, q_max):
    try:
        return "return", check_strict_monotonic(t, q_max)
    except ConsistencyError as exc:
        return "raise", str(exc)


@st.composite
def random_polynomials(draw):
    """b_i = a_i / 2^i is integral on the even grid; a factor 1/3 sometimes breaks that."""
    n = draw(st.integers(1, 4))
    nums = draw(st.lists(st.integers(-300, 300), min_size=n, max_size=n)) + [draw(st.integers(1, 6))]
    return [Fraction(a, 2**i * draw(st.sampled_from([1, 1, 1, 1, 1, 3]))) for i, a in enumerate(nums)]


@st.composite
def dipping_cubics(draw):
    """x^3 - 3a x^2 + (3a^2 - e) x + b in x = q/2: the steps turn negative near
    x = a once e is large enough, so the first failure can lie far out."""
    a, e, b = draw(st.integers(0, 600)), draw(st.integers(-5, 60)), draw(st.integers(-5, 5))
    third = draw(st.sampled_from([0, 0, 0, Fraction(1, 3)]))
    return [Fraction(b), Fraction(3 * a * a - e, 2) + third, Fraction(-3 * a, 4), Fraction(1, 8)]


def coeffs_with_step(s, b0=0):
    """b_0..b_n of the p with p(0) = b0 and p(2u + 2) - p(2u) = s(u), for s of degree n - 1:
    p(2u) = b0 + sum_j (Delta^j s)(0) * C(u, j + 1) by Newton's forward differences."""
    values = [sum(c * u**i for i, c in enumerate(s)) for u in range(len(s))]
    p = [Fraction(b0)] + [Fraction(0)] * len(s)
    binomial = [Fraction(1)]  # C(u, j) as a polynomial in u
    for j in range(len(s)):
        binomial = [(y - j * x) / (j + 1) for x, y in zip(binomial + [0], [0] + binomial)]  # times (u - j)/(j + 1)
        p = [a + values[0] * b for a, b in zip(p, binomial + [0] * (len(p) - len(binomial)))]
        values = [y - x for x, y in zip(values, values[1:])]
    return [c / 2**i for i, c in enumerate(p)]


@st.composite
def double_root_steps(draw):
    """Steps c(u - a)^2 in u = q/2: 0 at the integer u = a and positive elsewhere,
    so the only event is p(2a + 2) = p(2a), at a double root the prune must not skip."""
    a, c, b = draw(st.integers(0, 520)), draw(st.integers(1, 5)), draw(st.integers(-5, 5))
    return coeffs_with_step([c * a * a, -2 * c * a, c], b)


@settings(max_examples=90, deadline=None)
@given(st.one_of(random_polynomials(), dipping_cubics(), double_root_steps()), st.randoms(use_true_random=False))
def test_certificate_matches_brute_force_walk(coeffs, rnd):
    n = len(coeffs) - 1
    expected = brute_force_walk(coeffs, 1000)
    ascending = make_type(GENERIC, n, coeffs=coeffs)
    for q_max in range(0, 1001, 2):
        assert certificate(ascending, q_max) == expected[q_max], q_max
    shuffled = make_type(GENERIC, n, coeffs=coeffs)
    order = list(range(0, 1001, 2))
    rnd.shuffle(order)
    for q_max in order[:50]:
        assert certificate(shuffled, q_max) == expected[q_max], q_max
        assert certificate(shuffled, q_max + 1) == expected[q_max], q_max


def test_step_root_bound_is_fujiwaras():
    # the registered families have no negative step coefficient, so U = 0
    assert _root_bound(_step(make_type(K3N, 5).rr.nums)) == 0
    # step q - 100, so S(u) = 4 * (2u - 100): Fujiwara's bound is exactly 50, rounded up to 64
    assert _step(RRPolynomial([0, Fraction(-101, 2), Fraction(1, 4)]).nums) == [-400, 8]
    assert _root_bound([-400, 8]) == 64
    # step q^2 - 10q + 1, so S(u) = 6 * (4u^2 - 20u + 1): Fujiwara's bound is
    # 2 * max(5, 1/sqrt(8)) = 10, rounded up to 16
    assert _step(RRPolynomial([0, Fraction(35, 6), -3, Fraction(1, 6)]).nums) == [6, -120, 24]
    assert _root_bound([6, -120, 24]) == 16


def test_event_just_past_a_tight_root_bound():
    # step (q - 8)^2: positive for every real q > 8 but 0 at q = 8, so the
    # only event is p(10) = p(8), at the double root u = 4 of S
    g = make_type(GENERIC, 3, coeffs=[1, Fraction(121, 3), Fraction(-9, 2), Fraction(1, 6)])
    assert check_strict_monotonic(g, 8)
    assert not check_strict_monotonic(g, 10)
    assert not check_strict_monotonic(g, 10**6)


def test_drop_right_after_the_first_rise():
    # step (u - 1)(u - 5) in u = q/2: p(2) > p(0), then p(4) = p(2); S(1) = 0 starts
    # the first half [1, 8] of [0, 16] after S(0) = 5 > 0
    g = make_type(GENERIC, 3, coeffs=coeffs_with_step([5, -6, 1]))
    assert check_strict_monotonic(g, 2)
    assert not check_strict_monotonic(g, 4)


def test_non_integral_value_comes_before_a_drop_at_the_same_q():
    # p(q) = q^2 - 7q/3: p(2) = -2/3 is below p(0) = 0 and not an integer
    g = make_type(GENERIC, 2, coeffs=[0, Fraction(-7, 3), 1])
    assert check_strict_monotonic(g, 0)
    with pytest.raises(ConsistencyError, match="q=2"):
        check_strict_monotonic(g, 2)
    # K3^[3] plus q(q-2)(q-4)/144 minus 4q drops at q = 2 (10 - 8 < 4), before its
    # first non-integral value at q = 6
    h = make_type(GENERIC, 3, coeffs=[4, Fraction(20, 9) - 4, Fraction(1, 3), Fraction(1, 36)])
    assert not check_strict_monotonic(h, 10**6)


def test_first_non_integral_value_at_q_equal_to_2n():
    # K3^[3] plus q(q-2)(q-4)/144, which is 0 at q = 0, 2, 4 and 1/3 at q = 6
    g = make_type(GENERIC, 3, coeffs=[4, Fraction(20, 9), Fraction(1, 3), Fraction(1, 36)])
    assert check_strict_monotonic(g, 4)
    with pytest.raises(ConsistencyError, match="q=6"):
        check_strict_monotonic(g, 10**6)


def test_monotonicity_walk_guard():
    # a root bound near 1e20 once kept a walk from the verdict; the drop is at q = 2
    g = make_type(GENERIC, 2, coeffs=[0, -(10**20), 1])
    assert not check_strict_monotonic(g, 40)
    assert not check_strict_monotonic(g, 10**15)


def test_step_without_real_root_certifies_at_once():
    # step q^2 - 2e7 q + 1e14 + 1 has a negative discriminant, and Fujiwara's bound is 2^26
    coeffs = ["0", "300000060000005/6", "-10000001/2", "1/6"]
    start = time.perf_counter()
    assert check_strict_monotonic(make_type(GENERIC, 3, coeffs=coeffs), 10**12)
    assert time.perf_counter() - start < 0.01
    assert check_strict_monotonic(make_type(GENERIC, 3, coeffs=coeffs), 2_000_000)


def test_isolation_work_guard(monkeypatch):
    # S(u) = 24(u^2 - u + 1) has no real root and U = 2: one interval, (0, 2), charged
    # n(n + 5) * words * (1 + size // 64 + n * words) = 3 * 8 * 1 * 4 and then pruned
    coeffs = coeffs_with_step([6, -6, 6])
    monkeypatch.setattr(riemann_roch, "MONO_WORK_LIMIT", 96)
    assert check_strict_monotonic(make_type(GENERIC, 3, coeffs=coeffs), 10**9)
    monkeypatch.setattr(riemann_roch, "MONO_WORK_LIMIT", 95)
    with pytest.raises(CapabilityError, match="more than 95 operations on 64-bit words"):
        check_strict_monotonic(make_type(GENERIC, 3, coeffs=coeffs), 10**9)


def test_clustered_near_roots_are_refused_at_every_q_max():
    # S(u) is a product of 20 factors (u - r)^2 + 1 with 60-bit r: no real root, but the
    # Descartes tests see two sign variations near each r until the interval is narrow
    s = [1]
    for k in range(20):
        r = (1 << 59) + 7919**3 * k
        s = [a - 2 * r * b + (r * r + 1) * c for a, b, c in zip([0, 0] + s, [0] + s + [0], s + [0, 0])]
    coeffs = coeffs_with_step(s)
    start = time.perf_counter()  # the certificate runs when the type is built
    g = make_type(GENERIC, 41, coeffs=coeffs)
    for q_max in (0, 10**30):
        with pytest.raises(CapabilityError, match="operations on 64-bit words"):
            check_strict_monotonic(g, q_max)
    assert time.perf_counter() - start < 2


def test_huge_root_bound_is_refused_before_evaluating_at_it():
    # b_499 = -1e9800 puts Fujiwara's bound near 2^32556, and b_1 = 1e9999 keeps S(0) > 0:
    # one evaluation of this degree-500 polynomial there takes about a second
    coeffs = ["0", "1e9999"] + ["0"] * 497 + ["-1e9800", "1"]
    start = time.perf_counter()  # the certificate runs when the type is built
    g = make_type(GENERIC, 500, coeffs=coeffs)
    for budget in (2, 0.01):  # the refusal is kept, so the second call reads it
        with pytest.raises(CapabilityError, match="operations on 64-bit words"):
            check_strict_monotonic(g, 0)
        assert time.perf_counter() - start < budget
        start = time.perf_counter()
    assert riemann_roch._root_bound(riemann_roch._step(g.rr.nums)).bit_length() > 32000


def test_large_n_types_certify_with_exact_values():
    start = time.perf_counter()
    t = make_type(K3N, HALF_DIM_LIMIT)
    assert check_strict_monotonic(t, 10**12)
    assert time.perf_counter() - start < 2  # the expansion alone: no check runs
    t = make_type(K3N, 400)
    assert check_strict_monotonic(t, 800)
    assert check_strict_monotonic(t, 10**12)
    assert rr_eval(t, 800) == binom_product(400 + 400 + 1, 400)


def test_invert_binomial():
    assert invert_binomial(6, 2) == 2
    assert invert_binomial(7, 2) is None
    for n in (1, 2, 5, 9):
        assert invert_binomial(n + 1, n) == 1
    assert invert_binomial(1, 3) is None
    with pytest.raises(DomainError):
        invert_binomial(0, 2)
    # round-trip against math.comb over a grid
    for n in range(1, 6):
        for m in range(1, 40):
            assert invert_binomial(math.comb(m + n, n), n) == m


def doubling_search(value: int, n: int) -> int | None:
    """The search invert_binomial made before it started from an integer root:
    double an upper end, then bisect down to the least m with C(m+n, n) >= value."""
    hi = 1
    while math.comb(hi + n, n) < value:
        hi *= 2
    lo = 1
    while lo < hi:
        mid = (lo + hi) // 2
        if math.comb(mid + n, n) < value:
            lo = mid + 1
        else:
            hi = mid
    return lo if math.comb(lo + n, n) == value else None


def test_invert_binomial_matches_the_doubling_search():
    for n in range(1, 13):
        for m in [*range(0, 120), 10**6, 2**70 + 3, 10**40]:
            c = math.comb(m + n, n)
            for value in (c - 1, c, c + 1):
                if value >= 1:
                    assert invert_binomial(value, n) == doubling_search(value, n), (value, n)
        for value in range(1, 400):
            assert invert_binomial(value, n) == doubling_search(value, n), (value, n)


def test_invert_binomial_guards_and_speed():
    with pytest.raises(CapabilityError, match="half-dimension limit"):
        invert_binomial(10, HALF_DIM_LIMIT + 1)
    with pytest.raises(CapabilityError, match=f"passes the limit of {RR_EVAL_BITS_LIMIT} bits"):
        invert_binomial(2**RR_EVAL_BITS_LIMIT, 2)
    start = time.perf_counter()
    for n in (2, 3):
        # chi = C(q/2 + n + 1, n) = C(m + n, n) with m = q/2 + 1, of 5000 digits
        assert nl_numerical_types(make_type(K3N, n), 10**5000) == [NumericalNLType(10**5000 // 2 + 1, 1, -2)]
    assert time.perf_counter() - start < 2.0


def test_k3n_closed_form_matches_product_oracle():
    for n in range(1, 8):
        t = make_type(K3N, n)
        for q in range(0, 61, 2):
            assert rr_eval(t, q) == binom_product(q // 2 + n + 1, n)


def test_kumn_closed_form_matches_product_oracle():
    for n in range(2, 8):
        t = make_type(KUMN, n)
        for q in range(0, 61, 2):
            assert rr_eval(t, q) == (n + 1) * binom_product(q // 2 + n, n)


def test_k3n_binomial_identity():
    # rr(2(m-1)) == C(m+n, n), the identity behind pinning m
    for n in range(1, 11):
        t = make_type(K3N, n)
        for m in range(1, 51):
            assert rr_eval(t, 2 * (m - 1)) == math.comb(m + n, n)
            assert invert_binomial(rr_eval(t, 2 * (m - 1)), n) == m


def test_registered_families_have_nonnegative_coefficients():
    # positivity of the two closed-form families (not re-derived in general)
    for n in range(1, 11):
        assert all(c >= 0 for c in make_type(K3N, n).rr.coeffs)
    for n in range(2, 11):
        assert all(c >= 0 for c in make_type(KUMN, n).rr.coeffs)


def test_registered_verdict_is_the_theorem():
    """The hypotheses of the theorem that fixes the K3^[n] and Kum^n verdicts: every
    numerator is positive and the values at 0, ..., 2n are integers, so that
    _first_event finds no event, as the stored verdict says."""
    types = [make_type(K3N, n) for n in range(1, 51)] + [make_type(KUMN, n) for n in range(2, 51)]
    for t in types:
        assert min(t.rr.nums) > 0, t
        assert all(t.rr.numerator(q) % t.rr.den == 0 for q in range(0, 2 * t.n + 1, 2)), t
        assert _first_event(t.rr, t.n) == t._verdict == (math.inf, None, None), t


def test_generic_verdict_is_fixed_at_construction():
    assert make_type(GENERIC, 2, coeffs=[3, -4, 1])._verdict == (2, None, None)
    assert make_type(GENERIC, 1, coeffs=[2, 1])._verdict == (math.inf, None, None)
    q, error, message = make_type(GENERIC, 1, coeffs=[Fraction(1, 3), 1])._verdict
    assert (q, error) == (0, ConsistencyError) and message.startswith("RR value at q=0 is 1/3")


@pytest.mark.parametrize(
    "kind, n, coeffs, message",
    [
        (K3N, 2, [0, -5, 1], "K3n carries a closed-form RR polynomial; explicit coefficients must equal it"),
        (KUMN, 2, [3, 1, 1], "Kumn carries a closed-form RR polynomial; explicit coefficients must equal it"),
        (KUMN, 1, [2, 1], r"Kumn requires n >= 2 \(Kum\^1 is not a registered type\)"),
        # the constructor checks the degree of every kind first
        (K3N, 2, [3, 1], "RR polynomial must have degree exactly n=2, got degree 1|K3n carries .* must equal it"),
        (10**5000, 2, [3, 1, 1], "unknown deformation kind <integer of 5001 digits>"),
    ],
    ids=["k3n-other", "kumn-other", "kum1", "degree", "unprintable-kind"],
)
def test_registered_kinds_hold_only_their_closed_form(kind, n, coeffs, message):
    """On every path: the constructor, make_type and the JSON reader."""
    calls = [lambda: DeformationType(kind, n, RRPolynomial(coeffs)), lambda: make_type(kind, n, coeffs=coeffs)]
    if type(kind) is str:
        calls.append(lambda: deformation_from_json_dict({"kind": kind, "n": n, "coeffs": list(map(str, coeffs))}))
    for call in calls:
        with pytest.raises(DomainError, match=f"^(?:{message})$"):
            call()


def test_closed_form_coefficients_give_the_registered_instance():
    t = make_type(K3N, 2)
    assert_equal_types(make_type(K3N, 2, coeffs=["3", "5/4", Fraction(1, 8)]), t)
    assert_equal_types(make_type(KUMN, 3, coeffs=list(make_type(KUMN, 3).rr.coeffs)), make_type(KUMN, 3))
    assert_equal_types(DeformationType(K3N, 2, RRPolynomial([3, Fraction(5, 4), Fraction(1, 8)])), t)
    for kind, n in REGISTERED:
        t = make_type(kind, n)
        assert_equal_types(deformation_from_json_dict(t.to_json_dict()), t)


@pytest.mark.parametrize("kind, n, coeffs", [(kind, n, None) for kind, n in REGISTERED[:4]] + [(GENERIC, 2, [3, -4, 1]), (GENERIC, 1, ["1/3", 1])])
def test_every_path_builds_an_equal_type(kind, n, coeffs):
    t = make_type(kind, n, coeffs)
    built = [
        DeformationType(kind, n, t.rr),
        make_type(kind, n, list(t.rr.coeffs)),
        deformation_from_json_dict(t.to_json_dict()),
        pickle.loads(pickle.dumps(t)),
        copy.deepcopy(t),
    ]
    for other in built:
        assert_equal_types(other, t)


def test_a_repeated_closed_form_is_not_expanded_again():
    make_type(K3N, HALF_DIM_LIMIT)  # expands the closed form; the repeat only compares it
    start = time.perf_counter()
    make_type(K3N, HALF_DIM_LIMIT)
    assert time.perf_counter() - start < 0.005


def test_coefficients_on_a_registered_kind_are_read_after_the_kind_and_n():
    with pytest.raises(DomainError, match="^unknown deformation kind 'OG6'$"):
        deformation_from_json_dict({"kind": "OG6", "n": 2, "coeffs": "junk"})
    with pytest.raises(DomainError, match="^K3n requires n >= 1$"):
        deformation_from_json_dict({"kind": K3N, "n": 0, "coeffs": "junk"})
    with pytest.raises(DomainError, match="^K3n requires n >= 1$"):
        make_type(K3N, 0, coeffs=[1])
    with pytest.raises(DomainError, match=r"^Kumn requires n >= 2 \(Kum\^1 is not a registered type\)$"):
        make_type(KUMN, 1, coeffs=[1])
    with pytest.raises(StructuralError, match="^deformation.coeffs must be an array, got 'junk'$"):
        deformation_from_json_dict({"kind": K3N, "n": 2, "coeffs": "junk"})
    with pytest.raises(StructuralError, match=r"^deformation.coeffs\[1\] must be a rational number"):
        deformation_from_json_dict({"kind": KUMN, "n": 2, "coeffs": ["3", "x", "9/8"]})


def test_the_json_reader_counts_coefficients_before_reading_them():
    """A list over the degree limit is refused as make_type refuses it, before any entry is read."""
    for coeffs in (["x"] + [1] * (HALF_DIM_LIMIT + 1), [1] * 10**6):
        start = time.perf_counter()
        with pytest.raises(CapabilityError, match=f"^RR polynomial of degree {len(coeffs) - 1} exceeds the half-dimension limit"):
            deformation_from_json_dict({"kind": GENERIC, "n": 1, "coeffs": coeffs})
        assert time.perf_counter() - start < 0.1


def test_types_are_immutable_and_pickle_by_value():
    types = [make_type(K3N, 3), make_type(GENERIC, 2, coeffs=[3, -4, 1]), make_type(GENERIC, 1, coeffs=[Fraction(1, 3), 1])]
    for t in types:
        for obj, fields in ((t, ("kind", "n", "rr", "_verdict")), (t.rr, ("nums", "den"))):
            for field in fields:
                with pytest.raises(AttributeError, match=f"immutable {type(obj).__name__}"):
                    setattr(obj, field, None)
                with pytest.raises(AttributeError, match=f"immutable {type(obj).__name__}"):
                    delattr(obj, field)
        for copied in (pickle.loads(pickle.dumps(t)), copy.deepcopy(t), copy.copy(t)):
            assert type(copied) is DeformationType and type(copied.rr) is RRPolynomial
            assert copied == t and hash(copied) == hash(t) and copied._verdict == t._verdict
            assert pickle.loads(pickle.dumps(t.rr)) == t.rr
    assert make_type(GENERIC, 2, coeffs=[3, -4, 1]) != make_type(GENERIC, 2, coeffs=[3, -4, 2])


def fujiki(t) -> Fraction:
    """The Fujiki constant (2n)! * b_n, read from the leading coefficient."""
    return math.factorial(2 * t.n) * t.rr.coeffs[-1]


def test_fujiki_constants():
    # (2n)!/(n! 2^n) for K3^[n], and n + 1 times that for Kum^n
    for n in range(1, 11):
        closed = math.factorial(2 * n) // (math.factorial(n) * 2**n)
        assert fujiki(make_type(K3N, n)) == closed
        if n >= 2:
            assert fujiki(make_type(KUMN, n)) == (n + 1) * closed
    assert [fujiki(make_type(K3N, n)) for n in (1, 2, 3)] == [1, 3, 15]
    assert [fujiki(make_type(KUMN, n)) for n in (2, 3)] == [9, 60]


def fraction_expansion(factor: int, shift: int, n: int) -> tuple:
    """Coefficients in q of factor * C(q/2 + shift, n), multiplied out in Fractions."""
    poly = [Fraction(factor)]
    for j in range(n):  # times (q/2 + shift - j) / (j + 1)
        poly = [(a * (shift - j) + b / 2) / (j + 1) for a, b in zip(poly + [Fraction(0)], [Fraction(0)] + poly)]
    return tuple(poly)


def test_coeffs_and_fujiki_are_fractions_equal_to_the_expansion():
    types = [(make_type(K3N, n), fraction_expansion(1, n + 1, n)) for n in range(1, 7)]
    types += [(make_type(KUMN, n), fraction_expansion(n + 1, n, n)) for n in range(2, 7)]
    types.append((make_type(GENERIC, 2, coeffs=["3", "5/4", Fraction(1, 8)]), (3, Fraction(5, 4), Fraction(1, 8))))
    for t, coeffs in types:
        assert t.rr.coeffs == coeffs
        assert all(type(c) is Fraction for c in t.rr.coeffs)
        # the integer state is in lowest terms, as parsing the Fractions gives it
        assert RRPolynomial(coeffs) == t.rr and hash(RRPolynomial(coeffs)) == hash(t.rr)
        assert t.rr.degree == t.n
        if t.kind != GENERIC:  # a registered family's Fujiki constant is an integer
            assert fujiki(t).denominator == 1
    assert repr(make_type(K3N, 2).rr) == "RRPolynomial(['3', '5/4', '1/8'])"


def test_over_long_leading_coefficient_is_a_domain_error():
    with pytest.raises(DomainError, match=r"^leading coefficient must be positive, got -<integer of 5001 digits>$"):
        make_type(GENERIC, 1, coeffs=[1, -(10**5000)])
    with pytest.raises(DomainError, match=r"^leading coefficient must be positive, got -3/2$"):
        make_type(GENERIC, 1, coeffs=[1, Fraction(-3, 2)])


def test_json_round_trip():
    t = make_type(K3N, 2)
    data = t.to_json_dict()
    assert data == {"kind": "K3n", "n": 2, "coeffs": ["3", "5/4", "1/8"]}
    assert_equal_types(deformation_from_json_dict(data), t)
    assert_equal_types(deformation_from_json_dict({"kind": "K3n", "n": 2}), t)
    g = deformation_from_json_dict({"kind": "Generic", "n": 1, "coeffs": ["2", "1/2"]})
    assert rr_eval(g, 2) == 3
    with pytest.raises(Exception):
        deformation_from_json_dict({"kind": "K3n"})
    with pytest.raises(StructuralError, match='"kind"'):
        deformation_from_json_dict({"kind": ["K3n"], "n": 1})


# ASCII, Arabic-Indic, Devanagari and fullwidth decimal digits
DIGITS = "0123456789\u0660\u0661\u0662\u0669\u0966\u096f\uff10\uff19"
SPACES = " \t\n\u00a0\u2003\x1c"
# no digit and no e: superscript two and vulgar one half are numeric but not decimal
JUNK = "xd\u00b2\u00bd\u200b_.,/+- "


def digit_groups(max_digits: int):
    """Digits with underscores anywhere (so also misplaced), at most max_digits digits."""
    return st.text(DIGITS + "_", max_size=max_digits + 3).filter(lambda g: sum(ch != "_" for ch in g) <= max_digits)


@st.composite
def coefficient_texts(draw):
    """Strings shaped like Fraction's grammar: [ws][sign]a[/b | .b][e[sign]c][ws],
    sometimes with junk spliced in; the exponent c has at most four digits and
    nothing after the e holds another digit."""
    text = (
        draw(st.text(SPACES, max_size=2))
        + draw(st.sampled_from(["", "", "+", "-", "+-"]))
        + draw(digit_groups(8))
        + draw(st.one_of(st.just(""), st.sampled_from("/.").flatmap(lambda c: digit_groups(8).map(lambda g: c + g))))
        + draw(st.one_of(st.just(""), st.tuples(st.sampled_from("eE"), st.sampled_from(["", "+", "-"]), digit_groups(4)).map("".join)))
        + draw(st.text(SPACES, max_size=2))
    )
    if draw(st.booleans()):
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.text(JUNK, min_size=1, max_size=2)) + text[i:]
    return text


def fraction_reading(text):
    try:
        f = Fraction(text)
    except (ValueError, ZeroDivisionError):
        return None
    return f.numerator, f.denominator


@settings(max_examples=400, deadline=None)
@given(text=coefficient_texts())
@example(text=" 3/4 ")
@example(text=".5")
@example(text="5.")
@example(text="\u0661/\u0662")
@example(text="1_0")
@example(text="1.d")
@example(text="1/0")
@example(text="+-1")
@example(text="1e")
@example(text="e5")
@example(text="_1")
@example(text="1_")
@example(text="-1.25e-3")
@example(text="\t+1_2.0_5E+2\n")
@example(text="+7")
@example(text=" -3/4 ")
@example(text="1_0/3")
@example(text="1/+2")
def test_coefficient_strings_read_as_fraction_reads_them(text):
    """A Generic coefficient string gives Fraction(text) as an integer pair on
    both paths, or a typed refusal on each where Fraction refuses it.  The
    reader takes digits a or a/b itself and hands every other string, any
    with an underscore among them, to Fraction, so the two agree on every
    Python version, although only 3.11 on reads underscores (PEP 515)."""
    expected = fraction_reading(text)
    data = {"kind": GENERIC, "n": 1, "coeffs": [text, 1]}
    if expected is None:
        with pytest.raises(DomainError, match=r"^coeffs\[0\] must be a rational number, got "):
            RRPolynomial([text, 1])
        with pytest.raises(StructuralError, match=r"^deformation\.coeffs\[0\] must be a rational number, got "):
            deformation_from_json_dict(data)
        return
    rr = RRPolynomial([text, 1])
    assert (rr.nums[0], rr.den) == expected
    t = deformation_from_json_dict(data)
    assert (t.rr.nums[0], t.rr.den) == expected
    # str() refuses an int of more than sys.get_int_max_str_digits() digits, on either side
    if max(abs(expected[0]), expected[1]).bit_length() <= 3 * sys.get_int_max_str_digits():
        assert t.to_json_dict()["coeffs"] == [str(Fraction(text)), "1"]


@pytest.mark.parametrize("text", ["1e1000000", "1e1_000_000", "1e2_000_000", "1E+1_0000"])
def test_long_decimal_exponent_is_refused_at_once(text):
    """Underscores do not hide an exponent's digits, on either path."""
    calls = [
        (lambda: make_type(GENERIC, 1, coeffs=[text, 1]), "coeffs"),
        (lambda: deformation_from_json_dict({"kind": GENERIC, "n": 1, "coeffs": [text, 1]}), "deformation.coeffs"),
    ]
    for call, path in calls:
        start = time.perf_counter()
        with pytest.raises(CapabilityError, match=rf"^{path}\[0\] has a decimal exponent of more than four digits, got "):
            call()
        assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize(
    "coefficient",
    ["x", "1/0", math.nan, math.inf, -math.inf, Decimal("NaN"), None, [1]],
    ids=["word", "zero-denominator", "nan", "inf", "minus-inf", "decimal-nan", "none", "list"],
)
def test_unreadable_library_coefficient_is_a_domain_error(coefficient):
    with pytest.raises(DomainError, match=r"^coeffs\[0\] must be a rational number, got "):
        make_type(GENERIC, 1, coeffs=[coefficient, 1])


def test_library_coefficients_of_other_types_are_exact():
    """Fractions, floats and Decimals are read by their text, as the JSON reader
    reads a number: the float 0.1 is 1/10, its shortest repr, not its binary value."""
    rr = RRPolynomial([Fraction(-6, 4), 0.375, Decimal("2.50"), 1])
    assert rr.coeffs == (Fraction(-3, 2), Fraction(3, 8), Fraction(5, 2), Fraction(1))
    t = make_type(GENERIC, 1, coeffs=[0.1, 1])
    assert t.rr == deformation_from_json_dict({"kind": GENERIC, "n": 1, "coeffs": [0.1, 1]}).rr
    assert t.rr.coeffs == (Fraction(1, 10), Fraction(1))
    with pytest.raises(ConsistencyError, match=r"^RR value at q=0 is 1/10, not an integer"):
        rr_eval(t, 0)


class Half:
    """Not a number type, though its text reads as one."""

    def __str__(self):
        return "1/2"


NESTED = functools.reduce(lambda inner, _: [inner], range(10**5), [])


@pytest.mark.parametrize("coefficient", [Half(), NESTED], ids=["text-of-another-type", "nested-10-5-deep"])
def test_coefficients_of_other_types_are_refused_before_conversion(coefficient):
    """Only ints, strings, floats, Fractions and Decimals are read: another value is
    refused with a typed error at once on every path, without str(), which a list
    nested 10^5 deep would meet with RecursionError."""
    generic = {"kind": GENERIC, "n": 1, "coeffs": [coefficient, 1]}
    context = dict(json.loads(fixture_path("k3n2_rank3.json").read_text(encoding="utf-8")), deformation=generic)
    calls = [
        (lambda: make_type(GENERIC, 1, coeffs=[coefficient, 1]), DomainError, "coeffs"),
        (lambda: deformation_from_json_dict(generic), StructuralError, "deformation.coeffs"),
        (lambda: GeometricContext.from_json_dict(context), StructuralError, "deformation.coeffs"),
    ]
    for call, error, path in calls:
        start = time.perf_counter()
        with pytest.raises(error, match=rf"^{path}\[0\] must be a rational number, got "):
            call()
        assert time.perf_counter() - start < 0.05


def reading(call, prefix):
    """The pairs of the type call() builds, or its refusal as (kind, message without prefix)."""
    try:
        return call().rr._pairs()
    except BasedivError as exc:
        kind = "capability" if isinstance(exc, CapabilityError) else "refused"
        return kind, str(exc).removeprefix(prefix)


COEFFICIENT_VALUES = st.one_of(
    st.integers(),
    st.tuples(st.integers(), st.integers(-9, 99)).map(lambda p: f"{p[0]}/{p[1]}"),
    st.from_regex(r"[+-]?[0-9]{1,3}(\.[0-9]{0,3})?[eE][+-]?[0-9]{1,6}", fullmatch=True),
    st.floats(),
    st.fractions(),
    st.decimals(),
    st.sampled_from([True, None, [1], "x", b"1", Half(), Fraction(10**5000, 3), Decimal("1e1000000"), Decimal("sNaN")]),
)


@settings(max_examples=300, deadline=None)
@given(value=COEFFICIENT_VALUES, index=st.integers(0, 1))
@example(value=0.1, index=0)
@example(value=1e300, index=0)
@example(value=Decimal("-2.50"), index=1)
@example(value="1e-99999", index=0)
def test_library_and_json_read_every_coefficient_alike(value, index):
    """make_type and deformation_from_json_dict give a coefficient the same (num, den),
    or the same kind of refusal naming the same index: DomainError on one path and
    StructuralError on the other where it is not read, CapabilityError on both
    where its exponent is too long."""
    coeffs = [1, 1]
    coeffs[index] = value
    library = reading(lambda: make_type(GENERIC, 1, coeffs=coeffs), "")
    data = {"kind": GENERIC, "n": 1, "coeffs": coeffs}
    assert reading(lambda: deformation_from_json_dict(data), "deformation.") == library


@pytest.mark.parametrize("coeffs, shown", [([True, 1], r"coeffs\[0\] must be a rational number, got True"), ([1, False, 1], r"coeffs\[1\] must be a rational number, got False")])
def test_library_coefficients_refuse_bools(coeffs, shown):
    """A bool is refused as a coefficient, as the JSON reader refuses true,
    though Fraction(True) is 1."""
    with pytest.raises(DomainError, match=f"^{shown}$"):
        make_type(GENERIC, len(coeffs) - 1, coeffs=coeffs)


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: make_type(GENERIC, 1, coeffs=iter([1, 1])), (DomainError, r"^coeffs must be a list or tuple, got <list_iterator object")),
        (lambda: make_type(GENERIC, 1, coeffs=5), (DomainError, r"^coeffs must be a list or tuple, got 5$")),
        (
            lambda: make_type(GENERIC, 1, coeffs=["1e5000", 1]).to_json_dict(),
            (CapabilityError, r"^coeffs\[0\] = <integer of 5001 digits> cannot be written: str\(\) refuses an integer that long$"),
        ),
        (lambda: repr(make_type(GENERIC, 1, coeffs=["1e5000", 1]).rr), "RRPolynomial(['<integer of 5001 digits>', '1'])"),
        (lambda: RRPolynomial([]), (DomainError, r"^coefficient vector must be nonempty$")),
        (lambda: make_type(GENERIC, 1, coeffs=[]), (DomainError, r"^coefficient vector must be nonempty$")),
    ],
    ids=["iterator", "int", "json-of-a-long-coefficient", "repr-of-a-long-coefficient", "empty-polynomial", "empty-make-type"],
)
def test_generic_coefficients_get_typed_errors(call, expected):
    """Coefficient containers other than a list or tuple, empty ones, and
    coefficients too long for str(), give a BasedivError or a shown value,
    never Python's own error."""
    if isinstance(expected, str):
        assert call() == expected
    else:
        with pytest.raises(expected[0], match=expected[1]):
            call()


@pytest.mark.parametrize("text", ["1e1000000", "1e-1000000"])
def test_long_decimal_exponent_of_a_decimal_is_refused_at_once(text):
    start = time.perf_counter()
    with pytest.raises(CapabilityError, match=r"^coeffs\[0\] has a decimal exponent of more than four digits, got Decimal\('1E[+-]1000000'\)$"):
        make_type(GENERIC, 1, coeffs=[Decimal(text), 1])
    assert time.perf_counter() - start < 0.1


@st.composite
def root_cases(draw):
    """(x, n) with x any value up to 3000 bits, or a perfect n-th power or one off it."""
    n = draw(st.integers(2, 12))
    if draw(st.booleans()):
        return draw(st.integers(1, 2**3000)), n
    return max(1, draw(st.integers(1, 2**300)) ** n + draw(st.integers(-1, 1))), n


@settings(max_examples=300, deadline=None)
@given(case=root_cases())
def test_iroot_is_the_integer_nth_root(case):
    """_iroot(x, n) is the r with r^n <= x < (r + 1)^n, and math.isqrt(x) at n = 2."""
    x, n = case
    r = _iroot(x, n)
    assert r**n <= x < (r + 1) ** n
    if n == 2:
        assert r == math.isqrt(x)
