import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from basediv import (
    CapabilityError,
    ConsistencyError,
    DomainError,
    GENERIC,
    K3N,
    KUMN,
    RRPolynomial,
    StructuralError,
    check_strict_monotonic,
    deformation_from_json_dict,
    invert_binomial,
    make_type,
    rr_eval,
)
from basediv.riemann_roch import RR_EVAL_BITS_LIMIT


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
        make_type(K3N, 2, coeffs=[1, 1, 1])  # closed-form families reject coeffs


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
    # cached verdicts stay consistent across bounds, in either query order
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


@settings(max_examples=60, deadline=None)
@given(st.one_of(random_polynomials(), dipping_cubics()), st.randoms(use_true_random=False))
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
    # the registered families have no negative step coefficient, so B = 0
    assert make_type(K3N, 5).rr.root_bound == 0
    # step q - 100: Fujiwara's bound is exactly 100, rounded up to 128
    assert RRPolynomial([0, Fraction(-101, 2), Fraction(1, 4)]).root_bound == 128
    # step q^2 - 10q + 1: Fujiwara's bound is 2 * max(10, 1/sqrt(2)) = 20, rounded up to 32
    assert RRPolynomial([0, Fraction(35, 6), -3, Fraction(1, 6)]).root_bound == 32


def test_event_just_past_a_tight_root_bound():
    # step (q - 8)^2: positive for every real q > 8 but 0 at q = 8, so the
    # only event is p(10) = p(8); B = 8 is the tightest bound the contract allows
    g = make_type(GENERIC, 3, coeffs=[1, Fraction(121, 3), Fraction(-9, 2), Fraction(1, 6)])
    assert g.rr.root_bound >= 8
    g.rr.root_bound = 8
    assert check_strict_monotonic(g, 8)
    assert not check_strict_monotonic(g, 10**6)


def test_first_non_integral_value_at_q_equal_to_2n():
    # K3^[3] plus q(q-2)(q-4)/144, which is 0 at q = 0, 2, 4 and 1/3 at q = 6
    g = make_type(GENERIC, 3, coeffs=[4, Fraction(20, 9), Fraction(1, 3), Fraction(1, 36)])
    assert check_strict_monotonic(g, 4)
    with pytest.raises(ConsistencyError, match="q=6"):
        check_strict_monotonic(g, 10**6)


def test_monotonicity_walk_guard():
    # a root bound near 1e20 keeps the verdict out of reach of a full walk
    g = make_type(GENERIC, 2, coeffs=[0, -(10**20), 1])
    assert not check_strict_monotonic(g, 40)  # only the asked grid is walked
    with pytest.raises(CapabilityError):
        check_strict_monotonic(g, 10**15)


def test_large_n_types_certify_with_exact_values():
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


def test_fujiki_constants():
    # derived from the leading coefficient: (2n)! * b_n
    assert make_type(K3N, 1).fujiki == 1
    assert make_type(K3N, 2).fujiki == 3
    assert make_type(KUMN, 2).fujiki == 9
    assert make_type(K3N, 2, fujiki=Fraction(3)).fujiki == 3
    with pytest.raises(DomainError):
        make_type(K3N, 2, fujiki=-1)


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
        assert type(t.fujiki) is Fraction
        assert t.fujiki == math.factorial(2 * t.n) * coeffs[-1]
    assert make_type(K3N, 3).fujiki == 15 and make_type(KUMN, 3).fujiki == 60
    assert make_type(GENERIC, 1, coeffs=[0, 1], fujiki="5/2").fujiki == Fraction(5, 2)
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
    assert deformation_from_json_dict(data) is t  # registry cache
    g = deformation_from_json_dict({"kind": "Generic", "n": 1, "coeffs": ["2", "1/2"]})
    assert rr_eval(g, 2) == 3
    with pytest.raises(Exception):
        deformation_from_json_dict({"kind": "K3n"})
    with pytest.raises(StructuralError, match='"kind"'):
        deformation_from_json_dict({"kind": ["K3n"], "n": 1})
