"""Riemann-Roch polynomials attached to deformation types.

For the registered families the Euler characteristic of a line bundle L is
a degree-n polynomial in q(L) with closed forms

    K3^[n]:  chi = C(q/2 + n + 1, n)
    Kum^n:   chi = (n+1) * C(q/2 + n, n)

where C( , n) is the generalized binomial, i.e. the degree-n polynomial
x(x-1)...(x-n+1)/n! (valid for small and negative tops).  The polynomials
are expanded once into integer numerators over one common denominator, and
that pair is the whole state: the registered families are built from it
directly, evaluation is Horner's rule in integers followed by one exact
division, and monotonicity certification and binomial inversion stay in
exact arithmetic.  Generic coefficients are read straight to integer pairs:
an int as itself, and a string of decimal digits a or a/b, signed and padded
or not, by ``_read_pair``.  Fractions are made on demand only by ``coeffs``,
for any other string (read by ``Fraction(str)``) and for a library
coefficient of another type (a Fraction, float or Decimal), so parsing a
context with such coefficients, Generic or not, never imports ``fractions``,
``decimal`` and ``numbers`` (about 3 ms of start-up on a 2-vCPU Xeon host).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence

from .errors import CapabilityError, ConsistencyError, DomainError, StructuralError, require_int, show_int, show_value
from .lattice import _Record, _set, as_array

K3N = "K3n"
KUMN = "Kumn"
GENERIC = "Generic"

_KINDS = (K3N, KUMN, GENERIC)

# check_strict_monotonic refuses a polynomial whose root isolation needs more
# operations on 64-bit words than this, in its Taylor shifts and its evaluations
# of the step, counted before each is done; only near-root clusters and huge root
# bounds come near.
MONO_WORK_LIMIT = 10**8

# DeformationType and its readers refuse degrees above this: expanding a registered
# closed form costs about n^3 digit operations (31 ms at n = 500, 0.29 s at
# n = 1000, 2-vCPU Xeon), and a Generic type's certificate, run when it is built,
# grows with the degree too.
HALF_DIM_LIMIT = 500

# rr_eval refuses when n * q.bit_length(), about the value's bit length, exceeds
# this: at the limit it takes 0.3 s at n = 500, 0.4 ms at n = 1 (2-vCPU Xeon).
RR_EVAL_BITS_LIMIT = 2**19


class RRPolynomial(_Record):
    """Polynomial sum b_i x^i with exact rational coefficients, b_n > 0.

    The state is ``nums`` and ``den``: the b_i as integer numerators over
    their least common denominator, in lowest terms, which is what
    evaluation uses.  ``coeffs`` makes the b_i as Fractions on demand.
    An immutable record: equal to another with the same ``nums`` and ``den``.
    """

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Sequence):
        if not isinstance(coeffs, (list, tuple)):
            raise DomainError(f"coeffs must be a list or tuple, got {show_value(coeffs)}")
        self._store(*_over_lcm([_coefficient(c, f"coeffs[{i}]") for i, c in enumerate(coeffs)]))

    @classmethod
    def _over(cls, nums: Sequence[int], den: int) -> "RRPolynomial":
        """The polynomial sum (nums[i] / den) x^i, with nums[-1] / den > 0."""
        rr = cls.__new__(cls)
        rr._store(nums, den)
        return rr

    def _store(self, nums: Sequence[int], den: int) -> None:
        g = math.gcd(den, *nums)
        _set(self, "nums", tuple(c // g for c in nums))
        _set(self, "den", den // g)

    @property
    def coeffs(self) -> tuple:
        """The b_i as Fractions."""
        from fractions import Fraction
        return tuple(Fraction(c, self.den) for c in self.nums)

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    def numerator(self, x: int) -> int:
        """den * p(x), by Horner's rule on the integer numerators."""
        acc = 0
        for c in reversed(self.nums):
            acc = acc * x + c
        return acc

    def __reduce__(self):
        return RRPolynomial._over, (self.nums, self.den)

    def _pairs(self) -> list[tuple[int, int]]:
        """The b_i as pairs (num, den) in lowest terms."""
        out = []
        for c in self.nums:
            g = math.gcd(c, self.den)
            out.append((c // g, self.den // g))
        return out

    def __repr__(self) -> str:
        return f"RRPolynomial({[_show_pair(num, den, show_int) for num, den in self._pairs()]})"


def _over_lcm(pairs: Sequence[tuple[int, int]]) -> tuple[list[int], int]:
    """The b_i, given as pairs (num, den) in lowest terms with den > 0, as
    numerators over their least common denominator."""
    if not pairs:
        raise DomainError("coefficient vector must be nonempty")
    num, den = pairs[-1]
    if num <= 0:
        raise DomainError(f"leading coefficient must be positive, got {_show_pair(num, den, show_int)}")
    den = math.lcm(*(d for _, d in pairs))
    return [a * (den // d) for a, d in pairs], den


def _show_pair(num: int, den: int, show) -> str:
    return show(num) if den == 1 else f"{show(num)}/{show(den)}"


class DeformationType(_Record, hidden=("_verdict",)):
    """A kind tag, the half-dimension n, the RR polynomial and its verdict.

    Construction decides what a type may hold: a K3n or Kumn type holds only
    its family's closed form, as ``_closed_form`` expands it, and any other
    ``rr`` raises DomainError.  The Fujiki constant is (2n)! * b_n, read from the
    leading coefficient of ``rr``.  ``_verdict`` is the monotonicity verdict
    for the whole even grid, fixed here: the first event of ``_first_event``
    or its refusal for a Generic type, and (inf, None, None) for K3^[n] and
    Kum^n by a theorem.  Their closed forms are prod_{j<n} (q + 2(shift - j))
    over 2^n n!, times n + 1 for Kum^n, with shift = n + 1 for K3^[n] and n
    for Kum^n.  Every constant 2(shift - j) is positive, so no numerator is
    negative and every coefficient of the step p(q + 2) - p(q) is positive;
    and the values at even q >= 0 are binomials, times n + 1, so integers.
    """

    __slots__ = ("kind", "n", "rr", "_verdict")

    def __init__(self, kind: str, n: int, rr: RRPolynomial):
        if kind not in _KINDS:
            raise DomainError(f"unknown deformation kind {show_value(kind)}")
        require_int("n", n, 1)
        if rr.degree != n:
            raise DomainError(f"RR polynomial must have degree exactly n={show_int(n)}, got degree {rr.degree}")
        _check_degree(n, 0)
        if kind != GENERIC and rr != _closed_form(kind, n):
            raise DomainError(f"{kind} carries a closed-form RR polynomial; explicit coefficients must equal it")
        verdict = _first_event(rr, n) if kind == GENERIC else (math.inf, None, None)
        for name, value in zip(self.__slots__, (kind, n, rr, verdict)):
            _set(self, name, value)

    def __repr__(self) -> str:
        return f"DeformationType({self.kind}, n={self.n})"

    def to_json_dict(self) -> dict:
        coeffs = []
        for i, (num, den) in enumerate(self.rr._pairs()):
            try:
                coeffs.append(_show_pair(num, den, str))
            except ValueError:  # more than sys.get_int_max_str_digits() digits
                text = _show_pair(num, den, show_int)
                raise CapabilityError(f"coeffs[{i}] = {text} cannot be written: str() refuses an integer that long") from None
        return {"kind": self.kind, "n": self.n, "coeffs": coeffs}


def _half_q_binomial(shift: int, n: int) -> list[int]:
    """Coefficients in q of 2^n n! * C(q/2 + shift, n) = prod_{j<n} (q + 2(shift - j))."""
    poly = [1]
    for j in range(n):
        const = 2 * (shift - j)
        poly = [const * a + b for a, b in zip(poly + [0], [0] + poly)]
    return poly


def _check_degree(n: int, count: int) -> None:
    degree = max(n, count - 1)
    if degree > HALF_DIM_LIMIT:
        raise CapabilityError(f"RR polynomial of degree {show_int(degree)} exceeds the half-dimension limit {HALF_DIM_LIMIT}")


def make_type(kind: str, n: int, coeffs: Sequence | None = None) -> DeformationType:
    """Build a deformation type with its RR polynomial.

    K3n requires n >= 1 and Kumn requires n >= 2; Kum^1 is rejected because
    the closed form at n=1 disagrees with the K3 surface polynomial, so a
    2-dimensional "Kum" type would silently produce wrong chi values.
    Generic takes explicit coefficients b_0..b_n with b_n > 0, in a list or
    tuple: ints, strings that Fraction(str) reads (digits a or a/b are read
    without it), or values that Fraction(c) reads; any other coefficient
    raises DomainError.  K3n and Kumn take coefficients only when they equal
    the family's closed form, and give an equal type either way.  Degrees
    above HALF_DIM_LIMIT, and a string or Decimal with a decimal exponent of
    more than four digits, raise CapabilityError before anything is expanded.
    """
    if kind not in _KINDS:
        raise DomainError(f"unknown deformation kind {show_value(kind)}")
    require_int("n", n)
    _check_degree(n, len(coeffs) if isinstance(coeffs, (list, tuple)) else 0)
    if kind == GENERIC and coeffs is None:
        raise DomainError("Generic deformation type needs explicit RR coefficients")
    closed = kind != GENERIC and _closed_form(kind, n)
    return DeformationType(kind, n, closed if coeffs is None else RRPolynomial(coeffs))


@functools.lru_cache(maxsize=None)
def _closed_form(kind: str, n: int) -> RRPolynomial:
    """The closed form of K3n or Kumn at an int n <= HALF_DIM_LIMIT, expanded once
    per (kind, n): at most 2 * HALF_DIM_LIMIT entries, as a refused n is not kept."""
    if kind == K3N:
        if n < 1:
            raise DomainError("K3n requires n >= 1")
        shift, factor = n + 1, 1
    else:
        if n < 2:
            raise DomainError("Kumn requires n >= 2 (Kum^1 is not a registered type)")
        shift, factor = n, n + 1
    return RRPolynomial._over([factor * c for c in _half_q_binomial(shift, n)], 2**n * math.factorial(n))


def rr_eval(t: DeformationType, q: int, *, allow_odd: bool = False) -> int:
    """Evaluate the RR polynomial at q, asserting the result is an integer.

    Registered families live on even lattices, so q must be even; the
    allow_odd escape hatch applies to Generic types only.  A q whose value
    would pass RR_EVAL_BITS_LIMIT bits raises CapabilityError.
    """
    require_int("q", q)
    if type(allow_odd) is not bool:
        raise DomainError(f"allow_odd must be a bool, got {show_value(allow_odd)}")
    if q % 2 != 0 and not (allow_odd and t.kind == GENERIC):
        raise DomainError(f"q must be even (even-lattice convention), got {show_int(q)}")
    if t.n * q.bit_length() > RR_EVAL_BITS_LIMIT:
        raise CapabilityError(f"RR value at a q of {q.bit_length()} bits for n = {t.n} passes the limit {RR_EVAL_BITS_LIMIT} on n * bit_length(q)")
    val, rem = divmod(t.rr.numerator(q), t.rr.den)
    if rem:
        raise ConsistencyError(_message(t.rr, q))
    return val


def _message(rr: RRPolynomial, q: int) -> str:
    """The ConsistencyError message for a q where rr is not an integer."""
    num = rr.numerator(q)
    g = math.gcd(num, rr.den)
    return f"RR value at q={show_int(q)} is {show_int(num // g)}/{show_int(rr.den // g)}, not an integer; the coefficient vector is malformed"


def _taylor_shift(c: list[int], a: int) -> list[int]:
    """c, changed in place into the coefficients of c(x + a)."""
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += a * c[j + 1]
    return c


def _step(nums: Sequence[int]) -> list[int]:
    """The coefficients of S(u) = den * (p(2u + 2) - p(2u)), of degree n - 1."""
    scaled = [c << i for i, c in enumerate(nums)]  # den * p(2u)
    return [a - b for a, b in zip(_taylor_shift(scaled[:], 1), scaled[:-1])]


def _root_bound(s: Sequence[int]) -> int:
    """An integer U >= 0 with s(u) > 0 for every real u > U, given s_d > 0: 0 with
    no negative coefficient, else Fujiwara's bound 2 * max(|s_(d-j)/s_d|^(1/j),
    |s_0/(2 s_d)|^(1/d)) on the moduli of the roots, rounded up to a power of two."""
    if min(s) >= 0:
        return 0
    d = len(s) - 1
    k = 0  # least k with 2^(k*j) >= each ratio
    for j in range(1, d + 1):
        scale = 2 * s[d] if j == d else s[d]
        k = max(k, (abs(s[d - j]).bit_length() - scale.bit_length()) // j)  # no smaller k passes
        while k * j < abs(s[d - j]).bit_length() and scale << (k * j) < abs(s[d - j]):  # no shift past |s_(d-j)|
            k += 1
    return 2 << k


def _first_event(rr: RRPolynomial, n: int) -> tuple[float, type | None, str | None]:
    """The first even q where rr is not an integer, as (q, ConsistencyError, message),
    or is not above its value at q - 2, as (q, None, None), a tie going to the first;
    else (inf, None, None).  A search over MONO_WORK_LIMIT is (0, CapabilityError,
    message): refused from q = 0 on.

    rr, of degree n, is an integer on every even q >= 0 once it is on 0, ..., 2n.
    A drop at q = 2u + 2 is a u with S(u) <= 0 (S of _step), none if every b_i >= 0
    (as for K3^[n] and Kum^n), since then every coefficient of S is positive.
    Else [0, _root_bound(S)] is searched leftmost first, halving integer intervals
    [a, b] on a stack; once S(a) > 0, [a, b] is pruned when S(b) > 0 and Descartes'
    rule finds no sign variation in (1 + x)^d S((a + bx)/(1 + x)), so no root of S
    in (a, b) (Collins and Akritas, SYMSAC 1976); else [a + 1, b] is split.  Each
    interval is charged, before S(b) is evaluated, for its evaluations, its shifts
    and the evaluations of S at its halves' left ends, which are at most b.
    """
    event, hi = (math.inf, None, None), math.inf
    low = RRPolynomial._over([c % rr.den for c in rr.nums], rr.den)  # integral where rr is, with short numerators
    for q in range(0, 2 * n + 1, 2):
        if low.numerator(q) % rr.den:
            event, hi = (q, ConsistencyError, _message(rr, q)), q // 2 - 2
            break
    if min(rr.nums) >= 0:
        return event
    s = _step(rr.nums)
    size, work = max(map(abs, s + list(rr.nums))).bit_length(), 0
    stack = [(0, min(hi, _root_bound(s)))]
    while stack:
        a, b = stack.pop()
        if a > b:
            continue
        if rr.numerator(2 * a + 2) - rr.numerator(2 * a) <= 0:
            return 2 * a + 2, None, None
        if a == b:
            continue
        words = 1 + b.bit_length() // 64
        work += n * (n + 5) * words * (1 + size // 64 + n * words)
        if work > MONO_WORK_LIMIT:
            return 0, CapabilityError, f"isolating the roots of the RR step of degree {n - 1} needs more than {MONO_WORK_LIMIT} operations on 64-bit words"
        if rr.numerator(2 * b + 2) - rr.numerator(2 * b) > 0:
            t = _taylor_shift(s[:], a)
            if min(_taylor_shift([c * (b - a) ** i for i, c in enumerate(t)][::-1], 1)) >= 0:
                continue
        mid = (a + b) // 2
        stack += [(mid + 1, b), (a + 1, mid)]
    return event


def check_strict_monotonic(t: DeformationType, q_max: int) -> bool:
    """True iff rr_eval is strictly increasing on the even grid {0, 2, ..., q_max}.

    The type's verdict, the first event on the whole grid, decides: a value
    not above its predecessor returns False, a non-integral value raises
    ConsistencyError, and a refusal (a Generic step whose isolation passed
    MONO_WORK_LIMIT) raises CapabilityError at any q_max.  Nothing is computed.
    """
    require_int("q_max", q_max, 0)
    q, error, message = t._verdict
    if q <= q_max and error is not None:
        raise error(message)
    return q > q_max


def invert_binomial(value: int, n: int) -> int | None:
    """The unique m >= 1 with C(m+n, n) = value, or None.

    Uniqueness holds because the binomial is strictly increasing in the top
    argument once the top is at least n.  As (m+1)^n <= n! C(m+n, n) <= (m+n)^n,
    m lies in [k - n, k - 1] for k the integer n-th root of n! * value, where a
    bisection finds it.  An n over HALF_DIM_LIMIT, or a value of more bits than
    RR_EVAL_BITS_LIMIT (0.5 s at the limit), raises CapabilityError.
    """
    require_int("n", n, 1)
    require_int("value", value, 1)
    _check_degree(n, 0)
    if value.bit_length() > RR_EVAL_BITS_LIMIT:
        raise CapabilityError(f"binomial inversion of a value of {value.bit_length()} bits passes the limit of {RR_EVAL_BITS_LIMIT} bits")
    k = _iroot(math.factorial(n) * value, n)
    lo, hi = max(k - n, 1), max(k - 1, 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if math.comb(mid + n, n) < value:
            lo = mid + 1
        else:
            hi = mid
    return lo if math.comb(lo + n, n) == value else None


def _iroot(x: int, n: int) -> int:
    """floor(x^(1/n)) for x >= 1.  Newton's iteration in integers falls to the root
    from any start above it; the start is 2^ceil(bits/n), or past 64 bits the root
    of x's leading bits scaled back, which holds about half the root's bits."""
    e = x.bit_length() // n // 2
    r = (_iroot(x >> n * e, n) + 1) << e if e >= 32 else 1 << -(-x.bit_length() // n)
    while (s := ((n - 1) * r + x // r ** (n - 1)) // n) < r:
        r = s
    return r


def deformation_from_json_dict(data: dict) -> DeformationType:
    """The type a deformation object names.  "coeffs" is required for Generic
    and optional for K3n and Kumn, whose coefficients, when present, must equal
    the closed form, as make_type's must."""
    if not isinstance(data, dict) or "kind" not in data or "n" not in data:
        raise StructuralError('deformation JSON must be an object with "kind" and "n"')
    kind = data["kind"]
    n = data["n"]
    if not isinstance(kind, str):
        raise StructuralError(f'deformation "kind" must be a string, got {show_value(kind)}')
    if isinstance(n, bool) or not isinstance(n, int):
        raise StructuralError('deformation "n" must be an integer')
    coeffs = data.get("coeffs")
    if kind != GENERIC:
        t = make_type(kind, n)  # the kind and n are refused as without coeffs
        if coeffs is None:
            return t
    elif coeffs is None:
        raise StructuralError('Generic deformation JSON needs a "coeffs" array')
    coeffs = as_array(coeffs, "deformation.coeffs")
    _check_degree(n, len(coeffs))
    pairs = [_json_coefficient(c, f"deformation.coeffs[{i}]") for i, c in enumerate(coeffs)]
    return DeformationType(kind, n, RRPolynomial._over(*_over_lcm(pairs)))


def _json_coefficient(c, path: str) -> tuple[int, int]:
    """A JSON number, or a string such as "5/4", as (num, den)."""
    if type(c) is int:  # str() refuses an int of more than sys.get_int_max_str_digits() digits
        return c, 1
    try:
        text = str(c)
    except ValueError:  # a list holding such an int; read as "", which is refused
        text = ""
    pair = _read_pair(text, path)
    if pair is None:
        raise StructuralError(f"{path} must be a rational number, got {show_value(c)}")
    return pair


def _coefficient(c, path: str) -> tuple[int, int]:
    """A library coefficient as (num, den): an int is exact, a string is read
    by _read_pair, and any other value goes through Fraction(c)."""
    if isinstance(c, int):
        return int(c), 1
    if isinstance(c, str):
        pair = _read_pair(c, path)
    else:
        from decimal import Decimal
        from fractions import Fraction
        # Fraction(c) expands a Decimal's exponent, as it does a string's
        if isinstance(c, Decimal) and c.is_finite() and abs(c.as_tuple().exponent) >= 10**4:
            raise CapabilityError(f"{path} has a decimal exponent of more than four digits, got {c!r}")
        try:
            f = Fraction(c)
            pair = f.numerator, f.denominator
        except (TypeError, ValueError, OverflowError):  # None or a list; nan; inf
            pair = None
    if pair is None:
        raise DomainError(f"{path} must be a rational number, got {show_value(c)}")
    return pair


def _read_pair(text: str, path: str) -> tuple[int, int] | None:
    """text as Fraction(text) reads it, as (num, den) in lowest terms with
    den > 0, or None where Fraction refuses it.

    A decimal exponent of more than four digits raises CapabilityError first.
    Decimal digits a or a/b, with surrounding whitespace and an optional sign,
    are read here, so the usual coefficients never import fractions; every
    other string goes to Fraction(text).
    """
    # Fraction expands the exponent: 10**(10**6) takes 0.24 s, 10**(10**7) 12 s on a 2-vCPU Xeon
    exponent = text.lower().partition("e")[2].replace("_", "").lstrip("+-0")
    if exponent.isdecimal() and len(exponent) > 4:
        raise CapabilityError(f"{path} has a decimal exponent of more than four digits, got {show_value(text)}")
    s = text.strip()
    whole, slash, den_text = (s[1:] if s[:1] in ("+", "-") else s).partition("/")
    try:
        if not (whole.isdecimal() and (den_text.isdecimal() or not slash)):
            from fractions import Fraction
            f = Fraction(text)
            return f.numerator, f.denominator
        num, den = int(whole), int(den_text) if slash else 1
    except (ValueError, ZeroDivisionError):  # unreadable, more than sys.get_int_max_str_digits() digits, or a/0
        return None
    if den == 0:
        return None
    if s[:1] == "-":
        num = -num
    g = math.gcd(num, den)
    return num // g, den // g
