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
exact arithmetic.  Fractions are made on demand, only where a rational is
parsed or shown, so a command on a registered type never imports
``fractions`` and ``decimal`` (about 3 ms of start-up on a 2-vCPU Xeon host).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

from .errors import CapabilityError, ConsistencyError, DomainError, StructuralError, show_int, show_value
from .lattice import as_array

K3N = "K3n"
KUMN = "Kumn"
GENERIC = "Generic"

_KINDS = (K3N, KUMN, GENERIC)

# The monotonicity walk refuses to visit more even grid points than this.
# Only a Generic polynomial with a huge root bound and a huge q(H) gets near.
MONO_WALK_LIMIT = 10**6

# make_type refuses degrees above this: expanding and certifying the polynomial
# costs about n^3 digit operations (0.25 s at n = 500, 1.5 s at n = 1000).
HALF_DIM_LIMIT = 500

# rr_eval refuses when n * q.bit_length(), about the value's bit length, exceeds
# this: at the limit it takes 0.3 s at n = 500, 0.4 ms at n = 1 (2-vCPU Xeon).
RR_EVAL_BITS_LIMIT = 2**19

_UNSET = object()


class RRPolynomial:
    """Polynomial sum b_i x^i with exact rational coefficients, b_n > 0.

    The state is ``nums`` and ``den``: the b_i as integer numerators over
    their least common denominator, which is what evaluation uses.
    ``coeffs`` makes the b_i as Fractions on demand.  ``root_bound`` is an
    integer B >= 0 such that the step p(q + 2) - p(q) is positive for every
    real q > B.
    """

    __slots__ = ("nums", "den", "root_bound")

    def __init__(self, coeffs: Iterable):
        from fractions import Fraction
        cs = tuple(Fraction(c) for c in coeffs)
        if not cs:
            raise DomainError("coefficient vector must be nonempty")
        if cs[-1] <= 0:
            lead = cs[-1]
            shown = show_int(lead.numerator) + ("" if lead.denominator == 1 else f"/{show_int(lead.denominator)}")
            raise DomainError(f"leading coefficient must be positive, got {shown}")
        self.den = math.lcm(*(c.denominator for c in cs))
        self.nums = tuple(c.numerator * (self.den // c.denominator) for c in cs)
        self.root_bound = _step_root_bound(self.nums)

    @classmethod
    def _over(cls, nums: Sequence[int], den: int) -> "RRPolynomial":
        """The polynomial sum (nums[i] / den) x^i, with nums[-1] / den > 0,
        stored in lowest terms as __init__ stores it."""
        g = math.gcd(den, *nums)
        rr = cls.__new__(cls)
        rr.den = den // g
        rr.nums = tuple(c // g for c in nums)
        rr.root_bound = _step_root_bound(rr.nums)
        return rr

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

    def __call__(self, x: int):
        """p(x) as a Fraction."""
        from fractions import Fraction
        return Fraction(self.numerator(x), self.den)

    def __eq__(self, other) -> bool:
        return isinstance(other, RRPolynomial) and self.nums == other.nums and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    def __repr__(self) -> str:
        return f"RRPolynomial({[str(c) for c in self.coeffs]})"


def _step_root_bound(nums: Sequence[int]) -> int:
    """An integer B >= 0 with p(q + 2) - p(q) > 0 for every real q > B.

    The step polynomial a_d x^d + ... + a_0 (d = n - 1, a_d = 2n * den * b_n
    > 0) is found by a Taylor shift of the numerators.  With no negative
    coefficient it is positive for q > 0, so B = 0.  Otherwise B is
    Fujiwara's bound 2 * max(|a_(d-j)/a_d|^(1/j), |a_0/(2 a_d)|^(1/d)) on the
    moduli of all its roots, rounded up to a power of two so that it is
    found in integers.
    """
    shifted = list(nums)
    n = len(nums) - 1
    for i in range(n):  # shifted becomes the numerators of p(x + 2)
        for j in range(n - 1, i - 1, -1):
            shifted[j] += 2 * shifted[j + 1]
    step = [a - b for a, b in zip(shifted[:-1], nums)]
    if all(a >= 0 for a in step):
        return 0
    d = len(step) - 1
    lead = step[-1]
    k = 0  # least k with 2^(k*j) >= each ratio
    for j in range(1, d + 1):
        need = abs(step[d - j])
        scale = 2 * lead if j == d else lead
        while scale << (k * j) < need:
            k += 1
    return 2 << k


class DeformationType:
    """Registry entry: a kind tag, the half-dimension n, and the RR polynomial.

    The Fujiki constant is informational, a Fraction; when not supplied it
    is derived on demand from the leading coefficient via C_X = (2n)! * b_n.
    The only other state is the monotonicity verdict for the whole even grid,
    a pure function of the polynomial that ``check_strict_monotonic`` writes
    once, the first time it is asked about a q_max at or beyond the horizon.
    """

    __slots__ = ("kind", "n", "rr", "_fujiki", "_verdict")

    def __init__(self, kind: str, n: int, rr: RRPolynomial, fujiki=None):
        if kind not in _KINDS:
            raise DomainError(f"unknown deformation kind {kind!r}")
        if n < 1:
            raise DomainError("half-dimension n must be a positive integer")
        if rr.degree != n:
            raise DomainError(f"RR polynomial must have degree exactly n={n}, got degree {rr.degree}")
        if fujiki is not None:
            from fractions import Fraction
            fujiki = Fraction(fujiki)
            if fujiki <= 0:
                raise DomainError("Fujiki constant must be positive")
        self.kind = kind
        self.n = n
        self.rr = rr
        self._fujiki = fujiki
        self._verdict = _UNSET

    @property
    def fujiki(self):
        """The Fujiki constant as a Fraction."""
        if self._fujiki is not None:
            return self._fujiki
        from fractions import Fraction
        return Fraction(math.factorial(2 * self.n) * self.rr.nums[-1], self.rr.den)

    def __repr__(self) -> str:
        return f"DeformationType({self.kind}, n={self.n})"

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "coeffs": [str(c) for c in self.rr.coeffs],
        }


def _half_q_binomial(shift: int, n: int) -> list[int]:
    """Coefficients in q of 2^n n! * C(q/2 + shift, n) = prod_{j<n} (q + 2(shift - j))."""
    poly = [1]
    for j in range(n):
        const = 2 * (shift - j)
        poly = [const * a + b for a, b in zip(poly + [0], [0] + poly)]
    return poly


_registry: dict[tuple[str, int], DeformationType] = {}


def make_type(kind: str, n: int, coeffs: Sequence | None = None, fujiki=None) -> DeformationType:
    """Build (or fetch) a deformation type with its RR polynomial.

    K3n requires n >= 1 and Kumn requires n >= 2; Kum^1 is rejected because
    the closed form at n=1 disagrees with the K3 surface polynomial, so a
    2-dimensional "Kum" type would silently produce wrong chi values.
    Generic takes explicit coefficients b_0..b_n with b_n > 0.  Degrees above
    HALF_DIM_LIMIT raise CapabilityError before anything is expanded.
    """
    degree = max(n, len(coeffs or ()) - 1)
    if degree > HALF_DIM_LIMIT:
        raise CapabilityError(f"RR polynomial of degree {degree} exceeds the half-dimension limit {HALF_DIM_LIMIT}")
    if kind == GENERIC:
        if coeffs is None:
            raise DomainError("Generic deformation type needs explicit RR coefficients")
        rr = RRPolynomial(coeffs)
        return DeformationType(GENERIC, n, rr, fujiki)
    if coeffs is not None:
        raise DomainError(f"{kind} carries a closed-form RR polynomial; explicit coefficients are not accepted")
    key = (kind, n)
    if fujiki is None and key in _registry:
        return _registry[key]
    if kind == K3N:
        if n < 1:
            raise DomainError("K3n requires n >= 1")
        shift, factor = n + 1, 1
    elif kind == KUMN:
        if n < 2:
            raise DomainError("Kumn requires n >= 2 (Kum^1 is not a registered type)")
        shift, factor = n, n + 1
    else:
        raise DomainError(f"unknown deformation kind {kind!r}")
    rr = RRPolynomial._over([factor * c for c in _half_q_binomial(shift, n)], 2**n * math.factorial(n))
    t = DeformationType(kind, n, rr, fujiki)
    if fujiki is None:
        _registry[key] = t
    return t


def rr_eval(t: DeformationType, q: int, *, allow_odd: bool = False) -> int:
    """Evaluate the RR polynomial at q, asserting the result is an integer.

    Registered families live on even lattices, so q must be even; the
    allow_odd escape hatch applies to Generic types only.  A q whose value
    would pass RR_EVAL_BITS_LIMIT bits raises CapabilityError.
    """
    if isinstance(q, bool) or not isinstance(q, int):
        raise DomainError(f"q must be an integer, got {q!r}")
    if q % 2 != 0 and not (allow_odd and t.kind == GENERIC):
        raise DomainError(f"q must be even (even-lattice convention), got {show_int(q)}")
    if t.n * q.bit_length() > RR_EVAL_BITS_LIMIT:
        raise CapabilityError(f"RR value at a q of {q.bit_length()} bits for n = {t.n} passes the limit {RR_EVAL_BITS_LIMIT} on n * bit_length(q)")
    return _value(t.rr, q)


def _value(rr: RRPolynomial, q: int) -> int:
    num = rr.numerator(q)
    val, rem = divmod(num, rr.den)
    if rem:
        g = math.gcd(num, rr.den)
        raise ConsistencyError(
            f"RR value at q={show_int(q)} is {show_int(num // g)}/{show_int(rr.den // g)}, not an integer;"
            " the coefficient vector is malformed"
        )
    return val


def _first_event(rr: RRPolynomial, upto: int) -> tuple[int, str | None] | None:
    """The first even q in [0, upto] where rr is not an integer, as
    (q, message), or is not above its value at q - 2, as (q, None)."""
    prev = None
    for q in range(0, upto + 1, 2):
        try:
            val = _value(rr, q)
        except ConsistencyError as exc:
            return q, str(exc)
        if prev is not None and val <= prev:
            return q, None
        prev = val
    return None


def check_strict_monotonic(t: DeformationType, q_max: int) -> bool:
    """True iff rr_eval is strictly increasing on the even grid {0, 2, ..., q_max}.

    Walks the grid in order, so the first event wins: a value not above its
    predecessor returns False, a non-integral value raises ConsistencyError.
    No event lies beyond the horizon max(2n, B + 2), with B the root bound of
    the step p(q + 2) - p(q): p takes integer values on every even q >= 0 once
    it does at 0, 2, ..., 2n, and the step is positive above B.  Once q_max
    reaches the horizon the verdict for the whole grid is computed and kept
    on the type, so the cost does not grow with q_max and repeat calls are
    O(1); below the horizon only the grid up to q_max is walked.
    """
    if q_max < 0:
        raise DomainError("q_max must be nonnegative")
    q_max -= q_max % 2
    if t._verdict is _UNSET:
        horizon = max(2 * t.n, t.rr.root_bound + 2)
        upto = min(q_max, horizon)
        if upto // 2 + 1 > MONO_WALK_LIMIT:
            raise CapabilityError(
                f"certifying RR monotonicity up to q = {upto} walks {upto // 2 + 1} grid points;"
                f" the limit is {MONO_WALK_LIMIT}"
            )
        if upto < horizon:
            event = _first_event(t.rr, upto)
        else:
            event = t._verdict = _first_event(t.rr, horizon)
    else:
        event = t._verdict
    if event is None or event[0] > q_max:
        return True
    if event[1] is not None:
        raise ConsistencyError(event[1])
    return False


def invert_binomial(value: int, n: int) -> int | None:
    """The unique m >= 1 with C(m+n, n) = value, or None.

    Uniqueness holds because the binomial is strictly increasing in the top
    argument once the top is at least n.
    """
    if n < 1:
        raise DomainError("n must be a positive integer")
    if value < 1:
        raise DomainError("value must be a positive integer")
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


def deformation_from_json_dict(data: dict) -> DeformationType:
    if not isinstance(data, dict) or "kind" not in data or "n" not in data:
        raise StructuralError('deformation JSON must be an object with "kind" and "n"')
    kind = data["kind"]
    n = data["n"]
    if not isinstance(kind, str):
        raise StructuralError(f'deformation "kind" must be a string, got {show_value(kind)}')
    if isinstance(n, bool) or not isinstance(n, int):
        raise StructuralError('deformation "n" must be an integer')
    if kind == GENERIC:
        coeffs = data.get("coeffs")
        if coeffs is None:
            raise StructuralError('Generic deformation JSON needs a "coeffs" array')
        coeffs = as_array(coeffs, "deformation.coeffs")
        return make_type(GENERIC, n, coeffs=[_fraction(c, f"deformation.coeffs[{i}]") for i, c in enumerate(coeffs)])
    return make_type(kind, n)


def _fraction(c, path: str):
    """c as a Fraction; c is a JSON number or a string such as "5/4"."""
    from fractions import Fraction
    if type(c) is int:  # str() refuses an int of more than sys.get_int_max_str_digits() digits
        return Fraction(c)
    try:
        text = str(c)
        # Fraction expands the exponent: 10**(10**6) takes 0.24 s, 10**(10**7) 12 s on a 2-vCPU Xeon
        exponent = text.lower().partition("e")[2].lstrip("+-0")
        if exponent.isdecimal() and len(exponent) > 4:
            raise CapabilityError(f"{path} has a decimal exponent of more than four digits, got {c!r}")
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise StructuralError(f"{path} must be a rational number, got {show_value(c)}") from None
