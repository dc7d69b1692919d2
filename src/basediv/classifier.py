"""Base-divisor classification for big-and-nef classes.

A big-and-nef class H carries a base divisor exactly when it decomposes as
H = m*L + F with m >= 2, L a primitive isotropic movable class, F a declared
prime-exceptional class with (L, F) > 0, and chi = RR(q(H)) equal to the
binomial C(m+n, n).  Because L is primitive, m is the content of H - F (the
gcd of its coordinates), confirmed by chi: C(m+n, n) is strictly increasing
in m.  The nef check leaves the row of pairings (H, D) over the declared
peds, and since H - F = m*L every pairing (L, x) = ((H, x) - (F, x))/m is
read from it and from F's row of the context's ped table, which holds
(F, ample) and every (F, D): L is isotropic iff q(H) - 2(H, F) + q(F) = 0,
tested first for each ped F, and membership in the declared
birational-Kaehler closure (movability) is compared on those scalars, with
no pairing computed.

The classifier refuses to run unless the context certifies its hypotheses:
``strong_rlf`` must be declared and the RR polynomial must be strictly
monotonic up to q(H).  At most one decomposition can exist for genuine
geometric data; if the declared data admits two, that inconsistency is
reported loudly rather than silently picking one.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from operator import gt, mul, sub

from .cones import GeometricContext, _Record, _set, in_bk_closure
from .errors import BasedivError, CapabilityError, ConsistencyError, DomainError, HypothesisError, show_int, show_vec
from .lattice import (
    Vec,
    divisibility,
    is_primitive,
    pairing,
    square,
    vec_add,
    vec_is_zero,
    vec_scale,
)
from .riemann_roch import (
    DeformationType,
    check_strict_monotonic,
    invert_binomial,
    rr_eval,
)

# kumn_nonexistence_search refuses when its (n, m, d, q_F) case count times
# the largest n (the cost of one binomial grows with n) exceeds this.
KUMN_SEARCH_LIMIT = 10**8
# nl_numerical_types refuses when its window holds more (m, d, q_F) types.
NL_TYPES_LIMIT = 10**5


class Decomposition(_Record):
    """The certificate H = m*L + F for a classified base divisor.

    d = (L, F) > 0; for even lattices the divisibility chain forces
    -q(F) <= 2*div(F) <= 2*d.
    """

    __slots__ = ("m", "L", "F", "d")

    def __init__(self, m: int, L: Vec, F: Vec, d: int):
        _set(self, "m", m)
        _set(self, "L", L)
        _set(self, "F", F)
        _set(self, "d", d)

    def to_json_dict(self) -> dict:
        return {"m": self.m, "L": list(self.L), "F": list(self.F), "d": self.d}


class NumericalNLType(_Record):
    """Numerical invariants (m, d, q(F)) of a potential base-divisor locus."""

    __slots__ = ("m", "d", "qF")

    def __init__(self, m: int, d: int, qF: int):
        _set(self, "m", m)
        _set(self, "d", d)
        _set(self, "qF", qF)

    def to_json_dict(self) -> dict:
        return {"m": self.m, "d": self.d, "q_F": self.qF}


def classify(ctx: GeometricContext, H: Iterable[int]) -> Decomposition | None:
    """Decide whether the big-and-nef class H carries a base divisor.

    Returns the unique Decomposition, or None when H is base-divisor free
    relative to the declared context data.
    """
    _require_hypotheses(ctx)
    return _classify(ctx, ctx.lat.vector(H))[2]


def _require_hypotheses(ctx: GeometricContext) -> None:
    if ctx.dtype is None:
        raise HypothesisError("context declares no deformation type; RR data is required")
    if not ctx.strong_rlf:
        raise HypothesisError(
            "context does not certify the Lagrangian-fibration hypothesis (strong_rlf);"
            " refusing to classify rather than guess"
        )


def _classify(ctx: GeometricContext, h_vec: Vec) -> tuple[int, int, Decomposition | None]:
    """q(H), chi = RR(q(H)) and the decomposition (or None) of a checked class
    h_vec, on a context that meets the hypotheses; the one classify run
    behind classify and classification_report.

    H must be big and nef against the declared data: q(H) > 0, (H, ample) > 0
    and (H, D) >= 0 for every declared ped and wall, the first negative
    pairing reported in ped-then-wall order.
    """
    r = ctx.lat.rank
    # G*H, then (H, ample), the (H, D_i) and the (H, W_j): see GeometricContext.rows
    pairs = [sum(map(mul, h_vec, g)) for g in ctx.rows]
    q_h = sum(map(mul, h_vec, pairs))  # map stops after the r entries of G*H
    if q_h <= 0:
        raise DomainError(f"H is not big: q(H) = {show_int(q_h)} must be positive")
    p_h = pairs[r]
    if p_h <= 0:
        raise DomainError(f"(H, ample) = {show_int(p_h)} must be positive")
    pairings = pairs[r + 1:]
    if min(pairings, default=0) < 0:
        p, d = next((p, d) for p, d in zip(pairings, ctx.peds + ctx.walls) if p < 0)
        raise DomainError(f"H is not nef against the declared classes: (H, {show_vec(d)}) = {show_int(p)} < 0")
    if not check_strict_monotonic(ctx.dtype, q_h):
        raise HypothesisError(
            f"RR polynomial of {ctx.dtype!r} is not strictly monotonic up to q(H) = {show_int(q_h)};"
            " refusing to classify"
        )
    n = ctx.dtype.n
    chi = rr_eval(ctx.dtype, q_h)
    matches: list[Decomposition] = []
    # H - F = m*L, so (L, x) = ((H, x) - (F, x))/m: every test reads the (H, D)
    # and F's row of the ped table (zip and map stop before the (H, W))
    for f_vec, q_f, h_f, f_row in zip(ctx.peds, ctx.q_peds, pairings, ctx.ped_table):
        if q_h - 2 * h_f + q_f != 0:  # m^2 q(L)
            continue
        diff = tuple(map(sub, h_vec, f_vec))
        # L is primitive, so m is the content of H - F (0 when H = F)
        m = math.gcd(*diff)
        if m < 2 or math.comb(m + n, n) != chi:
            continue
        # L is isotropic and nonzero, so it lies in the closure iff (L, ample) > 0
        # and (L, D) >= 0 for every declared ped D
        if f_row[0] >= p_h or any(map(gt, f_row[1:], pairings)):
            continue
        # q(H) = 2md + q(F) with q(H) > 0 > q(F) and m >= 2 forces d > 0
        dec = Decomposition(m, tuple(c // m for c in diff), f_vec, (h_f - q_f) // m)
        if dec not in matches:
            matches.append(dec)
    if len(matches) > 1:
        raise ConsistencyError(
            f"declared context admits {len(matches)} distinct decompositions of"
            f" {show_vec(h_vec)}; the fixed divisor must be unique, so the declared"
            " ped data is inconsistent"
        )
    return q_h, chi, matches[0] if matches else None


def verify_decomposition(ctx: GeometricContext, H: Iterable[int], dec: Decomposition) -> bool:
    """Re-validate every decomposition invariant from scratch.

    Deliberately reuses nothing from classify: each stated condition is
    re-derived directly.
    """
    if ctx.dtype is None:
        return False
    lat = ctx.lat
    try:
        h_vec = lat.vector(H)
        l_vec = lat.vector(dec.L)
        f_vec = lat.vector(dec.F)
    except BasedivError:
        return False
    if dec.m < 2:
        return False
    if h_vec != vec_add(vec_scale(dec.m, l_vec), f_vec):
        return False
    if vec_is_zero(l_vec) or square(lat, l_vec) != 0 or not is_primitive(lat, l_vec):
        return False
    if f_vec not in ctx.peds:
        return False
    q_f = square(lat, f_vec)
    if q_f >= 0:
        return False
    if dec.d != pairing(lat, l_vec, f_vec) or dec.d <= 0:
        return False
    two_div = 2 * divisibility(lat, f_vec)
    if not (-q_f <= two_div <= 2 * dec.d):
        return False
    q_h = square(lat, h_vec)
    try:
        chi = rr_eval(ctx.dtype, q_h)
    except BasedivError:
        return False
    if chi != math.comb(dec.m + ctx.dtype.n, ctx.dtype.n):
        return False
    if not in_bk_closure(ctx, l_vec):
        return False
    return True


def check_2H(ctx: GeometricContext, H: Iterable[int]) -> bool:
    """For a classified H, confirm that 2H carries no base divisor.

    Always true for consistent data; a False return certifies that the
    declared context contradicts the doubling property.
    """
    h_vec = ctx.lat.vector(H)
    if classify(ctx, h_vec) is None:
        raise DomainError("check_2H applies to classes that do carry a base divisor")
    return classify(ctx, vec_scale(2, h_vec)) is None


# ---------------------------------------------------------------------------
# Kum^n non-existence

def kumn_case1_solutions(n: int, m_max: int) -> list[int]:
    """All m in [1, m_max] with (n+1) * C(m-1+n, n) == C(m+n, n).

    Cross-multiplying reduces the identity to n*(m-1) == 0, so the unique
    solution is m = 1, returned without a sweep.
    """
    if n < 1:
        raise DomainError("n must be positive")
    if m_max < 1:
        raise DomainError("m_max must be positive")
    return [1]


def kumn_nonexistence_search(
    n_range: Iterable[int], m_range: Iterable[int], d_range: Iterable[int]
) -> list[tuple[int, int, int, int]]:
    """Exhaustively search for Kum^n base-divisor numerical types; expect none.

    For each (n, m, d) the candidate q(H) = 2*m*d + q(F) runs over the
    admissible window (q(F) negative even with 2*d + q(F) >= 0, and
    q(F) = -2 forced when d = 1), and the Kum^n chi value is compared with
    C(m+n, n).  Returns all solutions found, as tuples (n, m, d, qF).
    """
    n_vals = list(n_range)
    m_vals = list(m_range)
    d_vals = list(d_range)
    if any(n < 2 for n in n_vals):
        raise DomainError("Kum^n requires n >= 2")
    if any(m < 2 for m in m_vals):
        raise DomainError("base-divisor multiplicities start at m = 2")
    if any(d < 1 for d in d_vals):
        raise DomainError("d = (L, F) must be positive")
    cases = len(n_vals) * len(m_vals) * sum(d_vals)
    work = cases * max(n_vals, default=0)
    if work > KUMN_SEARCH_LIMIT:
        raise CapabilityError(
            f"Kum^n search over {cases} (n, m, d, q_F) cases up to n = {max(n_vals)} costs {work};"
            f" the limit on cases * max(n) is {KUMN_SEARCH_LIMIT}"
        )
    hits: list[tuple[int, int, int, int]] = []
    for n in n_vals:
        for m in m_vals:
            for d in d_vals:
                if d == 1:
                    q_h = 2 * (m - 1)
                    if (n + 1) * math.comb(m - 1 + n, n) == math.comb(m + n, n):
                        hits.append((n, m, 1, -2))
                    continue
                for q_f in range(-2 * d, 0, 2):
                    q_h = 2 * m * d + q_f
                    # d >= 2 forces q(H) >= 4(m-1); anything else is a bug
                    assert q_h >= 4 * (m - 1)
                    if (n + 1) * math.comb(q_h // 2 + n, n) == math.comb(m + n, n):
                        hits.append((n, m, d, q_f))
    return hits


# ---------------------------------------------------------------------------
# numerical Noether-Lefschetz types

def nl_numerical_types(dtype: DeformationType, q_h: int) -> list[NumericalNLType]:
    """Enumerate the numerical types (m, d, qF) compatible with q(H) = q_h.

    Constraints: RR(q_h) = C(m+n, n) with m >= 2 (m unique by inversion),
    d >= 1, qF negative even, q_h = 2*m*d + qF and 2*d + qF >= 0.  For
    K3^[n] this always collapses to the single type (q_h/2 + 1, 1, -2); for
    Kum^n the list is empty.  No lattice embeddings or moduli data are
    produced, only the numbers.
    """
    if isinstance(q_h, bool) or not isinstance(q_h, int):
        raise DomainError(f"q_h must be an integer, got {q_h!r}")
    if q_h <= 0 or q_h % 2 != 0:
        raise DomainError(f"q_h must be a positive even integer, got {show_int(q_h)}")
    chi = rr_eval(dtype, q_h)
    if chi < 1:
        return []
    m = invert_binomial(chi, dtype.n)
    if m is None or m < 2:
        return []
    # q_F = q_h - 2*m*d < 0 and 2*d + q_F >= 0 hold exactly on this window of d
    lo, hi = q_h // (2 * m) + 1, q_h // (2 * (m - 1))
    if hi - lo + 1 > NL_TYPES_LIMIT:
        raise CapabilityError(
            f"q(H) = {show_int(q_h)} admits {show_int(hi - lo + 1)} numerical types (m = {show_int(m)});"
            f" the limit is {NL_TYPES_LIMIT}"
        )
    return [NumericalNLType(m=m, d=d, qF=q_h - 2 * m * d) for d in range(lo, hi + 1)]


def classification_report(ctx: GeometricContext, H: Iterable[int]) -> dict:
    """JSON-ready report of one classify run with its certificates."""
    h_vec = ctx.lat.vector(H)
    _require_hypotheses(ctx)
    q_h, chi, dec = _classify(ctx, h_vec)
    return {
        "q_H": q_h,
        "rr_value": chi,
        "has_base_divisor": dec is not None,
        "decomposition": dec.to_json_dict() if dec is not None else None,
        "certificates": {
            "monotonic": True,  # the run refuses an RR polynomial not certified up to q(H)
            "strong_rlf": ctx.strong_rlf,
        },
    }
