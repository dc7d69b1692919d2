"""Brute-force verifiers, deliberately independent of the main code paths.

Everything here re-derives results by exhaustive enumeration or by direct
product formulas, sharing only the lattice pairing primitive (and plain data
containers) with the rest of the package, which does not import this module.
Exponentially slower by design; capability guards keep the classify sweep at
desk scale, and the Kum^n and rank-2 sweeps run on the boxes they are given.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from itertools import product

from .classifier import Decomposition
from .cones import GeometricContext
from .errors import CapabilityError, DomainError
from .lattice import Vec, pairing
from .riemann_roch import K3N, KUMN, DeformationType

ORACLE_RANK_LIMIT = 3
ORACLE_BOX_LIMIT = 8


def oracle_rr(dtype: DeformationType, q: int) -> int:
    """chi via the explicit numerator product and one exact division.

    No polynomial expansion: the generalized binomial is computed as the
    product of n consecutive integers divided by n!, which is always exact.
    """
    if q % 2 != 0:
        raise DomainError(f"q must be even, got {q}")
    n = dtype.n
    half = q // 2
    if dtype.kind == K3N:
        top = half + n + 1
        factor = 1
    elif dtype.kind == KUMN:
        top = half + n
        factor = n + 1
    else:
        raise DomainError("no closed product form is registered for Generic types")
    num = 1
    for j in range(n):
        num *= top - j
    val, rem = divmod(num, math.factorial(n))
    assert rem == 0  # n consecutive integers are divisible by n!
    return factor * val


def oracle_classify(ctx: GeometricContext, H: Iterable[int], coeff_bound: int) -> list[Decomposition]:
    """Enumerate every decomposition H = m*L + F in a coefficient box.

    All conditions are checked directly per candidate with no shortcut:
    m runs over [2, (H, ample)] (a movable integral L on the ample side has
    (L, ample) >= 1, so larger m cannot occur), F over the declared peds and
    L over the whole box.  Returns every match.
    """
    lat = ctx.lat
    if lat.rank > ORACLE_RANK_LIMIT:
        raise CapabilityError(f"oracle sweep limited to rank <= {ORACLE_RANK_LIMIT}, got {lat.rank}")
    if not 1 <= coeff_bound <= ORACLE_BOX_LIMIT:
        raise CapabilityError(f"oracle box limited to coefficient bound <= {ORACLE_BOX_LIMIT}")
    if ctx.dtype is None:
        raise DomainError("oracle classification needs the context's deformation type")
    h_vec = lat.vector(H)
    q_h = pairing(lat, h_vec, h_vec)
    if q_h <= 0:
        raise DomainError(f"H is not big: q(H) = {q_h}")
    h_pair = pairing(lat, h_vec, ctx.ample)
    if h_pair <= 0:
        raise DomainError(f"(H, ample) = {h_pair} must be positive")
    for d in ctx.peds + ctx.walls:
        if pairing(lat, h_vec, d) < 0:
            raise DomainError(f"H is not nef against declared class {list(d)}")
    n = ctx.dtype.n
    chi = oracle_rr(ctx.dtype, q_h)
    box = list(product(range(-coeff_bound, coeff_bound + 1), repeat=lat.rank))
    found: list[Decomposition] = []
    for m in range(2, h_pair + 1):
        for f_vec in ctx.peds:
            for l_vec in box:
                if any(m * l + f != h for l, f, h in zip(l_vec, f_vec, h_vec)):
                    continue
                if all(c == 0 for c in l_vec):
                    continue
                if pairing(lat, l_vec, l_vec) != 0:
                    continue
                if math.gcd(*l_vec) != 1:
                    continue
                d = pairing(lat, l_vec, f_vec)
                if d <= 0:
                    continue
                if pairing(lat, l_vec, ctx.ample) <= 0:
                    continue
                if any(pairing(lat, l_vec, p) < 0 for p in ctx.peds):
                    continue
                if chi != math.comb(m + n, n):
                    continue
                found.append(Decomposition(m=m, L=tuple(l_vec), F=f_vec, d=d))
    return found


def oracle_kumn_search(
    n_range: Iterable[int], m_range: Iterable[int], d_range: Iterable[int]
) -> list[tuple[int, int, int, int]]:
    """Exhaustively search for Kum^n base-divisor numerical types; expect none.

    For each (n, m, d) the candidate q(H) = 2*m*d + q(F) runs over the
    admissible window (q(F) negative even with 2*d + q(F) >= 0, and
    q(F) = -2 forced when d = 1), and the Kum^n chi value is compared with
    C(m+n, n).  Returns all solutions found, as tuples (n, m, d, qF).
    """
    hits: list[tuple[int, int, int, int]] = []
    for n in n_range:
        for m in m_range:
            for d in d_range:
                if d == 1:
                    if (n + 1) * math.comb(m - 1 + n, n) == math.comb(m + n, n):
                        hits.append((n, m, 1, -2))
                    continue
                for q_f in range(-2 * d, 0, 2):
                    q_h = 2 * m * d + q_f
                    if (n + 1) * math.comb(q_h // 2 + n, n) == math.comb(m + n, n):
                        hits.append((n, m, d, q_f))
    return hits


def oracle_rank2_scan(bound: int) -> list[Vec]:
    """Sweep the box |a|, |b| <= bound of the hyperbolic plane for q(a, b) < 0
    and |2ab|/2 <= gcd(a, b)."""
    out = []
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            if a * b < 0 and -a * b <= math.gcd(a, b):  # q(a, b) = 2ab on U
                out.append((a, b))
    return out
