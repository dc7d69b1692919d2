"""Cone predicates and prime-exceptional reflections over a declared context.

A :class:`GeometricContext` fixes an integral lattice, an ample class h with
q(h) > 0, and finite declared sets of prime-exceptional divisor classes
("peds") and wall classes.  The divisor data is *declared input*: deciding
which classes are actually effective or uniruled needs geometry that a Gram
matrix cannot see, so every predicate here is exact relative to the declared
sets.  With an incomplete ped list the birational-Kaehler-closure test is
correct on the necessary side only; completeness is the caller's burden.

Each declared ped D must satisfy q(D) < 0, primitivity, (h, D) > 0 and the
divisibility condition q(D) | 2*div(D).  The last condition is exactly what
makes every reflection

    R_D(a) = a - (2(D,a)/q(D)) * D

integral on the whole lattice, and it is re-checked at runtime.

``reflect_into_bk`` walks a nonnegative-square class into the region pairing
nonnegatively with all declared peds by reflecting in the first violated ped.
The pairing against the ample class is a strictly decreasing sequence of
positive integers along the walk, so termination is guaranteed; the walk
records the step multiplicities, which reconstruct the input exactly.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Iterable, Sequence
from operator import mul

from .errors import BasedivError, CapabilityError, ConsistencyError, DomainError, IntegralityError, StructuralError, require_int, show_int, show_value, show_vec
from .lattice import (
    Lattice,
    Vec,
    _Record,
    _set,
    as_array,
    dot,
    enumerate_vectors,
    gram_image,
)
from .riemann_roch import DeformationType, deformation_from_json_dict

# rank2_exceptional_scan refuses bounds beyond this, as the box sweep it replaced did.
RANK2_SCAN_BOUND_LIMIT = 500

# reflect_into_bk refuses a walk of more steps than this: nothing else bounds the
# step count but the initial height, and 10**5 steps take 0.55 s and 34 MiB (2-vCPU Xeon).
WALK_STEP_LIMIT = 10**5

# run_context_checks refuses a context over these sizes before any per-item check:
# the packed pairing columns cost about rank * (rank + peds + walls)^2 and the ped
# table holds peds^2 integers; rank 64 with 1,000 peds takes 0.8 s and 24 MiB.
CONTEXT_RANK_LIMIT = 64
CONTEXT_CLASS_LIMIT = 1000  # peds plus walls


class ContextCheck(_Record, hidden=("error",)):
    """One validated context invariant: name, outcome, human-readable detail,
    and the error raised when a field failed to parse (structural: exit 2)."""

    __slots__ = ("name", "passed", "detail", "error")

    def __init__(self, name: str, passed: bool, detail: str, error: BasedivError | None = None):
        _set(self, "name", name)
        _set(self, "passed", passed)
        _set(self, "detail", detail)
        _set(self, "error", error)

    @property
    def structural(self) -> bool:
        return isinstance(self.error, StructuralError)

    def __reduce__(self):
        return ContextCheck, self._values() + (self.error,)


def _fail(checks: list[ContextCheck], name: str, error: BasedivError) -> None:
    checks.append(ContextCheck(name, False, str(error), error))


def _attempt(checks: list[ContextCheck], name: str, parse):
    """parse(), or None after appending the failed check its error makes."""
    try:
        return parse()
    except BasedivError as exc:
        _fail(checks, name, exc)
        return None


def _raise_first(checks: list[ContextCheck]) -> None:
    """Raise the error of the first failed structural check, else of the first failed check."""
    failed = [c for c in checks if not c.passed]
    if failed:
        first = next((c for c in failed if c.structural), failed[0])
        raise first.error or DomainError(f"invalid context ({first.name}): {first.detail}")


def _divisibility_holds(qd: int, dv: int) -> bool:
    """The prime-exceptional divisibility condition q(D) | 2*div(D)."""
    return (2 * dv) % qd == 0


def _check_ped(lat: Lattice, ample: Vec, d: Vec, label: str) -> list[ContextCheck]:
    shown = show_vec(d)
    if not any(d):
        return [ContextCheck(f"{label}-nonzero", False, f"declared ped {shown} is the zero vector")]
    g = gram_image(lat, d)  # q(D), (ample, D) and div(D) all read G*D
    qd = dot(d, g)
    checks = [
        ContextCheck(
            f"{label}-negative-square",
            qd < 0,
            f"q({shown}) = {show_int(qd)}" + ("" if qd < 0 else " but a prime-exceptional class needs q < 0"),
        )
    ]
    checks.append(
        ContextCheck(
            f"{label}-primitive",
            math.gcd(*d) == 1,
            f"gcd of coordinates is {show_int(math.gcd(*d))}",
        )
    )
    pa = dot(ample, g)
    checks.append(
        ContextCheck(
            f"{label}-ample-pairing",
            pa > 0,
            f"(ample, {shown}) = {show_int(pa)}"
            + ("" if pa > 0 else " but effective classes must pair positively with an ample class"),
        )
    )
    if qd < 0:
        dv = math.gcd(*g)
        ok = _divisibility_holds(qd, dv)
        detail = f"q(D) = {show_int(qd)}, div(D) = {show_int(dv)}"
        if not ok:
            detail += (
                f": {show_int(qd)} does not divide {show_int(2 * dv)}; the prime-exceptional divisibility"
                " condition q(D) | 2*div(D) fails"
            )
        checks.append(ContextCheck(f"{label}-divisibility", ok, detail))
    return checks


def run_context_checks(
    lat: Lattice,
    ample: Sequence[int],
    peds: Sequence[Sequence[int]] = (),
    walls: Sequence[Sequence[int]] = (),
) -> list[ContextCheck]:
    """Run every declared-data invariant, collecting per-item pass/fail;
    a malformed ample class, or a context over the size limits, ends the report."""
    checks: list[ContextCheck] = []
    h = _attempt(checks, "ample-shape", lambda: lat.vector(as_array(ample, "ample")))
    if h is None:
        return checks
    qh = dot(h, gram_image(lat, h))
    checks.append(
        ContextCheck(
            "ample-positive-square",
            qh > 0,
            f"q(ample) = {show_int(qh)}" + ("" if qh > 0 else " but the ample class must have q > 0"),
        )
    )
    count = sum(len(x) for x in (peds, walls) if isinstance(x, (list, tuple)))
    if lat.rank > CONTEXT_RANK_LIMIT or count > CONTEXT_CLASS_LIMIT:
        limits = f"rank <= {CONTEXT_RANK_LIMIT}, peds plus walls <= {CONTEXT_CLASS_LIMIT}"
        _fail(checks, "context-size", CapabilityError(f"a context of rank {lat.rank} with {count} peds and walls exceeds the limits: {limits}"))
        return checks
    for i, raw in enumerate(_attempt(checks, "peds", lambda: as_array(peds, "peds")) or ()):
        d = _attempt(checks, f"ped[{i}]-shape", lambda: lat.vector(as_array(raw, f"peds[{i}]")))
        if d is not None:
            checks.extend(_check_ped(lat, h, d, f"ped[{i}]"))
    for i, raw in enumerate(_attempt(checks, "walls", lambda: as_array(walls, "walls")) or ()):
        _attempt(checks, f"wall[{i}]-shape", lambda: lat.vector(as_array(raw, f"walls[{i}]")))
    return checks


def _field_checks(checks, lat, ample, peds, walls, strong_rlf, note, note_given) -> list[ContextCheck]:
    """checks, extended in report order by those of strong_rlf, run_context_checks and note."""
    if not isinstance(strong_rlf, bool):
        _fail(checks, "strong_rlf", StructuralError(f'context "strong_rlf" must be a JSON boolean, got {show_value(strong_rlf)}'))
    checks.extend(run_context_checks(lat, ample, peds, walls))
    if note_given and not isinstance(note, str):
        _fail(checks, "note", StructuralError(f"note must be a string, got {show_value(note)}"))
    return checks


class GeometricContext(_Record, hidden=("rows", "cols", "bias", "vmax", "words", "ped_table")):
    """Lattice + ample class + declared divisor data + hypothesis flags.

    Construction checks every field and raises on the first failure, so a
    constructed context, an immutable record, can be trusted downstream.
    ``strong_rlf`` declares that primitive isotropic classes in the
    birational Kaehler closure induce Lagrangian fibrations; the classifier
    refuses to run without it.  ``note`` is free-form provenance, e.g. that
    the lattice is a Picard sublattice (divisibilities computed in a
    sublattice may exceed those in the full lattice).  ``rows`` stacks the
    Gram rows, G*ample, G*D per ped D and G*W per wall W; ``cols`` packs its
    columns into integers of one 64-bit word per row, with ``bias``, the
    coordinate bound ``vmax`` and the ``words`` that unpack them (see
    ``_pairings``); only ``_fill`` and ``_pairings`` read that layout.
    ``ped_table`` holds per ped D_i its own pairing pass cut to the peds,
    (q(D_i), (D_i, ample), ((D_i, D_0), ..., (D_i, D_{k-1}))), read instead
    of pairing again.
    """

    __slots__ = ("lat", "ample", "peds", "walls", "dtype", "strong_rlf", "note", "rows", "cols", "bias", "vmax", "words", "ped_table")

    def __init__(
        self,
        lat: Lattice,
        ample: Sequence[int],
        peds: Sequence[Sequence[int]] = (),
        walls: Sequence[Sequence[int]] = (),
        dtype: DeformationType | None = None,
        strong_rlf: bool = False,
        note: str | None = None,
    ):
        _raise_first(_field_checks([], lat, ample, peds, walls, strong_rlf, note, note is not None))
        self._fill(lat, ample, peds, walls, dtype, strong_rlf, note)

    def _fill(self, lat, ample, peds, walls, dtype, strong_rlf, note) -> None:
        """Store fields that _field_checks has passed, and the derived tables."""
        ample, peds, walls = tuple(ample), tuple(map(tuple, peds)), tuple(map(tuple, walls))
        rows = lat.gram + tuple(gram_image(lat, v) for v in (ample,) + peds + walls)
        cols = tuple(sum(row[i] << 64 * j for j, row in enumerate(rows)) for i in range(lat.rank))
        bias = sum(1 << 64 * j + 63 for j in range(len(rows)))
        vmax = 2**63 // max(sum(map(abs, row)) for row in rows)  # G*ample is nonzero, as q(ample) > 0
        words = struct.Struct(f"<{len(rows)}q")
        for name, value in zip(self.__slots__, (lat, ample, peds, walls, dtype, strong_rlf, note, rows, cols, bias, vmax, words)):
            _set(self, name, value)
        _set(self, "ped_table", tuple((q, a, p[:len(peds)]) for q, a, p in map(self._pairings, peds)))

    def _pairings(self, v: Vec) -> tuple[int, int, Vec]:
        """q(v), (v, ample) and the (v, D_i), then the (v, W_j), for a checked v, in one pass.

        With P_i = sum_j rows[j][i] * 2^(64j), sum_i v_i*P_i = sum_j (v, row_j) * 2^(64j).
        If every |v_i| < vmax = 2^63 // (the largest L1 norm of a row), every
        |(v, row_j)| < 2^63, so the bias B = sum_j 2^(64j+63) puts each word in
        [0, 2^64), no word carries, and XOR with B leaves each word the two's
        complement of (v, row_j).  A larger coordinate is paired row by row.
        """
        vmax = self.vmax
        if -vmax < min(v) and max(v) < vmax:
            words = self.words
            pairs = words.unpack(((sum(map(mul, v, self.cols)) + self.bias) ^ self.bias).to_bytes(words.size, "little"))
        else:
            pairs = tuple([sum(map(mul, v, g)) for g in self.rows])
        r = self.lat.rank
        return sum(map(mul, v, pairs)), pairs[r], pairs[r + 1:]  # map stops after the r entries of G*v

    def to_json_dict(self) -> dict:
        data = {
            "lattice": self.lat.to_json_dict(),
            "ample": list(self.ample),
            "peds": [list(p) for p in self.peds],
            "walls": [list(w) for w in self.walls],
            "strong_rlf": self.strong_rlf,
        }
        if self.dtype is not None:
            data["deformation"] = self.dtype.to_json_dict()
        if self.note is not None:
            data["note"] = self.note
        return data

    @classmethod
    def from_json_dict(cls, data: dict) -> "GeometricContext":
        """The context validate_context_payload builds, or its first structural error, else its first error."""
        ctx, checks = validate_context_payload(data)
        _raise_first(checks)
        return ctx

    def __repr__(self) -> str:
        return (
            f"GeometricContext(rank={self.lat.rank}, peds={len(self.peds)},"
            f" walls={len(self.walls)}, dtype={self.dtype}, strong_rlf={self.strong_rlf})"
        )


def validate_context_payload(data) -> tuple[GeometricContext | None, list[ContextCheck]]:
    """Check a raw context payload item by item; the one reader of context JSON.

    Returns the context built from the checked values when everything
    passes, else None, together with the full check report.  A malformed
    field fails a structural check whose message names its path.  The
    constructor's checks follow, but a "note" holding null is refused.
    """
    checks: list[ContextCheck] = []
    if not isinstance(data, dict):
        _fail(checks, "schema", StructuralError("context JSON must be an object"))
        return None, checks
    missing = [k for k in ("lattice", "ample") if k not in data]
    if missing:
        _fail(checks, "schema", StructuralError(f"context JSON is missing required keys: {missing}"))
        return None, checks
    lat = _attempt(checks, "lattice", lambda: Lattice.from_json_dict(data["lattice"]))
    if lat is None:
        return None, checks
    checks.append(ContextCheck("lattice", True, f"rank {lat.rank}, even={lat.even}"))
    dtype = None
    if "deformation" in data:
        dtype = _attempt(checks, "deformation", lambda: deformation_from_json_dict(data["deformation"]))
        if dtype is not None:
            checks.append(ContextCheck("deformation", True, repr(dtype)))
    else:
        checks.append(ContextCheck("deformation", True, "absent (classification unavailable)"))
    ample, peds, walls = data["ample"], data.get("peds", ()), data.get("walls", ())
    strong_rlf, note = data.get("strong_rlf", False), data.get("note")
    _field_checks(checks, lat, ample, peds, walls, strong_rlf, note, "note" in data)
    if not all(c.passed for c in checks):
        return None, checks
    ctx = GeometricContext.__new__(GeometricContext)
    ctx._fill(lat, ample, peds, walls, dtype, strong_rlf, note)
    return ctx, checks


# ---------------------------------------------------------------------------
# reflections

class ReflectionTrace(_Record):
    """Result of a reflection walk plus the certificate to rebuild the input.

    The walked class equals ``result + sum(a_i * D_i)`` with every a_i a
    positive integer.
    """

    __slots__ = ("result", "steps")

    def __init__(self, result: Vec, steps: tuple[tuple[Vec, int], ...] = ()):
        _set(self, "result", result)
        _set(self, "steps", steps)

    def reconstruction(self) -> Vec:
        """The original class implied by result and steps."""
        acc = list(self.result)
        for ped, a in self.steps:
            for i, c in enumerate(ped):
                acc[i] += a * c
        return tuple(acc)

    def to_json_dict(self) -> dict:
        return {
            "result": list(self.result),
            "steps": [{"ped": list(p), "a": a} for p, a in self.steps],
        }


def reflect(ctx: GeometricContext, d: Iterable[int], alpha: Iterable[int]) -> Vec:
    """R_d(alpha) = alpha - (2(d, alpha)/q(d)) * d, verified integral.

    d is normally one of the declared peds (for those, integrality is
    guaranteed by the validated divisibility condition); ad-hoc roots with
    q(d) < 0 are accepted whenever the scalar happens to be integral.
    """
    dv, av = ctx.lat.vector(d), ctx.lat.vector(alpha)
    g = gram_image(ctx.lat, dv)  # q(d) and (d, alpha) both read G*d
    qd = dot(dv, g)
    if qd >= 0:
        raise DomainError(f"reflection root must have q < 0; q({show_vec(dv)}) = {show_int(qd)}")
    num = 2 * dot(av, g)
    if num % qd != 0:
        raise IntegralityError(
            f"2(d, alpha) = {show_int(num)} is not divisible by q(d) = {show_int(qd)};"
            f" {show_vec(dv)} is not a valid integral reflection root for {show_vec(av)}"
        )
    s = num // qd
    return tuple(x - s * y for x, y in zip(av, dv))


def reflect_into_bk(ctx: GeometricContext, alpha: Iterable[int]) -> ReflectionTrace:
    """Reflect alpha until it pairs >= 0 with every declared ped.

    Preconditions: alpha nonzero, q(alpha) >= 0, (alpha, ample) > 0.  At each
    step the first declared ped with (alpha_i, D) < 0 is used (first in list
    order, for reproducible traces).  (alpha_i, ample) strictly decreases
    through positive integers, which bounds the number of steps by the
    initial pairing: a = 2(alpha_i, D) // q(D) is exact (see below) and >= 1, both factors being
    negative, and the context checked (D, ample) >= 1.  A walk of more than WALK_STEP_LIMIT
    steps raises CapabilityError.  A height that falls to 0 or below means
    the declared data is inconsistent (the lattice is not hyperbolic) and raises ConsistencyError.
    alpha is paired once: a step by a*D lowers the height by a*(D, ample) and each (alpha_i, D_j)
    by a*(D, D_j), read from D's row of the context's ped table.

    The result is in the declared BK closure with no check on exit: each step
    subtracts a*D with a = 2(alpha_i, D)/q(D) an integer, since the context
    checked q(D) | 2*div(D) and div(D) | (alpha_i, D), an isometry, so
    q(result) = q(alpha) >= 0; (result, ample) > 0 was checked on entry or by
    the last step, and the loop ends only when (result, D) >= 0 for every ped.
    """
    current = ctx.lat.vector(alpha)
    if not any(current):
        raise DomainError("cannot walk the zero class")
    qa, height, row = ctx._pairings(current)
    if qa < 0:
        raise DomainError(f"q(alpha) = {show_int(qa)} must be nonnegative (closed positive cone)")
    if height <= 0:
        raise DomainError(f"(alpha, ample) = {show_int(height)} must be positive")
    row = row[:len(ctx.peds)]  # the (alpha, D); the walls do not cut the walk
    steps: list[tuple[Vec, int]] = []
    while True:
        for i, p in enumerate(row):
            if p < 0:
                break
        else:
            break
        if len(steps) >= WALK_STEP_LIMIT:
            raise CapabilityError(f"the reflection walk needs more than {WALK_STEP_LIMIT} steps")
        violated, (q_d, d_ample, d_row) = ctx.peds[i], ctx.ped_table[i]
        a = 2 * p // q_d
        new_height = height - a * d_ample  # (alpha - a*D, ample)
        if new_height <= 0:
            raise ConsistencyError(
                f"descent failed: (alpha, ample) went {show_int(height)} -> {show_int(new_height)};"
                " the declared context data is inconsistent"
            )
        steps.append((violated, a))
        current = tuple([c - a * x for c, x in zip(current, violated)])
        row = [x - a * y for x, y in zip(row, d_row)]  # (alpha - a*D, D_j)
        height = new_height
    return ReflectionTrace(result=current, steps=tuple(steps))


# ---------------------------------------------------------------------------
# cone membership

def in_positive_cone(ctx: GeometricContext, alpha: Iterable[int], closed: bool = False) -> bool:
    """Membership in the (open or closed) positive cone on the ample side."""
    if type(closed) is not bool:
        raise DomainError(f"closed must be a bool, got {show_value(closed)}")
    a = ctx.lat.vector(alpha)
    qa, pa, _ = ctx._pairings(a)
    return (qa >= 0 if closed else qa > 0) and (pa > 0 or closed and not any(a))


def in_bk_closure(ctx: GeometricContext, alpha: Iterable[int]) -> bool:
    """Closed positive cone and (alpha, D) >= 0 for every declared ped.

    This decides membership in the birational-Kaehler closure *relative to
    the declared divisor set*; it is exact on the necessary side and as
    complete as the declaration.
    """
    a = ctx.lat.vector(alpha)
    qa, pa, pairs = ctx._pairings(a)
    return (qa >= 0 and pa > 0 or not any(a)) and min(pairs[:len(ctx.peds)], default=0) >= 0


def ped_inequality_check(lat: Lattice, d: Iterable[int]) -> bool:
    """True iff q(d) divides 2*div(d).

    Every prime-exceptional divisor class satisfies this; failure certifies
    that d cannot be one.
    """
    dv = lat.vector(d)
    if not any(dv):
        raise DomainError("the zero vector cannot be a prime-exceptional class")
    g = gram_image(lat, dv)  # q(d) and div(d) both read G*d
    qd = dot(dv, g)
    if qd >= 0:
        raise DomainError(f"prime-exceptional candidates need q < 0; q({show_vec(dv)}) = {show_int(qd)}")
    return _divisibility_holds(qd, math.gcd(*g))


def rank2_exceptional_scan(bound: int) -> list[Vec]:
    """All (a, b) in the hyperbolic plane with |a|,|b| <= bound, q < 0 and
    |2ab|/2 <= gcd(a, b): the prime-exceptional divisibility inequality
    written out in the basis E, F of U.

    The answer is +-(E - F) for every bound >= 1.  q(a, b) = 2ab < 0 makes
    a, b nonzero, so g = gcd(a, b) >= 1; with a = g*a', b = g*b', the
    inequality -ab <= g reads g*(-a'*b') <= 1 with -a'*b' >= 1, so g = 1 and
    a'*b' = -1.  oracle.oracle_rank2_scan is the sweep of the box.
    """
    require_int("bound", bound, 1)
    if bound > RANK2_SCAN_BOUND_LIMIT:
        raise CapabilityError(f"rank-2 scan bound {show_int(bound)} exceeds the limit {RANK2_SCAN_BOUND_LIMIT}")
    return [(-1, 1), (1, -1)]


def k3_ped_candidates(lat: Lattice, coeff_bound: int, ample: Sequence[int] | None = None) -> list[Vec]:
    """Square -2 classes in a coefficient box: the built-in ped generator
    for the surface case (n = 1), where those are exactly the candidates.

    On an even lattice a square -2 class is automatically primitive and
    satisfies the divisibility condition.  When an ample class is supplied,
    only candidates pairing positively with it (the effective orientation)
    are kept.  For n > 1 no generator is provided: deciding the ped set
    needs data beyond the Gram matrix, so it must be declared.
    """
    out = enumerate_vectors(lat, -2, coeff_bound)
    if ample is not None:
        gh = gram_image(lat, lat.vector(ample))
        out = [v for v in out if sum(map(mul, gh, v)) > 0]
    return out
