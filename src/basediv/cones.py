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
from collections.abc import Iterable, Sequence
from operator import mul

from .errors import BasedivError, CapabilityError, ConsistencyError, DomainError, IntegralityError, StructuralError, show_int, show_vec
from .lattice import (
    Lattice,
    Vec,
    as_array,
    divisibility,
    dot,
    enumerate_vectors,
    gram_image,
    pairing,
    square,
    vec_is_zero,
    vec_scale,
    vec_sub,
)
from .riemann_roch import DeformationType, deformation_from_json_dict

# rank2_exceptional_scan visits (2*bound + 1)^2 points; refuse beyond this bound.
RANK2_SCAN_BOUND_LIMIT = 500


_set = object.__setattr__


class _Record:
    """Base of the immutable result records.

    A subclass names its fields in ``__slots__`` and sets each once in its
    ``__init__`` through ``_set``.  Two records are equal when they are of
    the same class and their fields are; hash and repr use the same fields.
    Fields named in the class keyword ``hidden`` take no part in any of the
    three.  Assigning or deleting a field raises AttributeError.  Records
    are not dataclasses because ``dataclasses`` imports ``inspect``, about
    10 ms of every CLI call's start-up; an ``__init__`` written out as a
    frozen dataclass would generate it constructs no slower.
    """

    __slots__ = ()

    def __init_subclass__(cls, hidden=()):
        super().__init_subclass__()
        cls._fields = tuple(f for f in cls.__slots__ if f not in hidden)

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, f) for f in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable {self.__class__.__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable {self.__class__.__name__}")


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


def _check_ped(lat: Lattice, ample: Vec, d: Vec, label: str) -> list[ContextCheck]:
    checks = []
    shown = show_vec(d)
    if vec_is_zero(d):
        return [ContextCheck(f"{label}-nonzero", False, f"declared ped {shown} is the zero vector")]
    qd = square(lat, d)
    checks.append(
        ContextCheck(
            f"{label}-negative-square",
            qd < 0,
            f"q({shown}) = {show_int(qd)}" + ("" if qd < 0 else " but a prime-exceptional class needs q < 0"),
        )
    )
    checks.append(
        ContextCheck(
            f"{label}-primitive",
            math.gcd(*d) == 1,
            f"gcd of coordinates is {show_int(math.gcd(*d))}",
        )
    )
    pa = pairing(lat, ample, d)
    checks.append(
        ContextCheck(
            f"{label}-ample-pairing",
            pa > 0,
            f"(ample, {shown}) = {show_int(pa)}"
            + ("" if pa > 0 else " but effective classes must pair positively with an ample class"),
        )
    )
    if qd < 0:
        dv = divisibility(lat, d)
        ok = (2 * dv) % qd == 0
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
    a malformed ample class ends the report."""
    checks: list[ContextCheck] = []
    h = _attempt(checks, "ample-shape", lambda: lat.vector(as_array(ample, "ample")))
    if h is None:
        return checks
    qh = square(lat, h)
    checks.append(
        ContextCheck(
            "ample-positive-square",
            qh > 0,
            f"q(ample) = {show_int(qh)}" + ("" if qh > 0 else " but the ample class must have q > 0"),
        )
    )
    for i, raw in enumerate(_attempt(checks, "peds", lambda: as_array(peds, "peds")) or ()):
        d = _attempt(checks, f"ped[{i}]-shape", lambda: lat.vector(as_array(raw, f"peds[{i}]")))
        if d is not None:
            checks.extend(_check_ped(lat, h, d, f"ped[{i}]"))
    for i, raw in enumerate(_attempt(checks, "walls", lambda: as_array(walls, "walls")) or ()):
        _attempt(checks, f"wall[{i}]-shape", lambda: lat.vector(as_array(raw, f"walls[{i}]")))
    return checks


class GeometricContext:
    """Lattice + ample class + declared divisor data + hypothesis flags.

    Construction validates every invariant and raises on the first failure,
    so a constructed context can be trusted downstream.  ``strong_rlf``
    declares that primitive isotropic classes in the birational Kaehler
    closure induce Lagrangian fibrations; the classifier refuses to run
    without it.  ``note`` is free-form provenance, e.g. recording that the
    lattice is a Picard sublattice (divisibilities computed in a sublattice
    may exceed those in the full lattice).  ``g_ample`` and ``g_peds`` hold
    G*ample and G*D for each ped D, so that a checked class pairs with them by
    a plain dot product; ``q_peds`` holds q(D) per ped.  ``ped_table`` holds,
    for each ped D_i, the row ((D_i, ample), (D_i, D_0), ..., (D_i, D_{k-1})):
    the classifier's closure test and the walk's height read it instead of
    pairing again.  ``rows`` stacks the Gram rows, G*ample, the G*D and G*W
    for each wall W: one pass of dot products with a checked class v gives
    G*v and every pairing of v.
    """

    __slots__ = ("lat", "ample", "peds", "walls", "dtype", "strong_rlf", "note", "g_ample", "g_peds", "q_peds", "ped_table", "rows")

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
        _raise_first(run_context_checks(lat, ample, peds, walls))
        self._fill(lat, ample, peds, walls, dtype, strong_rlf, note)

    def _fill(self, lat, ample, peds, walls, dtype, strong_rlf, note) -> None:
        """Store data that run_context_checks has passed."""
        self.lat = lat
        self.ample = tuple(ample)
        self.peds = tuple(map(tuple, peds))
        self.walls = tuple(map(tuple, walls))
        self.dtype = dtype
        self.strong_rlf = bool(strong_rlf)
        self.note = note
        self.g_ample = gram_image(lat, self.ample)
        self.g_peds = tuple(gram_image(lat, d) for d in self.peds)
        self.q_peds = tuple(map(dot, self.peds, self.g_peds))
        self.ped_table = tuple(tuple(dot(d, g) for g in (self.g_ample,) + self.g_peds) for d in self.peds)
        self.rows = lat.gram + (self.g_ample,) + self.g_peds + tuple(gram_image(lat, w) for w in self.walls)

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
    field fails a structural check whose message names its path.
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
    strong_rlf, note = data.get("strong_rlf", False), data.get("note")
    if not isinstance(strong_rlf, bool):
        error = StructuralError(f'context "strong_rlf" must be a JSON boolean, got {strong_rlf!r}')
        _fail(checks, "strong_rlf", error)
    ample, peds, walls = data["ample"], data.get("peds", ()), data.get("walls", ())
    checks.extend(run_context_checks(lat, ample, peds, walls))
    if "note" in data and not isinstance(note, str):
        _fail(checks, "note", StructuralError(f"note must be a string, got {note!r}"))
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
    lat = ctx.lat
    dv = lat.vector(d)
    av = lat.vector(alpha)
    qd = square(lat, dv)
    if qd >= 0:
        raise DomainError(f"reflection root must have q < 0; q({show_vec(dv)}) = {show_int(qd)}")
    num = 2 * pairing(lat, dv, av)
    if num % qd != 0:
        raise IntegralityError(
            f"2(d, alpha) = {show_int(num)} is not divisible by q(d) = {show_int(qd)};"
            f" {show_vec(dv)} is not a valid integral reflection root for {show_vec(av)}"
        )
    s = num // qd
    return vec_sub(av, vec_scale(s, dv))


def reflect_into_bk(ctx: GeometricContext, alpha: Iterable[int]) -> ReflectionTrace:
    """Reflect alpha until it pairs >= 0 with every declared ped.

    Preconditions: alpha nonzero, q(alpha) >= 0, (alpha, ample) > 0.  At each
    step the first declared ped with (alpha_i, D) < 0 is used (first in list
    order, for reproducible traces).  (alpha_i, ample) strictly decreases
    through positive integers, which bounds the number of steps by the
    initial pairing; any violation of that descent means the declared data
    is inconsistent and raises ConsistencyError.  A step by a*D lowers the height by a*(D, ample), read
    from the context's ped table.

    The result is in the declared BK closure with no check on exit: each step
    subtracts a*D with a = 2(alpha_i, D)/q(D) an integer, an isometry, so
    q(result) = q(alpha) >= 0; (result, ample) > 0 was checked on entry or by
    the last step, and the loop ends only when (result, D) >= 0 for every ped.
    """
    current = ctx.lat.vector(alpha)
    if vec_is_zero(current):
        raise DomainError("cannot walk the zero class")
    qa = dot(current, gram_image(ctx.lat, current))
    if qa < 0:
        raise DomainError(f"q(alpha) = {show_int(qa)} must be nonnegative (closed positive cone)")
    height = dot(current, ctx.g_ample)
    if height <= 0:
        raise DomainError(f"(alpha, ample) = {show_int(height)} must be positive")
    steps: list[tuple[Vec, int]] = []
    while True:
        for i, g_d in enumerate(ctx.g_peds):
            p = sum(map(mul, current, g_d))
            if p < 0:
                break
        else:
            break
        violated, qd, d_row = ctx.peds[i], ctx.q_peds[i], ctx.ped_table[i]
        num = 2 * p
        if num % qd != 0:
            raise ConsistencyError(
                f"declared ped {show_vec(violated)} produced a non-integral reflection scalar"
            )
        a = num // qd
        nxt = tuple([c - a * x for c, x in zip(current, violated)])
        new_height = height - a * d_row[0]  # (alpha - a*D, ample)
        if not (0 < new_height < height):
            raise ConsistencyError(
                f"descent failed: (alpha, ample) went {show_int(height)} -> {show_int(new_height)};"
                " the declared context data is inconsistent"
            )
        steps.append((violated, a))
        current = nxt
        height = new_height
    return ReflectionTrace(result=current, steps=tuple(steps))


# ---------------------------------------------------------------------------
# cone membership

def in_positive_cone(ctx: GeometricContext, alpha: Iterable[int], closed: bool = False) -> bool:
    """Membership in the (open or closed) positive cone on the ample side."""
    a = ctx.lat.vector(alpha)
    if closed and vec_is_zero(a):
        return True
    qa = dot(a, gram_image(ctx.lat, a))
    return (qa >= 0 if closed else qa > 0) and dot(a, ctx.g_ample) > 0


def in_bk_closure(ctx: GeometricContext, alpha: Iterable[int], include_walls: bool = False) -> bool:
    """Closed positive cone and (alpha, D) >= 0 for every declared ped.

    This decides membership in the birational-Kaehler closure *relative to
    the declared divisor set*; it is exact on the necessary side and as
    complete as the declaration.  Wall-strict mode additionally requires
    nonnegative pairing with the declared walls (a finer chamber condition
    than the closure itself).
    """
    a = ctx.lat.vector(alpha)
    cutters = ctx.rows[ctx.lat.rank + 1:] if include_walls else ctx.g_peds  # every G*D, then every G*W
    return in_positive_cone(ctx, a, closed=True) and all(dot(a, g) >= 0 for g in cutters)


def ped_inequality_check(lat: Lattice, d: Iterable[int]) -> bool:
    """True iff q(d) divides 2*div(d).

    Every prime-exceptional divisor class satisfies this; failure certifies
    that d cannot be one.
    """
    dv = lat.vector(d)
    if vec_is_zero(dv):
        raise DomainError("the zero vector cannot be a prime-exceptional class")
    qd = square(lat, dv)
    if qd >= 0:
        raise DomainError(f"prime-exceptional candidates need q < 0; q({show_vec(dv)}) = {show_int(qd)}")
    return (2 * divisibility(lat, dv)) % qd == 0


def rank2_exceptional_scan(bound: int) -> list[Vec]:
    """All (a, b) in the hyperbolic plane with |a|,|b| <= bound, q < 0 and
    |2ab|/2 <= gcd(a, b).

    The constraint is the prime-exceptional divisibility inequality written
    out in the basis E, F of U; the only solutions are +-(E - F), for any
    bound.
    """
    if bound < 1:
        raise DomainError("bound must be >= 1")
    if bound > RANK2_SCAN_BOUND_LIMIT:
        raise CapabilityError(f"rank-2 scan bound {bound} exceeds the limit {RANK2_SCAN_BOUND_LIMIT}")
    out = []
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            if a * b < 0 and -a * b <= math.gcd(a, b):  # q(a, b) = 2ab on U
                out.append((a, b))
    return out


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
