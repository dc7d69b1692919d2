"""Exact arithmetic for integral symmetric bilinear forms.

A :class:`Lattice` wraps an integer Gram matrix ``G``; vectors are integer
coordinate tuples in the implied basis.  The pairing is ``(a, b) = a^T G b``
and the square is ``q(v) = (v, v)``.  Everything here is arbitrary-precision
integer arithmetic; no floating point enters this module.

The public operations (``Lattice.vector``, ``pairing``, ``square``,
``divisibility``, ``is_primitive``) validate every vector argument.  The
kernels ``dot`` and ``gram_image`` check nothing: they take tuples that have
passed ``Lattice.vector``, so a hot loop validates once, at its boundary.
``enumerate_vectors`` builds the completions of a box prefix orthogonal to all
later basis vectors once per value of q(prefix) - target and shares them.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from operator import mul

from .errors import CapabilityError, DomainError, StructuralError, require_int, show_int, show_value

Vec = tuple[int, ...]

# Exhaustive box enumeration is exponential in the rank; refuse beyond this.
ENUM_RANK_LIMIT = 6
# ... and visits (2B+1)^(rank-1) prefixes (at rank 1, one row of 2B+1).
ENUM_PREFIX_LIMIT = 10**6
# ... and returns at most this many vectors (a degenerate row solves for a whole range).
ENUM_OUTPUT_LIMIT = 10**6

_INT = frozenset((int,))
_set = object.__setattr__


class _Record:
    """Base of the immutable records.

    A subclass names its fields in ``__slots__`` and sets each once in its
    ``__init__`` through ``_set``.  Two records are equal when they are of
    the same class and their fields are; hash and repr use the same fields.
    Fields named in the class keyword ``hidden`` take no part in any of the
    three; pickle and copy call the class on the others.  Assigning or
    deleting a field raises AttributeError.  Records are not dataclasses
    because ``dataclasses`` imports ``inspect``, about 10 ms of every CLI
    call's start-up; an ``__init__`` written out as a frozen dataclass would
    generate it constructs no slower.
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
        fields = ", ".join(f"{f}={show_value(getattr(self, f))}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable {self.__class__.__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable {self.__class__.__name__}")


def _as_int(x) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise StructuralError(f"expected an integer entry, got {show_value(x)}")
    return x


def as_array(value, path: str):
    """value, if it is a JSON array (or a tuple); else a StructuralError naming its path."""
    if not isinstance(value, (list, tuple)):
        raise StructuralError(f"{path} must be an array, got {show_value(value)}")
    return value


class Lattice(_Record, hidden=("rank",)):
    """Integral lattice presented by a symmetric Gram matrix.

    The ``even`` flag asserts that q(v) is even for every integer vector v.
    An even diagonal is sufficient for that (together with symmetry, since
    q(v) = sum v_i^2 g_ii + 2 sum_{i<j} v_i v_j g_ij), and the even diagonal
    is what gets validated.  With ``even=None`` the flag is inferred from
    the diagonal.
    """

    __slots__ = ("gram", "even", "rank")

    def __init__(self, gram: Sequence[Sequence[int]], even: bool | None = None):
        if even is not None and not isinstance(even, bool):
            raise StructuralError(f'lattice "even" must be a JSON boolean or null, got {show_value(even)}')
        rows = [as_array(row, f"lattice.gram[{i}]") for i, row in enumerate(as_array(gram, "lattice.gram"))]
        rows = tuple(tuple(map(_as_int, row)) for row in rows)
        n = len(rows)
        if n == 0:
            raise StructuralError("Gram matrix must have positive rank")
        if any(len(row) != n for row in rows):
            raise StructuralError("Gram matrix must be square")
        for i in range(n):
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise StructuralError(
                        f"Gram matrix must be symmetric; entries ({i},{j}) and ({j},{i}) differ"
                    )
        diag_even = all(rows[i][i] % 2 == 0 for i in range(n))
        if even and not diag_even:
            raise StructuralError("lattice flagged even, but the Gram diagonal has an odd entry")
        _set(self, "gram", rows)
        _set(self, "even", diag_even if even is None else even)
        _set(self, "rank", n)

    def vector(self, coords: Iterable[int]) -> Vec:
        """Validate and normalize a coordinate vector for this lattice."""
        if type(coords) is tuple and _INT.issuperset(map(type, coords)):
            v = coords  # a tuple of plain ints, checked in one pass at C level
        elif isinstance(coords, Iterable):
            v = tuple(_as_int(c) for c in coords)
        else:
            raise StructuralError(f"a vector must be a sequence of integers, got {show_value(coords)}")
        if len(v) != self.rank:
            raise StructuralError(f"vector length {len(v)} does not match lattice rank {self.rank}")
        return v

    def to_json_dict(self) -> dict:
        return {"gram": [list(row) for row in self.gram], "even": self.even}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Lattice":
        if not isinstance(data, dict) or "gram" not in data:
            raise StructuralError('lattice JSON must be an object with a "gram" key')
        return cls(data["gram"], data.get("even"))

    def __repr__(self) -> str:
        return f"Lattice(rank={self.rank}, even={self.even})"


# ---------------------------------------------------------------------------
# standard blocks

def hyperbolic_plane() -> Lattice:
    """The rank-2 hyperbolic plane U with Gram matrix [[0,1],[1,0]]."""
    return Lattice(((0, 1), (1, 0)))


def rank_one(k: int) -> Lattice:
    """The rank-1 lattice <k> with Gram matrix [[k]]."""
    return Lattice(((k,),))


def direct_sum(*lattices: Lattice) -> Lattice:
    """Orthogonal direct sum, as a block-diagonal Gram matrix."""
    if not lattices:
        raise DomainError("direct_sum needs at least one summand")
    total = sum(lat.rank for lat in lattices)
    rows = []
    offset = 0
    for lat in lattices:
        for row in lat.gram:
            rows.append((0,) * offset + row + (0,) * (total - offset - lat.rank))
        offset += lat.rank
    return Lattice(rows)


# ---------------------------------------------------------------------------
# operations

def dot(a: Vec, b: Vec) -> int:
    """sum a_i * b_i of two checked vectors; no validation."""
    return sum(map(mul, a, b))


def gram_image(lat: Lattice, v: Vec) -> Vec:
    """G*v for a checked vector v, so that (a, v) = dot(a, G*v); no validation."""
    return tuple([sum(map(mul, row, v)) for row in lat.gram])


def pairing(lat: Lattice, a: Iterable[int], b: Iterable[int]) -> int:
    """The bilinear pairing (a, b) = a^T G b."""
    av = lat.vector(a)
    return dot(av, gram_image(lat, lat.vector(b)))


def square(lat: Lattice, v: Iterable[int]) -> int:
    """The square q(v) = (v, v)."""
    return pairing(lat, v, v)


def divisibility(lat: Lattice, d: Iterable[int]) -> int:
    """div(d) = gcd of the pairings of d against the lattice basis.

    Returns 0 only when d pairs to zero with every basis vector (possible
    for degenerate Gram matrices); the zero vector itself is rejected.
    """
    dv = lat.vector(d)
    if not any(dv):
        raise DomainError("divisibility of the zero vector is undefined")
    return math.gcd(*gram_image(lat, dv))


def is_primitive(lat: Lattice, v: Iterable[int]) -> bool:
    """True iff the coordinates of v have gcd 1."""
    vv = lat.vector(v)
    if not any(vv):
        raise DomainError("primitivity of the zero vector is undefined")
    return math.gcd(*vv) == 1


def enumerate_vectors(lat: Lattice, square_value: int, coeff_bound: int) -> list[Vec]:
    """All vectors with |coords| <= coeff_bound and q(v) = square_value.

    Exhaustive within the box, returned in lexicographic order (so output
    is deterministic and closed under negation).  Coordinates 0..r-2 run
    over the box and the last one solves g*x^2 + 2*b*x + c = 0 exactly.  A
    prefix orthogonal to every later basis vector (as at the end of each
    summand of an orthogonal sum) has completions that depend only on c, so
    they are built once per c and shared; other prefixes are not stored.
    """
    if lat.rank > ENUM_RANK_LIMIT:
        raise CapabilityError(
            f"box enumeration is limited to rank <= {ENUM_RANK_LIMIT}, got rank {lat.rank}"
        )
    require_int("square_value", square_value)
    require_int("coeff_bound", coeff_bound, 1)
    prefixes = (2 * min(coeff_bound, ENUM_PREFIX_LIMIT) + 1) ** max(lat.rank - 1, 1)  # short, from a capped bound
    if prefixes > ENUM_PREFIX_LIMIT:
        raise CapabilityError(
            f"box enumeration at rank {lat.rank}, bound {show_int(coeff_bound)} visits"
            f" {'more than ' if coeff_bound > ENUM_PREFIX_LIMIT else ''}{prefixes} prefixes; the limit is {ENUM_PREFIX_LIMIT}"
        )
    if abs(square_value) > coeff_bound**2 * sum(abs(g) for row in lat.gram for g in row):
        return []  # |q(v)| <= B^2 * sum |g_ij| in the box; saves a square root of a huge target per prefix
    if lat.rank == 1:
        return [(x,) for x in _last_coordinate(lat.gram[0][0], 0, -square_value, coeff_bound)]
    return _completions(lat.gram, range(-coeff_bound, coeff_bound + 1), -square_value, (0,) * lat.rank, {})


def _completions(gram, box: range, c: int, lin: Vec, memo: dict) -> list[Vec]:
    """The ascending completions (v_i, ..., v_(r-1)) in the box of a prefix with
    i = r - len(lin), c = q(prefix) - square_value and lin[k] = (prefix, e_(i+k)).
    memo maps (i, c) to the list of a state with lin = 0 and i >= 2 (x, -x alone reach depth 1)."""
    i, last = len(gram) - len(lin), len(lin) == 2
    shared = i > 1 and not any(lin)
    if shared and (i, c) in memo:
        return memo[i, c]
    row, g, b = gram[i][i + 1:], gram[i][i], lin[0]
    out: list[Vec] = []
    for x in box:
        c_x = c + x * (2 * b + g * x)
        if last:
            tails = _last_coordinate(gram[i + 1][i + 1], lin[1] + x * row[0], c_x, box[-1])
        else:
            tails = _completions(gram, box, c_x, tuple(l + x * r for l, r in zip(lin[1:], row)), memo)
        if len(out) + len(tails) > ENUM_OUTPUT_LIMIT:
            raise CapabilityError(f"box enumeration at rank {len(gram)}, bound {box[-1]} returns more than {ENUM_OUTPUT_LIMIT} vectors")
        out.extend([(x, y) for y in tails] if last else [(x,) + t for t in tails])
    if shared:
        memo[i, c] = out
    return out


def _last_coordinate(g: int, b: int, c: int, bound: int) -> list[int] | range:
    """The integers x with |x| <= bound and g*x^2 + 2*b*x + c = 0, ascending."""
    if g == 0:
        if b == 0:
            return range(-bound, bound + 1) if c == 0 else []
        x, rem = divmod(-c, 2 * b)
        return [x] if rem == 0 and -bound <= x <= bound else []
    disc = b * b - g * c
    if disc < 0:
        return []
    root = math.isqrt(disc)
    if root * root != disc:
        return []
    xs = []
    for num in sorted({-b - root, -b + root}, reverse=g < 0):
        x, rem = divmod(num, g)
        if rem == 0 and -bound <= x <= bound:
            xs.append(x)
    return xs
