"""Exception hierarchy.

The split matters for the CLI: structural problems (unparseable or
malformed declared data) map to exit code 2, everything else that a
user can trigger maps to exit code 1.
"""

import sys


class BasedivError(Exception):
    """Base class for all errors raised by this package."""


class StructuralError(BasedivError):
    """Malformed data: non-square or asymmetric Gram matrix, vector of the
    wrong length, non-integer entries, bad JSON payload shape."""


class DomainError(BasedivError):
    """A documented precondition on an operation's inputs was violated."""


class IntegralityError(DomainError):
    """A reflection scalar 2(d,a)/q(d) is not an integer, so the proposed
    root does not act integrally on the lattice."""


class CapabilityError(BasedivError):
    """Input exceeds a hard guard (rank or search-box limits) that the
    exhaustive routines refuse to cross."""


class HypothesisError(BasedivError):
    """Classification was requested on a context whose required hypotheses
    (strict RR monotonicity, Lagrangian-fibration flag) are not certified."""


class ConsistencyError(BasedivError):
    """An invariant that should hold for valid declared data failed at
    runtime; the inputs are mutually inconsistent, or a result that must
    be an integer is not."""


def show_int(x: int) -> str:
    """str(x), or its sign and digit count when str() would refuse x for
    having more than sys.get_int_max_str_digits() digits, so that a
    diagnostic can always be formatted."""
    limit = sys.get_int_max_str_digits()
    n = abs(x)
    if not limit or n.bit_length() <= 3 * limit:  # n < 8**limit has at most limit digits
        return str(x)
    digits = (n.bit_length() - 1) * 30102999 // 10**8 + 1  # 2**(b-1) <= n; log10(2) > 0.30102999
    while n >= 10**digits:
        digits += 1
    if digits <= limit:
        return str(x)
    return f"{'-' if x < 0 else ''}<integer of {digits} digits>"


def show_vec(v) -> str:
    """str(list(v)) for an integer vector v, each entry shown by show_int."""
    return "[" + ", ".join(map(show_int, v)) + "]"


def show_value(x) -> str:
    """repr(x) for a diagnostic: show_int for an int, and the type's name when
    repr refuses a long integer inside x."""
    if type(x) is int:
        return show_int(x)
    try:
        return repr(x)
    except ValueError:
        return f"<{type(x).__name__} holding an integer too long to print>"
