"""Exception hierarchy.

The split matters for the CLI: structural problems (unparseable or
malformed declared data) map to exit code 2, everything else that a
user can trigger maps to exit code 1.
"""


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
    """str(x) for an integer of at most 80 digits, else its sign and digit count, so that a
    diagnostic stays short; past 10**5 digits the count, read from the bit length alone, is
    "about" and may be one short."""
    n = abs(x)
    if n.bit_length() <= 240:  # n < 8**80 has at most 80 digits
        return str(x)
    digits = (n.bit_length() - 1) * 30102999 // 10**8 + 1  # 2**(b-1) <= n; log10(2) > 0.30102999
    about = digits > 10**5  # past that, 10**digits costs more than the message
    while not about and n >= 10**digits:
        digits += 1
    if digits <= 80:
        return str(x)
    return f"{'-' if x < 0 else ''}<integer of {'about ' if about else ''}{digits} digits>"


def show_vec(v) -> str:
    """str(list(v)) for an integer vector v, each entry shown by show_int."""
    return "[" + ", ".join(map(show_int, v)) + "]"


def show_value(x) -> str:
    """repr(x) for a diagnostic, bounded: show_int for an int, the first 20
    characters and the length of a string, or of any other repr, of more than
    80, the type and length of a list, tuple or dict of more than 16 items,
    and the type's name when repr refuses a long integer inside x or a
    nesting too deep to recurse through."""
    if type(x) is int:
        return show_int(x)
    if type(x) is str and len(x) > 80:
        return f"{x[:20]!r}... ({len(x)} characters)"
    if isinstance(x, (list, tuple, dict)) and len(x) > 16:
        return f"<{type(x).__name__} of {len(x)} items>"
    try:
        text = repr(x)
    except ValueError:
        return f"<{type(x).__name__} holding an integer too long to print>"
    except RecursionError:
        return f"<{type(x).__name__} nested too deeply to print>"
    return text if len(text) <= 80 else f"{text[:20]}... ({len(text)} characters)"


def require_int(name: str, x, low: int | None = None) -> None:
    """DomainError unless x is an int, a bool refused too, and at least low when low is given."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise DomainError(f"{name} must be an integer, got {show_value(x)}")
    if low is not None and x < low:
        raise DomainError(f"{name} must be >= {low}")
