"""One parse path for context payloads: the regression table of malformed
inputs through the CLI, a fuzz test of the CLI, and the agreement of
GeometricContext.from_json_dict with validate_context_payload."""

import contextlib
import copy
import functools
import io
import json
import sys
import time

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from basediv import (
    BasedivError,
    CapabilityError,
    DomainError,
    GENERIC,
    GeometricContext,
    K3N,
    KUMN,
    Lattice,
    StructuralError,
    classify,
    make_type,
    nl_numerical_types,
    ped_inequality_check,
    reflect,
    reflect_into_bk,
    rr_eval,
    validate_context_payload,
)
from basediv.cli import main
from basediv.errors import show_int, show_value
from basediv.riemann_roch import HALF_DIM_LIMIT, deformation_from_json_dict

from conftest import fixture_path

PENCIL = json.loads(fixture_path("k3_pencil.json").read_text())


def edited(edit):
    data = copy.deepcopy(PENCIL)
    edit(data)
    return json.dumps(data).encode()


def generic(coeffs):
    return edited(lambda d: d.update(deformation={"kind": "Generic", "n": 1, "coeffs": coeffs}))


def deformation(kind, n):
    return edited(lambda d: d.update(deformation={"kind": kind, "n": n}))


# q(HUGE_AMPLE) = 2 * 10**4400 on the pencil lattice
HUGE_AMPLE = [2 * 10**2200, 10**2200]

# (id, file contents, exit code, text the diagnostic must contain, also run rr-eval)
CASES = [
    ("peds-int", edited(lambda d: d.update(peds=5)), 2, "peds must be an array", False),
    ("peds-item-int", edited(lambda d: d.update(peds=[5])), 2, "peds[0] must be an array", False),
    ("peds-string", edited(lambda d: d.update(peds="ab")), 2, "peds must be an array", False),
    ("walls-int", edited(lambda d: d.update(walls=5)), 2, "walls must be an array", False),
    ("ample-int", edited(lambda d: d.update(ample=5)), 2, "ample must be an array", False),
    ("gram-int", edited(lambda d: d["lattice"].update(gram=5)), 2, "lattice.gram must be an array", False),
    ("gram-rows-int", edited(lambda d: d["lattice"].update(gram=[5, 6])), 2, "lattice.gram[0] must be an array", False),
    ("note-int", edited(lambda d: d.update(note=5)), 2, "note must be a string", False),
    ("coeffs-int", generic(7), 2, "deformation.coeffs must be an array", True),
    ("coeffs-word", generic(["x", "1"]), 2, "deformation.coeffs[0] must be a rational number", True),
    ("coeffs-zero-denominator", generic(["1/0", "1"]), 2, "deformation.coeffs[0] must be a rational number", True),
    ("coeffs-missing", deformation("Generic", 1), 2, 'Generic deformation JSON needs a "coeffs" array', True),
    ("coeffs-empty", generic([]), 1, "coefficient vector must be nonempty", True),
    # more digits than int() converts (4300 by default), refused as unreadable
    ("coeffs-5000-digit-string", generic(["1", "7" * 5000]), 2, "deformation.coeffs[1] must be a rational number, got '77777777777777777777'... (5000 characters)", True),
    ("coeffs-5001-digits", generic(["1", "-1e5000"]), 1, "leading coefficient must be positive, got -<integer of 5001 digits>", True),
    ("coeffs-exponent-8-digits", generic(["1", "1e99999999"]), 1, "deformation.coeffs[1] has a decimal exponent", True),
    ("coeffs-exponent-5000-digits", generic(["1", "1e" + "9" * 5000]), 1, "deformation.coeffs[1] has a decimal exponent of more than four digits, got '1e999999999999999999'... (5002 characters)", True),
    ("ample-square-4401-digits", edited(lambda d: d.update(ample=HUGE_AMPLE)), 1, "(ample, [0, 1]) = 0 but effective classes", False),
    ("kind-og6", deformation("OG6", 3), 1, "unknown deformation kind 'OG6'", False),
    ("kumn-1", deformation("Kumn", 1), 1, "Kumn requires n >= 2", False),
    ("k3n-0", deformation("K3n", 0), 1, "K3n requires n >= 1", False),
    ("k3n-2000", deformation("K3n", 2000), 1, "half-dimension limit", True),
    ("integer-5000-digits", b'{"lattice": {"gram": [[0, 1], [1, -2]]}, "ample": [' + b"9" * 5000 + b", 1]}", 2, "not valid JSON", False),
    ("array-100000-deep", b"[" * 100000 + b"]" * 100000, 2, "not valid JSON", False),
    ("bad-utf8", b'{"note": "\xff\xfe"}', 2, "not valid JSON", False),
]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("contents, code, needle, rr", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_malformed_context_is_refused(tmp_path, contents, code, needle, rr):
    path = tmp_path / "ctx.json"
    path.write_bytes(contents)
    commands = [["classify", "--class", "3,1"], ["validate-context"]] + ([["rr-eval", "--q", "4"]] if rr else [])
    for command in commands:
        got, out, err = run(command + ["--input", str(path)])
        assert got == code, (command, out, err)
        failed = [ln for ln in out.splitlines() if ln.startswith("FAIL")]
        assert err.startswith("error:") or failed, (command, out, err)
        shown = err if err else "\n".join(failed)
        assert needle in shown and len(shown) < 300, (command, out, err)  # a long input is abbreviated
        assert "malformed input" not in err and "Traceback" not in err + out


def test_over_long_integer_in_a_check_detail_is_abbreviated():
    ctx, checks = validate_context_payload(dict(PENCIL, ample=HUGE_AMPLE))
    assert ctx is None
    details = {c.name: c.detail for c in checks}
    assert details["ample-positive-square"] == "q(ample) = <integer of 4401 digits>"
    assert details["ped[0]-ample-pairing"].startswith("(ample, [0, 1]) = 0 but")


def test_show_int_abbreviates_only_past_the_digit_limit():
    """Up to 80 digits an integer is shown whole, past them by its digit count,
    whatever sys.get_int_max_str_digits() allows."""
    for x in (0, -7, 2**240, -(2**241), 10**79, 10**80 - 1, -(10**80 - 1)):
        assert show_int(x) == str(x)
    assert show_int(10**80) == "<integer of 81 digits>"
    assert show_int(-(10**4299)) == "-<integer of 4300 digits>"
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)  # str() would write any length
        assert show_int(10**5000) == "<integer of 5001 digits>"
    finally:
        sys.set_int_max_str_digits(limit)


def test_show_int_counts_a_huge_integer_from_its_bit_length():
    """Past 10**5 digits no power of ten is built; up to 10**5 the text is exact."""
    x = (2 * 2**2**20 + 1) ** 5  # 5,242,886 bits
    start = time.perf_counter()
    text = show_int(-x)
    assert time.perf_counter() - start < 0.05
    assert text == "-<integer of about 1578266 digits>"
    assert show_int(10**100000 - 1) == "<integer of 100000 digits>"
    assert show_int(10**100000) == "<integer of 100001 digits>"  # the estimate, 100000, is one short
    assert show_int(-(10**100001)) == "-<integer of about 100001 digits>"


def test_show_value_bounds_containers_and_reprs():
    assert show_value(list(range(16))) == repr(list(range(16)))
    assert show_value(tuple(range(17))) == "<tuple of 17 items>"
    assert show_value(b"7" * 77) == repr(b"7" * 77)  # a repr of 80 characters
    assert show_value(b"7" * 78) == "b'777777777777777777... (81 characters)"


LONG = 10**5000
PENCIL_CTX = GeometricContext.from_json_dict(PENCIL)


def _first_failure(payload):
    return next(c.detail for c in validate_context_payload(payload)[1] if not c.passed)


@pytest.mark.parametrize(
    "call, shown",
    [
        (lambda: _first_failure(dict(PENCIL, ample=LONG)), "ample must be an array, got <integer of 5001 digits>"),
        (lambda: repr(deformation_from_json_dict({"kind": "Generic", "n": 1, "coeffs": [1, LONG]})), "DeformationType(Generic, n=1)"),
        (lambda: classify(PENCIL_CTX, (LONG, -(10**4999))), "q(H) = -<integer of 10000 digits> must be positive"),
        (lambda: reflect(PENCIL_CTX, (LONG, 1), (1, 0)), "q([<integer of 5001 digits>, 1]) = <integer of 5001 digits>"),
        (lambda: ped_inequality_check(PENCIL_CTX.lat, (LONG, 1)), "q([<integer of 5001 digits>, 1]) = <integer of 5001 digits>"),
        (lambda: reflect_into_bk(PENCIL_CTX, (-LONG, 0)), "(alpha, ample) = -<integer of 5001 digits> must be positive"),
        (lambda: PENCIL_CTX.lat.vector([[LONG], 1]), "got <list holding an integer too long to print>"),
        (lambda: deformation_from_json_dict({"kind": "Generic", "n": 1, "coeffs": [1, [LONG]]}), "coeffs[1] must be a rational number, got <list holding"),
        (lambda: deformation_from_json_dict({"kind": LONG, "n": 1}), '"kind" must be a string, got <integer of 5001 digits>'),
    ],
    ids=[
        "as-array", "generic-int-coefficient", "classify", "reflect", "ped-inequality", "walk",
        "nested-entry", "nested-coefficient", "kind",
    ],
)
def test_long_integers_get_typed_errors(call, shown):
    """An integer too long for str() reaches the caller as a result or a
    BasedivError with the integer abbreviated, never as Python's ValueError."""
    try:
        text = call()
    except BasedivError as exc:
        text = str(exc)
    assert shown in text


@pytest.mark.parametrize(
    "call, error, shown",
    [
        (
            lambda: deformation_from_json_dict({"kind": "Generic", "n": 1, "coeffs": [["7" * 5000], 1]}), StructuralError,
            "deformation.coeffs[0] must be a rational number, got ['777777777777777777... (5004 characters)",
        ),
        (
            lambda: make_type(GENERIC, 1, coeffs=[b"7" * 5000, 1]), DomainError,
            "coeffs[0] must be a rational number, got b'777777777777777777... (5003 characters)",
        ),
        (
            lambda: deformation_from_json_dict({"kind": "Generic", "n": 1, "coeffs": [[0] * 10**5, 1]}), StructuralError,
            "deformation.coeffs[0] must be a rational number, got <list of 100000 items>",
        ),
        (
            lambda: make_type(GENERIC, 1, coeffs=[functools.reduce(lambda inner, _: [inner], range(10**5), []), 1]), DomainError,
            "coeffs[0] must be a rational number, got <list nested too deeply to print>",
        ),
    ],
    ids=["nested-string", "bytes", "long-list", "deep-list"],
)
def test_long_values_are_abbreviated(call, error, shown):
    """A long value inside a container, a long bytes value, a container of
    many items and a deep nesting are shown in a bounded diagnostic that
    still names the path."""
    with pytest.raises(error) as info:
        call()
    assert shown in str(info.value) and len(str(info.value)) < 300


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: rr_eval(make_type(K3N, 1), LONG + 1), DomainError),
        (lambda: nl_numerical_types(make_type(K3N, 1), LONG + 1), DomainError),
        (lambda: nl_numerical_types(make_type(GENERIC, 1, coeffs=["2", "1e-4000"]), LONG), CapabilityError),
    ],
    ids=["rr-odd-q", "nl-odd-q", "nl-window"],
)
def test_long_integer_refusals_are_typed(call, error):
    """The odd-q refusals and the numerical-type window refusal show a long
    q abbreviated instead of failing to format it."""
    with pytest.raises(error, match="<integer of 5001 digits>"):
        call()


def test_half_dimension_guard_comes_before_expansion():
    for kind in (K3N, KUMN):
        with pytest.raises(CapabilityError, match="half-dimension limit"):
            make_type(kind, HALF_DIM_LIMIT + 1)
    with pytest.raises(CapabilityError, match="half-dimension limit"):
        make_type(GENERIC, 1, coeffs=[1] * (HALF_DIM_LIMIT + 2))


# ---------------------------------------------------------------------------
# JSON-shaped payloads around the pencil context

def json_values(huge=False):
    leaves = (
        st.none() | st.booleans() | st.integers(-3, 3) | st.integers() | st.text(max_size=4)
        | st.sampled_from(["K3n", "Kumn", "Generic", "OG6", "1/2"])
    )
    if huge:  # integers whose squares Python will not print, and decimal exponents up to 10**8
        leaves |= st.integers(10**2199, 10**2201) | st.from_regex(r"-?[1-9]e-?[0-9]{1,8}", fullmatch=True)
    return st.recursive(
        leaves,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=8,
    )


# well-shaped vectors of the pencil lattice, which reach the invariant checks
vectors = st.lists(st.integers(-3, 3), min_size=2, max_size=2)

PATHS = [
    ("lattice",), ("lattice", "gram"), ("lattice", "gram", 0), ("lattice", "gram", 1, 1), ("lattice", "even"),
    ("ample",), ("ample", 0), ("ample", 1), ("peds",), ("peds", 0), ("peds", 0, 1), ("walls",),
    ("deformation",), ("deformation", "kind"), ("deformation", "n"), ("deformation", "coeffs"),
    ("strong_rlf",), ("note",), ("extra",),
]


_DELETE = object()


def _edit(data, path, value):
    *head, last = path
    for key in head:
        data = data[key]
    if value is _DELETE:
        if isinstance(data, dict):
            data.pop(last, None)
    elif isinstance(data, dict) or (isinstance(last, int) and last < len(data)):
        data[last] = value


@st.composite
def payloads(draw, huge=False):
    """The pencil context with a few fields replaced or deleted, or any JSON value."""
    values = json_values(huge)
    if draw(st.integers(0, 9)) == 0:
        return draw(values)
    data = copy.deepcopy(PENCIL)
    for path in draw(st.lists(st.sampled_from(PATHS), max_size=3)):
        try:
            _edit(data, path, draw(st.just(_DELETE) | vectors | st.lists(vectors, max_size=2) | values))
        except (KeyError, IndexError, TypeError):
            pass  # an earlier edit removed or replaced the parent
    return data


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(payloads())
@example(dict(PENCIL, deformation={"kind": "OG6", "n": 3}, peds=[[0, 1], 5]))  # domain, then structural
@example(dict(PENCIL, ample=[1, 0], walls=[[1]]))
@example(dict(PENCIL, strong_rlf="false"))
@example(dict(PENCIL, strong_rlf=1, peds=[[0, 1], 5]))
@example(dict(PENCIL, note=5, lattice={"gram": [[0, 1], [1, -2]], "even": "false"}))
@example(dict(PENCIL, note=None))
def test_agreement_with_the_checker(data):
    ctx, checks = validate_context_payload(data)
    failed = [c for c in checks if not c.passed]
    assert (ctx is None) == bool(failed)
    try:
        parsed = GeometricContext.from_json_dict(data)
    except BasedivError as exc:
        assert ctx is None
        assert isinstance(exc, StructuralError) == any(c.structural for c in failed)
        parsed = exc
    else:
        assert ctx is not None and parsed == ctx and parsed.to_json_dict() == ctx.to_json_dict()
    built = library_build(data)
    if built is not None:
        # both paths build equal contexts, or both raise an error of the same class
        assert type(built) is type(parsed), (built, parsed)
        assert ctx is None or built == parsed


def library_build(data):
    """The context, or the error, of the library constructor on the fields of a
    payload whose lattice and deformation type parse; None for any other
    payload, and for a "note" holding null, which only the reader refuses."""
    if not (isinstance(data, dict) and isinstance(data.get("lattice"), dict) and "gram" in data["lattice"] and "ample" in data):
        return None
    if "note" in data and data["note"] is None:
        return None
    try:
        lat = Lattice(data["lattice"]["gram"], data["lattice"].get("even"))
        dtype = deformation_from_json_dict(data["deformation"]) if "deformation" in data else None
    except BasedivError:
        return None
    fields = (data["ample"], data.get("peds", ()), data.get("walls", ()), dtype, data.get("strong_rlf", False), data.get("note"))
    try:
        return GeometricContext(lat, *fields)
    except BasedivError as exc:
        return exc


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "ctx.json"


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=payloads(huge=True))
@example(data=dict(PENCIL, ample=HUGE_AMPLE))
@example(data=dict(PENCIL, deformation={"kind": "Generic", "n": 1, "coeffs": ["1", "-1e5000"]}))
def test_cli_never_raises(fuzz_file, data):
    fuzz_file.write_text(json.dumps(data))
    code, _, err = run(["classify", "--input", str(fuzz_file), "--class", "3,1"])
    assert code in (0, 1, 2)
    assert code != 0 or data.get("strong_rlf") is True
    assert code == 0 or err.startswith("error:")
    code, out, err = run(["validate-context", "--input", str(fuzz_file)])
    assert code in (0, 1, 2)
    assert (code == 0) == out.endswith("context valid\n")
