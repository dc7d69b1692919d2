import hashlib
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from basediv.cli import main
from basediv.cones import COORD_BITS_LIMIT

from conftest import fixture_path

PENCIL = str(fixture_path("k3_pencil.json"))
KUM2 = str(fixture_path("kum2_u.json"))
CORRUPTED = str(fixture_path("corrupted_ped.json"))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_text(capsys):
    code, out, err = run(capsys, "classify", "--input", PENCIL, "--class", "3,1")
    assert code == 0
    assert "base divisor: yes" in out
    assert "H = 3*L + F" in out


def test_classify_json_round_trip(capsys):
    code, out, _ = run(capsys, "classify", "--input", PENCIL, "--class", "3,1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["has_base_divisor"] is True
    assert payload["decomposition"] == {"m": 3, "L": [1, 0], "F": [0, 1], "d": 1}
    assert payload["q_H"] == 4
    assert payload["rr_value"] == 4
    assert payload["certificates"] == {"monotonic": True, "strong_rlf": True}


def test_classify_byte_identical_output(capsys):
    _, first, _ = run(capsys, "classify", "--input", PENCIL, "--class", "3,1", "--format", "json")
    _, second, _ = run(capsys, "classify", "--input", PENCIL, "--class", "3,1", "--format", "json")
    assert first == second


def test_classify_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "classify", "--input", PENCIL, "--class", "1,1")
    assert code == 1
    assert "not big" in err


def test_classify_hypothesis_error_exit_code(capsys, tmp_path):
    data = json.loads(Path(PENCIL).read_text())
    data["strong_rlf"] = False
    path = tmp_path / "noflag.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "classify", "--input", str(path), "--class", "3,1")
    assert code == 1
    assert "strong_rlf" in err


def test_classify_huge_class_is_exact(capsys):
    code, out, _ = run(capsys, "classify", "--input", PENCIL, "--class", "1000000000000,1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["decomposition"]["m"] == 10**12
    assert payload["certificates"]["monotonic"] is True


def _with(tmp_path, edit):
    data = json.loads(Path(PENCIL).read_text())
    edit(data)
    path = tmp_path / "ctx.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_strong_rlf_string_is_refused(capsys, tmp_path):
    path = _with(tmp_path, lambda d: d.update(strong_rlf="false"))
    code, _, err = run(capsys, "classify", "--input", path, "--class", "3,1")
    assert code == 2
    assert err.startswith("error:") and "strong_rlf" in err and "malformed input" not in err
    code, out, _ = run(capsys, "validate-context", "--input", path)
    assert code == 2
    assert "FAIL  strong_rlf" in out


def test_even_flag_string_is_refused(capsys, tmp_path):
    path = _with(tmp_path, lambda d: d["lattice"].update(even="no"))
    code, _, err = run(capsys, "classify", "--input", path, "--class", "3,1")
    assert code == 2
    assert err.startswith("error:") and '"even"' in err and "malformed input" not in err


def test_deformation_kind_list_is_refused(capsys, tmp_path):
    path = _with(tmp_path, lambda d: d["deformation"].update(kind=["K3n"]))
    code, _, err = run(capsys, "classify", "--input", path, "--class", "3,1")
    assert code == 2
    assert err.startswith("error:") and '"kind"' in err and "malformed input" not in err


def test_class_vector_length_mismatch_is_malformed_input(capsys):
    code, _, err = run(capsys, "classify", "--input", PENCIL, "--class", "3,1,1")
    assert code == 2
    code, _, err = run(capsys, "classify", "--input", PENCIL, "--class", "3,x")
    assert code == 2


def test_missing_and_malformed_files(capsys, tmp_path):
    code, _, err = run(capsys, "classify", "--input", str(tmp_path / "nope.json"), "--class", "3,1")
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "classify", "--input", str(bad), "--class", "3,1")
    assert code == 2


def test_reflect_bk_walk(capsys):
    code, out, _ = run(capsys, "reflect-bk", "--input", KUM2, "--class", "1,0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"result": [0, 1], "steps": [{"ped": [1, -1], "a": 1}]}


def test_reflect_bk_text_table_shows_descent(capsys):
    code, out, _ = run(capsys, "reflect-bk", "--input", KUM2, "--class", "1,0")
    assert code == 0
    assert "(alpha, ample)" in out
    assert "result: [0, 1]" in out
    lines = [ln for ln in out.splitlines() if ln.strip() and not ln.startswith("result")]
    heights = [int(ln.rsplit(" ", 1)[1]) for ln in lines[1:]]
    assert heights == sorted(heights, reverse=True)


def test_rr_eval_with_context_and_bare_deformation(capsys, tmp_path):
    code, out, _ = run(capsys, "rr-eval", "--input", PENCIL, "--q", "4", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"kind": "K3n", "n": 1, "q": 4, "chi": 4}
    bare = tmp_path / "kum3.json"
    bare.write_text(json.dumps({"kind": "Kumn", "n": 3}))
    code, out, _ = run(capsys, "rr-eval", "--input", str(bare), "--q", "0", "--format", "json")
    assert code == 0
    assert json.loads(out)["chi"] == 4


def test_rr_eval_past_the_bit_limit_is_refused(capsys, tmp_path):
    # n * q.bit_length() = 500 * 1050 passes the limit of 2**19
    bare = tmp_path / "k3n500.json"
    bare.write_text(json.dumps({"kind": "K3n", "n": 500}))
    code, out, err = run(capsys, "rr-eval", "--input", str(bare), "--q", str(2**1049))
    assert (code, out) == (1, "")
    assert err.startswith("error: RR value at a q of 1050 bits for n = 500") and "limit" in err


def test_rr_eval_and_nl_types_read_only_the_deformation(capsys, tmp_path):
    # an asymmetric Gram matrix stops the commands that read the whole context
    path = _with(tmp_path, lambda d: d["lattice"].update(gram=[[0, 1], [2, -2]]))
    assert run(capsys, "rr-eval", "--input", path, "--q", "4") == (0, "chi(q=4) = 4   [K3n, n=1]\n", "")
    assert run(capsys, "nl-types", "--input", path, "--qh", "4") == (0, "m=3 d=1 q_F=-2\n", "")
    for command in (["classify", "--class", "3,1"], ["reflect-bk", "--class", "3,1"]):
        code, out, err = run(capsys, command[0], "--input", path, *command[1:])
        assert (code, out) == (2, "") and "symmetric" in err
    code, out, _ = run(capsys, "validate-context", "--input", path)
    assert code == 2 and "context invalid" in out


def test_text_lines_before_an_unprintable_integer_are_printed(capsys, tmp_path):
    # q(H) has 1,501 digits; chi = RR(q(H)) on K3^[3], about 4,500, is past the limit
    path = _with(tmp_path, lambda d: d.update(deformation={"kind": "K3n", "n": 3}))
    h = f"{10**1500},1"
    error = f"error: cannot print an integer of more than {sys.get_int_max_str_digits()} digits\n"
    assert run(capsys, "classify", "--input", path, "--class", h) == (1, f"q(H) = {2 * 10**1500 - 2}\n", error)
    assert run(capsys, "classify", "--input", path, "--class", h, "--format", "json") == (1, "", error)


def test_rr_eval_odd_q_is_domain_error(capsys):
    code, _, err = run(capsys, "rr-eval", "--input", PENCIL, "--q", "3")
    assert code == 1
    assert "even" in err


def test_nl_types_command(capsys):
    code, out, _ = run(capsys, "nl-types", "--input", KUM2, "--qh", "2", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"q_H": 2, "types": []}
    code, out, _ = run(capsys, "nl-types", "--input", PENCIL, "--qh", "4")
    assert code == 0
    assert "m=3 d=1 q_F=-2" in out


def test_scan_kumn_reports_zero_solutions(capsys):
    code, out, _ = run(capsys, "scan-kumn", "--n-max", "4", "--m-max", "10", "--d-max", "10")
    assert code == 0
    assert "0 solutions found" in out


def test_rank2_scan(capsys):
    code, out, _ = run(capsys, "rank2-scan", "--bound", "50", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"bound": 50, "classes": [[-1, 1], [1, -1]]}


def test_unbounded_scans_are_refused(capsys, tmp_path):
    code, _, err = run(capsys, "rank2-scan", "--bound", "100000000")
    assert code == 1
    assert "limit" in err
    code, _, err = run(capsys, "scan-kumn", "--n-max", "1000", "--m-max", "1000")
    assert code == 1
    assert "limit" in err
    # chi = 4 pins m = 3, leaving about 1.7e11 values of d
    slow = tmp_path / "slow.json"
    slow.write_text(json.dumps({"kind": "Generic", "n": 1, "coeffs": ["2", "1/1000000000000"]}))
    start = time.perf_counter()
    code, _, err = run(capsys, "nl-types", "--input", str(slow), "--qh", "2000000000000")
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert err.startswith("error:") and "limit" in err


def test_huge_kumn_box_is_refused_before_allocating(capsys):
    # a sweep would first list 10^10 values of d
    start = time.perf_counter()
    code, out, err = run(capsys, "scan-kumn", "--n-max", "1000", "--m-max", "1000", "--d-max", "10000000000")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err.startswith("error:") and "limit" in err


def test_registered_kind_coefficients_must_be_its_closed_form(capsys, tmp_path):
    cases = [(["3", "5/4", "1/8"], 0, ""), (["0", "-5", "1"], 1, "explicit coefficients must equal it"), ("junk", 2, "deformation.coeffs")]
    for coeffs, expected, message in cases:
        path = _with(tmp_path, lambda d: d.update(deformation={"kind": "K3n", "n": 2, "coeffs": coeffs}))
        for command in (["rr-eval", "--q", "4"], ["classify", "--class", "3,1"], ["validate-context"]):
            code, out, err = run(capsys, command[0], "--input", path, *command[1:])
            assert code == expected and message in (err or out), (command, coeffs)


def test_validate_context_ok(capsys):
    code, out, _ = run(capsys, "validate-context", "--input", PENCIL)
    assert code == 0
    assert "context valid" in out


def test_validate_context_rejects_corrupted_ped(capsys):
    code, out, _ = run(capsys, "validate-context", "--input", CORRUPTED)
    assert code == 1
    assert "context invalid" in out
    assert "q(D) | 2*div(D)" in out  # the violated divisibility condition is named


def test_validate_context_json_report(capsys):
    code, out, _ = run(capsys, "validate-context", "--input", CORRUPTED, "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["valid"] is False
    failed = [c for c in payload["checks"] if not c["passed"]]
    assert failed and failed[0]["name"] == "ped[0]-divisibility"


def test_validate_context_structural_failure_is_exit_two(capsys, tmp_path):
    bad = tmp_path / "asym.json"
    bad.write_text(json.dumps({"lattice": {"gram": [[0, 1], [2, 0]]}, "ample": [1, 1]}))
    code, out, _ = run(capsys, "validate-context", "--input", str(bad))
    assert code == 2
    assert "context invalid" in out


def test_validate_context_refuses_an_oversized_context_with_exit_one(capsys, tmp_path):
    path = _with(tmp_path, lambda d: d.update(walls=[[1, 0]] * 1000))  # 1,001 peds and walls
    for fmt in ("text", "json"):
        code, out, _ = run(capsys, "validate-context", "--input", path, "--format", fmt)
        assert code == 1 and "context-size" in out and "exceeds the limits" in out
    code, _, err = run(capsys, "classify", "--input", path, "--class", "3,1")
    assert code == 1 and err.startswith("error:") and "exceeds the limits" in err


def test_validate_context_names_an_oversized_gram_entry(capsys, tmp_path):
    """A Gram entry of more than COORD_BITS_LIMIT bits fails lattice-size with exit 1.
    JSON carries such an entry only where int() reads that many digits, so the
    digit limit is lifted while the file is written and read."""
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        g = 2 ** (COORD_BITS_LIMIT + 1) - 1
        path = _with(tmp_path, lambda d: d["lattice"].update(gram=[[0, g], [g, -2]]))
        for fmt in ("text", "json"):
            code, out, _ = run(capsys, "validate-context", "--input", path, "--format", fmt)
            assert code == 1 and "lattice-size" in out and f"an entry of {COORD_BITS_LIMIT + 1} bits" in out
    finally:
        sys.set_int_max_str_digits(limit)


def test_package_runs_as_a_module():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "basediv", "rank2-scan", "--bound", "1", "--format", "json"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"bound": 1, "classes": [[-1, 1], [1, -1]]}


def test_closed_pipe_gives_one_error_line():
    """A reader that closed stdout before the output was written gets exit 1 and
    one error line, no traceback, whether stdout is buffered or not."""
    for unbuffered in ("", "1"):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"), PYTHONUNBUFFERED=unbuffered)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "basediv", "validate-context", "--input", PENCIL, "--format", "json"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, "error: standard output was closed by its reader\n")


# Run with -S so that the host's site module cannot load typing first.  The
# further arguments are Generic contexts that the library also parses and
# classifies, as a caller that never starts the CLI would.
COLD_START = """
import io, json, sys
import basediv.cli
heavy = ("dataclasses", "inspect", "typing", "fractions", "decimal", "numbers", "basediv.oracle")
at_import = [m for m in heavy if m in sys.modules]
codes = []
for argv in json.loads(sys.argv[1]):
    sys.stdout = io.StringIO()
    try:
        codes.append(basediv.cli.main(argv))
    finally:
        sys.stdout = sys.__stdout__
for path in sys.argv[2:]:
    with open(path) as fh:
        ctx = basediv.GeometricContext.from_json_dict(json.loads(fh.read()))
    basediv.classify(ctx, (2, 3, 0))
print(json.dumps([at_import, [m for m in ("fractions", "decimal", "numbers") if m in sys.modules], codes]))
"""


def test_cold_start_imports_no_dataclasses_typing_or_fractions(tmp_path):
    k3n2 = str(fixture_path("k3n2_rank3.json"))
    data = json.loads(Path(k3n2).read_text())
    # digits a and a/b, signed and padded, are read without importing fractions
    generics = []
    for i, coeffs in enumerate((["3", "5/4", "1/8"], ["+3", " 5/4 ", "1/8"])):
        generic = tmp_path / f"generic{i}.json"
        data["deformation"] = {"kind": "Generic", "n": 2, "coeffs": coeffs}
        generic.write_text(json.dumps(data))
        generics.append(str(generic))
    commands = []
    for fmt in ("text", "json"):
        commands += [
            ["classify", "--input", PENCIL, "--class", "3,1", "--format", fmt],
            ["classify", "--input", k3n2, "--class", "2,3,0", "--format", fmt],
            ["reflect-bk", "--input", k3n2, "--class", "1,0,0", "--format", fmt],
            ["validate-context", "--input", k3n2, "--format", fmt],
            ["rr-eval", "--input", k3n2, "--q", "4", "--format", fmt],
            ["nl-types", "--input", PENCIL, "--qh", "4", "--format", fmt],
        ]
        for generic in generics:
            commands += [
                ["classify", "--input", generic, "--class", "2,3,0", "--format", fmt],
                ["validate-context", "--input", generic, "--format", fmt],
            ]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", COLD_START, json.dumps(commands), *generics],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    at_import, after_commands, codes = json.loads(proc.stdout)
    assert at_import == []
    assert after_commands == []
    assert codes == [0] * len(commands)


# Byte identity of the CLI.  Each group is one input file, one command and one
# format; its digest is the SHA-256 of every invocation's exit code, stdout and
# stderr, in order.  A change that alters any output byte, message or exit code
# on these inputs changes a digest here.
DIGEST_FIXTURES = ("k3_pencil.json", "k3n2_rank3.json", "kum2_u.json", "corrupted_ped.json")
GENERIC_PENCILS = {
    "generic-drop": ["3", "-4", "1"],  # drops at q = 2
    "generic-no-real-root": ["0", "300000060000005/6", "-10000001/2", "1/6"],
    "generic-k3n2": ["3", "5/4", "1/8"],  # K3^[2]'s polynomial
    "generic-non-integral": ["4", "20/9", "1/3", "1/36"],  # 1/3 off an integer at q = 6
}
RR_QS = ("0", "2", "3", "4", "1000000", "2000000")
NL_QHS = ("2", "4", "6", "10", "1000")
SCAN_KUMN_ARGS = ((), ("--n-max", "4", "--m-max", "10", "--d-max", "10"), ("--n-max", "1000", "--m-max", "1000"))
RANK2_BOUNDS = ("0", "1", "50", "500", "501")
DIGESTS = {
    "k3_pencil.json/classify/text": "0411a8fb9b93984ef2d318ddec5b9fa50e49ea5a58ee56dff0ffc99292b46e9b",
    "k3_pencil.json/reflect-bk/text": "61b59dfc95b52ef8e3910634f0bb213f8038eed91c88388fa607bf3be631b586",
    "k3_pencil.json/validate-context/text": "fbb38d39ad0fa626e142719cfbb3ec3e033d53b6fe6c65b43f85f9bcd2bfb65e",
    "k3_pencil.json/rr-eval/text": "29a15a6d4f6ed7278a74b6320bdf5735adbc8a58835a6aca25d43f74a876ba10",
    "k3_pencil.json/nl-types/text": "bd228ff65c520e920f2c7a1cc38ab08ef30f5472fc2d3ff0281cbddf87ed0782",
    "k3_pencil.json/classify/json": "497f59d50b137f70aefb1e4f6dda61ec5ae45eb30a6eaa1a81b89e0bad3c95ee",
    "k3_pencil.json/reflect-bk/json": "cc99bfd0f09fc08f40d079ac6c36457f488d3ed7d26b8c84c76a68ce9781e125",
    "k3_pencil.json/validate-context/json": "731a5f559638638f916fdfa1261c11cfc6e8aff7ade62dd85f07d20ca854e832",
    "k3_pencil.json/rr-eval/json": "6bf47af676ca8d2182cbd453fb055a317ea33f259a01faa03251c2fc2232c06d",
    "k3_pencil.json/nl-types/json": "83c141008373302bec380aab80740b8ae26d88c14b0286893dc94ccb47c6958d",
    "k3n2_rank3.json/classify/text": "f684f5f39e08cbb9f5e1cc6572818b0e316efceece25afffd02cf9e12411bca3",
    "k3n2_rank3.json/reflect-bk/text": "4d5d5a9aa05d25370b0b26f05f428ef5413a5f559f36ae7e97bd97eafd278c5d",
    "k3n2_rank3.json/validate-context/text": "dab45581c18add6763c3167fdab69c75fcddb0c36d8f6d995158729733e815f0",
    "k3n2_rank3.json/rr-eval/text": "6f763484de1d51f5aa1d7abe2425a902906e366e1b96ad0fe59c38a22bd21bf5",
    "k3n2_rank3.json/nl-types/text": "bd228ff65c520e920f2c7a1cc38ab08ef30f5472fc2d3ff0281cbddf87ed0782",
    "k3n2_rank3.json/classify/json": "b0bdea4a2770e13b9ddee95479935c4112496bfe8b41420c75c3a55673eb4a8b",
    "k3n2_rank3.json/reflect-bk/json": "8b5ca1f95bfbaabf0684a478b865926c6cdffb2347a9c4e643d206bd20681047",
    "k3n2_rank3.json/validate-context/json": "94aab399bd1cdf43246de0c1020dd97109e3fbb01de45dee4e2169305db6cf21",
    "k3n2_rank3.json/rr-eval/json": "638fe6c1136f3e6d79ac0f53accec8bd724ab2d8accd874591a2e67c7e1e1f5a",
    "k3n2_rank3.json/nl-types/json": "83c141008373302bec380aab80740b8ae26d88c14b0286893dc94ccb47c6958d",
    "kum2_u.json/classify/text": "d3329412f09211fa2d8a90ba239ffaa666ff49ac670255ee6e079aa971eb5c22",
    "kum2_u.json/reflect-bk/text": "644f8251429705c6c13e8e00255ac377c4a1644c126e5169047e235041ee826a",
    "kum2_u.json/validate-context/text": "d48865b6a6f005a54e6da7b4d32aa878a4d784b49624eadef7c9990e1dfce970",
    "kum2_u.json/rr-eval/text": "9b4f045d8d9cf26c1325cd3cb7b4d6afac64d9f130d72b330acc0a4b63959da2",
    "kum2_u.json/nl-types/text": "81064483deab2cbcd5eb5620253ce79a2047046087f14ea54e4ba355c360aab2",
    "kum2_u.json/classify/json": "17de5b2d218ef5c581ec63247194fa252aa27dff550403511e8a4f1f1b4a4cb8",
    "kum2_u.json/reflect-bk/json": "1849eba21e0f3432de5e892ed0bb57cf3be3ba9843ab58b0294b8b29d824f402",
    "kum2_u.json/validate-context/json": "557853dea0b4a6457ee6f8930bb0e46c69070b3e74fc04517eef9c8b880e87df",
    "kum2_u.json/rr-eval/json": "b7d1b98e461643ec20ab7ac5e6150535e727d96193b938159e3e6c78c98fbfdd",
    "kum2_u.json/nl-types/json": "69a6c7c1843c3365f068b58fec0ca213d20eb370f2df8b18551f4a6e912dc6ef",
    "corrupted_ped.json/classify/text": "722b83bd001927d56eaa70ccb2b72f81947029b2637e5ee3c50eba883c313635",
    "corrupted_ped.json/reflect-bk/text": "722b83bd001927d56eaa70ccb2b72f81947029b2637e5ee3c50eba883c313635",
    "corrupted_ped.json/validate-context/text": "a3aa556dc81a6541e02d5f1b4173873a26c289f7377a1be79d70a9395666f07e",
    "corrupted_ped.json/rr-eval/text": "6f763484de1d51f5aa1d7abe2425a902906e366e1b96ad0fe59c38a22bd21bf5",
    "corrupted_ped.json/nl-types/text": "bd228ff65c520e920f2c7a1cc38ab08ef30f5472fc2d3ff0281cbddf87ed0782",
    "corrupted_ped.json/classify/json": "722b83bd001927d56eaa70ccb2b72f81947029b2637e5ee3c50eba883c313635",
    "corrupted_ped.json/reflect-bk/json": "722b83bd001927d56eaa70ccb2b72f81947029b2637e5ee3c50eba883c313635",
    "corrupted_ped.json/validate-context/json": "07338e3747575d0b6da0489edd6a6f58c7ba03c993ff4fdd7f40f0d1106656e1",
    "corrupted_ped.json/rr-eval/json": "638fe6c1136f3e6d79ac0f53accec8bd724ab2d8accd874591a2e67c7e1e1f5a",
    "corrupted_ped.json/nl-types/json": "83c141008373302bec380aab80740b8ae26d88c14b0286893dc94ccb47c6958d",
    "generic-drop/classify/text": "e7a2459963ff2c7b1c0d4cdf6ed6dcd32ce99a5d7c499922ff67227993e1c1c8",
    "generic-drop/reflect-bk/text": "61b59dfc95b52ef8e3910634f0bb213f8038eed91c88388fa607bf3be631b586",
    "generic-drop/validate-context/text": "8dada1260284622a7cd45e9c5fae0d447059dc5308912bcf58e2df7dbd54708e",
    "generic-drop/rr-eval/text": "2446edb26519cd30f5f5b9b3aaf50b65a9c309e338db35b672b3f309fbb59805",
    "generic-drop/nl-types/text": "db17472fccfe592e70a9cb50208fd787171e6de6dd4bc92f5175b3f268bf36f3",
    "generic-drop/classify/json": "e7a2459963ff2c7b1c0d4cdf6ed6dcd32ce99a5d7c499922ff67227993e1c1c8",
    "generic-drop/reflect-bk/json": "cc99bfd0f09fc08f40d079ac6c36457f488d3ed7d26b8c84c76a68ce9781e125",
    "generic-drop/validate-context/json": "0d572ee96c5419818ac488ea4ceedf49f52b4d3f7950084ad760b5c660335b0e",
    "generic-drop/rr-eval/json": "4389a63d90d5d129a9131553d9f9d08b1da3fe8d9d456b5072da92bc5d493089",
    "generic-drop/nl-types/json": "9f8375c7ae3b01718d48a880b9d62406aaec7b3a7a4c02be3f866b13f2412aea",
    "generic-no-real-root/classify/text": "610287ab0736c0fde18ced7aadfc846e18a563fbdd19bae676b2e4b5592ec301",
    "generic-no-real-root/reflect-bk/text": "61b59dfc95b52ef8e3910634f0bb213f8038eed91c88388fa607bf3be631b586",
    "generic-no-real-root/validate-context/text": "001c825daba9d5130bbe9d764256a3eb21b50b0ebc1a7e065ac001baedeefd97",
    "generic-no-real-root/rr-eval/text": "91b63e872c7014cac4f2916303ac099bedca76b11b85a591a5b95e9314ec08e8",
    "generic-no-real-root/nl-types/text": "81064483deab2cbcd5eb5620253ce79a2047046087f14ea54e4ba355c360aab2",
    "generic-no-real-root/classify/json": "a1add19919341073fa1dd3ad32e29141608b37efe81952548174a9b8d419fa7b",
    "generic-no-real-root/reflect-bk/json": "cc99bfd0f09fc08f40d079ac6c36457f488d3ed7d26b8c84c76a68ce9781e125",
    "generic-no-real-root/validate-context/json": "dca62d0fcabf3b0e88fae1eef74f8e785631d412757b71d5a2a42d6afdc78664",
    "generic-no-real-root/rr-eval/json": "7e84c878b76ae3edd2d214afa9753465b51156f1cc3b9c91802429c5e1ef908c",
    "generic-no-real-root/nl-types/json": "69a6c7c1843c3365f068b58fec0ca213d20eb370f2df8b18551f4a6e912dc6ef",
    "generic-k3n2/classify/text": "16a7c04a832e8025afd1ac94e635b159b8eb31b10564c59ad9c9c985e1be928f",
    "generic-k3n2/reflect-bk/text": "61b59dfc95b52ef8e3910634f0bb213f8038eed91c88388fa607bf3be631b586",
    "generic-k3n2/validate-context/text": "8dada1260284622a7cd45e9c5fae0d447059dc5308912bcf58e2df7dbd54708e",
    "generic-k3n2/rr-eval/text": "b2bf90cf3fc6ae865b22523600c2fcd4e0877c86999d45f70895f683b9897e0b",
    "generic-k3n2/nl-types/text": "bd228ff65c520e920f2c7a1cc38ab08ef30f5472fc2d3ff0281cbddf87ed0782",
    "generic-k3n2/classify/json": "5c845b0774147de9f216cf2e5ab10495b27cd61cb2fabb50409eba3d9c4dc4ae",
    "generic-k3n2/reflect-bk/json": "cc99bfd0f09fc08f40d079ac6c36457f488d3ed7d26b8c84c76a68ce9781e125",
    "generic-k3n2/validate-context/json": "0d572ee96c5419818ac488ea4ceedf49f52b4d3f7950084ad760b5c660335b0e",
    "generic-k3n2/rr-eval/json": "484be4c46517c8df5d85618d99a0d7843dfe8de6dfcddd54cb7187351834b5bb",
    "generic-k3n2/nl-types/json": "83c141008373302bec380aab80740b8ae26d88c14b0286893dc94ccb47c6958d",
    "generic-non-integral/classify/text": "cf0d7cd4d6a0160c2deac33617b7799c866a187bdd8e7253de0593199c3be5c3",
    "generic-non-integral/reflect-bk/text": "61b59dfc95b52ef8e3910634f0bb213f8038eed91c88388fa607bf3be631b586",
    "generic-non-integral/validate-context/text": "001c825daba9d5130bbe9d764256a3eb21b50b0ebc1a7e065ac001baedeefd97",
    "generic-non-integral/rr-eval/text": "c2f0f5db294948b4adb8918115d6b7997d776ab1ed42557ceab673d4123a8a81",
    "generic-non-integral/nl-types/text": "d2b6b8f135d46d51e3ec88a4f02e191a8039d35f13bf0a321c80be9e07ec0a48",
    "generic-non-integral/classify/json": "05b51bcc4489430311d45dc3326cecff50b7dc22ef2645235603f843082d28f3",
    "generic-non-integral/reflect-bk/json": "cc99bfd0f09fc08f40d079ac6c36457f488d3ed7d26b8c84c76a68ce9781e125",
    "generic-non-integral/validate-context/json": "dca62d0fcabf3b0e88fae1eef74f8e785631d412757b71d5a2a42d6afdc78664",
    "generic-non-integral/rr-eval/json": "e12dc7a8d55570837c545c58d5f0024c036dbe7999449f0950afeb980c89f154",
    "generic-non-integral/nl-types/json": "a3e3182459db30f8281b897a708e255b6bfdf9bc25b7c1ca52258b7dbf5d38e0",
    "-/scan-kumn/text": "a4e6549eae7cb3768c6668c35ade3b1af8f6523e723781b5e42a90d65a71f6c4",
    "-/rank2-scan/text": "f02217423cb1764e2fb2a10152e72577b1684726db4e436566f26a9cda05a4f9",
    "-/scan-kumn/json": "d2f053b387ea3e9c5bce26ea89d78c30abc1811b9e73e1097450a477f70ebe7d",
    "-/rank2-scan/json": "8c276f6c0395f1c9aad4b33319ee4434e612e4f693992c15ec04438fa87f9107",
}


def digest_inputs(tmp_path):
    """(name, path, rank) of the four fixtures and of the pencil under each Generic type."""
    inputs = []
    for name in DIGEST_FIXTURES:
        data = json.loads(fixture_path(name).read_text())
        inputs.append((name, str(fixture_path(name)), len(data["lattice"]["gram"])))
    pencil = json.loads(fixture_path("k3_pencil.json").read_text())
    for name, coeffs in GENERIC_PENCILS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(dict(pencil, deformation={"kind": "Generic", "n": len(coeffs) - 1, "coeffs": coeffs})))
        inputs.append((name, str(path), 2))
    return inputs


def digest_groups(tmp_path):
    """(group key, list of argv) for every group."""
    groups = []
    for name, path, rank in digest_inputs(tmp_path):
        classes = list(itertools.product(range(-2, 5), repeat=rank)) + [(1,) * (rank - 1), (1,) * (rank + 1)]
        for fmt in ("text", "json"):
            for command in ("classify", "reflect-bk"):
                argvs = [[command, "--input", path, "--class=" + ",".join(map(str, h)), "--format", fmt] for h in classes]
                groups.append((f"{name}/{command}/{fmt}", argvs))
            groups.append((f"{name}/validate-context/{fmt}", [["validate-context", "--input", path, "--format", fmt]]))
            argvs = [["rr-eval", "--input", path, "--q", q, "--format", fmt] for q in RR_QS]
            groups.append((f"{name}/rr-eval/{fmt}", argvs + [["rr-eval", "--input", path, "--q", "3", "--allow-odd", "--format", fmt]]))
            groups.append((f"{name}/nl-types/{fmt}", [["nl-types", "--input", path, "--qh", qh, "--format", fmt] for qh in NL_QHS]))
    for fmt in ("text", "json"):
        groups.append((f"-/scan-kumn/{fmt}", [["scan-kumn", *args, "--format", fmt] for args in SCAN_KUMN_ARGS]))
        groups.append((f"-/rank2-scan/{fmt}", [["rank2-scan", "--bound", b, "--format", fmt] for b in RANK2_BOUNDS]))
    return groups


def test_cli_output_digests(capsys, tmp_path):
    digests = {}
    for key, argvs in digest_groups(tmp_path):
        h = hashlib.sha256()
        for argv in argvs:
            code, out, err = run(capsys, *argv)
            h.update(f"{code}\0{out}\0{err}\0".encode())
        digests[key] = h.hexdigest()
    changed = sorted(k for k in digests.keys() | DIGESTS.keys() if digests.get(k) != DIGESTS.get(k))
    assert not changed, changed
