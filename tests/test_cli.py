import json
import os
import subprocess
import sys
import time
from pathlib import Path

from basediv.cli import main

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


# Run with -S so that the host's site module cannot load typing first.
COLD_START = """
import io, json, sys
import basediv.cli
heavy = ("dataclasses", "inspect", "typing", "fractions", "decimal")
at_import = [m for m in heavy if m in sys.modules]
codes = []
for argv in json.loads(sys.argv[1]):
    sys.stdout = io.StringIO()
    try:
        codes.append(basediv.cli.main(argv))
    finally:
        sys.stdout = sys.__stdout__
print(json.dumps([at_import, [m for m in ("fractions", "decimal") if m in sys.modules], codes]))
"""


def test_cold_start_imports_no_dataclasses_typing_or_fractions():
    k3n2 = str(fixture_path("k3n2_rank3.json"))
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
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", COLD_START, json.dumps(commands)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    at_import, after_commands, codes = json.loads(proc.stdout)
    assert at_import == []
    assert after_commands == []
    assert codes == [0] * len(commands)
