"""Mutation check: every listed decision line is guarded by a failing test.

    python tests/mutants.py

Copies ``src``, ``tests`` and ``pyproject.toml`` of the checkout this file
sits in to a temporary directory, runs the named test files there once
unchanged (they must pass), then applies each textual mutant in turn, runs
its test files, and requires pytest to report failing tests (exit status 1).
The checkout is never written.  Stdlib only; pytest collects ``test_*.py``
files, so it does not collect this one.  Exits 0 when every mutant is killed.

A mutant whose original text does not occur exactly once in its file is an
error: the list has gone stale and must follow the code.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 900

CLASSIFIER = "src/basediv/classifier.py"
CONES = "src/basediv/cones.py"
RIEMANN_ROCH = "src/basediv/riemann_roch.py"
LATTICE = "src/basediv/lattice.py"
ERRORS = "src/basediv/errors.py"

CLASSIFY_TESTS = ("tests/test_classifier.py", "tests/test_acceptance.py")
WALK_TESTS = ("tests/test_cones.py",)

# (name, file, original text, mutated text, test files)
MUTANTS = (
    # the big-and-nef checks that open the classify run
    ("big-sign", CLASSIFIER, "if q_h <= 0:", "if q_h < 0:", CLASSIFY_TESTS),
    ("ample-sign", CLASSIFIER, "if p_h <= 0:", "if p_h < 0:", CLASSIFY_TESTS),
    ("nef-sign", CLASSIFIER, "if min(pairings, default=0) < 0:", "if min(pairings, default=0) < -1:", CLASSIFY_TESTS),
    # the ped scan
    ("isotropy", CLASSIFIER, "if q_h - 2 * h_f + q_f != 0:", "if q_h - 2 * h_f + q_f > 0:", CLASSIFY_TESTS),
    ("content", CLASSIFIER, "if m < 2 or", "if m < 1 or", CLASSIFY_TESTS),
    ("chi", CLASSIFIER, "if m < 2 or math.comb(m + n, n) != chi:", "if m < 2:", CLASSIFY_TESTS),
    # the closure test, read from F's row of the ped table
    ("closure-ample-half", CLASSIFIER, "if f_row[0] >= p_h or any(", "if any(", CLASSIFY_TESTS),
    ("closure-ped-half", CLASSIFIER, "if f_row[0] >= p_h or any(map(gt, f_row[1:], pairings)):", "if f_row[0] >= p_h:", CLASSIFY_TESTS),
    ("table-column", CLASSIFIER, "map(gt, f_row[1:], pairings)", "map(gt, f_row[:-1], pairings)", CLASSIFY_TESTS),
    # the reflection walk
    ("walk-scalar", CONES, "num = 2 * p\n", "num = 4 * p\n", WALK_TESTS),
    ("walk-height-column", CONES, "height - a * d_row[0]", "height - a * d_row[1]", WALK_TESTS),
    ("walk-descent", CONES, "if not (0 < new_height < height):", "if not (new_height < height):", WALK_TESTS),
    # the guards and helpers below the classifier
    ("monotonic-horizon", RIEMANN_ROCH, "horizon = max(2 * t.n, t.rr.root_bound + 2)", "horizon = t.rr.root_bound + 2", ("tests/test_riemann_roch.py",)),
    ("monotonic-horizon-slack", RIEMANN_ROCH, "t.rr.root_bound + 2)", "t.rr.root_bound)", ("tests/test_riemann_roch.py",)),
    ("rr-eval-guard", RIEMANN_ROCH, "if t.n * q.bit_length() > RR_EVAL_BITS_LIMIT:", "if q.bit_length() > RR_EVAL_BITS_LIMIT:", ("tests/test_riemann_roch.py",)),
    ("last-coordinate-remainder", LATTICE, "if rem == 0 and -bound <= x <= bound:", "if -bound <= x <= bound:", ("tests/test_lattice.py",)),
    ("completions-memo-key", LATTICE, "memo[i, c] = out", "memo[i, 0] = out", ("tests/test_lattice.py",)),
    ("show-int-limit", ERRORS, "n.bit_length() <= 3 * limit", "n.bit_length() <= 4 * limit", ("tests/test_context_parse.py",)),
)


def run_tests(tree: str, files: tuple[str, ...]) -> int:
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *files]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    return proc.returncode


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory(prefix="basediv-mutants-") as tree:
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, part), os.path.join(tree, part), ignore=skip)
        shutil.copy2(os.path.join(ROOT, "pyproject.toml"), tree)
        files = sorted({f for m in MUTANTS for f in m[4]})
        status = run_tests(tree, tuple(files))
        if status != 0:
            print(f"unmutated tree: pytest exited {status} on {' '.join(files)}; no mutant can be judged")
            return 1
        for name, path, old, new, tests in MUTANTS:
            target = os.path.join(tree, path)
            with open(target, encoding="utf-8") as fh:
                source = fh.read()
            count = source.count(old)
            if count != 1:
                print(f"{name}: STALE, {old!r} occurs {count} times in {path}")
                failures += 1
                continue
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(source.replace(old, new))
            start = time.perf_counter()
            try:
                status = run_tests(tree, tests)
            finally:
                with open(target, "w", encoding="utf-8") as fh:
                    fh.write(source)
            elapsed = time.perf_counter() - start
            if status == 1:
                print(f"{name}: killed ({elapsed:.1f} s)")
            else:
                # 0: every test passed; anything else is an error, not a kill
                print(f"{name}: SURVIVED, pytest exited {status} ({elapsed:.1f} s)")
                failures += 1
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
