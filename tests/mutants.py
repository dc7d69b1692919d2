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
CLI = "src/basediv/cli.py"

CLASSIFY_TESTS = ("tests/test_classifier.py", "tests/test_acceptance.py")
WALK_TESTS = ("tests/test_cones.py",)

# the opening of classifier._classify, in source order
H_READ = "    h_vec = ctx.lat.vector(H)\n"
HYPOTHESES = (
    "    if ctx.dtype is None:\n"
    '        raise HypothesisError("context declares no deformation type; RR data is required")\n'
    "    if not ctx.strong_rlf:\n"
    "        raise HypothesisError(\n"
    '            "context does not certify the Lagrangian-fibration hypothesis (strong_rlf);"\n'
    '            " refusing to classify rather than guess"\n'
    "        )\n"
)

# (name, file, original text, mutated text, test files)
MUTANTS = (
    # the classify run reads H against the lattice before it requires the hypotheses
    ("classify-order", CLASSIFIER, H_READ + HYPOTHESES, HYPOTHESES + H_READ, CLASSIFY_TESTS),
    # the big-and-nef checks that open the classify run
    ("big-sign", CLASSIFIER, "if q_h <= 0:", "if q_h < 0:", CLASSIFY_TESTS),
    ("ample-sign", CLASSIFIER, "if p_h <= 0:", "if p_h < 0:", CLASSIFY_TESTS),
    ("nef-sign", CLASSIFIER, "if min(pairings, default=0) < 0:", "if min(pairings, default=0) < -1:", CLASSIFY_TESTS),
    # the ped scan
    ("isotropy", CLASSIFIER, "if q_h - 2 * h_f + q_f != 0:", "if q_h - 2 * h_f + q_f > 0:", CLASSIFY_TESTS),
    ("content", CLASSIFIER, "if m < 2 or", "if m < 1 or", CLASSIFY_TESTS),
    ("chi", CLASSIFIER, "if m < 2 or math.comb(m + n, n) != chi:", "if m < 2:", CLASSIFY_TESTS),
    # the closure test, read from F's row of the ped table
    ("closure-ample-half", CLASSIFIER, "if f_ample >= p_h or any(", "if any(", CLASSIFY_TESTS),
    ("closure-ped-half", CLASSIFIER, "if f_ample >= p_h or any(map(gt, f_row, pairings)):", "if f_ample >= p_h:", CLASSIFY_TESTS),
    ("table-column", CLASSIFIER, "map(gt, f_row, pairings)", "map(gt, f_row[1:], pairings)", CLASSIFY_TESTS),
    ("uniqueness", CLASSIFIER, "if len(matches) > 1:", "if len(matches) > 2:", CLASSIFY_TESTS),
    # verify_decomposition's own closure test, both halves
    ("verify-closure-ample", CLASSIFIER, "pairing(lat, l_vec, ctx.ample) > 0 and all(", "all(", CLASSIFY_TESTS),
    ("verify-closure-peds", CLASSIFIER, "pairing(lat, l_vec, d) >= 0 for d in ctx.peds", "pairing(lat, l_vec, d) >= -1 for d in ctx.peds", CLASSIFY_TESTS),
    # the numerical Noether-Lefschetz types
    ("nl-chi-floor", CLASSIFIER, "if chi < 1:", "if chi < 0:", CLASSIFY_TESTS),
    ("nl-limit", CLASSIFIER, "if hi - lo + 1 > NL_TYPES_LIMIT:", "if hi - lo + 1 >= NL_TYPES_LIMIT:", CLASSIFY_TESTS),
    # the reflection walk
    ("walk-scalar", CONES, "a = 2 * p // q_d", "a = 4 * p // q_d", WALK_TESTS),
    ("walk-height-column", CONES, "height - a * d_ample", "height - a * d_row[0]", WALK_TESTS),
    ("walk-descent", CONES, "if new_height <= 0:", "if new_height < 0:", WALK_TESTS),
    # the walk's row: the (alpha, D) cut from the walls, updated from D's row of the ped table
    ("walk-wall-cut", CONES, "row = row[:len(ctx.peds)]", "row = row", WALK_TESTS),
    ("walk-row-column", CONES, "zip(row, d_row)", "zip(row, d_row[1:])", WALK_TESTS),
    ("closure-wall-cut", CONES, "min(pairs[:len(ctx.peds)], default=0)", "min(pairs, default=0)", WALK_TESTS),
    # the walk's step limit, on both sides of a walk of exactly WALK_STEP_LIMIT steps
    ("walk-step-limit", CONES, "if len(steps) >= WALK_STEP_LIMIT:", "if len(steps) > WALK_STEP_LIMIT:", WALK_TESTS),
    ("walk-step-limit-low", CONES, "len(steps) >= WALK_STEP_LIMIT:", "len(steps) >= WALK_STEP_LIMIT - 1:", WALK_TESTS),
    # the context size limits, on both sides of each, and the walls counted with the peds
    ("context-rank-limit", CONES, "lat.rank > CONTEXT_RANK_LIMIT", "lat.rank >= CONTEXT_RANK_LIMIT", WALK_TESTS),
    ("context-rank-limit-high", CONES, "lat.rank > CONTEXT_RANK_LIMIT", "lat.rank > CONTEXT_RANK_LIMIT + 1", WALK_TESTS),
    ("context-class-limit", CONES, "count > CONTEXT_CLASS_LIMIT", "count >= CONTEXT_CLASS_LIMIT", WALK_TESTS),
    ("context-class-limit-high", CONES, "count > CONTEXT_CLASS_LIMIT", "count > CONTEXT_CLASS_LIMIT + 1", WALK_TESTS),
    ("context-size-walls", CONES, "for x in (peds, walls)", "for x in (peds,)", WALK_TESTS),
    # the one reader of the context's rows, and the ped table's cut of each ped's pass to the peds
    ("pairings-ample-index", CONES, "pairs[r], pairs[r + 1:]", "pairs[r - 1], pairs[r + 1:]", WALK_TESTS),
    ("pairings-ped-start", CONES, "pairs[r], pairs[r + 1:]", "pairs[r], pairs[r:]", WALK_TESTS),
    ("table-wall-cut", CONES, "(q, a, p[:len(peds)])", "(q, a, p)", CLASSIFY_TESTS),
    # the packed pairing pass: its guard on both sides of zero, the bias bit, and the guard itself
    ("packed-upper-guard", CONES, "max(v) < vmax:", "max(v) <= vmax:", WALK_TESTS),
    ("packed-lower-guard", CONES, "-vmax < min(v)", "-vmax <= min(v)", WALK_TESTS),
    ("packed-bias-bit", CONES, "64 * j + 63", "64 * j + 62", WALK_TESTS),
    ("packed-guard", CONES, "if -vmax < min(v) and max(v) < vmax:", "if True:", WALK_TESTS),
    # each constructor checks the fields it stores
    ("strong-rlf-type", CONES, "if not isinstance(strong_rlf, bool):", "if False:", WALK_TESTS),
    ("note-type", CONES, "if note_given and not isinstance(note, str):", "if False:", WALK_TESTS),
    ("closed-type", CONES, "if type(closed) is not bool:", "if False:", WALK_TESTS),
    ("allow-odd-type", RIEMANN_ROCH, "if type(allow_odd) is not bool:", "if False:", ("tests/test_riemann_roch.py",)),
    ("even-type", LATTICE, "if even is not None and not isinstance(even, bool):", "if False:", ("tests/test_lattice.py",)),
    # the guards and helpers below the classifier
    # the monotonicity certificate: integrality up to 2n, the tie, and the root isolation
    ("monotonic-integrality-end", RIEMANN_ROCH, "range(0, 2 * n + 1, 2)", "range(0, 2 * n - 1, 2)", ("tests/test_riemann_roch.py",)),
    ("monotonic-tie", RIEMANN_ROCH, "q // 2 - 2", "q // 2 - 1", ("tests/test_riemann_roch.py",)),
    ("descartes-prune", RIEMANN_ROCH, "if min(_taylor_shift([c * (b - a) ** i for i, c in enumerate(t)][::-1], 1)) >= 0:", "if True:", ("tests/test_riemann_roch.py",)),
    ("pruned-right-end", RIEMANN_ROCH, "rr.numerator(2 * b) > 0:", "rr.numerator(2 * b) >= 0:", ("tests/test_riemann_roch.py",)),
    ("isolation-split", RIEMANN_ROCH, "(a + 1, mid)]", "(a + 2, mid)]", ("tests/test_riemann_roch.py",)),
    ("isolation-work-guard", RIEMANN_ROCH, "if work > MONO_WORK_LIMIT:", "if work >= MONO_WORK_LIMIT:", ("tests/test_riemann_roch.py",)),
    # the registered families: their closed form is the only polynomial they hold, and
    # their verdict is the theorem's, whose hypotheses the tests check
    ("closed-form-comparison", RIEMANN_ROCH, "if kind != GENERIC and rr != _closed_form(kind, n):", "if False:", ("tests/test_riemann_roch.py",)),
    # the JSON reader counts the coefficients before it reads any, as make_type does
    ("json-count-before-read", RIEMANN_ROCH, "_check_degree(n, len(coeffs))", "_check_degree(n, 0)", ("tests/test_riemann_roch.py",)),
    # make_type refuses a registered kind's n before it reads the coefficients
    ("closed-form-first", RIEMANN_ROCH, "closed = kind != GENERIC and _closed_form(kind, n)", "closed = kind != GENERIC and coeffs is None and _closed_form(kind, n)", ("tests/test_riemann_roch.py",)),
    ("kumn-negative-shift", RIEMANN_ROCH, "shift, factor = n, n + 1", "shift, factor = n - 2, n + 1", ("tests/test_riemann_roch.py",)),
    ("registered-verdict", RIEMANN_ROCH, "else (math.inf, None, None)\n", "else (2 * n + 2, None, None)\n", ("tests/test_riemann_roch.py",)),
    # the binomial inversion's window [k - n, k - 1] around the integer root k
    ("binomial-window-low", RIEMANN_ROCH, "max(k - n, 1), ", "max(k - n + 1, 1), ", ("tests/test_riemann_roch.py",)),
    ("binomial-window-high", RIEMANN_ROCH, "max(k - 1, 1)", "max(k - 2, 1)", ("tests/test_riemann_roch.py",)),
    ("rr-eval-guard", RIEMANN_ROCH, "if t.n * q.bit_length() > RR_EVAL_BITS_LIMIT:", "if q.bit_length() > RR_EVAL_BITS_LIMIT:", ("tests/test_riemann_roch.py",)),
    ("last-coordinate-remainder", LATTICE, "if rem == 0 and -bound <= x <= bound:", "if -bound <= x <= bound:", ("tests/test_lattice.py",)),
    ("completions-memo-key", LATTICE, "memo[i, c] = out", "memo[i, 0] = out", ("tests/test_lattice.py",)),
    ("enumerate-square-bound", LATTICE, "if abs(square_value) > coeff_bound**2", "if abs(square_value) >= coeff_bound**2", ("tests/test_lattice.py",)),
    # the scans answered by their proofs, and the shared ped divisibility test
    # the one lower-bound rule of the integer arguments (rank2-scan --bound 1 among them); the
    # CLI tests judge it, since test files that build a K3^[1] type on import cannot collect under it
    ("rank2-floor", ERRORS, "x < low", "x <= low", ("tests/test_cli.py",)),
    ("kumn-guard", CLASSIFIER, "if work > KUMN_SEARCH_LIMIT:", "if work >= KUMN_SEARCH_LIMIT:", ("tests/test_classifier.py",)),
    # a remainder modulo q(D) < 0 is never positive, so the mutant accepts every ped
    ("ped-divisibility", CONES, "return (2 * dv) % qd == 0", "return (2 * dv) % qd <= 0", ("tests/test_cones.py",)),
    # the Generic coefficient reader, against Fraction(text) and the exponent guard
    ("coefficient-sign", RIEMANN_ROCH, 'if s[:1] == "-":', 'if s[:1] == "+":', ("tests/test_riemann_roch.py",)),
    ("coefficient-split", RIEMANN_ROCH, "(den_text.isdecimal() or not slash)", "(den_text or not slash)", ("tests/test_riemann_roch.py",)),
    ("coefficient-zero-denominator", RIEMANN_ROCH, "if den == 0:\n        return None", "if False:\n        return None", ("tests/test_riemann_roch.py",)),
    ("coefficient-implied-denominator", RIEMANN_ROCH, "int(den_text) if slash else 1", "int(den_text) if slash else 2", ("tests/test_riemann_roch.py",)),
    ("exponent-guard-underscores", RIEMANN_ROCH, '.replace("_", "").lstrip("+-0")', '.lstrip("+-0")', ("tests/test_riemann_roch.py",)),
    ("show-int-limit", ERRORS, "n.bit_length() <= 240", "n.bit_length() <= 320", ("tests/test_context_parse.py",)),
    ("show-int-digit-bound", ERRORS, "if digits <= 80:", "if digits <= 81:", ("tests/test_context_parse.py",)),
    ("show-int-estimate-cap", ERRORS, "about = digits > 10**5", "about = digits >= 10**5", ("tests/test_context_parse.py",)),
    ("show-int-estimate", ERRORS, "about = digits > 10**5", "about = False", ("tests/test_context_parse.py",)),
    ("show-value-string-limit", ERRORS, "len(x) > 80", "len(x) > 10**4", ("tests/test_context_parse.py",)),
    ("show-value-item-limit", ERRORS, "len(x) > 16", "len(x) >= 16", ("tests/test_context_parse.py",)),
    ("show-value-repr-limit", ERRORS, "len(text) <= 80", "len(text) < 80", ("tests/test_context_parse.py",)),
    ("show-value-recursion", ERRORS, "except RecursionError:", "except ZeroDivisionError:", ("tests/test_context_parse.py",)),
    # the CLI's one choice of output format, validate-context's exit code, and the
    # flush that meets a closed pipe inside main
    ("format-branch", CLI, 'if args.format == "json":', 'if args.format != "json":', ("tests/test_cli.py",)),
    ("validate-structural-code", CLI, "else 2 if any(", "else 1 if any(", ("tests/test_cli.py",)),
    ("closed-pipe-flush", CLI, "        sys.stdout.flush()  #", "        pass  #", ("tests/test_cli.py",)),
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
