"""Each output check passes the right answer and fails a tampered one.

    python3 bench/test_checks.py        (or: python3 -m pytest bench/test_checks.py)

No ``basediv`` import: the right answers come from the benchmark's own input
construction, and the tampered ones are edits of them.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import workloads  # noqa: E402

TRACEBACK = 'Traceback (most recent call last):\n  File "cli.py", line 1, in main\nAttributeError: x\n'


def first(expect, kind, pred=lambda e: True):
    return next(e for e in expect if e[0] == kind and pred(e))


def reflect_walk(ctx, alpha):
    """The first-violated-ped walk, as (result, steps)."""
    g, cur, steps = ctx["gram"], tuple(alpha), []
    while True:
        d = next((d for d in ctx["peds"] if checks.pair(g, cur, d) < 0), None)
        if d is None:
            return cur, tuple(steps)
        a = 2 * checks.pair(g, d, cur) // checks.sq(g, d)
        cur = tuple(x - a * y for x, y in zip(cur, d))
        steps.append((tuple(d), a))


class ChiTest(unittest.TestCase):
    def test_product_forms(self):
        self.assertEqual(checks.check_chi("K3n", 1, 4, 4), [])      # C(4, 1)
        self.assertEqual(checks.check_chi("K3n", 2, 4, 10), [])     # C(5, 2)
        self.assertEqual(checks.check_chi("Kumn", 2, 4, 18), [])    # 3 * C(4, 2)
        self.assertEqual(checks.check_chi("Generic", 2, 10, 28), [])
        self.assertTrue(checks.check_chi("K3n", 2, 4, 11))
        self.assertTrue(checks.check_chi("Kumn", 2, 4, 10))      # the K3^[2] value


class ClassifyTest(unittest.TestCase):
    def setUp(self):
        _, self.expect = workloads.make_lib_warm(7)

    def test_generated_answers_pass(self):
        for _, ctx, h, want in (e for e in self.expect if e[0] == "classify"):
            self.assertEqual(checks.check_classify(ctx, h, want, want), [])

    def test_pencil_closed_form(self):
        _, ctx, h, want = first(self.expect, "classify", lambda e: e[1]["pencil"] and e[3] is not None)
        a = h[0]
        self.assertEqual(want, (a, (1, 0), (0, 1), 1))
        wrong = (a - 1, (1, 0), (0, 1), 1)
        # fails even when the expectation agrees with the wrong answer
        self.assertTrue(checks.check_classify(ctx, h, wrong, wrong))
        self.assertTrue(checks.check_classify(ctx, (a, 2), (a, (1, 0), (0, 1), 1), (a, (1, 0), (0, 1), 1)))

    def test_constructed_triple(self):
        _, ctx, h, want = first(self.expect, "classify", lambda e: not e[1]["pencil"] and e[3] is not None)
        m, l_vec, f_vec, d = want
        self.assertTrue(checks.check_classify(ctx, h, want, (m, l_vec, f_vec, d + 1)))
        self.assertTrue(checks.check_classify(ctx, h, want, None))
        other = next(p for p in ctx["peds"] if p != f_vec)
        self.assertTrue(checks.check_classify(ctx, h, want, (m, l_vec, other, d)))

    def test_paper_properties(self):
        _, ctx, h, want = first(self.expect, "classify", lambda e: e[3] is not None)
        self.assertEqual(checks.check_double(h, None), [])
        self.assertTrue(checks.check_double(h, want))
        _, kum, kh, _ = first(self.expect, "classify", lambda e: e[1]["kind"] == "Kumn")
        self.assertTrue(checks.check_classify(kum, kh, (2, (1,) + (0,) * (len(kh) - 1), kh, 1), (2, kh, kh, 1)))
        # a K3^[n] answer with d != 1 fails even when the expectation agrees
        m, l_vec, f_vec, _ = want
        self.assertTrue(checks.check_classify(ctx, h, (m, l_vec, f_vec, 2), (m, l_vec, f_vec, 2)))

    def test_independent_scan_agrees_with_construction(self):
        for _, ctx, h, want in (e for e in self.expect if e[0] == "classify"):
            self.assertEqual(checks.decompositions(ctx, h), [] if want is None else [want])


class WalkTest(unittest.TestCase):
    def setUp(self):
        _, expect = workloads.make_lib_warm(3)
        _, self.ctx, self.alpha, _ = first(expect, "walk", lambda e: not e[1]["pencil"])
        self.answer = reflect_walk(self.ctx, self.alpha)

    def test_right_walk_passes(self):
        self.assertTrue(self.answer[1])
        self.assertEqual(checks.check_walk(self.ctx, self.alpha, self.answer), [])

    def test_tampered_walks_fail(self):
        result, steps = self.answer
        (ped, a), rest = steps[0], steps[1:]
        self.assertTrue(checks.check_walk(self.ctx, self.alpha, (result, ((ped, a + 1),) + rest)))
        self.assertTrue(checks.check_walk(self.ctx, self.alpha, (tuple(2 * x for x in result), steps)))
        # stopping early: the class still pairs negatively with a ped
        self.assertTrue(checks.check_walk(self.ctx, self.alpha, (tuple(self.alpha), ())))


class EnumerationTest(unittest.TestCase):
    def setUp(self):
        _, self.expect = workloads.make_enumerate(5)

    def test_right_answers_pass_and_tampered_fail(self):
        for _, blocks, bound, square, ample in self.expect[:2]:
            got = box_answer(blocks, bound, square, ample)
            self.assertEqual(checks.check_enumeration(blocks, bound, square, ample, got), [])
            self.assertTrue(checks.check_enumeration(blocks, bound, square, ample, got[1:]))
            self.assertTrue(checks.check_enumeration(blocks, bound, square, ample, got[::-1]))
            bent = [tuple(x + (i == 0) for i, x in enumerate(got[0]))] + got[1:]
            self.assertTrue(checks.check_enumeration(blocks, bound, square, ample, bent))
            if ample is not None:
                flipped = sorted([tuple(-x for x in got[0])] + got[1:])
                self.assertTrue(checks.check_enumeration(blocks, bound, square, ample, flipped))

    def test_negation_closure(self):
        blocks, bound = (("U",), ("k", -2)), 1
        got = [(-1, -1, 0), (1, 1, 0)]
        self.assertEqual(checks.check_enumeration(blocks, bound, 2, None, got), [])
        self.assertTrue(checks.check_enumeration(blocks, bound, 2, None, [(-1, -1, 0), (-1, -1, 0)]))

    def test_ample_is_nonzero_on_the_box(self):
        for _, blocks, bound, _, ample in self.expect:
            if ample is not None:
                g = checks.block_gram(blocks)
                self.assertTrue(all(checks.pair(g, ample, v) for v in _box(len(g), bound) if any(v)))


def _box(rank, bound):
    from itertools import product

    return product(range(-bound, bound + 1), repeat=rank)


def box_answer(blocks, bound, square, ample):
    """The right enumeration, by sweeping the box."""
    g = checks.block_gram(blocks)
    out = [v for v in _box(len(g), bound) if checks.sq(g, v) == square]
    if ample is not None:
        out = [v for v in out if checks.pair(g, ample, v) > 0]
    return out


class CliTest(unittest.TestCase):
    def setUp(self):
        _, _, self.expect = workloads.make_cli(11)

    def exp(self, name):
        return first(self.expect, name)

    def test_scans(self):
        self.assertEqual(checks.check_scan_kumn({"count": 0, "solutions": []}), [])
        self.assertTrue(checks.check_scan_kumn({"count": 1, "solutions": [{"n": 2, "m": 2, "d": 1, "q_F": -2}]}))
        self.assertEqual(checks.check_rank2_scan({"classes": [[-1, 1], [1, -1]]}), [])
        self.assertTrue(checks.check_rank2_scan({"classes": [[-1, 1], [0, -1], [1, -1]]}))

    def test_nl_types(self):
        _, ctx, q = self.exp("nl-types")
        good = {"types": [{"m": q // 2 + 1, "d": 1, "q_F": -2}]}
        self.assertEqual(checks.check_nl_types(ctx, q, good), [])
        self.assertTrue(checks.check_nl_types(ctx, q, {"types": []}))

    def test_validate(self):
        for name in ("validate-valid", "validate-invalid"):
            ctx = self.exp(name)[1]
            bad = {f"ped[{i}]-divisibility" for i, d in enumerate(ctx["peds"]) if not checks.valid_ped(ctx, d)}
            checks_out = [{"name": n, "passed": n not in bad} for n in checks.context_check_names(ctx)]
            report = {"valid": not bad, "checks": checks_out}
            self.assertEqual(checks.check_validate(ctx, report), [])
            self.assertTrue(checks.check_validate(ctx, dict(report, valid=bool(bad))))
        self.assertTrue(bad)

    def test_classify_report(self):
        exp = self.exp("classify-moderate")
        _, ctx, h, (m, l_vec, f_vec, d) = exp
        q = checks.sq(ctx["gram"], h)
        report = {
            "q_H": q, "rr_value": checks.chi_k3(ctx["n"], q), "has_base_divisor": True,
            "decomposition": {"m": m, "L": list(l_vec), "F": list(f_vec), "d": d},
        }
        import json

        self.assertEqual(workloads.check_cli(exp, 0, json.dumps(report), ""), ([], False))
        self.assertTrue(workloads.check_cli(exp, 0, json.dumps(dict(report, rr_value=report["rr_value"] + 1)), "")[0])
        self.assertTrue(workloads.check_cli(exp, 1, "", "error: x\n")[0])
        self.assertTrue(workloads.check_cli(exp, 0, json.dumps(report), TRACEBACK)[0])

    def test_strong_rlf_string_counts_as_failed_until_refused(self):
        exp = self.exp("classify-strong-rlf-string")
        self.assertEqual(workloads.check_cli(exp, 0, "{}", ""), ([], True))
        self.assertEqual(workloads.check_cli(exp, 1, "", "error: strong_rlf must be a boolean\n"), ([], False))
        self.assertEqual(workloads.check_cli(exp, 2, "", "error: malformed input (x)\n"), ([], False))

    def test_strong_rlf_string_crash_is_not_a_refusal(self):
        exp = self.exp("classify-strong-rlf-string")
        problems, failed = workloads.check_cli(exp, 1, "", TRACEBACK)
        self.assertTrue(problems)
        self.assertFalse(failed)
        self.assertTrue(workloads.check_cli(exp, 1, "", "")[0])
        self.assertTrue(workloads.check_cli(exp, 2, "", "usage: basediv\n")[0])


class LibRequestTest(unittest.TestCase):
    def test_right_request_passes_and_tampered_parts_fail(self):
        _, expect = workloads.make_lib(2)
        warm = tuple(reflect_walk(e[1], e[2]) if e[0] == "walk" else e[3] for e in expect["warm"])
        enum = [box_answer(*e[1:]) for e in expect["enumerate"]]
        refs = [((warm,) * 4, expect["cold"][k][3], enum[k % 5]) for k in range(10)]
        self.assertEqual(workloads.check_lib(expect, refs, None), [])
        bent_warm = warm[:-1] + ((warm[-1][0], ()),)
        self.assertTrue(workloads.check_lib(expect, [((warm, bent_warm) * 2,) + refs[0][1:]] + refs[1:], None))
        self.assertTrue(workloads.check_lib(expect, [(refs[0][0], None, refs[0][2])] + refs[1:], None))
        self.assertTrue(workloads.check_lib(expect, refs[:1] + [(refs[1][0], refs[1][1], enum[0])] + refs[2:], None))


class SeedTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for make in (workloads.make_lib_warm, workloads.make_lib_cold, workloads.make_enumerate, workloads.make_lib):
            self.assertEqual(make(4)[0], make(4)[0])
            self.assertNotEqual(make(4)[0], make(5)[0])
        self.assertEqual(workloads.make_cli(4)[:2], workloads.make_cli(4)[:2])


if __name__ == "__main__":
    unittest.main()
