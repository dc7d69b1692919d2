"""The traced run: spans around calls into each module's public functions.

The wrappers are installed from outside the program.  ``classifier``,
``cones``, ``cli`` and ``oracle`` import ``pairing``, ``rr_eval`` and the
rest by name, so every module of the package that holds a reference to a
wrapped function gets the wrapper bound in its place, not only the module
that defines it.  Spans (name, start, end, parent) are kept in flat arrays
in memory and written out when the run ends.  A function's self time is its
spans' time minus the time of their child spans; calls are counted at the
same boundaries.
"""

import gzip
import sys
import time
from array import array

# Public functions whose calls become spans, by module.
SPANNED = {
    "lattice": ("pairing", "square", "divisibility", "is_primitive", "enumerate_vectors",
                "direct_sum", "hyperbolic_plane", "rank_one"),
    "riemann_roch": ("make_type", "rr_eval", "check_strict_monotonic", "invert_binomial",
                     "deformation_from_json_dict"),
    "cones": ("run_context_checks", "validate_context_payload", "reflect", "reflect_into_bk",
              "in_positive_cone", "in_bk_closure", "ped_inequality_check",
              "rank2_exceptional_scan", "k3_ped_candidates"),
    "classifier": ("classify", "verify_decomposition", "check_2H", "kumn_nonexistence_search",
                   "kumn_case1_solutions", "nl_numerical_types", "classification_report"),
    "cli": ("main",),
}
LAYERS = tuple(SPANNED)

# Outcome counts taken from a call's result.
OUTCOMES = {
    "lattice.enumerate_vectors": len,
    "cones.reflect_into_bk": lambda trace: len(trace.steps),
}

# Operations of each workload replayed in the traced run, from the start of
# its round: every workload is replayed, so every layer is reached whichever
# workload is named.  Five lib operations hold each enumeration once.
TRACE_OPS = {"lib": 5, "cli": None}


class Tracer:
    def __init__(self):
        self.names = []
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.stack = [-1]
        self.calls = {}
        self.outcomes = {}
        self._patches = []

    def _span(self, name, fn):
        if name not in self.names:
            self.names.append(name)
            self.outcomes[name] = 0
        nid = self.names.index(name)
        names, starts, ends, parents, stack = self.name, self.start, self.end, self.parent, self.stack
        outcome, outcomes = OUTCOMES.get(name), self.outcomes
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if outcome is not None:
                outcomes[name] += outcome(result)
            return result

        return traced

    def _counted(self, name, fn):
        calls = self.calls
        calls.setdefault(name, 0)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, B):
        package = [m for n, m in list(sys.modules.items()) if m is not None and (n == "basediv" or n.startswith("basediv."))]
        for layer, funcs in SPANNED.items():
            module = getattr(B, layer)
            for fname in funcs:
                orig = getattr(module, fname, None)
                if orig is None:
                    continue
                wrapper = self._span(f"{layer}.{fname}", orig)
                for mod in package:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._set(mod, attr, wrapper)
        lat_cls = B.lattice.Lattice
        self._set(lat_cls, "vector", self._counted("lattice.vector", lat_cls.__dict__["vector"]))
        ctx_cls = B.cones.GeometricContext
        parse = ctx_cls.__dict__["from_json_dict"].__func__
        self._set(ctx_cls, "from_json_dict", classmethod(self._span("cones.from_json_dict", parse)))

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def summary(self, lo=0, hi=None):
        """Per-function calls and self time over spans lo..hi, plus the ratios."""
        hi = len(self.name) if hi is None else hi
        child = [0] * (hi - lo)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                child[p - lo] += self.end[i] - self.start[i]
        calls, self_ns = {}, {}
        for i in range(lo, hi):
            n = self.names[self.name[i]]
            calls[n] = calls.get(n, 0) + 1
            self_ns[n] = self_ns.get(n, 0) + (self.end[i] - self.start[i]) - child[i - lo]
        ids = {n: i for i, n in enumerate(self.names)}
        enum_id, pairing_id = ids.get("lattice.enumerate_vectors"), ids.get("lattice.pairing")
        report_id, mono_id = ids.get("classifier.classification_report"), ids.get("riemann_roch.check_strict_monotonic")
        enum_pairings = 0
        certs = 0
        for i in range(lo, hi):
            nid = self.name[i]
            if nid == pairing_id and self.parent[i] >= 0 and self.name[self.parent[i]] == enum_id:
                enum_pairings += 1
            elif nid == mono_id:
                p = self.parent[i]
                while p >= 0 and self.name[p] != report_id:
                    p = self.parent[p]
                certs += p >= 0
        return calls, self_ns, enum_pairings, certs

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tname\tstart_ns\tend_ns\tparent\n")
            for i in range(len(self.name)):
                fh.write(f"{i}\t{self.names[self.name[i]]}\t{self.start[i]}\t{self.end[i]}\t{self.parent[i]}\n")


def layer_metrics(calls, self_ns, enum_pairings, certs, outcomes, vector_calls):
    def ms(name):
        return self_ns.get(name, 0) / 1e6

    found = outcomes.get("lattice.enumerate_vectors", 0)
    reports = calls.get("classifier.classification_report", 0)
    m = {
        "lattice.pairing.calls": (calls.get("lattice.pairing", 0), "count"),
        "lattice.pairing.self_ms": (ms("lattice.pairing"), "ms"),
        "lattice.vector.calls": (vector_calls, "count"),
        "lattice.enumerate_vectors.self_ms": (ms("lattice.enumerate_vectors"), "ms"),
        "lattice.enumerate_vectors.pairings_per_found": (enum_pairings / found if found else 0.0, "ratio"),
        "riemann_roch.check_strict_monotonic.self_ms": (ms("riemann_roch.check_strict_monotonic"), "ms"),
        "riemann_roch.rr_eval.calls": (calls.get("riemann_roch.rr_eval", 0), "count"),
        "riemann_roch.rr_eval.self_ms": (ms("riemann_roch.rr_eval"), "ms"),
        "riemann_roch.make_type.self_ms": (ms("riemann_roch.make_type"), "ms"),
        "riemann_roch.invert_binomial.self_ms": (ms("riemann_roch.invert_binomial"), "ms"),
        "cones.from_json_dict.self_ms": (ms("cones.from_json_dict"), "ms"),
        "cones.run_context_checks.calls": (calls.get("cones.run_context_checks", 0), "count"),
        "cones.in_bk_closure.calls": (calls.get("cones.in_bk_closure", 0), "count"),
        "cones.in_bk_closure.self_ms": (ms("cones.in_bk_closure"), "ms"),
        "cones.reflect_into_bk.self_ms": (ms("cones.reflect_into_bk"), "ms"),
        "cones.reflect_into_bk.steps": (outcomes.get("cones.reflect_into_bk", 0), "count"),
        "cones.rank2_exceptional_scan.self_ms": (ms("cones.rank2_exceptional_scan"), "ms"),
        "classifier.classify.calls": (calls.get("classifier.classify", 0), "count"),
        "classifier.classify.self_ms": (ms("classifier.classify"), "ms"),
        "classifier.classification_report.certifications": (certs / reports if reports else 0.0, "count"),
        "classifier.kumn_nonexistence_search.self_ms": (ms("classifier.kumn_nonexistence_search"), "ms"),
        "cli.main.self_ms": (ms("cli.main"), "ms"),
    }
    for layer in LAYERS:
        total = sum(v for k, v in self_ns.items() if k.startswith(layer + "."))
        m[f"{layer}.self_ms"] = (total / 1e6, "ms")
    return m


def traced_pass(B, req, setup, make_ops, timed_rounds):
    """Replay every workload's operations traced, then the requested
    workload's operations untraced for the overhead figure."""
    import basediv.cli  # noqa: F401  (bound before the wrappers go in)

    tr = Tracer()
    portions, breakdown = {}, {}
    for workload, spec in req["specs"].items():
        lo = len(tr.name)
        tr.install(B)
        state = setup(B, workload, spec)
        count = TRACE_OPS[workload]
        lat, refs, bad = timed_rounds(make_ops(B, workload, state)[:count], 1, 0)
        tr.uninstall()
        plain, _, _ = timed_rounds(make_ops(B, workload, state)[:count], 1, 0)
        portions[workload] = {
            "refs": refs, "bad": bad, "ops": len(lat), "traced_ns": sum(lat), "untraced_ns": sum(plain),
        }
        calls, self_ns, _, _ = tr.summary(lo)
        breakdown[workload] = {
            n: {"calls": calls[n], "self_ms": self_ns[n] / 1e6} for n in sorted(calls)
        }
    calls, self_ns, enum_pairings, certs = tr.summary()
    metrics = layer_metrics(calls, self_ns, enum_pairings, certs, tr.outcomes, tr.calls.get("lattice.vector", 0))
    tr.write(req["spans_path"])
    return {"metrics": metrics, "portions": portions, "breakdown": breakdown, "spans": len(tr.name)}
