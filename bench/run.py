"""Benchmark of basediv: two workloads, end-to-end metrics, and a traced run.

    python3 bench/run.py --workload lib --seed 1 --seconds 55 --trace 0

Run from the root of a checkout.  The program is imported from ``src/`` of
that checkout.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; with
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones.  A fuller record of the run goes to ``bench/out/``.

Each run executes whole rounds of the same operations in the same order
until ``--seconds`` have passed, and at least enough rounds to leave ten
operations beyond the 90th percentile.  Every run therefore holds the same
mix of operations, whatever its length.  The rounds run in five segments,
with set-up samples before, between and after them.
"""

from __future__ import annotations

import argparse
import json
import marshal
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from array import array

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("lib", "cli")
MIN_OPS = 100
# The timed phase is cut into SEGMENTS equal stretches, and set-up is sampled
# in fresh processes before, between and after them, so the median set-up
# time does not hang on the host's speed at one moment.
SEGMENTS = 5
TIMING_SAMPLES = 7
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    # The program's bytecode is cached in src/ as for an installed package,
    # whatever the caller's environment says, so that every child imports
    # the same way and no child pays for compiling the sources.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(req: dict) -> dict:
    req = dict(req, root=ROOT)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py")],
        input=marshal.dumps(req), capture_output=True, timeout=CHILD_TIMEOUT_S, env=child_env(), cwd=ROOT,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker ({req['mode']}, {req.get('workload')}) exited {proc.returncode}:\n"
                         + proc.stderr.decode(errors="replace")[-3000:])
    return marshal.loads(proc.stdout)


# `python3 -m basediv`, which on the way out adds the process's peak resident
# memory (VmHWM, as worker.peak_rss_kib reads it) to stderr on a tagged line.
HWM_TAG = "bench-vmhwm-kib"
CLI_LAUNCH = f"""
import runpy, sys
try:
    runpy.run_module("basediv", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status", encoding="ascii") as fh:
        kib = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    sys.stderr.write("\\n{HWM_TAG} " + kib + "\\n")
"""
HWM_LINE = re.compile(rf"\n{HWM_TAG} (\d+)\n")


def run_cli_process(argv: list) -> tuple[float, int, str, str, int]:
    """One `basediv` subprocess, as a user runs it; returns (seconds, exit
    code, stdout, stderr without the tagged line, peak resident KiB)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", CLI_LAUNCH, *argv],
        capture_output=True, timeout=CHILD_TIMEOUT_S, env=child_env(), cwd=ROOT,
    )
    dt = time.perf_counter() - t0
    err = proc.stderr.decode(errors="replace")
    hwm = HWM_LINE.search(err)
    if hwm is None:
        raise BenchError(f"basediv {' '.join(argv)} exited {proc.returncode} without its memory figure:\n{err[-3000:]}")
    return dt, proc.returncode, proc.stdout.decode(), err[:hwm.start()] + err[hwm.end():], int(hwm[1])


def percentile(sorted_values, p: float):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(p * len(sorted_values)) - 1)]


def end_to_end(lat_s: list, setups: list, peak_kib: int, op_names: list) -> tuple[dict, dict]:
    order = sorted(range(len(lat_s)), key=lat_s.__getitem__)
    ranked = [lat_s[i] for i in order]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "latency_p50_ms": (percentile(ranked, 0.5) * 1e3, "ms"),
        "latency_p90_ms": (percentile(ranked, 0.9) * 1e3, "ms"),
        "throughput_ops_s": (len(lat_s) / sum(lat_s), "1/s"),
        "peak_rss_mb": (peak_kib / 1024, "MiB"),
    }
    # which kind of operation each percentile landed on, for the record
    landing = {
        p: op_names[order[max(0, math.ceil(p * len(order)) - 1)] % len(op_names)] for p in (0.5, 0.9)
    }
    return metrics, {"setup_samples_s": setups, "ops": len(lat_s), "p50_op": landing[0.5], "p90_op": landing[0.9]}


def lib_op_names(spec: dict) -> list:
    enum = spec["enumerate"]["ops"]
    return [
        "{}/rank{}".format(enum[k % len(enum)][0], sum(2 if b[0] == "U" else 1 for b in enum[k % len(enum)][1]))
        for k in range(len(spec["cold"]["ops"]))
    ]


def segmented(seconds: int, round_ops: int, sample_setup, run_segment) -> list:
    """Runs SEGMENTS timed segments that end at equal shares of `seconds`,
    each of whole rounds and together at least MIN_OPS operations, with
    set-up samples before, between and after them; returns the samples."""
    min_rounds = math.ceil(math.ceil(MIN_OPS / round_ops) / SEGMENTS)
    setups = []
    start = time.perf_counter()
    for k in range(SEGMENTS):
        setups += sample_setup()
        left = start + seconds * (k + 1) / SEGMENTS - time.perf_counter()
        setups += run_segment(k, max(0.0, left), min_rounds)
    return setups + sample_setup()


def run_lib(seed: int, seconds: int) -> tuple[dict, list, int, int, dict]:
    spec, expect = workloads.make_lib(seed)
    names = lib_op_names(spec)
    base = {"workload": "lib", "spec": spec}
    lat, problems, peak = array("q"), [], 0

    def sample_setup():
        return [run_worker(dict(base, mode="setup"))["setup_s"]]

    def run_segment(k, left, min_rounds):
        nonlocal peak
        reply = run_worker(dict(base, mode="run", seconds=left, min_rounds=min_rounds))
        lat.frombytes(reply["lat_ns"])
        problems.extend(f"segment {k}: {p}" for p in workloads.check_lib(expect, reply["refs"], reply["extras"]))
        problems.extend(f"segment {k}, round {r}, operation {i}: output differs from round 0" for r, i in reply["bad"])
        peak = max(peak, reply["maxrss_kib"])
        return [reply["setup_s"]]

    setups = segmented(seconds, len(names), sample_setup, run_segment)
    metrics, record = end_to_end([x / 1e9 for x in lat], setups, peak, names)
    return metrics, problems, len(lat), 0, record


def write_cli_inputs(seed: int):
    """Context files for the cli workload; returns (input dir, spec, expect)."""
    files, spec, expect = workloads.make_cli(seed)
    rel = os.path.join("bench", "out", f"inputs-{os.getpid()}")
    os.makedirs(os.path.join(ROOT, rel), exist_ok=True)
    for name, data in files.items():
        with open(os.path.join(ROOT, rel, name), "w", encoding="utf-8") as fh:
            json.dump(data, fh)

    def place(argv):
        return [os.path.join(rel, a) if a in files else a for a in argv]

    spec = {"ops": [place(a) for a in spec["ops"]], "warmup": place(spec["warmup"])}
    return os.path.join(ROOT, rel), spec, expect


def run_cli(seed: int, seconds: int) -> tuple[dict, list, int, int, dict]:
    inputs, spec, expect = write_cli_inputs(seed)
    problems, lat, failed, peak = [], [], 0, 0

    def sample_setup():
        # two warm-up calls per gap, so cli has as many samples as lib
        samples = []
        for _ in range(2):
            dt, rc, _, _, _ = run_cli_process(spec["warmup"])
            if rc != 0:
                raise BenchError(f"warm-up call exited {rc}")
            samples.append(dt)
        return samples

    def run_segment(k, left, min_rounds):
        nonlocal failed, peak
        end = time.perf_counter() + left
        rounds = 0
        while rounds < min_rounds or time.perf_counter() < end:
            for argv, exp in zip(spec["ops"], expect):
                dt, rc, out, err, kib = run_cli_process(argv)
                lat.append(dt)
                peak = max(peak, kib)
                bad, did_fail = workloads.check_cli(exp, rc, out, err)
                problems.extend(bad)
                failed += did_fail
            rounds += 1
        return []

    try:
        setups = segmented(seconds, len(spec["ops"]), sample_setup, run_segment)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    metrics, record = end_to_end(lat, setups, peak, list(workloads.CLI_CYCLE))
    return metrics, problems, len(lat), failed, record


def median_child_ms(code: str, inner: bool) -> float:
    """Median over TIMING_SAMPLES fresh interpreters running `code`: the
    time the child prints (inner) or the wall time of the whole child."""
    samples = []
    for _ in range(TIMING_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=CHILD_TIMEOUT_S,
                              env=child_env(), cwd=ROOT)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"child {code!r} exited {proc.returncode}: {proc.stderr.decode(errors='replace')}")
        samples.append(float(proc.stdout) if inner else wall)
    return statistics.median(samples) * 1e3


def run_trace(workload: str, seed: int) -> tuple[dict, list, int, int, dict]:
    lib_spec, lib_expect = workloads.make_lib(seed)
    inputs, cli_spec, cli_expect = write_cli_inputs(seed)
    spans_path = os.path.join(OUT, f"spans-{workload}-s{seed}.tsv.gz")
    try:
        reply = run_worker({"mode": "trace", "workload": workload, "spans_path": spans_path,
                            "specs": {"lib": lib_spec, "cli": cli_spec}})
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    portions = reply["portions"]
    problems = workloads.check_lib(lib_expect, portions["lib"]["refs"], None)
    failures = {"lib": 0, "cli": 0}
    for exp, (rc, out, err) in zip(cli_expect, portions["cli"]["refs"]):
        bad, did_fail = workloads.check_cli(exp, rc, out, err)
        problems += bad
        failures["cli"] += did_fail
    for w, portion in portions.items():
        problems += [f"traced {w}: round {r}, operation {i} differs from round 0" for r, i in portion["bad"]]
    mine = portions[workload]
    metrics = dict(reply["metrics"])
    metrics["cli.import_ms"] = (median_child_ms(
        "import time; t = time.perf_counter(); import basediv; print(time.perf_counter() - t)", inner=True), "ms")
    metrics["cli.interpreter_ms"] = (median_child_ms("pass", inner=False), "ms")
    metrics["trace.overhead_pct"] = ((mine["traced_ns"] / mine["untraced_ns"] - 1) * 100, "%")
    record = {
        "spans": reply["spans"], "spans_path": os.path.relpath(spans_path, ROOT),
        "overhead_pct_by_workload": {w: (p["traced_ns"] / p["untraced_ns"] - 1) * 100 for w, p in portions.items()},
        "ops_by_workload": {w: p["ops"] for w, p in portions.items()},
        "by_workload": reply["breakdown"],
    }
    return metrics, problems, mine["ops"], failures[workload], record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "basediv", "__init__.py")):
        print(f"error: no basediv package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    try:
        if args.trace:
            metrics, problems, attempted, failed, record = run_trace(args.workload, args.seed)
        elif args.workload == "cli":
            metrics, problems, attempted, failed, record = run_cli(args.seed, args.seconds)
        else:
            metrics, problems, attempted, failed, record = run_lib(args.seed, args.seconds)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record.update(result, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  problems=problems[:100], python=sys.version.split()[0], nproc=os.cpu_count())
    with open(os.path.join(OUT, f"result-{args.workload}-s{args.seed}-t{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
