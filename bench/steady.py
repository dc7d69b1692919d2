"""Steadiness check: two sets of runs of the same code, spread against bounds.

    python3 bench/steady.py [--workloads lib,cli] [--runs 10] [--seconds 55]

Each of the two sets runs ``run.py`` once per seed, one run after another,
with seeds 1..runs in the first set and 101..100+runs in the second.  For
every end-to-end metric it prints, per set, the median and the spread (the
distance between the first and third quartile, as
``statistics.quantiles(n=4)`` gives them, over the median), then the shift
of the second median against the first, signed so that positive is worse,
and the bound from BENCHMARK.json.  A metric passes when both spreads and
the size of the shift are within its bound, ``setup_s`` included; the failed
share must be the same in every run.  Raw figures go to
bench/out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()
    runs = {}
    for workload in args.workloads.split(","):
        runs[workload] = [
            [one_run(workload, 100 * s + i + 1, args.seconds) for i in range(args.runs)] for s in range(2)
        ]
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steady.json"), "w", encoding="utf-8") as fh:
        json.dump(runs, fh, indent=1)
    ok = True
    print(f"{'workload':<10} {'metric':<17} {'median 1':>12} {'spread 1':>9} {'median 2':>12} {'spread 2':>9}"
          f" {'shift':>7} {'bound':>6}  verdict")
    for workload, sets in runs.items():
        shares = {r["failed"] / r["attempted"] for s in sets for r in s}
        if len(shares) != 1:
            ok = False
            print(f"{workload}: failed share differs between runs: {sorted(shares)}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][name]["value"] for r in s] for s in sets]
            meds = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            sign = 1 if metric["better"] == "lower" else -1
            shift = sign * (meds[1] - meds[0]) / meds[0]
            good = abs(shift) <= bound and all(s <= bound for s in spreads)
            tight = all(s < bound / 3 for s in spreads)
            ok &= good
            cells = "".join(f" {m:>12.5g} {s:>9.4f}" for m, s in zip(meds, spreads))
            verdict = ("ok" if tight else "ok, spread above a third of the bound") if good else "FAIL"
            print(f"{workload:<10} {name:<17}{cells} {shift:>+7.4f} {bound:>6}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
