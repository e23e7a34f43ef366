#!/usr/bin/env python3
"""Run one kvbench workload K times, one seed each, and report the spread.

    python3 kvbench/spread.py --workload kv-point --runs 10 [--seconds S]
        [--trace 0|1] [--first-seed N] [--json OUT]

Run from the repository root. For every metric it prints the median, the
first and third quartiles (statistics.quantiles(values, n=4)) and the spread
(Q3 - Q1) / median. With --trace 0 each end-to-end metric's spread is
compared with its bound in BENCHMARK.json: OVER marks a spread above the
bound, and `warn` one above a third of it. setup_s is listed but not judged;
its bound applies between two sets of runs, not within one. Exits 1 if a run
fails or any judged spread is over its bound.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--json", help="write every run's values here")
    args = ap.parse_args()

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values, units, ok = {}, {}, True
    for i in range(args.runs):
        seed = args.first_seed + i
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        try:
            res = json.loads(proc.stdout.strip().split("\n")[-1])
        except ValueError:
            res = None
        if proc.returncode or res is None or not res.get("correct"):
            print("run seed=%d failed (exit %d)" % (seed, proc.returncode))
            ok = False
            continue
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print("run seed=%d ok, attempted=%d" % (seed, res["attempted"]),
              flush=True)

    print("%-32s %12s %12s %12s %8s %7s" % (
        "metric", "median", "q1", "q3", "spread", "bound"))
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                     else (vals[0],) * 3)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s":
            if spread > bound:
                flag, ok = "OVER", False
            elif spread > bound / 3:
                flag = "warn"
        print("%-32s %12.4g %12.4g %12.4g %7.1f%% %7s %s %s" % (
            name, med, q1, q3, spread * 100,
            "" if bound is None else "%.0f%%" % (bound * 100), units[name],
            flag))
    if args.json:
        Path(args.json).write_text(json.dumps(values, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
