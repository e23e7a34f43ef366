#!/usr/bin/env python3
"""Build and run the KV benchmark; print every metric, then one JSON line.

    python3 kvbench/run.py --workload kv-point|kv-long|kv-net --seed N \
        --seconds S --trace 0|1

Run from the repository root. The benchmark binary (kvbench.cpp) and the
zstm library it links are built from source into $CARGO_TARGET_DIR/kvbench
(default .bench_build/kvbench) with CMake; later runs only re-check the
build.

--trace 0 measures the end-to-end metrics. --trace 1 runs the per-layer
phases with spans, then reduce.py turns the spans into a self-time table and
adds its metrics. The last line of standard output is
{"correct", "attempted", "failed", "metrics"}; the exit code is 0 only when
every check passed. A build or run that cannot produce a result exits
non-zero without that line.
"""
import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True  # leave nothing in the source tree
sys.path.insert(0, str(HERE))
import reduce  # noqa: E402  (the sibling trace reducer)

RUN_TIMEOUT_S = 170  # the whole invocation must end within 180 s


def build(build_dir):
    """Configure once, then (re)build the binary. Tool output goes to
    stderr so standard output stays the metric stream, and the compiler's
    temporary files stay inside the build tree."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "kvbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            print("kvbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return None
    return build_dir / "kvbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["kv-point", "kv-long", "kv-net"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--sabotage", action="store_true",
                    help="expect a wrong answer (tests the correctness check)")
    args = ap.parse_args()

    t_start = time.monotonic()
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (Path.cwd() / target / "kvbench").resolve()
    binary = build(build_dir)
    if binary is None:
        return 2

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    prefix = build_dir / ("trace-%s-%d" % (args.workload, args.seed))
    if args.trace:
        cmd += ["--trace-out", str(prefix)]
    if args.sabotage:
        cmd.append("--sabotage")
    budget = RUN_TIMEOUT_S - (time.monotonic() - t_start)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(budget, 30))
    except subprocess.TimeoutExpired:
        print("kvbench: run timed out", file=sys.stderr)
        return 3
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(proc.stdout)
        print("kvbench: binary exited %d without a result" % proc.returncode,
              file=sys.stderr)
        return 3
    print("\n".join(lines[:-1]))

    correct = result["correct"] and proc.returncode == 0
    if args.trace:
        table, metrics, ok, problems = reduce.reduce(str(prefix))
        print("\n".join(table))
        for p in problems:
            print("reconcile: " + p)
        for name, value in metrics.items():
            unit = reduce.unit_of(name)
            print("metric %s %.6g %s" % (name, value, unit))
            result["metrics"][name] = {"value": value, "unit": unit}
        correct = correct and ok
    result["correct"] = correct
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
