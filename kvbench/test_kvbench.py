#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 kvbench/test_kvbench.py

* schema: BENCHMARK.json follows its format, and on every workload a short
  run prints every end-to-end metric (--trace 0) and every per-layer metric
  (--trace 1) by name, with the unit BENCHMARK.json gives it.
* sabotage: a deliberately wrong expected answer (every put expected to
  insert a new key, on a fully preloaded keyspace) fails the correctness
  check: the run reports correct=false, counts failures and exits non-zero.
"""
import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SHORT_SECONDS = "2"


def run(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", SHORT_SECONDS, "--trace", str(trace),
         *extra],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=600)
    last = proc.stdout.strip().split("\n")[-1]
    return proc.returncode, json.loads(last), proc.stdout


class Schema(unittest.TestCase):
    def test_spec_format(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        names = [w["name"] for w in SPEC["workloads"]]
        names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))

    def check_printed(self, trace, wanted):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"], trace=trace):
                code, res, out = run(w["name"], trace)
                self.assertEqual(code, 0, out)
                self.assertIs(res["correct"], True)
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)
                self.assertEqual(set(res["metrics"]),
                                 {m["name"] for m in wanted})
                for m in wanted:
                    got = res["metrics"][m["name"]]
                    self.assertEqual(got["unit"], m["unit"], m["name"])
                    self.assertIsInstance(got["value"], (int, float))
                    self.assertRegex(out, r"(?m)^metric %s \S+ %s" % (
                        re.escape(m["name"]), re.escape(m["unit"])))

    def test_end_to_end_printed(self):
        self.check_printed(0, SPEC["end_to_end"])

    def test_per_layer_printed(self):
        self.check_printed(1, SPEC["per_layer"])


class Sabotage(unittest.TestCase):
    def test_wrong_expectation_fails_the_run(self):
        code, res, _ = run("kv-point", 0, "--sabotage")
        self.assertNotEqual(code, 0)
        self.assertIs(res["correct"], False)
        self.assertGreater(res["failed"], 0)
        self.assertLessEqual(res["failed"], res["attempted"])

    def test_honest_run_passes(self):
        code, res, _ = run("kv-point", 0)
        self.assertEqual(code, 0)
        self.assertIs(res["correct"], True)


if __name__ == "__main__":
    unittest.main()
