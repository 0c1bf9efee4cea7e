#!/usr/bin/env python3
"""Tests of the benchmark itself.  Run from the repo root:

    python3 perfbench/test_bench.py

Builds perfbench/ into $CARGO_TARGET_DIR (default .bench_build) on first use.
"""
import json
import os
import pathlib
import subprocess
import sys
import unittest

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Sim metrics and counts: deterministic for a seed (host metrics are not).
SIM_E2E = ["ok_frac", "sim_gflops_best", "sim_gflops_geomean", "goodput_frac"]
HOST_LAYER = ("_s", "_ms", "_ms_p50", "host_ms_per_launch", "host_ns_per_sector",
              "exchange_overhead_ratio")


def run(workload, seed, trace, size="smoke", extra=()):
    cmd = RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--size", size, *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    return proc


def result(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[0]), json.loads(lines[-1])


def build_dir():
    return pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))


class Metrics(unittest.TestCase):
    def check_names(self, res, declared):
        got = res["metrics"]
        self.assertEqual(sorted(got), sorted(m["name"] for m in declared))
        for m in declared:
            self.assertEqual(got[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(got[m["name"]]["value"], (int, float), m["name"])

    def test_every_metric_with_unit(self):
        for w in WORKLOADS:
            with self.subTest(workload=w, trace=0):
                proc = run(w, 11, 0)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                _, res = result(proc)
                self.assertTrue(res["correct"])
                self.assertGreaterEqual(res["attempted"], 1)
                self.assertEqual(res["failed"], 0)
                self.check_names(res, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(res["metrics"][m["name"]]["value"], 0, m["name"])
            with self.subTest(workload=w, trace=1):
                proc = run(w, 11, 1)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                _, res = result(proc)
                self.check_names(res, SPEC["per_layer"])
                trace = json.loads((build_dir() / "traces" / ("%s-seed11.json" % w)).read_text())
                events = trace["traceEvents"]
                self.assertTrue(any(e.get("cat") == "host" for e in events))
                if w != "ladder":
                    self.assertTrue(any(e.get("cat") == "sim" for e in events))

    def test_sim_numbers_repeat(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                info_a, a = result(run(w, 5, 1))
                info_b, b = result(run(w, 5, 1))
                for name, m in a["metrics"].items():
                    if not name.endswith(HOST_LAYER) and not name.startswith("trace."):
                        self.assertEqual(m["value"], b["metrics"][name]["value"], name)
                _, a0 = result(run(w, 5, 0))
                _, b0 = result(run(w, 5, 0))
                for name in SIM_E2E:
                    self.assertEqual(a0["metrics"][name]["value"], b0["metrics"][name]["value"],
                                     name)
                for key in ("solution_fnv", "slo_canonical_fnv"):
                    if key in info_a:
                        self.assertEqual(info_a[key], info_b[key], key)


class Cli(unittest.TestCase):
    def test_usage_errors_exit_2(self):
        base = ["--workload", "solve", "--seed", "1", "--seconds", "1", "--trace", "0"]
        bad = [
            base + ["--bogus", "1"],                               # unknown
            ["--workload", "solve", "--seed", "1x", "--seconds", "1", "--trace", "0"],
            ["--workload", "solve", "--seed", "-1", "--seconds", "1", "--trace", "0"],
            ["--workload", "solve", "--seed", "1", "--seconds", "0", "--trace", "0"],
            ["--workload", "solve", "--seed", "1", "--seconds", "1", "--trace", "2"],
            ["--work", "solve", "--seed", "1", "--seconds", "1", "--trace", "0"],  # abbreviated
            ["--workload", "fig6", "--seed", "1", "--seconds", "1", "--trace", "0"],
            base[:-2],                                             # missing --trace
        ]
        for argv in bad:
            with self.subTest(argv=argv):
                proc = subprocess.run(RUN + argv, cwd=ROOT, capture_output=True, text=True)
                self.assertEqual(proc.returncode, 2, proc.stderr)
                self.assertEqual(proc.stdout, "")

    def test_program_usage_errors_exit_2(self):
        binary = build_dir() / "perfbench" / "milc_bench"
        if not binary.exists():
            run("solve", 1, 0)
        base = [str(binary), "--workload", "solve", "--seed", "1", "--seconds", "1"]
        bad = [
            base + ["--trace", "0", "--trace-out", "x.json"],    # inapplicable
            base + ["--trace", "1"],                              # missing --trace-out
            base + ["--trace", "0", "--seed", "2"],               # repeated
            base + ["--trace", "0", "--size"],                    # missing value
            base + ["--trace", "0", "--size", "huge"],
            base + ["--trace", "0x"],
        ]
        for argv in bad:
            with self.subTest(argv=argv[1:]):
                proc = subprocess.run(argv, capture_output=True, text=True)
                self.assertEqual(proc.returncode, 2, proc.stderr)


class Fig6Peak(unittest.TestCase):
    def test_ladder_peak_matches_bench_fig6(self):
        proc = run("ladder", 2024, 0, size="full")
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        _, res = result(proc)
        # bench_fig6 --L 16 prints "peak implementation: 565.8 GF/s".
        self.assertEqual(round(res["metrics"]["sim_gflops_best"]["value"], 1), 565.8)


if __name__ == "__main__":
    unittest.main()
