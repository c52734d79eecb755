#!/usr/bin/env python3
"""Self-tests of the benchmark.  Run from the root of a checkout:

    python3 perfbench/tests/test_perfbench.py

- the C++ self-test (percentile, tail-rule, window and lateness arithmetic
  on known samples, and the open-loop harness on a trivial operation);
- a short smoke run of every workload, untraced and traced, checking that
  every metric of BENCHMARK.json is printed with its unit and the run is
  correct;
- that the benchmark refuses to run, without printing a result, in a
  directory that holds only BENCHMARK.json and perfbench/.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]
WORKLOADS = ("serve_hot", "whatif_sweep", "offline_train")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def last_json(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


class SelfTest(unittest.TestCase):
    def test_stats_and_harness(self):
        bdir = os.path.join(ROOT, ".bench_build", "cmake")
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            subprocess.run(RUN + ["--workload", "offline_train", "--seed", "1",
                                  "--seconds", "1", "--trace", "0", "--smoke"],
                           cwd=ROOT, check=True, capture_output=True)
        subprocess.run(["cmake", "--build", bdir, "--target", "perfbench_selftest"],
                       check=True, capture_output=True)
        res = subprocess.run([os.path.join(bdir, "perfbench_selftest")],
                             capture_output=True, text=True)
        self.assertEqual(res.returncode, 0, res.stdout)


class Smoke(unittest.TestCase):
    def run_workload(self, workload, trace):
        res = subprocess.run(RUN + ["--workload", workload, "--seed", "3",
                                    "--seconds", "2", "--trace", str(trace),
                                    "--smoke"],
                             cwd=ROOT, capture_output=True, text=True, timeout=600)
        self.assertEqual(res.returncode, 0, res.stderr[-2000:])
        result = last_json(res.stdout)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        want = {m["name"]: m["unit"]
                for m in spec()["per_layer" if trace else "end_to_end"]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)
        if not trace:
            for name, m in result["metrics"].items():
                self.assertGreater(m["value"], 0, name)
        return res.stdout

    def test_every_workload(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.run_workload(w, 0)
                out = self.run_workload(w, 1)
                detail = next(json.loads(l)["perfbench_detail"]
                              for l in out.splitlines() if "perfbench_detail" in l)
                self.assertIn("spans", detail)
                self.assertIn("provenance", detail)
                if w == "serve_hot":
                    # The unseen-model burst exercises the batched embed.
                    layer = last_json(out)["metrics"]
                    self.assertGreater(layer["ghn.batch_width.mean"]["value"], 0)
                    self.assertGreater(layer["ghn.embed_ms.p50"]["value"], 0)


class RefusesWithoutSources(unittest.TestCase):
    def test_bare_directory(self):
        bare = os.path.join(ROOT, ".bench_build", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        res = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                              "serve_hot", "--seed", "1", "--seconds", "1",
                              "--trace", "0"],
                             cwd=bare, capture_output=True, text=True, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(res.returncode, 0)
        self.assertNotIn('"metrics"', res.stdout)


if __name__ == "__main__":
    unittest.main()
