"""Tests of the benchmark itself (not of crd).

Run from the root of the repository:

    python3 -m unittest discover -s perfbench/tests -v

The first test to run builds the package through perfbench/run.py.
"""

import filecmp
import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")
SCRATCH = os.path.join(ROOT, ".bench_build", "perfbench-tests")


def bench(*args, env=None):
    """Runs the benchmark; returns (exit code, stdout lines)."""
    out = subprocess.run([sys.executable, RUN, *args], cwd=ROOT, env=env,
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, timeout=900)
    return out.returncode, out.stdout.strip().splitlines()


def result(*args):
    code, lines = bench(*args)
    assert code == 0 and lines, f"benchmark failed: {args}"
    return json.loads(lines[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.makedirs(SCRATCH, exist_ok=True)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def dump(self, workload, seed):
        path = os.path.join(SCRATCH, f"{workload}-{seed}.bin")
        code, _ = bench("--workload", workload, "--seed", str(seed),
                        "--dump-input", path)
        self.assertEqual(code, 0)
        return path

    def test_input_is_a_function_of_the_seed(self):
        for w in [w["name"] for w in self.spec["workloads"]]:
            with self.subTest(workload=w):
                a, b, c = self.dump(w, 5), self.dump(w, 5), self.dump(w, 6)
                self.assertGreater(os.path.getsize(a), 0)
                self.assertTrue(filecmp.cmp(a, b, shallow=False))
                self.assertFalse(filecmp.cmp(a, c, shallow=False))

    def test_ledger_accounts_for_the_wall_time(self):
        for w in ["h2-check", "racy-check"]:
            with self.subTest(workload=w):
                r = result("--workload", w, "--seed", "2", "--seconds", "2",
                           "--trace", "1")
                self.assertTrue(r["correct"])
                share = r["metrics"]["run.unaccounted_share"]["value"]
                self.assertGreaterEqual(share, 0.0)
                self.assertLess(share, 0.05)

    def test_metric_names_match_benchmark_json(self):
        declared = {
            0: {m["name"]: m["unit"] for m in self.spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in self.spec["per_layer"]},
        }
        for w in [w["name"] for w in self.spec["workloads"]]:
            for trace in (0, 1):
                with self.subTest(workload=w, trace=trace):
                    r = result("--workload", w, "--seed", "3", "--seconds",
                               "1", "--trace", str(trace))
                    self.assertEqual(set(r), {"correct", "attempted",
                                              "failed", "metrics"})
                    self.assertTrue(r["correct"])
                    self.assertEqual(r["failed"], 0)
                    printed = {k: v["unit"] for k, v in r["metrics"].items()}
                    self.assertEqual(printed, declared[trace])
                    if trace == 0:
                        for k, v in r["metrics"].items():
                            self.assertGreater(v["value"], 0, k)

    def test_corrupted_reference_fails_every_check(self):
        for w in ["racy-check", "serve-racy"]:
            with self.subTest(workload=w):
                r = result("--workload", w, "--seed", "4", "--seconds", "1",
                           "--trace", "0", "--corrupt-reference")
                self.assertFalse(r["correct"])
                self.assertGreater(r["failed"], 0)
                self.assertEqual(r["failed"], r["attempted"])

    def test_fails_without_the_crd_sources(self):
        bare = os.path.join(SCRATCH, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "racy-check",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn("\"correct\"", out.stdout)


if __name__ == "__main__":
    unittest.main()
