#!/usr/bin/env python3
"""Tests of the repository benchmark: the output check behind `failed`, the
traced run's accounting, and the result format BENCHMARK.json declares.

Run from the repository root (builds the harness on first use, ~2 minutes):
    python3 perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run as bench  # noqa: E402  (the benchmark entry point, for build() and paths)

with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)


def harness(*args):
    """Run the built harness; returns (returncode, parsed last line or None)."""
    done = subprocess.run([bench.BINARY, *args], capture_output=True, text=True,
                          timeout=bench.RUN_TIMEOUT_S, check=False)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, result


def one_pass(workload, seed, references, trace=0):
    return harness("--workload", workload, "--seed", str(seed), "--seconds", "0",
                   "--trace", str(trace), "--references", references)


class BenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not bench.build():
            raise RuntimeError("the benchmark harness does not build")
        cls.tmp = tempfile.mkdtemp(dir=os.path.dirname(bench.BUILD_DIR))
        with open(bench.REFERENCES, encoding="utf-8") as f:
            cls.refs = json.load(f)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def write_refs(self, refs):
        path = os.path.join(self.tmp, "refs.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(refs, f)
        return path

    def perturbed(self, workload, seed, op):
        refs = json.loads(json.dumps(self.refs))
        digest = refs[workload][str(seed)][op]
        refs[workload][str(seed)][op] = digest[:-1] + ("0" if digest[-1] != "0" else "1")
        return self.write_refs(refs)

    # --- output check ---------------------------------------------------------

    def test_clean_runs_fail_no_operation(self):
        for seed in bench.REFERENCE_SEEDS:
            code, result = one_pass("replay_steady", seed, bench.REFERENCES)
            self.assertEqual(code, 0)
            self.assertEqual((result["correct"], result["attempted"], result["failed"]),
                             (True, 6, 0), f"seed {seed}")

    def test_perturbed_replay_reference_fails_that_operation(self):
        refs = self.perturbed("replay_rekey_storm", 1, "STBPU-SKLCond")
        code, result = one_pass("replay_rekey_storm", 1, refs)
        self.assertEqual(code, 0)
        self.assertEqual((result["correct"], result["attempted"], result["failed"]),
                         (False, 6, 1))

    def test_perturbed_sweep_reference_fails_that_point(self):
        refs = self.perturbed("sweep_fig4", 1, "mcf/TAGE_SC_L_8KB")
        code, result = one_pass("sweep_fig4", 1, refs)
        self.assertEqual(code, 0)
        self.assertEqual((result["correct"], result["attempted"], result["failed"]),
                         (False, 72, 1))

    def test_missing_reference_digest_fails_that_operation(self):
        refs = json.loads(json.dumps(self.refs))
        del refs["replay_steady"]["1"]["CIBPU-SKLCond"]
        code, result = one_pass("replay_steady", 1, self.write_refs(refs))
        self.assertEqual(code, 0)
        self.assertEqual((result["correct"], result["failed"]), (False, 1))

    # --- result format ----------------------------------------------------------

    def test_untraced_result_carries_every_end_to_end_metric(self):
        code, result = one_pass("replay_steady", 1, bench.REFERENCES)
        self.assertEqual(code, 0)
        expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, expected)
        self.assertTrue(all(v["value"] != 0 for v in result["metrics"].values()))

    def test_traced_result_carries_every_per_layer_metric_and_adds_up(self):
        code, result = one_pass("replay_steady", 1, bench.REFERENCES, trace=1)
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        m = result["metrics"]
        expected = {x["name"]: x["unit"] for x in SPEC["per_layer"]}
        self.assertEqual({k: v["unit"] for k, v in m.items()}, expected)
        self_s = sum(v["value"] for k, v in m.items() if k.startswith("self_s."))
        self.assertAlmostEqual(self_s, m["traced_wall_s"]["value"],
                               delta=1e-6 * m["traced_wall_s"]["value"])
        self.assertGreaterEqual(m["core.STBPU-SKLCond.memo_hit_rate"]["value"], 0.9)
        self.assertLess(m["monitor.STBPU-SKLCond.rekeys_per_kbranch"]["value"], 0.1)

    def test_without_repository_sources_exits_nonzero_without_result(self):
        bare = os.path.join(self.tmp, "bare")
        os.makedirs(bare)
        shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "replay_steady",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180, check=False)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn("{", done.stdout)


if __name__ == "__main__":
    unittest.main()
