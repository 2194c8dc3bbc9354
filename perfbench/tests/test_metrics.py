"""Output contract of the benchmark binary, on test-sized (--smoke) runs.

Every printed metric must appear in BENCHMARK.json with the same unit and
direction, the untraced run must print exactly the end-to-end metrics and
the traced run exactly the per-layer ones, and the self-checks (delivery
digest, observer invisibility) must hold.

    FDGM_PERF_BIN=.bench_build/perfbench/fdgm_perf python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import subprocess
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BINARY = os.environ.get("FDGM_PERF_BIN", str(ROOT / ".bench_build" / "perfbench" / "fdgm_perf"))
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, seed=3):
    with tempfile.TemporaryDirectory() as out_dir:
        done = subprocess.run([BINARY, "--workload", workload, "--seed", str(seed),
                               "--seconds", "1", "--trace", str(trace), "--smoke",
                               "--out-dir", out_dir],
                              capture_output=True, text=True, check=True, timeout=300)
    lines = done.stdout.rstrip("\n").split("\n")
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit, better = line.split(" ")
            printed[name] = (float(value), unit, better)
    return lines, printed, json.loads(lines[-1])


class MetricContract(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.untraced = run("paper_steady", 0)
        cls.traced = run("paper_steady", 1)
        cls.lossy_traced = run("lossy_recovery", 1)

    def check_against(self, listed, printed, result):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: (m["unit"], m["better"]) for m in listed}
        self.assertEqual(set(printed), set(want))
        self.assertEqual(set(result["metrics"]), set(want))
        for name, (value, unit, better) in printed.items():
            self.assertEqual((unit, better), want[name], name)
            self.assertEqual(result["metrics"][name], {"value": value, "unit": unit})

    def test_untraced_run_prints_the_end_to_end_metrics(self):
        _, printed, result = self.untraced
        self.check_against(BENCH["end_to_end"], printed, result)
        for name, (value, _, _) in printed.items():
            self.assertGreater(value, 0.0, name)

    def test_traced_run_prints_the_per_layer_metrics(self):
        for _, printed, result in (self.traced, self.lossy_traced):
            self.check_against(BENCH["per_layer"], printed, result)

    def test_transport_metrics_read_zero_without_the_transport(self):
        _, printed, _ = self.traced
        for name, (value, _, _) in printed.items():
            if name.startswith("transport.") or name.startswith("obs.cause.") and "loss" in name:
                self.assertEqual(value, 0.0, name)
        _, lossy, _ = self.lossy_traced
        self.assertGreater(lossy["transport.retx_per_msg"][0], 0.0)

    def test_same_seed_gives_identical_digests_and_counts(self):
        counts = [l for l in self.untraced[0] if l.startswith("counts ")]
        again = [l for l in run("paper_steady", 0)[0] if l.startswith("counts ")]
        self.assertEqual(len(counts), 2)
        self.assertEqual(counts, again)
        # The traced run's untraced pass reproduces them too.
        self.assertEqual([l for l in self.traced[0] if l.startswith("counts ")], counts)

    def test_provenance_is_stamped(self):
        for lines, _, _ in (self.untraced, self.traced):
            prov = next(l for l in lines if l.startswith("# provenance "))
            for key in ("commit=", "build=", "compiler=", "nproc=", "cpu=", "seed=3",
                        "backend="):
                self.assertIn(key, prov)

    def test_benchmark_json_shape(self):
        self.assertEqual(set(BENCH), {"command", "paths", "run_seconds", "workloads",
                                      "end_to_end", "per_layer"})
        names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual(setup["bound"], max(m["bound"] for m in BENCH["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
