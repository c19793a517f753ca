#!/usr/bin/env python3
"""Self-tests of the GridVine core-stack benchmark.

Run from the repository root:

    python3 perfbench/test_benchmark.py

Checks that `BENCHMARK.json` follows the benchmark contract and agrees
with the metric catalog compiled into `perfbench`, and that tiny runs
of every workload repeat their transcript for a seed and change it for
another seed. The Rust unit tests (`cargo test --manifest-path
perfbench/Cargo.toml`) cover the catalog's names, units and directions
and run every workload at tiny size through the correctness gate.
"""

import json
import os
import re
import subprocess
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def target_dir() -> str:
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def perfbench(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, check=True,
    )
    exe = os.path.join(target_dir(), "release", "perfbench")
    return subprocess.run([exe, *args], env=env, capture_output=True, text=True)


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class ContractTest(unittest.TestCase):
    def test_keys_names_units_and_bounds(self):
        b = load_benchmark()
        self.assertEqual(set(b), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"})
        self.assertTrue(1 <= b["run_seconds"] <= 60)
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], NAME)
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        names = [w["name"] for w in b["workloads"]]
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
            self.assertGreater(m["bound"], 0)
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)), "every name is used once")
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in b["end_to_end"]))
        self.assertNotIn("speedup", json.dumps(b))

    def test_catalog_matches_benchmark_json(self):
        b = load_benchmark()
        listed = perfbench("--list-metrics")
        self.assertEqual(listed.returncode, 0, listed.stderr)
        compiled = [tuple(line.split()) for line in listed.stdout.splitlines()]
        declared = [(m["name"], m["unit"], m["better"]) for m in b["end_to_end"] + b["per_layer"]]
        self.assertEqual(compiled, declared)


def transcript(workload: str, seed: int, trace: str) -> list:
    run = perfbench("--workload", workload, "--seed", str(seed), "--seconds", "0",
                    "--trace", trace, "--size", "tiny")
    if run.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} trace {trace} failed:\n{run.stdout}{run.stderr}")
    result = json.loads(run.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        raise AssertionError(f"{workload}: {result}")
    # The seed itself is printed; drop it so only what it drives counts.
    return [l for l in run.stdout.splitlines() if l.startswith("transcript ") and " seed " not in l]


class DeterminismTest(unittest.TestCase):
    def test_same_seed_same_transcript_other_seed_differs(self):
        for workload in [w["name"] for w in load_benchmark()["workloads"]]:
            for trace in ("0", "1"):
                with self.subTest(workload=workload, trace=trace):
                    a = transcript(workload, 3, trace)
                    self.assertEqual(a, transcript(workload, 3, trace))
                    self.assertNotEqual(a, transcript(workload, 4, trace))


if __name__ == "__main__":
    unittest.main()
