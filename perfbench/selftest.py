"""The benchmark's own tests: negative controls, repeatable counts, fail-fast.

    python3 perfbench/selftest.py

Each workload is tried on a tiny configuration built from the same kinds of
task, so the whole file runs in well under a minute.
"""

import contextlib
import copy
import io
import json
import os
import shutil
import subprocess
import sys
import time
import unittest

import run

run._import_package()
import bench  # noqa: E402  (needs the package path set up above)
from formchains import cli  # noqa: E402

SCRATCH = os.path.join(run.OUT, "selftest")

TINY = {
    "forms-deep": [("betti", "so3", -6), ("betti", "d1n", -6), ("betti", "solv4", -5),
                   ("extended", "so3", -3)],
    "poly-enum": [("poly", -1, -1, 1, True)],
    "poly-rank": [("poly", -3, 0, 2, False), ("poly", -2, 1, 1, True)],
}


def quiet(_line):
    pass


def failures(tasks, expected, seed=1, goldens=0, tracer=None):
    algebras, ordered = bench.plan(tasks, seed)
    with contextlib.redirect_stderr(io.StringIO()):   # the report of each expected failure
        return bench.run_pass(ordered, algebras, goldens, expected, quiet, tracer)["failed"]


def fresh_scratch(name):
    path = os.path.join(SCRATCH, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


class NegativeControls(unittest.TestCase):
    """Flipping one expected Betti entry must make a pass fail, traced or not."""

    def test_frozen_tables(self):
        for name, tasks in TINY.items():
            with self.subTest(workload=name):
                expected = bench.frozen_table(tasks)
                self.assertEqual(failures(tasks, expected), 0)
                flipped = copy.deepcopy(expected)
                betti = flipped[bench.task_id(tasks[0])]["betti"]
                betti[-1] += 1
                self.assertEqual(failures(tasks, flipped), 1)
                self.assertEqual(failures(tasks, flipped, tracer=bench.Tracer()), 1)

    def test_goldens(self):
        golden_dir = cli.GOLDEN_DIR
        copy_dir = fresh_scratch("goldens")
        for fname in os.listdir(golden_dir):
            shutil.copy(os.path.join(golden_dir, fname), copy_dir)
        path = os.path.join(copy_dir, "dim2_betti.csv")
        with open(path) as fh:
            lines = fh.read().splitlines()
        head, _, betti = lines[-1].rpartition(",")
        lines[-1] = f"{head},{int(betti) + 1}"
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        self.assertEqual(failures([], {}, goldens=1), 0)
        self.assertEqual(failures([], {}, goldens=1, tracer=bench.Tracer()), 0)
        cli.GOLDEN_DIR = copy_dir
        try:
            self.assertEqual(failures([], {}, goldens=1), 1)
            self.assertEqual(failures([], {}, goldens=1, tracer=bench.Tracer()), 1)
        finally:
            cli.GOLDEN_DIR = golden_dir


class Tracing(unittest.TestCase):

    def counts(self, seed):
        tracer = bench.Tracer()
        algebras, tasks = bench.plan(TINY["forms-deep"] + TINY["poly-rank"], seed)
        expected = bench.frozen_table(TINY["forms-deep"] + TINY["poly-rank"])
        record = bench.run_pass(tasks, algebras, 1, expected, quiet, tracer)
        self.assertEqual(record["failed"], 0)
        return record["counts"]

    def test_counts_repeat_across_runs_and_seeds(self):
        first = self.counts(seed=1)
        for key in ("superchain.monomials", "superchain.nnz", "superchain.bracket_calls",
                    "exactla.dense_calls", "exactla.rank_calls"):
            self.assertGreater(first[key], 0, key)
        self.assertEqual(self.counts(seed=1), first)
        self.assertEqual(self.counts(seed=2), first)

    def test_traced_ranks_match_untraced(self):
        tasks = TINY["forms-deep"] + TINY["poly-rank"] + TINY["poly-enum"]
        algebras, _ = bench.plan(tasks, 3)
        tracer = bench.Tracer()
        with bench.SpeedProbe() as probe:
            tracer.start_pass(0, probe)
            for task in tasks:
                with self.subTest(task=task):
                    self.assertEqual(tracer.solve(task, algebras), bench.solve(task, algebras))

    def test_metric_lists_match_benchmark_json(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))


class Seeds(unittest.TestCase):

    def test_seeded_algebras_are_isomorphic(self):
        tables = []
        for seed in (1, 2, 3):
            algebras, _ = bench.plan(TINY["forms-deep"], seed)
            bench.validate_all(algebras)
            tables.append({name: bench.frozen_table([("betti", name, -8)], seed)
                           for name in algebras})
        self.assertEqual(tables[0], tables[1])
        self.assertEqual(tables[0], tables[2])

    def test_seed_changes_the_inputs(self):
        a, _ = bench.plan(TINY["forms-deep"], 1)
        b, _ = bench.plan(TINY["forms-deep"], 2)
        self.assertNotEqual(
            [s.nonzero_constants() for s in a.values()],
            [s.nonzero_constants() for s in b.values()],
        )


class Runner(unittest.TestCase):

    def test_ceiling_kills_and_counts_unfinished_tasks(self):
        args = run.build_parser().parse_args(
            ["--workload", "poly-rank", "--seed", "1", "--seconds", "30"])
        t0 = time.monotonic()
        out, _, _, killed = run.run_solve_child(run._child_cmd("solve", args), ceiling=1.0)
        self.assertLess(time.monotonic() - t0, 15.0)
        self.assertTrue(killed)
        _, attempted, failed = run.parse_child(out)
        self.assertGreaterEqual(failed, 1)
        self.assertEqual(attempted, 3)

    def test_refuses_to_run_without_the_package(self):
        root = fresh_scratch("bare")
        shutil.copytree(run.HERE, os.path.join(root, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), root)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "goldens", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=root, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("correct", proc.stdout)


if __name__ == "__main__":
    unittest.main()
