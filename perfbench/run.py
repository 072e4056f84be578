"""Benchmark of the formchains engine: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload forms-deep --seed 1 --seconds 25 --trace 0

Set-up is timed in several fresh interpreters (import formchains, then build
and validate the workload's seeded algebra specs).  The workload then runs
single-threaded in one more fresh child process, under a wall-clock ceiling,
pass after pass until --seconds is used up.  Each pass runs the workload's
tasks back to back and checks every result for exactness.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced and
traced passes, reports the per-layer metrics, and writes the spans and the
per-matrix record to perfbench/out/trace-<workload>-seed<seed>.json.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 whenever that line is
printed; a run that cannot start (no formchains package under src/, an
unknown workload) exits 2 without it.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# Each pass runs "tasks" in order (the Lie-algebra ones shuffled by the seed),
# then "goldens" in-process `formchains goldens` calls.  One goldens call ends
# every pass as a self-check of the package; the goldens workload is nothing else.
WORKLOADS = {
    # superchain assembly (boundary_of_monomial + normalize) is ~90% of a pass
    "forms-deep": {
        "tasks": [("betti", "so3", -36), ("betti", "sl2r", -36), ("betti", "d1n", -36),
                  ("betti", "solv4", -14), ("extended", "so3", -12)],
        "goldens": 1,
    },
    # enumerate_monomials walking dead branches is ~92% of a pass
    "poly-enum": {"tasks": [("poly", -1, -1, 2, True)], "goldens": 1},
    # sparse Fraction elimination in exactla is ~80% of a pass
    "poly-rank": {"tasks": [("poly", -6, 2, 2, False), ("poly", -4, 4, 1, True)],
                  "goldens": 1},
    # 34 tiny tasks per call, every nonempty matrix on the dense path
    "goldens": {"tasks": [], "goldens": 20},
}

END_TO_END = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# per-layer time metric -> the span it sums, per pass
TIMED = {
    "forms.table_s": "forms.table",
    "extend.table_s": "extend.table",
    "polyforms.complex_s": "polyforms.complex",
    "superchain.enumerate_s": "superchain.enumerate",
    "superchain.assemble_s": "superchain.assemble",
    "exactla.rank_s": "exactla.rank",
    "homology.emit_s": "homology.emit",
}
COUNTS = ("polyforms.tokens", "superchain.monomials", "superchain.nnz",
          "superchain.bracket_calls", "superchain.bracket_distinct", "exactla.rank_calls",
          "exactla.dense_calls", "exactla.sparse_calls", "exactla.nnz_in", "exactla.max_cols",
          "homology.emit_bytes")
PER_LAYER = {
    **{name: "s" for name in TIMED},
    "superchain.enumerate_us_per_monomial": "us",
    "homology.report_self_s": "s",
    "cli.goldens_s": "s",
    "trace.overhead_s": "s",
    **{name: "bytes" if name.endswith("bytes") else "count" for name in COUNTS},
}

# Every reported time is in reference seconds: wall seconds scaled by
# REFERENCE_SLICE_S / (the time bench.probe_slice took on this machine during the
# same measurement).  Machines shared with other work change speed by up to 2x
# within minutes; the scaling takes that out and leaves the program's own cost.
# REFERENCE_SLICE_S is the slice time of an otherwise idle 2.1 GHz Xeon core
# (Python 3.11), so a reference second is about one wall second there.
REFERENCE_SLICE_S = 0.00175
SETUP_SAMPLES = 9        # fresh interpreters per run; the first extra one only warms the disk cache
RUN_LIMIT = 170.0        # seconds; a run must end within 180
SETUP_LIMIT = 30.0       # seconds for all set-up samples together
CEILING_SLACK = 60.0     # seconds the solve child may run past --seconds
SETUP_PROBE_SLICES = 20  # speed samples taken right after each set-up


# --- child side ------------------------------------------------------------------------

def _import_package():
    """Import formchains from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    import formchains
    if os.path.dirname(os.path.dirname(os.path.abspath(formchains.__file__))) != SRC:
        raise ImportError(f"formchains imported from {formchains.__file__}, not {SRC}")
    return formchains


def child_setup(args) -> int:
    t0 = time.perf_counter()
    _import_package()
    t1 = time.perf_counter()
    import bench   # the benchmark's own module; formchains is already loaded
    tasks = WORKLOADS[args.workload]["tasks"]
    t2 = time.perf_counter()
    algebras, _ = bench.plan(tasks, args.seed)
    bench.validate_all(algebras)
    t3 = time.perf_counter()
    probe = bench.SpeedProbe()
    for _ in range(SETUP_PROBE_SLICES):
        probe.sample()
    print(json.dumps({"seconds": (t1 - t0) + (t3 - t2), "slice_s": probe.mean_slice()}))
    return 0


def child_solve(args) -> int:
    _import_package()
    import bench
    workload = WORKLOADS[args.workload]
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh).get(args.workload, {})
    algebras, tasks = bench.plan(workload["tasks"], args.seed)
    tracer = bench.Tracer() if args.trace else None

    def say(line):
        print(line, flush=True)

    start = time.perf_counter()
    times = {False: [], True: []}
    while True:
        traced = bool(args.trace) and len(times[False]) > len(times[True])
        record = bench.run_pass(tasks, algebras, workload["goldens"], expected, say,
                                tracer if traced else None, len(times[False]) + len(times[True]))
        say("pass-end " + json.dumps(record))
        times[traced].append(record["seconds"])
        if args.trace and not times[True]:
            continue
        per_pass = statistics.median(times[False] + times[True])
        if time.perf_counter() - start + per_pass > args.seconds:
            break
    if tracer:
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "span_fields": ["name", "task", "parent", "start", "end"],
                       "spans": tracer.spans,
                       "matrix_fields": ["pass", "task", "m", "rows", "cols", "nnz", "rank", "path"],
                       "matrices": tracer.matrices}, fh)
    return 0


# --- parent side -----------------------------------------------------------------------

def _child_cmd(role, args):
    return [sys.executable, os.path.abspath(__file__), "--child", role,
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace)]


def scaled(seconds, slice_s):
    """Wall seconds in reference seconds, given the probe slice time measured with them."""
    return seconds * REFERENCE_SLICE_S / slice_s


def measure_setup(args):
    """Set-up samples from SETUP_SAMPLES fresh interpreters, after one warm-up."""
    deadline = time.monotonic() + SETUP_LIMIT
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        out = subprocess.run(_child_cmd("setup", args), stdout=subprocess.PIPE, text=True,
                             check=True, timeout=max(deadline - time.monotonic(), 1.0)).stdout
        if i:
            samples.append(json.loads(out.strip().splitlines()[-1]))
    return samples


def run_solve_child(cmd, ceiling):
    """Run the solve child, killed at the ceiling; returns (stdout, rusage, exit code, killed)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    killed = threading.Event()

    def kill():
        killed.set()
        os.kill(proc.pid, signal.SIGKILL)   # the pid stays ours until wait4 reaps it

    timer = threading.Timer(ceiling, kill)
    timer.start()
    try:
        out = proc.stdout.read()
    except BaseException:
        os.kill(proc.pid, signal.SIGKILL)
        raise
    finally:
        timer.cancel()
        timer.join()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return out, usage, proc.returncode, killed.is_set()


def parse_child(out):
    """Pass records, and the attempted/failed task counts, from the child's lines.

    Tasks of a pass that never finished count as attempted and failed.
    """
    passes, attempted, failed, pending = [], 0, 0, 0
    for line in out.splitlines():
        kind, _, rest = line.partition(" ")
        if kind == "pass-start":
            pending = int(rest)
        elif kind == "task":
            attempted += 1
            pending -= 1
            failed += rest.startswith("fail")
        elif kind == "pass-end":
            passes.append(json.loads(rest))
    return passes, attempted + pending, failed + pending


def _median(values, default=0.0):
    return statistics.median(values) if values else default


def end_to_end_metrics(passes, setup, rss_mb, elapsed):
    solve = [scaled(p["seconds"], p["slice_s"]) for p in passes if not p["traced"]]
    return {
        "solve_s": _median(solve, elapsed),
        "setup_s": statistics.median(scaled(s["seconds"], s["slice_s"]) for s in setup),
        "peak_rss_mb": rss_mb,
    }


def per_layer_metrics(passes):
    """Medians over the traced passes, each pass scaled by its own probe speed."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]

    def median_scaled(value):
        return _median([scaled(value(p), p["slice_s"]) for p in traced])

    metrics = {name: median_scaled(lambda p, span=span: p["layers"].get(span, 0.0))
               for name, span in TIMED.items()}
    counts = traced[-1]["counts"] if traced else {}
    for name in COUNTS:
        metrics[name] = counts.get(name, 0)
    monomials = metrics["superchain.monomials"]
    metrics["superchain.enumerate_us_per_monomial"] = (
        1e6 * metrics["superchain.enumerate_s"] / monomials if monomials else 0.0)
    metrics["homology.report_self_s"] = median_scaled(lambda p: p["report_self"])
    metrics["cli.goldens_s"] = _median([scaled(t, p["slice_s"])
                                        for p in traced for t in p["goldens_calls"]])
    metrics["trace.overhead_s"] = (median_scaled(lambda p: p["seconds"])
                                   - _median([scaled(p["seconds"], p["slice_s"]) for p in untraced]))
    return metrics


def build_parser():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "solve"), help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.child == "setup":
        return child_setup(args)
    if args.child == "solve":
        return child_solve(args)

    if not os.path.isfile(os.path.join(SRC, "formchains", "__init__.py")):
        print(f"error: no formchains package under {SRC}", file=sys.stderr)
        return 2
    started = time.monotonic()
    try:
        setup = measure_setup(args)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: set-up could not be measured: {exc}", file=sys.stderr)
        return 2
    ceiling = min(args.seconds + CEILING_SLACK, RUN_LIMIT - (time.monotonic() - started))
    t0 = time.monotonic()
    out, usage, code, killed = run_solve_child(_child_cmd("solve", args), ceiling)
    elapsed = time.monotonic() - t0
    passes, attempted, failed = parse_child(out)
    if not killed and (code != 0 or not passes):
        print(f"error: the workload process exited with code {code}", file=sys.stderr)
        return 2
    if killed:
        print(f"error: the workload hit its {ceiling:.0f} s ceiling", file=sys.stderr)
        attempted, failed = max(attempted, 1), max(failed, 1)
    rss_mb = usage.ru_maxrss / 1024.0
    units = PER_LAYER if args.trace else END_TO_END
    values = (per_layer_metrics(passes) if args.trace
              else end_to_end_metrics(passes, setup, rss_mb, elapsed))
    untraced = [p["seconds"] for p in passes if not p["traced"]]
    print(f"{args.workload} seed {args.seed}: solve_s median of {len(untraced)} passes "
          f"({_median(untraced, elapsed):.3f} s unscaled), setup_s median of {len(setup)} "
          f"interpreters ({statistics.median(s['seconds'] for s in setup):.4f} s unscaled), "
          f"peak_rss_mb {rss_mb:.1f} MB, fail_frac {failed / attempted:g} "
          f"({failed}/{attempted} tasks)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
