"""Seeded inputs, exactness checks and the (optionally traced) passes of the benchmark.

This module is imported only inside child processes, after run.py has put
the checkout's src/ first on sys.path.  It drives formchains through its
public functions alone.

A task is one of

    ("betti", algebra, w)             betti_row(spec, w)
    ("extended", algebra, w)          extended_betti(spec, w)
    ("poly", w, h, n, vectors)        double_weight_betti(w, h, n, include_vectors=vectors)

and a pass runs its tasks back to back, then a number of in-process
`formchains goldens` calls, each of which recomputes and diffs the shipped
golden tables.  Every result is checked for exactness before the pass
moves on.

The traced pass builds each task from the same public calls that
homology.complex_homology makes (table, basis for m = 0 .. m_top + 1,
boundary_matrix, rank, report) with a span around each call into a layer,
and decomposes each goldens call into the tasks of cli.golden_payloads.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import signal
import sys
import time
import traceback
from collections import Counter
from fractions import Fraction

import formchains as fc
from formchains import cli, exactla
from formchains.polyforms import support_top

# [e1,e2]=e2, [e1,e3]=e3, [e1,e4]=2e4, [e2,e3]=e4: a 4-dimensional solvable algebra
SOLV4 = {(1, 2, 2): 1, (1, 3, 3): 1, (1, 4, 4): 2, (2, 3, 4): 1}


def task_id(task) -> str:
    return " ".join(str(x) for x in task)


def base_algebra(name):
    if name == "solv4":
        return fc.LieAlgebraSpec(4, SOLV4, name="solv4")
    return fc.catalog(name)


def signed_permutation(spec, rng):
    """The same algebra in the basis e'_{p(i)} = s_i e_i, for a random p and signs s.

    c'^{p(k)}_{p(i)p(j)} = s_i s_j s_k c^k_{ij}.  The algebras are isomorphic,
    so every dim, rank and Betti number (and every matrix nnz) is unchanged.
    """
    perm = list(range(1, spec.n + 1))
    rng.shuffle(perm)
    sign = [rng.choice((1, -1)) for _ in range(spec.n)]
    constants = {
        (perm[i - 1], perm[j - 1], perm[k - 1]): sign[i - 1] * sign[j - 1] * sign[k - 1] * c
        for (i, j, k), c in spec.nonzero_constants().items()
    }
    return fc.LieAlgebraSpec(spec.n, constants, name=spec.name)


def plan(tasks, seed):
    """The seeded algebra specs and the task order of one workload.

    The seed permutes the basis of every Lie algebra and shuffles the order
    of Lie-algebra tasks; polynomial tasks and goldens calls take no input
    from the seed.
    """
    rng = random.Random(seed)
    names = sorted({t[1] for t in tasks if t[0] != "poly"})
    algebras = {name: signed_permutation(base_algebra(name), rng) for name in names}
    ordered = list(tasks)
    if algebras:
        rng.shuffle(ordered)
    return algebras, ordered


def validate_all(algebras) -> None:
    for spec in algebras.values():
        report = fc.validate(spec)
        if not report.ok:
            raise ValueError(f"{spec.name}: {report.summary()}")


# --- untraced ------------------------------------------------------------------------

def solve(task, algebras):
    kind = task[0]
    if kind == "betti":
        return fc.betti_row(algebras[task[1]], task[2])
    if kind == "extended":
        return fc.extended_betti(algebras[task[1]], task[2])
    _, w, h, n, vectors = task
    return fc.double_weight_betti(w, h, n, include_vectors=vectors)


def frozen_table(tasks, seed=0) -> dict:
    """{task id: {"dims", "ranks", "betti"}}, as expected.json stores them."""
    algebras, _ = plan(tasks, seed)
    table = {}
    for task in tasks:
        rep = solve(task, algebras)
        table[task_id(task)] = {key: list(getattr(rep, key)) for key in ("dims", "ranks", "betti")}
    return table


def render(reports, euler_column):
    """The CSV of the reports, and the bytes of all three output formats."""
    csv = fc.homology_csv(reports, euler_column=euler_column)
    return csv, len(csv) + len(fc.homology_text(reports)) + len(fc.homology_json(reports))


def goldens_call() -> list:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(["goldens"])
    if code != 0:
        return [f"formchains goldens exited {code}: {out.getvalue().strip()}"]
    return []


# --- checks --------------------------------------------------------------------------

def _alternating(values) -> int:
    return sum((-1) ** m * v for m, v in enumerate(values, start=1))


def check_report(rep, want=None, euler_zero=False, n3=False) -> list:
    """Exactness problems of one report; an empty list means it is correct."""
    problems = []
    if want is not None:
        for key in ("dims", "ranks", "betti"):
            got = list(getattr(rep, key))
            if got != want[key]:
                problems.append(f"{key} {got} != frozen {want[key]}")
    if any(b < 0 for b in rep.betti):
        problems.append(f"negative Betti number in {list(rep.betti)}")
    if _alternating(rep.dims) != _alternating(rep.betti):
        problems.append("Euler characteristic of dims differs from that of Betti numbers")
    if euler_zero and rep.euler != 0:
        problems.append(f"Euler characteristic {rep.euler}, expected 0")
    if n3:
        formula = [fc.chain_dim_formula_n3(m, rep.weight) for m in range(1, len(rep.dims) + 1)]
        if list(rep.dims) != formula:
            problems.append(f"dims {list(rep.dims)} != chain_dim_formula_n3 {formula}")
    return problems


def check_task(task, rep, want, algebras) -> list:
    if want is None:
        return ["no frozen entry for this task"]
    kind = task[0]
    euler_zero = kind == "extended" or (kind == "poly" and task[4])
    n3 = kind == "betti" and algebras[task[1]].n == 3
    return check_report(rep, want, euler_zero=euler_zero, n3=n3)


# --- tracing -------------------------------------------------------------------------

class Tracer:
    """Spans and counts recorded around the benchmark's calls into each layer.

    A span is [name, task, parent index, start, end].  Start and end are read
    from the pass's SpeedProbe clock, so no span includes probe time.
    Everything stays in memory until the run ends.
    """

    def __init__(self):
        self.spans = []
        self.matrices = []   # [pass, task, m, rows, cols, nnz, rank, path]
        self.counts = Counter()
        self.task = None
        self.pass_no = 0
        self.probe = None
        self._open = []
        self._brackets = []
        # rank() sends matrices below this size in both dimensions down the dense
        # path; 0 (all sparse) if a later exactla drops the two-path split
        self._dense_limit = getattr(exactla, "DENSE_LIMIT", 0)

    @contextlib.contextmanager
    def span(self, name):
        rec = [name, self.task, self._open[-1] if self._open else None,
               self.probe.clock(), None]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[4] = self.probe.clock()
            self._open.pop()

    def start_pass(self, pass_no, probe):
        self.pass_no = pass_no
        self.probe = probe
        self.counts = Counter()
        self._brackets = []
        return len(self.spans)

    def pass_summary(self, first) -> dict:
        """Per-layer seconds, report self time, goldens call times and counts."""
        layers = Counter()
        covered = Counter()
        for name, _, parent, t0, t1 in self.spans[first:]:
            layers[name] += t1 - t0
            if parent is not None:
                covered[parent] += t1 - t0
        report_self = sum(
            rec[4] - rec[3] - covered[idx]
            for idx, rec in enumerate(self.spans[first:], start=first)
            if rec[0] == "homology.task"
        )
        counts = dict(self.counts)
        tallies = [tally() for tally in self._brackets]
        counts["superchain.bracket_calls"] = sum(calls for calls, _ in tallies)
        counts["superchain.bracket_distinct"] = sum(distinct for _, distinct in tallies)
        return {
            "layers": dict(layers),
            "report_self": report_self,
            "goldens_calls": [t1 - t0 for name, _, _, t0, t1 in self.spans[first:]
                              if name == "cli.goldens"],
            "counts": counts,
        }

    def count_brackets(self, cx):
        """Wrap cx.bracket so its calls and distinct (a, b) pairs are counted, never timed."""
        inner = cx.bracket
        seen = set()
        calls = 0

        def bracket(a, b):
            nonlocal calls
            calls += 1
            seen.add((a, b))
            return inner(a, b)

        cx.bracket = bracket
        self._brackets.append(lambda: (calls, len(seen)))
        return cx

    def table(self, name, build):
        with self.span(name):
            cx = build()
        return self.count_brackets(cx)

    def bases(self, cx, w):
        """cx.basis(m, w) with each cold call spanned and its monomials counted."""
        seen = {}

        def basis(m):
            if m not in seen:
                with self.span("superchain.enumerate"):
                    seen[m] = cx.basis(m, w)
                self.counts["superchain.monomials"] += len(seen[m])
            return seen[m]

        return basis

    def rank(self, m, mat):
        nnz = len(mat.entries)
        if not nnz:
            path = "empty"
        elif mat.nrows < self._dense_limit and mat.ncols < self._dense_limit:
            path = "dense"
        else:
            path = "sparse"
        with self.span("exactla.rank"):
            r = fc.rank(mat)
        c = self.counts
        c["exactla.rank_calls"] += 1
        c[f"exactla.{path}_calls"] += 1
        c["exactla.nnz_in"] += nnz
        c["exactla.max_cols"] = max(c["exactla.max_cols"], mat.ncols)
        self.matrices.append([self.pass_no, self.task, m, mat.nrows, mat.ncols, nnz, r, path])
        return r

    def homology(self, cx, w, m_top, name, basis=None):
        """The report complex_homology(cx, w, m_top, name) returns, call by call."""
        basis = basis or self.bases(cx, w)
        for m in range(m_top + 2):
            basis(m)
        ranks = []
        for m in range(1, m_top + 1):
            with self.span("superchain.assemble"):
                mat = cx.boundary_matrix(m, w)
            self.counts["superchain.nnz"] += len(mat.entries)
            ranks.append(self.rank(m, mat))
        if basis(m_top + 1):
            raise ValueError(f"complex does not vanish above m = {m_top}")
        dims = [len(basis(m)) for m in range(1, m_top + 1)]
        kernels = [d - r for d, r in zip(dims, ranks)]
        betti = [kernels[i] - (ranks[i + 1] if i + 1 < m_top else 0) for i in range(m_top)]
        return fc.HomologyReport(algebra=name, weight=w, dims=tuple(dims), ranks=tuple(ranks),
                                 kernels=tuple(kernels), betti=tuple(betti))

    def poly(self, w, h, n, vectors):
        """double_weight_betti(w, h, n, include_vectors=vectors), call by call."""
        m_top = support_top(w, h, n, vectors)
        cx = self.table("polyforms.complex",
                        lambda: fc.double_weight_complex(n, h, m_top + 1, vectors))
        self.counts["polyforms.tokens"] += sum(len(lv.tokens) for lv in cx.levels)
        basis = self.bases(cx, (w, h))
        while m_top > 0 and not basis(m_top):
            m_top -= 1
        name = f"poly{n}" + ("+T" if vectors else "")
        return self.homology(cx, (w, h), m_top, name, basis)

    def emit(self, reports, euler_column):
        with self.span("homology.emit"):
            csv, size = render(reports, euler_column)
        self.counts["homology.emit_bytes"] += size
        return csv

    def report(self, cx, w, m_top, name):
        with self.span("homology.task"):
            return self.homology(cx, w, m_top, name)

    def solve(self, task, algebras):
        kind = task[0]
        if kind == "betti":
            spec, w = algebras[task[1]], task[2]
            cx = self.table("forms.table", lambda: fc.forms_complex(spec))
            return self.homology(cx, w, -w, spec.name)
        if kind == "extended":
            spec, w = algebras[task[1]], task[2]
            cx = self.table("extend.table", lambda: fc.extended_complex(spec))
            return self.homology(cx, w, -w + spec.n, spec.name + "+T")
        _, w, h, n, vectors = task
        return self.poly(w, h, n, vectors)

    def goldens_call(self) -> list:
        """One `formchains goldens`, decomposed into the tasks of cli.golden_payloads."""
        problems = []
        with self.span("cli.goldens"):
            out = {}
            reps = []
            cx = self.table("forms.table", lambda: fc.forms_complex(fc.catalog("dim2")))
            for w in range(-1, -13, -1):
                reps.append(self.report(cx, w, -w, "dim2"))
            out["dim2_betti.csv"] = self.emit(reps, False)
            lines = ["n,weight,m,dim"]
            for w in range(-1, -7, -1):
                for m in range(1, -w + 1):
                    with self.span("superchain.enumerate"):
                        d = fc.chain_dim(3, m, w)
                    self.counts["superchain.monomials"] += d
                    lines.append(f"3,{w},{m},{d}")
            out["n3_dims.csv"] = "\n".join(lines) + "\n"
            weighted = []
            for label in ("d3", "d2y", "d2n", "d1y", "d1n"):
                spec = fc.catalog(label)
                for w in (-3, -5, -10):
                    cx = self.table("forms.table", lambda: fc.forms_complex(spec))
                    weighted.append(self.report(cx, w, -w, label))
            out["weighted_tables.csv"] = self.emit(weighted, False)
            so3, w = fc.catalog("so3"), -3
            cx = self.table("extend.table", lambda: fc.extended_complex(so3))
            extended = [self.report(cx, w, -w + so3.n, "so3+T")]
            out["extended_so3.csv"] = self.emit(extended, True)
            poly = []
            for w in range(-1, -5, -1):
                with self.span("homology.task"):
                    poly.append(self.poly(w, 0, 1, False))
            out["poly_n1_h0.csv"] = self.emit(poly, True)
            for rep in reps + weighted + poly:
                problems += check_report(rep)
            problems += check_report(extended[0], euler_zero=True)
            for fname, text in sorted(out.items()):
                with open(os.path.join(cli.GOLDEN_DIR, fname)) as fh:
                    if fh.read() != text:
                        problems.append(f"{fname} differs from the shipped golden table")
        return problems


# --- machine speed -------------------------------------------------------------------

PROBE_PERIOD = 0.05   # seconds between speed samples during a pass


def probe_slice():
    """A fixed slice of pure-Python work (tuples, sorting, dicts, Fractions).

    It uses the same interpreter operations formchains spends its time in,
    and none of formchains' code, so a change to the package cannot change it.
    """
    acc = {}
    for i in range(600):
        key = tuple(sorted((i % 7, i % 5, i % 3)))
        acc[key] = acc.get(key, 0) + Fraction(i % 4 + 1, 3)
    return acc


class SpeedProbe:
    """Times probe_slice every PROBE_PERIOD seconds while a pass runs.

    The slices run in a SIGALRM handler, between two bytecodes of whatever
    the pass is doing, so they sample the machine's speed evenly over the
    pass.  `spent` is their total time, to be taken out of the pass time.
    """

    def __init__(self):
        self.spent = 0.0
        self.samples = []

    def clock(self):
        """perf_counter() less the time spent in probe slices so far."""
        return time.perf_counter() - self.spent

    def sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        probe_slice()
        dt = time.perf_counter() - t0
        self.spent += dt
        self.samples.append(dt)

    def __enter__(self):
        self._handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD, PROBE_PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)

    def mean_slice(self):
        """Mean slice time; a pass too short to be sampled gets one slice afterwards."""
        if not self.samples:
            t0 = time.perf_counter()
            probe_slice()
            return time.perf_counter() - t0
        return self.spent / len(self.samples)


# --- one pass ------------------------------------------------------------------------

def _attempt(label, work, say) -> int:
    """Run one task; print its outcome; 1 if it failed."""
    try:
        problems = work()
    except Exception as exc:  # a task that raises is counted as failed; the pass goes on
        traceback.print_exc(file=sys.stderr)
        problems = [f"{type(exc).__name__}: {exc}"]
    if problems:
        print(f"FAIL {label}: " + "; ".join(problems), file=sys.stderr)
        say(f"task fail {label}")
        return 1
    say(f"task ok {label}")
    return 0


def solve_and_emit(task, algebras, tracer=None):
    euler_column = task[0] != "betti"
    if tracer is None:
        rep = solve(task, algebras)
        render([rep], euler_column)   # emitting the report is part of the user's cost
        return rep
    tracer.task = task_id(task)
    with tracer.span("homology.task"):
        rep = tracer.solve(task, algebras)
        tracer.emit([rep], euler_column)
    return rep


def run_pass(tasks, algebras, goldens_calls, expected, say, tracer=None, pass_no=0) -> dict:
    """Run every task, then the goldens calls; returns the pass record.

    "seconds" excludes the speed probe's own time; "slice_s" is its mean
    slice time over the pass.
    """
    say(f"pass-start {len(tasks) + goldens_calls}")
    failed = 0
    with SpeedProbe() as probe:
        first = tracer.start_pass(pass_no, probe) if tracer else 0
        t0 = probe.clock()
        for task in tasks:
            label = task_id(task)
            failed += _attempt(label, lambda: check_task(
                task, solve_and_emit(task, algebras, tracer), expected.get(label), algebras), say)
        for i in range(goldens_calls):
            if tracer:
                tracer.task = f"goldens {i}"
            failed += _attempt("goldens", tracer.goldens_call if tracer else goldens_call, say)
        seconds = probe.clock() - t0
    record = {"traced": tracer is not None, "seconds": seconds, "slice_s": probe.mean_slice(),
              "tasks": len(tasks) + goldens_calls, "failed": failed}
    if tracer:
        record.update(tracer.pass_summary(first))
    return record
