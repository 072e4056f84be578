"""Batch command line for the weighted homology engine.

Subcommands: validate (Jacobi checks at the Lie and superalgebra level),
betti (weighted form complexes), extended (forms plus invariant vector
fields), polyweight (doubly weighted polynomial complexes on R^n) and
goldens (recompute every shipped reference table and diff).

Exit codes: 0 success, 1 mathematical mismatch (failed validation or a
golden-table diff), 2 configuration or I/O error (unknown algebra,
malformed file, exceeded enumeration cap, unwritable output, structure
constants that break Jacobi given to betti or extended).

Weights may be given by magnitude: --w 3 and --w-range 1:6 mean w = -3 and
w = -1 .. -6, as do --w -3 and --w-range -1:-6.  Output is deterministic for a fixed configuration, whatever
--jobs says: parallel workers only ever compute per-weight reports, and the
single writer emits them in request order.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache, partial

from .extend import check_system_jacobi, extended_betti
from .homology import (
    betti_row,
    betti_table,
    complex_homology,
    homology_csv,
    homology_json,
    homology_text,
)
from .liealg import catalog, load_structure_constants, validate
from .polyforms import double_weight_betti
from .superchain import (
    EnumerationCapExceeded,
    WeightedComplex,
    form_levels,
    forms_bracket,
    forms_complex,
)

EXIT_OK = 0
EXIT_MATH = 1
EXIT_CONFIG = 2

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")


# --- configuration ------------------------------------------------------------

def resolve_algebra(selector: str, kappa=None):
    """Catalog name or structure-constants file path -> LieAlgebraSpec."""
    if kappa is not None:
        if selector not in ("d2", "d2(kappa)"):
            raise ValueError("--kappa only applies to the d2 family")
        selector = f"d2({kappa})"
    try:
        return catalog(selector)
    except ValueError:
        if os.path.exists(selector):
            return load_structure_constants(selector)
        raise


def resolve_lie_algebra(args):
    """resolve_algebra, refusing structure constants that break Jacobi."""
    spec = resolve_algebra(args.algebra, args.kappa)
    report = validate(spec)
    if not report.ok:
        raise ValueError(f"{spec.name or args.algebra}: {report.summary()}")
    return spec


def _normalize_weight(w: int) -> int:
    # tables are indexed by -w throughout; accept the magnitude
    return -w if w > 0 else w


def parse_w_range(text: str):
    """Inclusive a:b range, stepping from a toward b."""
    try:
        lo_s, hi_s = text.split(":")
        a, b = int(lo_s), int(hi_s)
    except ValueError as exc:
        raise ValueError(f"bad --w-range {text!r}, expected like 1:6") from exc
    a, b = _normalize_weight(a), _normalize_weight(b)
    step = 1 if b >= a else -1
    return list(range(a, b + step, step))


def gather_weights(args, floor: int) -> list:
    """Weights from --w/--w-range, keeping only those below the floor."""
    if (args.w is None) == (args.w_range is None):
        raise ValueError("give exactly one of --w or --w-range")
    if args.w is not None:
        ws = [_normalize_weight(args.w)]
    else:
        ws = parse_w_range(args.w_range)
    return [w for w in ws if w < floor]


def resolve_cap(args):
    """--cap, else FORMCHAINS_CAP, else no cap; a cap is an integer >= 0."""
    if args.cap is not None:
        source, text = "--cap", str(args.cap)
    else:
        source, text = "FORMCHAINS_CAP", os.environ.get("FORMCHAINS_CAP")
        if not text:
            return None
    if not text.strip().isdecimal():
        raise ValueError(f"{source} must be an integer >= 0, got {text!r}")
    return int(text)


# --- per-weight tasks (partials of module functions, so --jobs can pickle them)

def _call(task):
    return task()


def run_reports(tasks, jobs):
    if jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {jobs}")
    # the pool starts every worker up front: never more than there are tasks
    workers = min(jobs, len(tasks))
    if workers > 1:
        # imported here: the pool machinery costs every other run ~1.3 MB
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_call, tasks))
    return list(map(_call, tasks))


def emit(args, reports, euler_column=False):
    if args.format == "csv":
        text = homology_csv(reports, euler_column=euler_column)
    elif args.format == "json":
        text = homology_json(reports)
    else:
        text = homology_text(reports)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# --- subcommands ----------------------------------------------------------------

def cmd_validate(args) -> int:
    spec = resolve_algebra(args.algebra, args.kappa)
    lie = validate(spec)
    print(f"{spec.name or args.algebra}: {lie.summary()}")
    forms = check_system_jacobi(forms_complex(spec))
    print(f"{spec.name or args.algebra} forms: {forms.summary()}")
    return EXIT_OK if lie.ok and forms.ok else EXIT_MATH


def cmd_betti(args) -> int:
    spec = resolve_lie_algebra(args)
    cap = resolve_cap(args)
    ws = gather_weights(args, floor=0)
    tasks = [partial(betti_row, spec, w, cap=cap) for w in ws]
    return emit(args, run_reports(tasks, args.jobs))


def cmd_extended(args) -> int:
    spec = resolve_lie_algebra(args)
    cap = resolve_cap(args)
    ws = gather_weights(args, floor=0)
    tasks = [partial(extended_betti, spec, w, cap=cap) for w in ws]
    return emit(args, run_reports(tasks, args.jobs), euler_column=True)


def cmd_polyweight(args) -> int:
    cap = resolve_cap(args)
    # with vector fields w = 0 is a live (pure vector) sector
    ws = gather_weights(args, floor=1 if args.vectors else 0)
    tasks = [partial(double_weight_betti, w, args.h, args.n,
                     include_vectors=args.vectors, cap=cap) for w in ws]
    return emit(args, run_reports(tasks, args.jobs), euler_column=True)


# --- golden tables ----------------------------------------------------------------

def golden_payloads(cap=None) -> dict:
    """Recompute every shipped reference table, filename -> CSV text."""
    out = {}
    out["dim2_betti.csv"] = homology_csv(
        betti_table(catalog("dim2"), range(-1, -13, -1), cap=cap)
    )
    lines = ["n,weight,m,dim"]
    n3 = WeightedComplex(form_levels(3), None)
    for w in range(-1, -7, -1):
        for m in range(1, -w + 1):
            lines.append(f"3,{w},{m},{n3.dim(m, w)}")
    out["n3_dims.csv"] = "\n".join(lines) + "\n"
    # the five 3-dimensional families differ only in their bracket: one
    # complex counts and walks their bases once, given each bracket in turn
    cx = WeightedComplex(form_levels(3), None, cap)
    reports = []
    for label in ("d3", "d2y", "d2n", "d1y", "d1n"):
        cx.bracket = forms_bracket(catalog(label))
        reports += [complex_homology(cx, w, -w, label) for w in (-3, -5, -10)]
    out["weighted_tables.csv"] = homology_csv(reports)
    out["extended_so3.csv"] = homology_csv(
        [extended_betti(catalog("so3"), -3, cap=cap)], euler_column=True
    )
    out["poly_n1_h0.csv"] = homology_csv(
        [double_weight_betti(w, 0, 1, cap=cap) for w in range(-1, -5, -1)],
        euler_column=True,
    )
    return out


def _diff_csv(name, expected, got):
    """Field-level differences between two CSV payloads."""
    msgs = []
    exp_lines = expected.splitlines()
    got_lines = got.splitlines()
    if not exp_lines:
        return [f"{name}: empty"]
    if exp_lines[0] != got_lines[0]:
        return [f"{name}: header {exp_lines[0]!r} != {got_lines[0]!r}"]
    cols = exp_lines[0].split(",")
    keys = [c for c in cols if c in ("algebra", "n", "weight", "h", "m")]
    # the shipped file is outside input: a row of the wrong width is a mismatch
    for num, line in enumerate(exp_lines[1:], start=2):
        width = len(line.split(","))
        if width != len(cols):
            msgs.append(f"{name}: line {num}: expected {len(cols)} fields, "
                        f"got {width}")
    if msgs:
        return msgs

    def table(lines):
        rows = {}
        for line in lines[1:]:
            vals = dict(zip(cols, line.split(","), strict=True))
            rows[tuple(vals[k] for k in keys)] = vals
        return rows

    exp_rows, got_rows = table(exp_lines), table(got_lines)
    for key in exp_rows.keys() | got_rows.keys():
        loc = ", ".join(f"{k}={v}" for k, v in zip(keys, key))
        if key not in got_rows:
            msgs.append(f"{name}: row missing ({loc})")
            continue
        if key not in exp_rows:
            msgs.append(f"{name}: unexpected row ({loc})")
            continue
        for field in cols:
            e, g = exp_rows[key][field], got_rows[key][field]
            if e != g:
                msgs.append(f"{name}: {loc}: {field} expected {e}, got {g}")
    return sorted(msgs)


def cmd_goldens(args) -> int:
    cap = resolve_cap(args)
    problems = []
    for fname, recomputed in sorted(golden_payloads(cap=cap).items()):
        path = os.path.join(GOLDEN_DIR, fname)
        if not os.path.exists(path):
            raise ValueError(f"golden file missing: {path}")
        with open(path) as fh:
            shipped = fh.read()
        if recomputed == shipped:
            print(f"{fname}: ok")
        else:
            diffs = _diff_csv(fname, shipped, recomputed)
            problems.extend(diffs)
            print(f"{fname}: MISMATCH ({len(diffs)} differences)")
    for line in problems:
        print(line)
    return EXIT_MATH if problems else EXIT_OK


# --- argument parsing ----------------------------------------------------------------

@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="formchains",
        description="Weighted homology of invariant-form Lie superalgebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def algebra(p):
        p.add_argument("--algebra", required=True,
                       help="catalog name or structure-constants file")
        p.add_argument("--kappa", default=None,
                       help="parameter for the d2 family")

    def cap(p):
        # validate enumerates nothing, so it takes no cap
        p.add_argument("--cap", type=int, default=None,
                       help="basis enumeration cap (env FORMCHAINS_CAP)")

    def tabular(p):
        p.add_argument("--w", type=int, default=None,
                       help="single weight (magnitude accepted)")
        p.add_argument("--w-range", default=None,
                       help="inclusive weight range a:b")
        p.add_argument("--format", choices=("text", "csv", "json"),
                       default="text")
        p.add_argument("--out", default=None, help="write here, not stdout")
        p.add_argument("--jobs", type=int, default=1,
                       help="parallel workers over weights")

    p = sub.add_parser("validate", help="Jacobi checks for one algebra")
    algebra(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("betti", help="weighted form-complex homology")
    algebra(p)
    cap(p)
    tabular(p)
    p.set_defaults(func=cmd_betti)

    p = sub.add_parser("extended",
                       help="forms extended by invariant vector fields")
    algebra(p)
    cap(p)
    tabular(p)
    p.set_defaults(func=cmd_extended)

    p = sub.add_parser("polyweight",
                       help="doubly weighted polynomial complexes on R^n")
    cap(p)
    tabular(p)
    p.add_argument("--n", type=int, required=True, help="ambient dimension")
    p.add_argument("--h", type=int, required=True, help="secondary weight")
    p.add_argument("--vectors", action="store_true",
                   help="admit polynomial vector fields")
    p.set_defaults(func=cmd_polyweight)

    p = sub.add_parser("goldens", help="recompute and diff shipped tables")
    cap(p)
    p.set_defaults(func=cmd_goldens)

    return parser


# argparse reads a value that starts with "-" and is no plain number, such
# as -1:-3 or -3/2, as an option; these flags take such values
_SIGNED_VALUE_FLAGS = ("--w-range", "--kappa")


def _join_signed_values(argv):
    """argv with each "-<digit>..." value after a _SIGNED_VALUE_FLAGS flag
    joined onto it, as in --w-range=-1:-3.  The flag may be a unique prefix
    of it among the command's options, as argparse allows (--w-ran)."""
    commands = next(a.choices for a in build_parser()._actions if a.dest == "command")
    options = commands[argv[0]]._option_string_actions if argv[:1] and argv[0] in commands else {}

    def flag(arg):
        hits = [o for o in options if o.startswith(arg)]
        return hits[0] if arg not in options and len(hits) == 1 else arg

    out = []
    for arg in argv:
        if out and flag(out[-1]) in _SIGNED_VALUE_FLAGS and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_join_signed_values(argv))
    try:
        return args.func(args)
    except EnumerationCapExceeded as exc:
        print(f"enumeration cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
