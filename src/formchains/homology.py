"""Kernels, ranks and Betti numbers of the weighted form complexes.

For a weight w < 0 the complex lives in degrees m = 1 .. -w and the m-th
Betti number is

    Bet_m = dim C_m - rank bd_m - rank bd_{m+1}

with bd_m : C_m -> C_{m-1}.  Everything is computed over Q, so the numbers
here are exact.  The ranks go from the top degree down with clearing (Chen
and Kerber, "Persistent homology computation with a twist", 2011): a column
of bd_m at a pivot row of bd_{m+1} adds nothing to rank bd_m, so it is never
assembled.  bd o bd = 0 is checked exactly on three pivots per degree, and no
Betti number may be negative; both checks survive python -O.  For the five
isomorphism classes of 3-dimensional Lie algebras there are closed-form rank
predictions (binomial expressions); they are kept alongside the computed
ranks for comparison, but the computed values are the authoritative ones.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import exactla
from .superchain import WeightedComplex, _ind, _nb, form_levels, forms_bracket


@dataclass(frozen=True)
class HomologyReport:
    """All homological data of one weighted complex, degrees m = 1 .. m_top."""

    algebra: str
    weight: object      # int, or a (primary, secondary) pair
    dims: tuple
    ranks: tuple        # rank of bd_m, same indexing as dims
    kernels: tuple
    betti: tuple

    @property
    def euler(self):
        return sum((-1) ** m * d for m, d in enumerate(self.dims, start=1))

    def row(self, m):
        i = m - 1
        return (self.dims[i], self.ranks[i], self.kernels[i], self.betti[i])


def complex_homology(cx, w, m_top, name):
    """Homology report of any WeightedComplex at weight w, m = 1 .. m_top.

    m_top must be chosen so the complex vanishes above it (checked before
    any rank is computed).  The ranks go from m_top down, with clearing:
    each pivot z that the echelon of bd_{m+1} keeps is a boundary, nonzero
    at its lowest row i, so bd_m z = 0, and z may stand in for e_i in a
    basis of C_m (the pivots' lowest rows differ, so the swap is
    triangular).  So rank bd_m is the rank of its columns that are no pivot
    row of bd_{m+1}, and only those are assembled and eliminated; the top
    degree is assembled in full.

    bd_m z = 0 is checked exactly, also under python -O, for the three
    sparsest pivots z of bd_{m+1} (ties in pivot order): a sample, as a
    cleared column is never assembled.  A failure raises ArithmeticError,
    as does a negative Betti number.
    """
    if cx.dim(m_top + 1, w):
        raise ValueError(f"complex does not vanish above m = {m_top}")
    dims = [cx.dim(m, w) for m in range(1, m_top + 1)]
    ranks, cleared, checks = [], set(), []
    for m in range(m_top, 0, -1):
        if checks:
            support = sorted(set().union(*checks))
            at = {r: i for i, r in enumerate(support)}
            z = exactla.SparseRationalMatrix.from_columns(
                len(support), [{at[r]: v for r, v in col.items()} for col in checks])
            if not (cx.boundary_matrix(m, w, support) @ z).is_zero():
                raise ArithmeticError(
                    f"{name} at weight {w}: bd o bd != 0 at m = {m + 1}")
        live = [c for c in range(dims[m - 1]) if c not in cleared]
        pivots = exactla.echelon(cx.boundary_matrix(m, w, live))
        ranks.append(len(pivots))
        # keep only what the next degree reads, before it is assembled
        cleared, checks = set(pivots), sorted(pivots.values(), key=len)[:3]
        del pivots
    return _report(name, w, dims, ranks[::-1])


def _report(name, w, dims, ranks):
    """The HomologyReport of dims and ranks of bd_m, m = 1 .. len(dims).

    The complex must vanish above len(dims).  A negative Betti number means
    the boundary does not square to zero; it raises ArithmeticError.
    """
    kernels = [d - r for d, r in zip(dims, ranks)]
    # the boundary out of the degree above the top has rank 0: that space is empty
    betti = [k - r for k, r in zip(kernels, [*ranks[1:], 0])]
    if any(b < 0 for b in betti):
        raise ArithmeticError(
            f"{name} at weight {w}: negative Betti numbers {tuple(betti)}"
        )
    return HomologyReport(
        algebra=name,
        weight=w,
        dims=tuple(dims),
        ranks=tuple(ranks),
        kernels=tuple(kernels),
        betti=tuple(betti),
    )


def betti_row(spec, w, cap=None, name=None):
    """Full dim/rank/kernel/Betti report of C_*^w for one algebra."""
    return betti_table(spec, [w], cap=cap, name=name)[0]


def betti_table(spec, weights, cap=None, name=None):
    """betti_row over several weights, in the order given."""
    weights = list(weights)
    # the complex holds only the form levels that the lowest weight reaches
    cx = WeightedComplex(form_levels(spec.n, min(weights, default=0)), forms_bracket(spec), cap)
    label = name or spec.name or "?"
    out = []
    for w in weights:
        if w >= 0:
            raise ValueError("weight must be negative")
        out.append(complex_homology(cx, w, -w, label))
    return out


# --- classification of 3-dimensional algebras ----------------------------------

def _derived_span(spec):
    # one row per bracket pair, columns = coefficients in the xi basis
    pairs = [(i, j) for i in range(1, spec.n + 1)
             for j in range(i + 1, spec.n + 1)]
    mat = exactla.SparseRationalMatrix(len(pairs), spec.n)
    for r, (i, j) in enumerate(pairs):
        for k, v in spec.bracket(i, j).items():
            mat.add(r, k - 1, v)
    return pairs, mat


def _is_central(spec, vec):
    # vec: dict k -> coeff, a candidate element sum_k vec[k] xi_k
    for m in range(1, spec.n + 1):
        for l in range(1, spec.n + 1):
            if sum(v * spec.structure_constant(k, m, l)
                   for k, v in vec.items()):
                return False
    return True


def _is_unimodular(spec):
    # trace of ad(xi_j) is sum_i c^i_{ji}
    for j in range(1, spec.n + 1):
        if sum(spec.structure_constant(j, i, i)
               for i in range(1, spec.n + 1)):
            return False
    return True


def classify_3d(spec):
    """Isomorphism class of a 3-dimensional Lie algebra.

    Returns one of "abelian", "d1y", "d1n", "d2y", "d2n", "d3" where the
    digit is dim [g, g], y/n answers "is [g, g] central?" for dimension 1
    and "is g unimodular?" for dimension 2.
    """
    if spec.n != 3:
        raise ValueError("classification implemented for n = 3 only")
    pairs, mat = _derived_span(spec)
    dd = exactla.rank(mat)
    if dd == 3:
        return "d3"
    if dd == 2:
        return "d2y" if _is_unimodular(spec) else "d2n"
    if dd == 1:
        central = all(_is_central(spec, spec.bracket(i, j)) for i, j in pairs)
        return "d1y" if central else "d1n"
    return "abelian"


# --- closed-form rank predictions ----------------------------------------------

def predicted_rank(family, m, w):
    """Binomial closed form for rank bd_m on C_m^w, n = 3.

    family is one of the classify_3d labels except "abelian" (whose ranks
    are all zero anyway).  Two families overcount: the d3 expressions once
    several monomial families overlap, first at w = -6, m = 3 (9 against a
    computed 6), and the d2n ones from w = -11 on, first at m = 5 (23
    against 22).  Over w = -1 .. -14 the d2y, d1y and d1n expressions match
    the computed ranks.  See rank_formula_check for a side-by-side.
    """
    s = -w - m
    if s < 0:
        return 0
    if s % 2 == 0:
        k = s // 2
        u = -w - 3 * k
        if family == "d3":
            return (3 * _ind(u - 2) * _nb(k + 1, k - 1)
                    + 3 * _ind(u - 1) * _nb(k, k - 2)
                    + _ind(u - 2) * _nb(k - 1, k - 3))
        if family == "d2y":
            if u - 1 < 0:
                return 0
            if u - 1 == 0:
                return 2 * _nb(k, k - 2) - _nb(k - 1, k - 3)
            return 3 * _nb(k + 1, k - 1) + _nb(k, k - 2)
        if family == "d2n":
            if u - 1 < 0:
                return 0
            if u - 1 == 0:
                return _nb(k + 1, k - 1)
            return (4 * _nb(k + 1, k - 1) - _nb(k - 1, k - 2)
                    + _nb(k - 1, k - 3))
        if family == "d1n":
            if u - 1 > 0:
                return 3 * _nb(k + 1, k - 1) + _nb(k, k - 2)
            if u - 1 == 0:
                return _nb(k + 1, k - 1)
            return 0
        if family == "d1y":
            return (2 * _ind(u - 2) * _nb(k + 1, k - 1)
                    + _ind(u - 1) * _nb(k, k - 2)
                    + _ind(u - 2) * _nb(k - 1, k - 3))
    else:
        l = (s - 1) // 2
        u = -w - 3 * l
        if family == "d3":
            return (3 * _ind(u - 3) * _nb(l + 2, l)
                    + _ind(u - 4) * _nb(l + 1, l - 1)
                    + 3 * _ind(u - 3) * _nb(l, l - 2))
        if family == "d2y":
            if u - 3 < 0:
                return 0
            if u - 3 == 0:
                return (2 * _nb(l + 2, l) - _nb(l + 1, l - 1)
                        + 3 * _nb(l, l - 2) - _nb(l - 1, l - 3))
            return 2 * _nb(l + 2, l) + 3 * _nb(l, l - 2) - _nb(l - 1, l - 3)
        if family == "d2n":
            if u - 3 < 0:
                return 0
            if u - 3 == 0:
                return 2 * _nb(l + 2, l) + _nb(l, l - 2)
            return 2 * _nb(l + 2, l) + _nb(l + 1, l - 1) + _nb(l, l - 2)
        if family == "d1n":
            if u - 2 > 1:
                return 3 * _nb(l + 1, l - 1) + _nb(l + 2, l)
            if u - 2 == 1:
                return 2 * _nb(l + 1, l - 1) + _nb(l + 2, l)
            return 0
        if family == "d1y":
            return (_ind(u - 3) * _nb(l + 2, l)
                    + _ind(u - 4) * _nb(l + 1, l - 1)
                    + 2 * _ind(u - 3) * _nb(l, l - 2))
    raise ValueError(f"unknown family {family!r}")


@dataclass(frozen=True)
class RankFormulaReport:
    algebra: str
    family: str
    weight: int
    rows: tuple          # (m, computed, predicted) per degree

    @property
    def mismatches(self):
        return tuple(r for r in self.rows if r[1] != r[2])

    @property
    def ok(self):
        return not self.mismatches

    def summary(self):
        head = (f"{self.algebra} (class {self.family}), w = {self.weight}: "
                f"{len(self.rows)} degrees")
        if self.ok:
            return head + ", closed-form ranks all match"
        rows = ", ".join(f"m={m}: computed {c} vs formula {p}"
                         for m, c, p in self.mismatches)
        return head + f", MISMATCH at {rows}"


def rank_formula_check(spec, w, cap=None, name=None):
    """Compare computed boundary ranks against the closed-form predictions.

    Purely diagnostic: the computed ranks are authoritative, and the d3 and
    d2n closed forms overcount, from w = -6 and w = -11 on (see
    predicted_rank).
    """
    family = classify_3d(spec)
    ranks = betti_row(spec, w, cap=cap).ranks
    return RankFormulaReport(
        algebra=name or spec.name or "?",
        family=family,
        weight=w,
        rows=tuple((m, r, 0 if family == "abelian"
                    else predicted_rank(family, m, w))
                   for m, r in enumerate(ranks, start=1)),
    )


# --- the n = 2 Betti pattern ----------------------------------------------------

def betti_pattern_dim2(w):
    """Betti row (m = 1 .. -w) of the 2-dimensional non-abelian algebra.

    The row is 1 at the last two degrees, plus, when 3 does not divide w,
    a 1 at ceil(-w/3); all other entries vanish.
    """
    top = -w
    if top < 1:
        raise ValueError("weight must be negative")
    if top == 1:
        return (1,)
    if top == 2:
        return (2, 1)
    row = [0] * top
    row[top - 1] = 1
    row[top - 2] = 1
    if top % 3:
        row[-(-top // 3) - 1] = 1
    return tuple(row)


# --- serialization ---------------------------------------------------------------

def _weight_cols(w):
    # doubly weighted reports carry a (primary, secondary) pair
    return (w[0], w[1]) if isinstance(w, tuple) else (w, "")


def homology_csv(reports, euler_column=False):
    doubly = any(isinstance(rep.weight, tuple) for rep in reports)
    header = "algebra,weight,h,m,dim,rank,kernel,betti" if doubly \
        else "algebra,weight,m,dim,rank,kernel,betti"
    if euler_column:
        header += ",euler"
    lines = [header]
    for rep in reports:
        w, h = _weight_cols(rep.weight)
        mid = f"{w},{h}" if doubly else f"{w}"
        tail = f",{rep.euler}" if euler_column else ""
        for m in range(1, len(rep.dims) + 1):
            d, r, k, b = rep.row(m)
            lines.append(f"{rep.algebra},{mid},{m},{d},{r},{k},{b}{tail}")
    return "\n".join(lines) + "\n"


def homology_json(reports):
    payload = []
    for rep in reports:
        entry = {"algebra": rep.algebra, "weight": rep.weight}
        if isinstance(rep.weight, tuple):
            entry["weight"], entry["h"] = rep.weight
        entry.update(
            dims=list(rep.dims),
            ranks=list(rep.ranks),
            kernels=list(rep.kernels),
            betti=list(rep.betti),
            euler=rep.euler,
        )
        payload.append(entry)
    return json.dumps(payload, indent=2) + "\n"


def homology_text(reports):
    blocks = []
    for rep in reports:
        top = len(rep.dims)
        if isinstance(rep.weight, tuple):
            head = f"{rep.algebra}, w = {rep.weight[0]}, h = {rep.weight[1]}"
        else:
            head = f"{rep.algebra}, w = {rep.weight}"
        rows = [
            ("m", [str(m) for m in range(1, top + 1)]),
            ("dim", [str(v) for v in rep.dims]),
            ("rank", [str(v) for v in rep.ranks]),
            ("ker", [str(v) for v in rep.kernels]),
            ("Betti", [str(v) for v in rep.betti]),
        ]
        width = max([5] + [len(v) for _, vals in rows for v in vals])
        lines = [head]
        for label, vals in rows:
            lines.append(f"{label:>5} " + " ".join(v.rjust(width) for v in vals))
        lines.append(f"Euler {rep.euler}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"
