import inspect
import os
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from textwrap import indent

import pytest

import formchains
from formchains import exactla
from formchains.exactla import SparseRationalMatrix, rank
from formchains.extend import extended_complex
from formchains.homology import (
    HomologyReport,
    betti_pattern_dim2,
    betti_row,
    betti_table,
    classify_3d,
    complex_homology,
    homology_csv,
    homology_json,
    homology_text,
    predicted_rank,
    rank_formula_check,
)
from formchains.liealg import LieAlgebraSpec, catalog
from formchains.polyforms import double_weight_complex, support_top
from formchains.superchain import WeightedComplex, form_levels, forms_bracket, forms_complex

# kernel and Betti rows of the five 3-dimensional classes, m = 1 .. -w,
# frozen for w = -3, -5, -10
KER3 = {
    "d3": (3, 0, 1),
    "d2y": (3, 1, 1),
    "d2n": (3, 1, 1),
    "d1y": (3, 2, 1),
    "d1n": (3, 2, 1),
}
BET3 = {
    "d3": (0, 0, 1),
    "d2y": (1, 1, 1),
    "d2n": (1, 1, 1),
    "d1y": (2, 2, 1),
    "d1n": (2, 2, 1),
}
KER5 = {
    "d3": (0, 10, 3, 0, 1),
    "d2y": (0, 10, 3, 1, 1),
    "d2n": (0, 10, 2, 1, 1),
    "d1y": (0, 10, 4, 2, 1),
    "d1n": (0, 10, 3, 2, 1),
}
BET5 = {
    "d3": (0, 7, 0, 0, 1),
    "d2y": (0, 7, 1, 1, 1),
    "d2n": (0, 6, 0, 1, 1),
    "d1y": (0, 8, 3, 2, 1),
    "d1n": (0, 7, 2, 2, 1),
}
KER10 = {
    "d3": (0, 0, 6, 32, 11, 7, 4, 3, 0, 1),
    "d2y": (0, 0, 6, 33, 12, 8, 5, 3, 1, 1),
    "d2n": (0, 0, 6, 32, 11, 7, 4, 2, 1, 1),
    "d1y": (0, 0, 6, 35, 16, 11, 7, 4, 2, 1),
    "d1n": (0, 0, 6, 32, 12, 8, 5, 3, 2, 1),
}
BET10 = {
    "d3": (0, 0, 0, 16, 0, 0, 1, 0, 0, 1),
    "d2y": (0, 0, 1, 18, 2, 2, 2, 1, 1, 1),
    "d2n": (0, 0, 0, 16, 0, 0, 0, 0, 1, 1),
    "d1y": (0, 0, 3, 24, 9, 7, 5, 3, 2, 1),
    "d1n": (0, 0, 0, 17, 2, 2, 2, 2, 2, 1),
}

REP = {"d3": "so3", "d2y": "d2(-1)", "d2n": "d2(1)", "d1y": "d1y", "d1n": "d1n"}


@pytest.mark.parametrize("family", sorted(REP))
@pytest.mark.parametrize("w,ker_tab,bet_tab", [
    (-3, KER3, BET3), (-5, KER5, BET5), (-10, KER10, BET10),
])
def test_three_dim_kernel_and_betti_tables(family, w, ker_tab, bet_tab):
    rep = betti_row(catalog(REP[family]), w)
    assert rep.kernels == ker_tab[family], (family, w)
    assert rep.betti == bet_tab[family], (family, w)


def test_space_dims_rows():
    rep = betti_row(catalog("so3"), -10)
    assert rep.dims == (0, 0, 6, 38, 27, 18, 11, 6, 3, 1)
    assert betti_row(catalog("d1y"), -5).dims == (0, 10, 6, 3, 1)


def test_euler_from_dims_equals_euler_from_betti():
    rep = betti_row(catalog("so3"), -5)
    assert rep.euler == -0 + 10 - 6 + 3 - 1 - 0 - 0  # = sum (-1)^m dims
    assert rep.euler == sum((-1) ** m * b
                            for m, b in enumerate(rep.betti, start=1))


def test_dim2_betti_rows_match_pattern():
    g = catalog("dim2")
    for w in range(-12, 0):
        assert betti_row(g, w).betti == betti_pattern_dim2(w), w


def test_dim2_pattern_values():
    assert betti_pattern_dim2(-1) == (1,)
    assert betti_pattern_dim2(-2) == (2, 1)
    assert betti_pattern_dim2(-3) == (0, 1, 1)
    assert betti_pattern_dim2(-4) == (0, 1, 1, 1)
    assert betti_pattern_dim2(-5) == (0, 1, 0, 1, 1)
    assert betti_pattern_dim2(-6) == (0, 0, 0, 0, 1, 1)
    assert betti_pattern_dim2(-7) == (0, 0, 1, 0, 0, 1, 1)
    assert betti_pattern_dim2(-10) == (0, 0, 0, 1, 0, 0, 0, 0, 1, 1)
    assert betti_pattern_dim2(-12) == (0,) * 10 + (1, 1)
    with pytest.raises(ValueError, match="^weight must be negative$"):
        betti_pattern_dim2(0)


def test_sl2r_betti_equals_so3():
    a, b = catalog("sl2r"), catalog("so3")
    for w in range(-10, 0):
        assert betti_row(a, w).betti == betti_row(b, w).betti, w


@pytest.mark.parametrize("lam", [2, -3, Fraction(1, 5)])
def test_rescaling_leaves_betti_unchanged(lam):
    for name in ("so3", "d2(1)", "d1n", "dim2"):
        g = catalog(name)
        h = g.rescale(lam)
        for w in range(-6, 0):
            assert betti_row(g, w).betti == betti_row(h, w).betti, (name, w)


def test_d2_kappa_betti_constant_in_kappa():
    base = betti_row(catalog("d2(1)"), -5).betti
    for kappa in (2, 3, Fraction(1, 2)):
        assert betti_row(catalog(f"d2({kappa})"), -5).betti == base


def test_abelian_homology_is_whole_space():
    rep = betti_row(catalog("abelian(3)"), -4)
    assert rep.ranks == (0, 0, 0, 0)
    assert rep.betti == rep.dims == (1, 6, 3, 1)


def test_euler_characteristic_convenience():
    assert betti_row(catalog("dim2"), -3).euler == 0 - 1 + 2 - 1
    assert betti_row(catalog("so3"), -3).kernels == (3, 0, 1)


def test_weight_must_be_negative():
    with pytest.raises(ValueError):
        betti_row(catalog("so3"), 0)


class DdNonzero:
    """dims 1, 1 with both boundaries of rank 1, so bd o bd != 0."""

    def __init__(self):
        self.matrices = 0

    def dim(self, m, w):
        return 1 if m in (1, 2) else 0

    def boundary_matrix(self, m, w, columns=None):
        self.matrices += 1
        ncols = 1 if columns is None else len(columns)
        return SparseRationalMatrix(1, ncols, {(0, c): 1 for c in range(ncols)})


def test_negative_betti_raises():
    with pytest.raises(ArithmeticError, match="stub at weight -2"):
        complex_homology(DdNonzero(), -2, 2, "stub")


def test_negative_betti_raises_under_python_O():
    script = "\n".join([
        "from formchains.exactla import SparseRationalMatrix",
        "from formchains.homology import complex_homology",
        inspect.getsource(DdNonzero),
        "print(__debug__)",
        "try:",
        "    complex_homology(DdNonzero(), -2, 2, 'stub')",
        "except ArithmeticError as exc:",
        "    print(exc)",
        "else:",
        "    raise SystemExit('no ArithmeticError')",
    ])
    src = os.path.dirname(os.path.dirname(formchains.__file__))
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("False\nstub at weight -2"), proc.stdout


# always-on checks: a snippet that trips each one, and the message it raises
ALWAYS_ON = {
    "negative-betti": (
        "from formchains.homology import _report\n"
        "_report('x', -2, [1, 1], [1, 1])",
        "x at weight -2: negative Betti numbers (-1, 0)"),
    "walk-count": (
        "from formchains.superchain import WeightedComplex, form_levels\n"
        "cx = WeightedComplex(form_levels(3), None)\n"
        "cx.dim = lambda m, w: WeightedComplex.dim(cx, m, w) + 1  # over-counts by one\n"
        "cx.basis(3, -5)",
        "enumerated 6 monomials at degree 3, weight -5, but counted 7"),
}


@pytest.mark.parametrize("optimize", [False, True], ids=["in-process", "python-O"])
@pytest.mark.parametrize("case", ALWAYS_ON)
def test_always_on_checks_raise(case, optimize):
    snippet, message = ALWAYS_ON[case]
    if not optimize:
        with pytest.raises(ArithmeticError, match=f"^{re.escape(message)}$"):
            exec(snippet, {})
        return
    script = f"try:\n{indent(snippet, '    ')}\nexcept ArithmeticError as exc:\n    print(__debug__, exc)"
    src = os.path.dirname(os.path.dirname(formchains.__file__))
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"False {message}\n", "")


def test_nonvanishing_top_fails_before_any_rank():
    cx = DdNonzero()
    with pytest.raises(ValueError, match="does not vanish above m = 1"):
        complex_homology(cx, -2, 1, "stub")
    assert cx.matrices == 0


# [e1,e2]=e1, [e2,e3]=e2, [e1,e3]=e1 fails Jacobi, so bd o bd != 0 from w = -4 on;
# in the second, the two sparsest of bd_4's three pivots at w = -5 pass the check
NON_JACOBI_CONSTANTS = [{(1, 2, 1): 1, (2, 3, 2): 1, (1, 3, 1): 1},
                        {(1, 2, 2): 1, (1, 3, 3): -1, (2, 3, 1): -1, (2, 3, 3): 2}]
NON_JACOBI = [LieAlgebraSpec(3, constants) for constants in NON_JACOBI_CONSTANTS]


@pytest.mark.parametrize("w", range(-4, -10, -1))
def test_dd_check_catches_a_non_jacobi_algebra(w):
    for spec in NON_JACOBI:
        with pytest.raises(ArithmeticError, match=f"at weight {w}: "):
            betti_row(spec, w)


def test_dd_check_catches_a_non_jacobi_algebra_under_python_O():
    script = "\n".join([
        "from formchains.homology import betti_row",
        "from formchains.liealg import LieAlgebraSpec",
        "print(__debug__)",
        f"for constants in {NON_JACOBI_CONSTANTS!r}:",
        "    spec = LieAlgebraSpec(3, constants)",
        "    for w in range(-4, -10, -1):",
        "        try:",
        "            betti_row(spec, w)",
        "        except ArithmeticError as exc:",
        "            print(exc)",
        "        else:",
        "            raise SystemExit(f'no ArithmeticError at w = {w}')",
    ])
    src = os.path.dirname(os.path.dirname(formchains.__file__))
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "False"
    assert [line.split(":")[0] for line in lines[1:]] == [
        f"? at weight {w}" for w in range(-4, -10, -1)] * len(NON_JACOBI_CONSTANTS)


FAMILIES = ("d3", "d2y", "d2n", "d1y", "d1n")


@pytest.mark.parametrize("order", [FAMILIES, FAMILIES[::-1]], ids=["catalog", "reversed"])
def test_one_complex_serves_every_family_by_its_bracket(order):
    # counts, bases and picks survive cx.bracket = ...; the bracket memo does not
    cx = WeightedComplex(form_levels(3), None)
    for label in order:
        cx.bracket = forms_bracket(catalog(label))
        shared = [complex_homology(cx, w, -w, label) for w in (-3, -5, -10)]
        assert shared == betti_table(catalog(label), (-3, -5, -10), name=label), label


def test_a_new_bracket_reaches_the_dd_check():
    # after d3's terms fill the memo, the non-Jacobi bracket must be read anew
    spec = NON_JACOBI[0]
    cx = WeightedComplex(form_levels(3), forms_bracket(catalog("d3")))
    for w in range(-4, -10, -1):
        complex_homology(cx, w, -w, "?")
    cx.bracket = forms_bracket(spec)
    for w in range(-4, -10, -1):
        with pytest.raises(ArithmeticError) as fresh:
            betti_row(spec, w)
        with pytest.raises(ArithmeticError, match=f"at weight {w}: ") as shared:
            complex_homology(cx, w, -w, "?")
        assert str(shared.value) == str(fresh.value)


def _poly_case(w, h, n, vectors=False):
    top = support_top(w, h, n, vectors)
    return double_weight_complex(n, h, top + 1, vectors), [((w, h), top)]


# [e1,e2]=e2, [e1,e3]=e3, [e1,e4]=2e4, [e2,e3]=e4: a 4-dimensional solvable algebra
SOLV4 = LieAlgebraSpec(4, {(1, 2, 2): 1, (1, 3, 3): 1, (1, 4, 4): 2, (2, 3, 4): 1})
CLEARING_CASES = {
    **{name: lambda name=name: (forms_complex(catalog(name)),
                                [(w, -w) for w in range(-1, -21, -1)])
       for name in ("so3", "sl2r", "d1n")},
    "solv4": lambda: (forms_complex(SOLV4), [(w, -w) for w in range(-1, -12, -1)]),
    **{name + "+T": lambda name=name: (extended_complex(catalog(name)),
                                       [(w, 3 - w) for w in range(-1, -9, -1)])
       for name in ("so3", "d1n")},
    "poly2(-6,2)": lambda: _poly_case(-6, 2, 2),
    "poly2+T(-1,-1)": lambda: _poly_case(-1, -1, 2, True),
}


@pytest.mark.parametrize("case", CLEARING_CASES)
def test_cleared_ranks_equal_the_full_ranks(case):
    cx, weights = CLEARING_CASES[case]()
    for w, m_top in weights:
        full = [rank(cx.boundary_matrix(m, w)) for m in range(1, m_top + 1)]
        assert list(complex_homology(cx, w, m_top, case).ranks) == full, (case, w)


def test_cleared_columns_are_never_assembled(monkeypatch):
    # per degree m < m_top: the live columns, dim C_m - rank bd_{m+1}, and the
    # support of the three sparsest pivots of bd_{m+1}, which the dd check reads
    cx, w = forms_complex(catalog("so3")), -14
    assembled, kept = Counter(), []
    matrix, echelon = cx.boundary_matrix, exactla.echelon

    def counting_matrix(m, w, columns=None):
        assembled[m] += cx.dim(m, w) if columns is None else len(columns)
        return matrix(m, w, columns)

    def keeping_echelon(mat):
        kept.append(echelon(mat))
        return kept[-1]

    cx.boundary_matrix = counting_matrix
    monkeypatch.setattr(exactla, "echelon", keeping_echelon)
    rep = complex_homology(cx, w, -w, "so3")
    pivots = dict(zip(range(-w, 0, -1), kept))  # the degrees, top down
    assert assembled[-w] == rep.dims[-1]
    for m in range(1, -w):
        above = pivots[m + 1]
        support = set().union(*sorted(above.values(), key=len)[:3])
        assert assembled[m] <= rep.dims[m - 1] - len(above) + len(support), m
    # the checked columns are far fewer than the cleared ones
    cleared = sum(rep.ranks[1:])
    assert sum(assembled.values()) < sum(rep.dims) - cleared // 2


def test_betti_row_alias_and_table():
    g = catalog("so3")
    rows = betti_table(g, [-1, -2, -3])
    assert [r.weight for r in rows] == [-1, -2, -3]
    assert rows[2].betti == betti_row(g, -3).betti == (0, 0, 1)
    assert isinstance(rows[0], HomologyReport)
    with pytest.raises(ValueError):
        betti_table(g, [-1, 0])


# --- classification -------------------------------------------------------------

def test_classify_catalog():
    assert classify_3d(catalog("so3")) == "d3"
    assert classify_3d(catalog("sl2r")) == "d3"
    assert classify_3d(catalog("d2(-1)")) == "d2y"
    assert classify_3d(catalog("d2(1)")) == "d2n"
    assert classify_3d(catalog("d2(7)")) == "d2n"
    assert classify_3d(catalog("d1y")) == "d1y"
    assert classify_3d(catalog("d1n")) == "d1n"
    assert classify_3d(catalog("abelian(3)")) == "abelian"
    with pytest.raises(ValueError):
        classify_3d(catalog("dim2"))


def test_classify_is_basis_independent():
    # a heisenberg-like algebra with the central element hidden in xi_1
    g = LieAlgebraSpec(3, {(2, 3, 1): Fraction(5)})
    assert classify_3d(g) == "d1y"
    h = LieAlgebraSpec(3, {(1, 2, 2): Fraction(1, 3)})
    assert classify_3d(h) == "d1n"


# --- closed-form ranks ----------------------------------------------------------

def test_predicted_ranks_match_computed_away_from_d3_overlap():
    # the four non-d3 families: closed forms agree with computed ranks
    for family in ("d2y", "d2n", "d1y", "d1n"):
        for w in (-3, -5, -10):
            for m, got, want in rank_formula_check(catalog(REP[family]), w).rows:
                assert got == want, (family, w, m)


def test_predicted_rank_d3_overcounts_on_overlap():
    # the d3 binomial expressions ignore overlaps between monomial families;
    # at w = -10 the first failure is m = 4 (predicted 9, true rank 6)
    cmp = dict((m, (got, want))
               for m, got, want in rank_formula_check(catalog("so3"), -10).rows)
    assert cmp[4] == (6, 9)
    assert cmp[5] == (16, 24)
    assert cmp[6] == (11, 12)
    assert cmp[7] == (7, 10)
    # away from overlaps they agree
    for w in (-3, -5):
        for m, got, want in rank_formula_check(catalog("so3"), w).rows:
            assert got == want, (w, m)


def test_predicted_rank_first_mismatch_per_family():
    # scanning w = -1 .. -14, (w, m, computed, predicted) of the first
    # mismatch: d3 overcounts from (-6, 3), d2n from (-11, 5), and the other
    # three families never do
    first = {}
    for family, name in REP.items():
        for w in range(-1, -15, -1):
            bad = rank_formula_check(catalog(name), w).mismatches
            if bad:
                first[family] = (w, *bad[0])
                break
    assert first == {"d3": (-6, 3, 6, 9), "d2n": (-11, 5, 22, 23)}


def test_predicted_rank_rejects_unknown_family():
    with pytest.raises(ValueError):
        predicted_rank("d4", 1, -3)


def test_predicted_rank_vanishes_above_the_top_degree():
    assert [predicted_rank(family, 4, -3) for family in KER3] == [0] * 5


def test_rank_formula_rows_abelian():
    assert rank_formula_check(catalog("abelian(3)"), -3).rows == (
        (1, 0, 0), (2, 0, 0), (3, 0, 0))


def test_rank_formula_check_reports():
    good = rank_formula_check(catalog("d1n"), -7)
    assert good.ok and good.family == "d1n"
    # computed rank at m = 5 (even branch, K = 1) is 3
    assert good.rows[4] == (5, 3, 3)
    assert "all match" in good.summary()

    bad = rank_formula_check(catalog("so3"), -10)
    assert not bad.ok
    assert bad.mismatches == ((4, 6, 9), (5, 16, 24), (6, 11, 12), (7, 7, 10))
    assert "MISMATCH" in bad.summary()


# --- serialization ---------------------------------------------------------------

def test_csv_shape_and_determinism():
    reps = [betti_row(catalog("so3"), -3, name="so3")]
    text = homology_csv(reps)
    lines = text.strip().split("\n")
    assert lines[0] == "algebra,weight,m,dim,rank,kernel,betti"
    assert lines[1] == "so3,-3,1,3,0,3,0"
    assert lines[3] == "so3,-3,3,1,0,1,1"
    assert text == homology_csv(reps)


def test_json_round_trip():
    import json

    reps = [betti_row(catalog("d1y"), -5, name="d1y")]
    data = json.loads(homology_json(reps))
    assert data[0]["betti"] == [0, 8, 3, 2, 1]
    assert data[0]["euler"] == sum(
        (-1) ** m * d for m, d in enumerate(data[0]["dims"], start=1))


def test_text_rendering_mentions_euler():
    out = homology_text([betti_row(catalog("so3"), -3, name="so3")])
    assert "so3, w = -3" in out
    assert "Euler" in out
    assert "Betti" in out
