import inspect
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import formchains
from formchains.exactla import SparseRationalMatrix
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
    rank_comparison,
    rank_formula_check,
)
from formchains.liealg import LieAlgebraSpec, catalog

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

    def boundary_matrix(self, m, w):
        self.matrices += 1
        return SparseRationalMatrix(1, 1, {(0, 0): 1})


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


def test_nonvanishing_top_fails_before_any_rank():
    cx = DdNonzero()
    with pytest.raises(ValueError, match="does not vanish above m = 1"):
        complex_homology(cx, -2, 1, "stub")
    assert cx.matrices == 0


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
            for m, got, want in rank_comparison(catalog(REP[family]), w):
                assert got == want, (family, w, m)


def test_predicted_rank_d3_overcounts_on_overlap():
    # the d3 binomial expressions ignore overlaps between monomial families:
    # first failure at w = -10, m = 4 (predicted 9, true rank 6)
    cmp = dict((m, (got, want))
               for m, got, want in rank_comparison(catalog("so3"), -10))
    assert cmp[4] == (6, 9)
    assert cmp[5] == (16, 24)
    assert cmp[6] == (11, 12)
    assert cmp[7] == (7, 10)
    # away from overlaps they agree
    for w in (-3, -5):
        for m, got, want in rank_comparison(catalog("so3"), w):
            assert got == want, (w, m)


def test_predicted_rank_rejects_unknown_family():
    with pytest.raises(ValueError):
        predicted_rank("d4", 1, -3)


def test_rank_comparison_abelian():
    assert rank_comparison(catalog("abelian(3)"), -3) == [
        (1, 0, 0), (2, 0, 0), (3, 0, 0)]


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
