"""Counted dimensions and count-guided bases against independent oracles.

Bases must equal, list for list and in order, those of the walker that
formchains used before it counted (tests/oracle_enumeration.py).  Dims
must equal the coefficients of the super-Hilbert series

    prod_even (1 + y t^g)^{n_g} / prod_odd (1 - y t^g)^{n_g},

expanded here token by token, with no binomials and no recursion over
levels.  A basis listed after its dims were counted, in any order, must not
change: the walk reads the counts that dim memoized.
"""

from itertools import product
from random import Random

import pytest

from formchains.extend import extended_complex
from formchains.liealg import catalog
from formchains.polyforms import _blocks, double_weight_complex, poly_levels, support_top
from formchains.superchain import Level, WeightedComplex, _as_tuple, form_levels

import oracle_enumeration


def zero_bracket(a, b):
    return {}


def assert_bases_match_oracle(levels, cases):
    cx = WeightedComplex(levels, zero_bracket)
    for m, w in cases:
        assert cx.basis(m, w) == oracle_enumeration.enumerate_monomials(levels, m, w), (m, w)


def hilbert_series(levels, m_max):
    """{(m, weight): coefficient of y^m t^weight} for m <= m_max."""
    arity = len(_as_tuple(levels[0].weight))
    series = {(0, (0,) * arity): 1}
    for lv in levels:
        g = _as_tuple(lv.weight)
        # an even token contributes 1 + y t^g, an odd one 1 + y t^g + y^2 t^2g + ...
        jmax = 1 if lv.grade % 2 == 0 else m_max
        for _ in lv.tokens:
            out = dict(series)
            for (m, w), c in series.items():
                for j in range(1, min(jmax, m_max - m) + 1):
                    key = (m + j, tuple(x + j * y for x, y in zip(w, g)))
                    out[key] = out.get(key, 0) + c
            series = out
    return series


def assert_dims_match_series(levels, m_max):
    """Every coefficient up to y^m_max, and every zero in their bounding box."""
    series = hilbert_series(levels, m_max)
    cx = WeightedComplex(levels, zero_bracket)
    weights = [w for _, w in series]
    box = [range(min(c) - 1, max(c) + 2) for c in zip(*weights)]
    for m in range(m_max + 1):
        for w in product(*box):
            assert cx.dim(m, w) == series.get((m, w), 0), (m, w)


# --- bases against the old walker ---------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_form_bases_match_oracle(n):
    assert_bases_match_oracle(
        form_levels(n), [(m, w) for w in range(-10, 2) for m in range(-w + 3)])


@pytest.mark.parametrize("name", ["so3", "d1n"])
def test_extended_bases_match_oracle(name):
    levels = extended_complex(catalog(name)).levels
    assert_bases_match_oracle(
        levels, [(m, w) for w in range(-8, 1) for m in range(-w + 5)])


@pytest.mark.parametrize("n, vectors, grid", [
    (1, False, [(w, h) for w in (-3, -2, -1) for h in (-1, 0, 1)]),
    (1, True, [(w, h) for w in (-3, -2, -1, 0) for h in (-1, 0, 1)]),
    (2, False, [(w, h) for w in (-3, -2, -1) for h in (-1, 0, 1)]),
    # the old walker takes seconds here, so the grid stays at the cheap end
    (2, True, [(-1, -1), (-1, -2), (0, -1), (0, -2)]),
])
def test_poly_bases_match_oracle(n, vectors, grid):
    for w, h in grid:
        top = support_top(w, h, n, vectors)
        levels = poly_levels(n, top + 1, h, vectors)
        assert_bases_match_oracle(levels, [(m, (w, h)) for m in range(top + 2)])


def test_poly_levels_are_not_in_token_order():
    # so the poly grids above check that the walk sorts each pick by token id
    top = support_top(-1, -1, 2, True)
    levels = poly_levels(2, top + 1, -1, True)
    listed = [t for lv in levels for t in lv.tokens]
    assert listed != list(WeightedComplex(levels, None).tokens)


def test_custom_levels_match_oracle():
    double = [Level(0, (0, 1), (("v", 1), ("v", 2))), Level(-1, (-1, 0), (("f", 1),))]
    assert_bases_match_oracle(
        double, [(m, (w, h)) for m in range(4) for w in range(-3, 1) for h in range(4)])
    positive = [Level(2, 2, ("q",)), Level(1, 1, ("p",)), Level(-1, -1, ("e",))]
    assert_bases_match_oracle(
        positive, [(m, w) for m in range(5) for w in range(-5, 9)])


# --- bases from a warm memo, in any order -------------------------------------

def assert_warm_bases_match_oracle(levels, cases, seed):
    """Count every case first, then list the bases in a seeded shuffled order
    and from the top degree down, each order in a fresh complex."""
    expected = {case: oracle_enumeration.enumerate_monomials(levels, *case)
                for case in cases}
    shuffled = list(cases)
    Random(seed).shuffle(shuffled)
    for order in (shuffled, sorted(cases, key=lambda case: -case[0])):
        cx = WeightedComplex(levels, zero_bracket)
        for m, w in cases:
            cx.dim(m, w)
        for m, w in order:
            assert cx.basis(m, w) == expected[(m, w)], (m, w)


def test_warm_form_bases_match_oracle():
    assert_warm_bases_match_oracle(
        form_levels(3), [(m, w) for w in range(-10, 2) for m in range(-w + 3)], 3)


def test_warm_extended_bases_match_oracle():
    levels = extended_complex(catalog("so3")).levels
    assert_warm_bases_match_oracle(
        levels, [(m, w) for w in range(-8, 1) for m in range(-w + 5)], 5)


@pytest.mark.parametrize("vectors, grid", [
    (False, [(w, h) for w in (-3, -2, -1) for h in (-1, 0, 1)]),
    (True, [(-1, -1), (-1, -2), (0, -1), (0, -2)]),
])
def test_warm_poly_bases_match_oracle(vectors, grid):
    for seed, (w, h) in enumerate(grid):
        top = support_top(w, h, 2, vectors)
        levels = poly_levels(2, top + 1, h, vectors)
        assert_warm_bases_match_oracle(levels, [(m, (w, h)) for m in range(top + 2)], seed)


# --- bases over weights of four coordinates -----------------------------------

def multidegree(token):
    """alpha + 1_A for a form x^alpha dx^A, alpha - e_i for a vector field
    x^alpha d/dx_i (a tail that is an int i)."""
    alpha, tail = token
    if isinstance(tail, int):
        return tuple(a - (i == tail) for i, a in enumerate(alpha, start=1))
    return tuple(a + (i in tail) for i, a in enumerate(alpha, start=1))


def multidegree_levels(levels):
    """Each level split by the multidegree of its tokens, weight (grade, s, d1, d2)."""
    out = []
    for lv in levels:
        split = {}
        for t in lv.tokens:
            split.setdefault(multidegree(t), []).append(t)
        out += [Level(lv.grade, (*lv.weight, *d), tuple(ts)) for d, ts in split.items()]
    return out


def multidegree_cases(w, h, vectors, m_max):
    """The split levels of C^{w,h} on R^2, and every (m, (w, h, d1, d2)) with
    m <= m_max whose block is nonzero, and block 0, (w, h, 0, 0), at each m."""
    top = support_top(w, h, 2, vectors)
    levels = poly_levels(2, top + 1, h, vectors)
    whole = WeightedComplex(levels, zero_bracket)
    split = WeightedComplex(multidegree_levels(levels), zero_bracket)
    cases = set()
    for m in range(min(top + 1, m_max) + 1):
        blocks = {(0, 0): 0}
        for mono in whole.basis(m, (w, h)):
            d = tuple(map(sum, zip(*map(multidegree, mono)))) if mono else (0, 0)
            blocks[d] = blocks.get(d, 0) + 1
        # the blocks partition the space
        assert {d: split.dim(m, (w, h, *d)) for d in blocks} == blocks, m
        cases |= {(m, (w, h, *d)) for d in blocks}
    return split.levels, sorted(cases)


# the old walker is slow on the many split vector-field levels: the cheap degrees only
MULTIDEGREE_GRID = [(w, h, False, 10) for w in (-3, -2, -1) for h in (w, -1, 0, 1)] + [
    (w, h, True, 5) for w, h in [(-1, -1), (-2, -2), (0, -1), (0, -2)]]


@pytest.mark.parametrize("w, h, vectors, m_max", MULTIDEGREE_GRID)
def test_multidegree_bases_match_oracle(w, h, vectors, m_max):
    levels, cases = multidegree_cases(w, h, vectors, m_max)
    assert {len(lv.weight) for lv in levels} == {4}
    assert_bases_match_oracle(levels, cases)


@pytest.mark.parametrize("w, h, vectors, m_max", MULTIDEGREE_GRID)
def test_warm_multidegree_bases_match_oracle(w, h, vectors, m_max):
    levels, cases = multidegree_cases(w, h, vectors, m_max)
    assert_warm_bases_match_oracle(levels, cases, w - h)


@pytest.mark.parametrize("w, h", [(w, h) for w, h, vectors, _ in MULTIDEGREE_GRID if vectors])
def test_library_block_sizes_match_split_levels(w, h):
    # the keys double_weight_betti groups by multidegree, counted per block
    # at every degree of the support, against the split levels' counts
    top = support_top(w, h, 2, True)
    levels, cases = multidegree_cases(w, h, True, top + 1)
    split = WeightedComplex(levels, zero_bracket)
    cx = double_weight_complex(2, h, top + 1, include_vectors=True)
    sizes, _ = _blocks(cx, (w, h), top, 2, lambda d: False)
    got = {(m, (w, h, *d)): size for d, row in sizes.items()
           for m, size in enumerate(row, start=1) if size}
    assert got == {case: split.dim(*case) for case in cases
                   if 1 <= case[0] <= top and split.dim(*case)}


# --- dims against the super-Hilbert series -------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_form_dims_match_hilbert_series(n):
    assert_dims_match_series(form_levels(n), 10)


@pytest.mark.parametrize("n, vectors", [(1, False), (1, True), (2, False), (2, True)])
def test_poly_dims_match_hilbert_series(n, vectors):
    assert_dims_match_series(poly_levels(n, 6, 1, vectors), 6)
