import random
from fractions import Fraction
from math import gcd

import pytest

from formchains.exactla import (
    SparseRationalMatrix,
    echelon,
    kernel_dim,
    rank,
)
from formchains.extend import extended_complex
from formchains.liealg import catalog
from formchains.polyforms import double_weight_complex, support_top
from formchains.superchain import forms_complex

import oracle_rank

CATALOG_FORMS = ["abelian(2)", "abelian(3)", "dim2", "so3", "sl2r", "d2(1)", "d2(-1)",
                 "d1n", "d1y", "d2(-3/2)"]


def from_rows(rows):
    m = SparseRationalMatrix(len(rows), len(rows[0]) if rows else 0)
    for r, row in enumerate(rows):
        for c, v in enumerate(row):
            if v:
                m.add(r, c, v)
    return m


def test_zero_matrix_rank():
    assert rank(SparseRationalMatrix(5, 7)) == 0
    assert kernel_dim(SparseRationalMatrix(5, 7)) == 7
    assert rank(SparseRationalMatrix(0, 0)) == 0


def test_identity_rank():
    m = from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert rank(m) == 3
    assert kernel_dim(m) == 0


def test_dependent_rows():
    m = from_rows([[1, 2, 3], [2, 4, 6]])
    assert rank(m) == 1
    assert kernel_dim(m) == 2


def test_rational_entries():
    m = from_rows([
        [Fraction(1, 2), Fraction(1, 3)],
        [Fraction(1, 4), Fraction(1, 6)],
    ])
    assert rank(m) == 1


def test_staircase_with_fill_in():
    m = from_rows([
        [0, 2, 1, 0],
        [1, 0, 0, 1],
        [1, 2, 1, 1],
        [0, 0, 0, 5],
    ])
    # row3 = row1 + row2, so rank 3
    assert rank(m) == 3
    assert kernel_dim(m) == 1


def random_matrix(rng, nrows, ncols, target_rank):
    # product of nrows x k and k x ncols has rank <= k (usually == k)
    a = [[rng.randint(-4, 4) for _ in range(target_rank)] for _ in range(nrows)]
    b = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(target_rank)]
    rows = [
        [
            Fraction(sum(a[r][k] * b[k][c] for k in range(target_rank)),
                     rng.choice([1, 1, 2, 3]))
            for c in range(ncols)
        ]
        for r in range(nrows)
    ]
    return from_rows(rows)


def test_rank_equals_transpose_rank():
    rng = random.Random(20260814)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 9), rng.randint(1, 9), rng.randint(0, 4))
        mt = SparseRationalMatrix(m.ncols, m.nrows,
                                  {(c, r): v for (r, c), v in m.entries.items()})
        assert rank(m) == rank(mt)


def known_rank_matrix(rng, nrows, ncols, k):
    """[I_k; X] @ [I_k | Y] with rows and columns shuffled: rank exactly k."""
    def entry():
        if rng.random() < 0.3:
            return Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3, 5]))
        return 0
    eye = [[int(i == j) for j in range(k)] for i in range(k)]
    left = eye + [[entry() for _ in range(k)] for _ in range(nrows - k)]
    right = [eye[i] + [entry() for _ in range(ncols - k)] for i in range(k)]
    prod = from_rows(left) @ from_rows(right)
    perm_r = rng.sample(range(nrows), nrows)
    perm_c = rng.sample(range(ncols), ncols)
    return SparseRationalMatrix(nrows, ncols, {
        (perm_r[r], perm_c[c]): v for (r, c), v in prod.entries.items()
    })


def test_rank_of_known_rank_products():
    # the answer k comes from the construction, not from the eliminator;
    # shapes cover both sides of 64 in each dimension
    rng = random.Random(3)
    shapes = [(1, 1, 1), (2, 5, 2), (7, 3, 3), (12, 12, 12), (63, 63, 30),
              (64, 64, 64), (70, 20, 15), (20, 70, 19), (70, 70, 45)]
    shapes += [(nr, nc, rng.randint(1, min(nr, nc)))
               for nr, nc in ((rng.randint(1, 70), rng.randint(1, 70)) for _ in range(10))]
    for nrows, ncols, k in shapes:
        m = known_rank_matrix(rng, nrows, ncols, k)
        assert rank(m) == oracle_rank.rank(m) == k, (nrows, ncols, k)


def test_permutation_and_scaling_invariance():
    rng = random.Random(99)
    for _ in range(25):
        nr, nc = rng.randint(2, 8), rng.randint(2, 8)
        m = random_matrix(rng, nr, nc, rng.randint(1, 4))
        base = rank(m)
        perm_r = list(range(nr))
        perm_c = list(range(nc))
        rng.shuffle(perm_r)
        rng.shuffle(perm_c)
        shuffled = SparseRationalMatrix(nr, nc)
        for (r, c), v in m.entries.items():
            shuffled.add(perm_r[r], perm_c[c], v)
        assert rank(shuffled) == base
        scaled = SparseRationalMatrix(
            nr, nc, {rc: v * Fraction(-7, 3) for rc, v in m.entries.items()})
        assert rank(scaled) == base


# exactness pins: each answer is known in closed form, and the oracle agrees

def test_hilbert_matrices_have_full_rank():
    # H_n[i][j] = 1/(i + j + 1): nonsingular, with a determinant near 4^(-n^2)
    for n in range(1, 15):
        m = from_rows([[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)])
        assert rank(m) == oracle_rank.rank(m) == n, n


def test_determinant_divisible_by_a_large_prime_is_still_nonzero():
    # det = 2^61 - 1, a Mersenne prime: zero modulo that prime, not over Q
    m = from_rows([[1, 1], [1, 1 + (2**61 - 1)]])
    assert rank(m) == oracle_rank.rank(m) == 2


def test_rank_survives_column_scaling_by_huge_rationals():
    rng = random.Random(40)
    for nrows, ncols, k in [(6, 5, 3), (9, 12, 7), (15, 15, 15), (20, 8, 5)]:
        m = known_rank_matrix(rng, nrows, ncols, k)
        scale = [Fraction(rng.choice([-1, 1]) * rng.randrange(10**39, 10**40),
                          rng.randrange(10**39, 10**40)) for _ in range(ncols)]
        scaled = SparseRationalMatrix(nrows, ncols, {
            (r, c): v * scale[c] for (r, c), v in m.entries.items()})
        assert rank(scaled) == oracle_rank.rank(scaled) == k, (nrows, ncols, k)


def test_column_one_third_of_another():
    col = [Fraction(1, 2), Fraction(3), Fraction(-5, 7), Fraction(0), Fraction(11, 9)]
    m = from_rows([[v, v / 3] for v in col])
    assert rank(m) == oracle_rank.rank(m) == 1


def test_bidiagonal_chain_rank():
    # 80x80 bidiagonal: rank 79, a long chain of one-entry eliminations
    m = SparseRationalMatrix(80, 80)
    for i in range(79):
        m.add(i, i, 1)
        m.add(i, i + 1, -1)
    assert rank(m) == 79
    assert kernel_dim(m) == 1


def assert_ranks_match_oracle(cx, w, degrees):
    for m in degrees:
        mat = cx.boundary_matrix(m, w)
        assert rank(mat) == oracle_rank.rank(mat), (w, m)


@pytest.mark.parametrize("name", CATALOG_FORMS)
def test_forms_ranks_match_oracle(name):
    cx = forms_complex(catalog(name))
    for w in range(-1, -13, -1):
        assert_ranks_match_oracle(cx, w, range(1, -w + 1))


@pytest.mark.parametrize("name", ["so3", "d1n"])
def test_extended_ranks_match_oracle(name):
    g = catalog(name)
    cx = extended_complex(g)
    for w in range(-1, -7, -1):
        assert_ranks_match_oracle(cx, w, range(1, -w + g.n + 1))


def _poly(n, w, h, vectors):
    # the complex, its weight and its degrees
    m_top = support_top(w, h, n, vectors)
    return double_weight_complex(n, h, m_top + 1, vectors), (w, h), range(1, m_top + 1)


@pytest.mark.parametrize("n, w, h, vectors", [
    *[(1, w, 0, False) for w in range(-1, -5, -1)],   # the poly goldens
    (2, -1, -1, True), (2, 0, 0, True), (2, -2, -1, True),
])
def test_poly_ranks_match_oracle(n, w, h, vectors):
    assert_ranks_match_oracle(*_poly(n, w, h, vectors))


# complexes whose brackets are integral, with the degrees to assemble
INTEGRAL_COMPLEXES = {
    **{name: lambda name=name: (forms_complex(catalog(name)), -6, range(1, 7))
       for name in ("so3", "sl2r", "d1n", "dim2")},
    "so3+T": lambda: (extended_complex(catalog("so3")), -3, range(1, 7)),
    "poly2": lambda: _poly(2, -3, 0, False),
    "poly1+T": lambda: _poly(1, -2, 1, True),
}


@pytest.mark.parametrize("name", INTEGRAL_COMPLEXES)
def test_integral_brackets_assemble_int_entries(name):
    # integral structure constants stay int from the bracket to the matrix
    cx, w, degrees = INTEGRAL_COMPLEXES[name]()
    values = [v for m in degrees for v in cx.boundary_matrix(m, w).entries.values()]
    assert values and all(type(v) is int for v in values)


def test_rational_brackets_assemble_fraction_entries():
    # every bracket is one d, so scaling the constants by 1/5 scales each
    # boundary by 1/5: Fraction entries, and the ranks of so3
    so3 = forms_complex(catalog("so3"))
    fifth = forms_complex(catalog("so3").rescale(Fraction(1, 5)))
    values = []
    for m in range(1, 7):
        mat = fifth.boundary_matrix(m, -6)
        values += mat.entries.values()
        assert rank(mat) == oracle_rank.rank(mat) == rank(so3.boundary_matrix(m, -6)), m
    assert values and all(type(v) is Fraction for v in values)
    assert any(v.denominator == 5 for v in values)


def test_matmul():
    a = from_rows([[1, 2, 0], [0, 1, -1]])
    b = from_rows([[1, 0], [0, 1], [1, 1]])
    prod = a @ b
    assert prod == from_rows([[1, 2], [-1, 0]])
    with pytest.raises(ValueError):
        b @ from_rows([[1, 2, 3]])


def test_echelon_pivots_are_primitive_column_space_vectors_at_their_lowest_rows():
    m = from_rows([
        [0, 2, 0, 1],
        [Fraction(1, 2), 4, 1, 0],
        [1, 0, 2, 3],
        [0, 6, 0, 3],
    ])
    pivots = echelon(m)
    assert len(pivots) == rank(m) == 3
    for low, col in pivots.items():
        assert min(col) == low and col[low] > 0
        assert all(type(v) is int for v in col.values()) and gcd(*col.values()) == 1
        # adding the pivot as a column leaves the rank unchanged
        extended = from_rows([[*row, col.get(r, 0)] for r, row in enumerate(
            [[m[r, c] for c in range(m.ncols)] for r in range(m.nrows)])])
        assert rank(extended) == 3


def test_add_accumulates_and_cancels():
    m = SparseRationalMatrix(2, 2)
    m.add(0, 0, Fraction(1, 3))
    m.add(0, 0, Fraction(2, 3))
    m.add(1, 1, 5)
    m.add(1, 1, -5)
    assert m[(0, 0)] == 1
    assert (1, 1) not in m.entries
    with pytest.raises(IndexError):
        m.add(2, 0, 1)
    # int and Fraction values are kept as they are, others read as Fraction
    m = SparseRationalMatrix(1, 4)
    for c, v in enumerate([3, Fraction(6, 2), 0.5, "1/3"]):
        m.add(0, c, v)
    assert [(type(v), v) for v in m.entries.values()] == [
        (int, 3), (Fraction, 3), (Fraction, Fraction(1, 2)), (Fraction, Fraction(1, 3))]


def test_getitem_checks_the_index_like_add():
    m = SparseRationalMatrix(2, 2)
    assert type(m[(1, 1)]) is int and m[(1, 1)] == 0
    for r, c in [(5, 5), (2, 0), (0, 2), (-1, 0)]:
        with pytest.raises(IndexError, match=rf"entry \({r}, {c}\) outside 2x2"):
            m[(r, c)]
        with pytest.raises(IndexError, match=rf"entry \({r}, {c}\) outside 2x2"):
            m.add(r, c, 1)


def test_rank_leaves_its_argument_unchanged():
    # columns out of length order, int and Fraction, each reduced against an
    # earlier pivot: rank must neither reorder mat.cols nor write into a column
    m = from_rows([
        [1, 2, 0, Fraction(1, 2), 3],
        [1, 0, 1, Fraction(1, 3), 0],
        [1, 1, 1, 0, 0],
        [0, 0, 2, Fraction(5, 7), 0],
    ])
    cols = m.cols
    ids = [id(col) for col in cols]
    before = [dict(col) for col in cols]
    assert [len(col) for col in cols] != sorted(len(col) for col in cols)
    assert rank(m) == oracle_rank.rank(m) == 4
    assert m.cols is cols
    assert [id(col) for col in m.cols] == ids
    assert m.cols == before


def test_integral_fractions_next_to_int_columns():
    # add keeps Fraction(6, 2) a Fraction: a column of such entries has an
    # lcm of 1 but is not int, so a copy keyed on that lcm would hand
    # Fractions to gcd
    rng = random.Random(18)
    kinds = [lambda: rng.randint(-3, 3),
             lambda: Fraction(2 * rng.randint(-3, 3), 2),
             lambda: Fraction(rng.randint(-3, 3), rng.choice([2, 3, 5]))]
    for _ in range(30):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        m = SparseRationalMatrix(nrows, ncols)
        for c in range(ncols):
            kind = rng.choice(kinds)
            for r in rng.sample(range(nrows), rng.randint(0, nrows)):
                m.add(r, c, kind())
        assert rank(m) == oracle_rank.rank(m)
    m = from_rows([[Fraction(6, 2), 1, Fraction(1, 2)],
                   [Fraction(4, 2), 2, Fraction(1, 3)]])
    assert type(m[(0, 0)]) is Fraction
    assert rank(m) == oracle_rank.rank(m) == 2
