import os
import random
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement, product

import pytest

from formchains import forms
from formchains.exactla import SparseRationalMatrix
from formchains.extend import extended_complex
from formchains.homology import complex_homology
from formchains.liealg import catalog
from formchains.polyforms import double_weight_complex, poly_levels, support_top
from formchains.superchain import (
    EnumerationCapExceeded,
    Level,
    WeightedComplex,
    chain_dim,
    chain_dim_formula_n3,
    enumerate_monomials,
    form_levels,
    format_monomial,
    forms_complex,
)

import oracle_boundary as oracle
from oracle_boundary import (
    _insert,
    boundary_of_monomial,
    boundary_via_left_action,
    matrix_of,
    normalize,
)

E = ()            # the 0-form 1, grade -1
Z1, Z2, Z3 = (1,), (2,), (3,)
W1, W2, W3 = (2, 3), (1, 3), (1, 2)
V3 = (1, 2, 3)    # top form for n = 3, grade -4
V2 = (1, 2)       # top form for n = 2, grade -3

CATALOG_N3 = ["abelian(3)", "so3", "sl2r", "d2(1)", "d2(-1)", "d1n", "d1y"]


def gr(tok):
    return forms.grade(tok)


# --- normalize ----------------------------------------------------------------

def test_normalize_even_swap():
    # two 1-forms (grade -2, even) anticommute
    assert normalize((Z2, Z1), gr) == (-1, (Z1, Z2))
    assert normalize((Z1, Z2), gr) == (1, (Z1, Z2))


def test_normalize_odd_factors_commute_and_repeat():
    # odd-grade tokens commute and may repeat: 0-forms (grade -1) and,
    # for n = 3, the 2-forms (grade -3)
    assert normalize((E, E), gr) == (1, (E, E))
    s, mono = normalize((W1, E, W1), gr)
    assert (s, mono) == (1, (E, W1, W1))


def test_normalize_even_repeat_dies():
    # even-grade tokens anticommute with themselves: 1-forms (grade -2)
    # and the n = 3 top form (grade -4)
    assert normalize(((1, 2, 3), (1, 2, 3)), gr) == (0, None)
    assert normalize((Z1, E, Z1), gr) == (0, None)


def test_normalize_mixed_parity_swap():
    # V (grade -4) and a 1-form (grade -2) are both even: anticommute
    assert normalize((V3, Z1), gr) == (-1, (Z1, V3))
    # V (even) past the 0-form 1 (odd): product of grades is even, so
    # the transposition still anticommutes
    assert normalize((V3, E), gr) == (-1, (E, V3))


def test_normalize_longer_shuffle():
    # 1 ^ z1 ^ w1 scrambled as (w1, z1, 1): w1<->z1 flips, w1<->1 doesn't,
    # z1 <-> 1 flips: total sign +... track explicitly below
    s, mono = normalize((W1, Z1, E), gr)
    assert mono == (E, Z1, W1)
    # moving E left past W1 (odd/odd: +) and past Z1 (odd/even: -), then
    # Z1 past W1 (even/odd: -): net (+1)(-1)(-1) = +1
    assert s == 1


# --- insertion -----------------------------------------------------------------

def test_insert_matches_normalize_exhaustively():
    # every canonical sequence of up to 4 forms for n = 3: odd factors (1 and
    # the 2-forms) may repeat, even ones (1-forms and V) appear at most once;
    # then every token placed at every position
    toks = forms_complex(catalog("so3")).tokens
    dead = 0
    for k in range(5):
        for rest in combinations_with_replacement(toks, k):
            if any(a == b and gr(a) % 2 == 0 for a, b in zip(rest, rest[1:])):
                continue
            for pos in range(k + 1):
                for tok in toks:
                    got = _insert(rest, pos, tok, gr)
                    assert got == normalize(rest[:pos] + (tok,) + rest[pos:], gr), (
                        rest, pos, tok)
                    dead += got == (0, None)
    assert dead  # an even token placed next to its equal


# --- enumeration ---------------------------------------------------------------

def n3_dims(w):
    return [chain_dim(3, m, w) for m in range(1, -w + 1)]


def test_chain_dims_n3_low_weights():
    assert n3_dims(-1) == [1]
    assert n3_dims(-2) == [3, 1]
    assert n3_dims(-3) == [3, 3, 1]
    assert n3_dims(-4) == [1, 6, 3, 1]
    assert n3_dims(-5) == [0, 10, 6, 3, 1]
    assert n3_dims(-6) == [0, 9, 11, 6, 3, 1]


def test_chain_dims_n3_weight_ten():
    assert n3_dims(-10) == [0, 0, 6, 38, 27, 18, 11, 6, 3, 1]


def test_chain_dims_n2():
    assert [chain_dim(2, m, -2) for m in (1, 2)] == [2, 1]
    assert [chain_dim(2, m, -3) for m in (1, 2, 3)] == [1, 2, 1]


def test_chain_dim_builds_only_the_levels_of_its_weight():
    # n = 40 has 2^40 form tokens; weights -2 and -3 reach only 1 and the
    # 40 one-forms: C_1^{-2} is spanned by them, C_2^{-3} by 1.s_i
    for spec in (40, catalog("abelian(40)")):
        assert chain_dim(spec, 1, -2) == 40
        assert chain_dim(spec, 2, -3) == 40
    # w >= 0 reaches no level: only the empty product, at m = w = 0
    assert [chain_dim(3, m, w) for m in (0, 1) for w in (0, 1)] == [1, 0, 0, 0]


def test_basis_monomials_are_canonical_and_weighted():
    cx = forms_complex(catalog("so3"))
    for m in range(1, 7):
        for w in range(-7, 0):
            for mono in cx.basis(m, w):
                assert len(mono) == m
                assert sum(gr(t) for t in mono) == w
                s, canon = normalize(mono, gr)
                assert (s, canon) == (1, mono)


def test_basis_deterministic_and_empty_degree():
    levels = form_levels(3)
    a = enumerate_monomials(levels, 4, -10)
    b = enumerate_monomials(levels, 4, -10)
    assert a == b and len(a) == 38
    assert enumerate_monomials(levels, 0, 0) == [()]
    assert enumerate_monomials(levels, 0, -1) == []
    assert enumerate_monomials(levels, 2, 5) == []


def test_bases_are_independent_lists():
    cx, w = forms_complex(catalog("so3")), -3
    want, mat = cx.basis(2, w), cx.boundary_matrix(2, w)
    got = cx.basis(2, w)
    got.append("junk")
    got[0] = ()
    assert cx.basis(2, w) == want and len(want) == cx.dim(2, w) == 3
    assert cx.boundary_matrix(2, w) == mat


def test_enumeration_cap():
    with pytest.raises(EnumerationCapExceeded):
        enumerate_monomials(form_levels(3), 4, -10, cap=10)
    # C_4^{-10} for n = 3 has 38 monomials: a cap of 38 passes, 37 trips
    exact = "^38 monomials at degree 4, weight -10, more than the cap 37$"
    assert len(enumerate_monomials(form_levels(3), 4, -10, cap=38)) == 38
    with pytest.raises(EnumerationCapExceeded, match=exact):
        enumerate_monomials(form_levels(3), 4, -10, cap=37)
    cx = forms_complex(catalog("so3"), cap=38)
    assert cx.dim(4, -10) == 38 and len(cx.basis(4, -10)) == 38
    cx = forms_complex(catalog("so3"), cap=37)
    with pytest.raises(EnumerationCapExceeded, match=exact):
        cx.dim(4, -10)
    with pytest.raises(EnumerationCapExceeded, match=exact):
        cx.basis(4, -10)


def test_walk_must_match_count_under_python_O():
    # a count off by one must stop the walk's result, also with asserts off
    script = "\n".join([
        "from formchains import superchain",
        "real = superchain.WeightedComplex.dim",
        "superchain.WeightedComplex.dim = lambda self, m, w: real(self, m, w) + 1",
        "print(__debug__)",
        "try:",
        "    superchain.enumerate_monomials(superchain.form_levels(3), 4, -10)",
        "except ArithmeticError as exc:",
        "    print(exc)",
        "else:",
        "    raise SystemExit('no ArithmeticError')",
    ])
    src = os.path.dirname(os.path.dirname(forms.__file__))
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == ("False\nenumerated 38 monomials at degree 4, "
                           "weight -10, but counted 39\n"), proc.stdout


def test_n2_support_is_quadratic_inequality():
    # for n = 2, C_m^w is nonzero iff (-w - m)(-w - 3m) <= 0
    for w in range(-12, 0):
        for m in range(1, -w + 3):
            nonzero = chain_dim(2, m, w) > 0
            assert nonzero == ((-w - m) * (-w - 3 * m) <= 0), (m, w)


def test_dim_formula_n3_matches_enumeration():
    for w in range(-15, 0):
        for m in range(0, -w + 2):
            assert chain_dim_formula_n3(m, w) == chain_dim(3, m, w), (m, w)


@pytest.mark.parametrize("levels, weight", [
    (form_levels(3), (-4, 0)), (poly_levels(1, 2, 0), -4),
], ids=["pair-on-forms", "int-on-poly"])
def test_weight_arity_must_match_the_levels(levels, weight):
    message = "^level weight arity does not match the target$"
    with pytest.raises(ValueError, match=message):
        WeightedComplex(levels, None).dim(2, weight)
    with pytest.raises(ValueError, match=message):
        WeightedComplex(levels, None).basis(2, weight)
    with pytest.raises(ValueError, match=message):
        enumerate_monomials(levels, 2, weight)


@pytest.mark.parametrize("levels, token", [
    # once this counted ("e", "e") three times, for Betti (0, 3) at w = -2
    ([Level(-1, -1, ("e", "e"))], "'e'"),
    # once the last level silently won, giving "a" the grade -1
    ([Level(-2, -2, ("a",)), Level(-1, -1, ("a",))], "'a'"),
], ids=["one-level", "two-levels"])
def test_a_token_listed_twice_is_rejected(levels, token):
    with pytest.raises(ValueError, match=f"^token {token} is listed twice"):
        WeightedComplex(levels, None)
    with pytest.raises(ValueError, match=f"^token {token} is listed twice"):
        enumerate_monomials(levels, 2, -2)


def test_custom_level_enumeration_double_weight():
    # two-coordinate weights: a toy doubly-graded basis
    levels = [
        Level(0, (0, 1), (("v", 1), ("v", 2))),
        Level(-1, (-1, 0), (("f", 1),)),
    ]
    monos = enumerate_monomials(levels, 2, (-1, 1))
    assert monos == [(("v", 1), ("f", 1)), (("v", 2), ("f", 1))]
    # positive grades with int weights, zero bracket: odd tokens repeat,
    # even tokens cannot
    cx = WeightedComplex([Level(2, 2, ("q",)), Level(1, 1, ("p",)),
                          Level(-1, -1, ("e",))], lambda a, b: {})
    assert cx.dim(2, 0) == 1      # p.e
    assert cx.dim(2, 2) == 1      # p^2
    assert cx.dim(2, 4) == 0      # q^2 vanishes


# --- boundary ------------------------------------------------------------------

def test_boundary_of_pair_is_bracket():
    g = catalog("so3")
    br = forms_complex(g).bracket
    assert boundary_of_monomial((E, Z1), gr, br) == {(W1,): -2}
    assert boundary_of_monomial((Z1, E), gr, br) == {(W1,): 2}
    d1n = catalog("d1n")
    brn = forms_complex(d1n).bracket
    assert boundary_of_monomial((Z2, Z3), gr, brn) == {(V3,): 2}


def test_boundary_of_single_and_empty():
    br = forms_complex(catalog("so3")).bracket
    assert boundary_of_monomial((Z1,), gr, br) == {}
    assert boundary_of_monomial((), gr, br) == {}


def test_boundary_triple_identity():
    # bd(A^B^C) = -A^[[B,C]] + [[A,B]]^C + (-1)^{ab} B^[[A,C]]
    for name in ("so3", "d2(-1)", "d1n", "dim2"):
        g = catalog(name)
        cx = forms_complex(g)
        br, toks = cx.bracket, cx.tokens
        for A in toks:
            for B in toks:
                for C in toks:
                    lhs = boundary_of_monomial((A, B, C), gr, br)
                    rhs = {}
                    def put(seq_head, form_terms, cf0):
                        for t, cf in form_terms.items():
                            s, canon = normalize(seq_head + (t,), gr)
                            if s:
                                v = rhs.get(canon, Fraction(0)) + cf0 * s * cf
                                if v:
                                    rhs[canon] = v
                                else:
                                    rhs.pop(canon, None)
                    put((A,), br(B, C), -1)
                    # [[A,B]] ^ C: bracket lands first, C second
                    for t, cf in br(A, B).items():
                        s, canon = normalize((t, C), gr)
                        if s:
                            v = rhs.get(canon, Fraction(0)) + s * cf
                            if v:
                                rhs[canon] = v
                            else:
                                rhs.pop(canon, None)
                    sign = -1 if (gr(A) * gr(B)) % 2 else 1
                    put((B,), br(A, C), sign)
                    assert lhs == rhs, (name, A, B, C)


def test_boundary_well_defined_under_reordering():
    # bd of a permuted factor sequence equals the permutation sign times bd;
    # the run-pair oracle takes canonical monomials and any order of up to
    # three factors only, so this checks the sorting oracle
    boundary_of_monomial = oracle.boundary_by_sorting
    rng = random.Random(4)
    for name in ("so3", "d2(-1)", "d1n"):
        g = catalog(name)
        br = forms_complex(g).bracket
        cx = forms_complex(g)
        for w in range(-6, -2):
            for m in (2, 3, 4):
                for mono in cx.basis(m, w):
                    perm = list(mono)
                    rng.shuffle(perm)
                    s, canon = normalize(perm, gr)
                    assert canon == mono or s == 0
                    got = boundary_of_monomial(tuple(perm), gr, br)
                    expect = {
                        k: s * v
                        for k, v in boundary_of_monomial(mono, gr, br).items()
                    } if s else {}
                    assert got == expect, (name, w, mono, perm)


def test_boundary_of_dead_monomial_vanishes():
    # sequences with a repeated even factor are zero in the algebra: every
    # order of up to three factors, and four factors in canonical order
    for name in ("so3", "dim2", "d1y"):
        cx = forms_complex(catalog(name))
        toks = cx.tokens
        seqs = [seq for m in (2, 3) for seq in product(toks, repeat=m)]
        seqs += combinations_with_replacement(toks, 4)
        dead = [seq for seq in seqs
                if any(gr(t) % 2 == 0 and seq.count(t) > 1 for t in seq)]
        assert (Z1, Z1) in dead and (Z1, E, Z1) in dead
        for seq in dead:
            assert boundary_of_monomial(seq, gr, cx.bracket) == {}, (name, seq)


def test_dim2_boundary_images_closed_form():
    g = catalog("dim2")
    br = forms_complex(g).bracket
    for a in (1, 2, 3):
        for c in (0, 1, 2):
            # bd(1^a ^ z1 ^ z2 ^ V^c) = 2a(-1)^(a-1) 1^(a-1) ^ z2 ^ V^(c+1)
            mono = (E,) * a + (Z1, Z2) + (V2,) * c
            img = boundary_of_monomial(mono, gr, br)
            target = (E,) * (a - 1) + (Z2,) + (V2,) * (c + 1)
            assert img == {target: Fraction(2 * a * (-1) ** (a - 1))}
            # bd(1^a ^ z1 ^ V^c) = 2a(-1)^a 1^(a-1) ^ V^(c+1)
            mono = (E,) * a + (Z1,) + (V2,) * c
            img = boundary_of_monomial(mono, gr, br)
            target = (E,) * (a - 1) + (V2,) * (c + 1)
            assert img == {target: Fraction(2 * a * (-1) ** a)}
            # z2 alone and pure 1^a V^c monomials are cycles
            assert boundary_of_monomial((E,) * a + (Z2,) + (V2,) * c, gr, br) == {}
            assert boundary_of_monomial((E,) * a + (V2,) * c, gr, br) == {}


@pytest.mark.parametrize("name", CATALOG_N3 + ["dim2", "abelian(2)"])
def test_double_sum_equals_left_action(name):
    g = catalog(name)
    cx = forms_complex(g)
    for w in range(-8, 0):
        for m in range(1, -w + 1):
            oracle = matrix_of(cx, m, w, boundary_via_left_action)
            assert cx.boundary_matrix(m, w) == oracle, (name, m, w)


def assert_images_match_oracle(cx, w, degrees, reference=oracle.boundary_by_sorting):
    # the run-pair oracle on each flat monomial, and the matching column of
    # boundary_matrix, read back through the flat bases, equal the reference
    bracket = cache(cx.bracket)
    for m in degrees:
        cols, rows = cx.basis(m, w), cx.basis(m - 1, w)
        columns = [{} for _ in cols]
        for (r, c), v in cx.boundary_matrix(m, w).entries.items():
            columns[c][rows[r]] = v
        for mono, column in zip(cols, columns):
            want = reference(mono, cx.grade_of, bracket)
            assert boundary_of_monomial(mono, cx.grade_of, bracket) == want, (w, mono)
            assert column == want, (w, mono)


@pytest.mark.parametrize("name", CATALOG_N3 + ["dim2", "abelian(2)"])
def test_images_match_sorting_oracle_forms(name):
    cx = forms_complex(catalog(name))
    for w in range(-1, -11, -1):
        assert_images_match_oracle(cx, w, range(1, -w + 1))


@pytest.mark.parametrize("name", ["so3", "d1n"])
def test_images_match_sorting_oracle_extended(name):
    g = catalog(name)
    cx = extended_complex(g)
    for w in range(-1, -7, -1):
        assert_images_match_oracle(cx, w, range(1, -w + g.n + 1))


@pytest.mark.parametrize("n, w, h, vectors", [
    *[(1, w, 0, False) for w in range(-1, -5, -1)],   # the poly goldens
    (2, -1, -1, True), (2, 0, 0, True), (2, -2, -1, True),
])
def test_images_match_sorting_oracle_poly(n, w, h, vectors):
    m_top = support_top(w, h, n, vectors)
    cx = double_weight_complex(n, h, m_top + 1, vectors)
    assert_images_match_oracle(cx, (w, h), range(1, m_top + 1))


@pytest.mark.parametrize("name", ["so3", "d1n"])
def test_images_match_sorting_oracle_deep_forms(name):
    # the top five degrees at w = -16 .. -20 hold 1^k runs with k = 9 .. 20
    cx = forms_complex(catalog(name))
    for w in range(-16, -21, -1):
        assert_images_match_oracle(cx, w, range(-w - 4, -w + 1))


def test_images_match_sorting_oracle_deep_extended():
    cx = extended_complex(catalog("so3"))
    assert_images_match_oracle(cx, -8, range(1, 8 + 3 + 1))


def test_images_match_insertion_oracle():
    # the position-pair boundary, one bracket call per pair i < j
    insertion = oracle.boundary_by_insertion
    for name in ("so3", "d1n", "dim2", "d1y"):
        cx = forms_complex(catalog(name))
        for w in range(-1, -15, -1):
            assert_images_match_oracle(cx, w, range(1, -w + 1), insertion)
    cx = extended_complex(catalog("so3"))
    for w in range(-1, -9, -1):
        assert_images_match_oracle(cx, w, range(1, -w + 4), insertion)
    for n, w, h, vectors in [(1, -4, 0, False), (2, -2, -1, True), (2, 0, 0, True)]:
        m_top = support_top(w, h, n, vectors)
        cx = double_weight_complex(n, h, m_top + 1, vectors)
        assert_images_match_oracle(cx, (w, h), range(1, m_top + 1), insertion)


@pytest.mark.parametrize("name", CATALOG_N3 + ["dim2", "abelian(1)", "abelian(4)"])
def test_boundary_squares_to_zero(name):
    g = catalog(name)
    cx = forms_complex(g)
    for w in range(-10, 0):
        for m in range(2, -w + 1):
            second = cx.boundary_matrix(m, w)
            first = cx.boundary_matrix(m - 1, w)
            assert (first @ second).is_zero(), (name, m, w)


def test_abelian_boundaries_vanish():
    cx = forms_complex(catalog("abelian(3)"))
    for w in range(-6, 0):
        for m in range(1, -w + 1):
            assert cx.boundary_matrix(m, w).is_zero()


def test_boundary_matrix_shapes():
    cx = forms_complex(catalog("so3"))
    mat = cx.boundary_matrix(4, -10)
    assert (mat.nrows, mat.ncols) == (6, 38)
    # m = 1 boundary maps into C_0 = 0 for negative weight
    mat1 = cx.boundary_matrix(1, -4)
    assert (mat1.nrows, mat1.ncols) == (0, 1)
    assert mat1.is_zero()


def test_boundary_matrix_of_chosen_columns():
    cx, w = extended_complex(catalog("so3")), -6
    for m in range(1, -w + 4):
        full, dim = cx.boundary_matrix(m, w), cx.dim(m, w)
        # out of order, and one column twice
        columns = [c for c in range(dim) if c % 3] + [0, dim - 1] if dim else []
        pick = SparseRationalMatrix(dim, len(columns),
                                    {(c, j): 1 for j, c in enumerate(columns)})
        assert cx.boundary_matrix(m, w, columns) == full @ pick, m
    assert cx.boundary_matrix(2, w, []).ncols == 0


def test_boundary_outside_the_weight_space_is_rejected():
    # [a, a] = a is not homogeneous: bd(a^2) lands at weight -1, not -2
    levels = [Level(-1, (-1,), ("a",)), Level(-2, (-2,), ("b",))]
    cx = WeightedComplex(levels, lambda x, y: {"a": 1} if x == y == "a" else {})
    message = re.escape("boundary left the space of weight -2: ('a', 'a') -> ('a',)")
    with pytest.raises(AssertionError, match=message):
        cx.boundary_matrix(2, -2)
    # the ranks assemble the top degree in full, so the guard holds there too
    with pytest.raises(AssertionError, match=message):
        complex_homology(cx, -2, 2, "a")


def test_stray_terms_are_rejected_even_when_they_cancel():
    # [a, b] = b and [a, c] = -c break homogeneity: bd(abc) sends +bc and
    # -bc to weight -4, where C_2^{-6} has no row; the first one stops it
    table = {("a", "b"): {"b": 1}, ("a", "c"): {"c": -1}}
    cx = WeightedComplex([Level(-2, (-2,), ("a", "b", "c"))],
                         lambda x, y: table.get((x, y), {}))
    message = "boundary left the space of weight -6: ('a', 'b', 'c') -> ('b', 'c')"
    with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
        cx.boundary_matrix(3, -6)


def test_token_system_brackets_each_pair_once():
    g = catalog("so3")
    calls = Counter()

    def counting(a, b):
        calls[(a, b)] += 1
        return forms.super_bracket({a: Fraction(1)}, {b: Fraction(1)}, g)

    cx = WeightedComplex(form_levels(3), counting)
    first = cx.boundary_matrix(4, -8)
    assert cx.boundary_matrix(4, -8) == first
    assert calls and set(calls.values()) == {1}
    assert first == forms_complex(g).boundary_matrix(4, -8)


def test_a_bracket_wrapped_after_construction_sees_every_call():
    # the benchmark counts bracket calls by replacing cx.bracket on the
    # instance; boundary_matrix must read it at call time and call it once
    # per ordered token pair of the complex, however often the pair recurs,
    # on the pairs of runs the run-pair oracle brackets
    g = catalog("so3")
    cx, plain = forms_complex(g), forms_complex(g)
    inner = cx.bracket

    def counted(calls):
        def bracket(a, b):
            calls[(a, b)] += 1
            return inner(a, b)
        return bracket

    def pairs_of(weights):
        pairs = Counter()
        for w in weights:
            for m in range(1, -w + 1):
                for mono in plain.basis(m, w):
                    boundary_of_monomial(mono, gr, counted(pairs))
        return pairs

    def matrices(of, w):
        return [of.boundary_matrix(m, w) for m in range(1, -w + 1)]

    calls = Counter()
    cx.bracket = counted(calls)
    mats = matrices(cx, -8)
    assert matrices(cx, -8) == mats == matrices(plain, -8)
    oracle_calls = pairs_of([-8])
    assert set(calls.values()) == {1} and calls.keys() == oracle_calls.keys()
    # the oracle brackets a pair once per basis monomial holding it
    assert (len(calls), sum(oracle_calls.values())) == (32, 220)
    # more weights bracket only the pairs not seen before
    for w in (-6, -9):
        assert matrices(cx, w) == matrices(plain, w)
    assert set(calls.values()) == {1} and calls.keys() == pairs_of([-6, -8, -9]).keys()
    # a new bracket starts the memo over
    again = Counter()
    cx.bracket = counted(again)
    assert matrices(cx, -8) == mats and again.keys() == oracle_calls.keys()
    assert set(again.values()) == {1}
    cx.bracket = lambda a, b: {}
    assert all(mat.is_zero() for mat in matrices(cx, -8))


def test_a_non_exact_bracket_coefficient_is_rejected():
    # exactla needs int or Fraction entries, so assembly stops a float
    # before any rank, also with asserts off
    levels = [Level(-1, (-1,), ("a",)), Level(-2, (-2,), ("b",))]
    cx = WeightedComplex(levels, lambda x, y: {"b": 0.5} if x == y == "a" else {})
    message = "bracket('a', 'a') has the non-exact coefficient 0.5"
    with pytest.raises(TypeError, match=re.escape(message)):
        cx.boundary_matrix(2, -2)
    with pytest.raises(TypeError, match=re.escape(message)):
        complex_homology(cx, -2, 2, "t")
    exact = WeightedComplex(levels, lambda x, y: {"b": Fraction(1, 2)} if x == y == "a" else {})
    assert exact.boundary_matrix(2, -2).entries == {(0, 0): Fraction(1, 2)}
    script = "\n".join([
        "from formchains.homology import complex_homology",
        "from formchains.superchain import Level, WeightedComplex",
        "cx = WeightedComplex([Level(-1, (-1,), ('a',)), Level(-2, (-2,), ('b',))],",
        "                     lambda x, y: {'b': 0.5} if x == y == 'a' else {})",
        "print(__debug__)",
        "try:",
        "    complex_homology(cx, -2, 2, 't')",
        "except TypeError as exc:",
        "    print(exc)",
    ])
    src = os.path.dirname(os.path.dirname(forms.__file__))
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, f"False\n{message}\n"), proc.stderr


def test_format_monomial():
    assert format_monomial((E, E, Z2, V3)) == "1^2.s2.s123"
    assert format_monomial(()) == "<empty>"
    # a run is adjacent equal factors, rendered by token_str
    assert format_monomial((E, E, E, Z2, E), token_str=repr) == "()^3.(2,).()"
