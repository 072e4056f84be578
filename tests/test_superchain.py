import random
from collections import Counter
from fractions import Fraction

import pytest

from formchains import forms
from formchains.liealg import catalog
from formchains.superchain import (
    EnumerationCapExceeded,
    Level,
    WeightedComplex,
    boundary_of_monomial,
    boundary_via_left_action,
    chain_dim,
    chain_dim_formula_n3,
    enumerate_monomials,
    feasibility_poly,
    form_levels,
    format_monomial,
    forms_complex,
    monomial_weight,
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


def test_basis_monomials_are_canonical_and_weighted():
    cx = forms_complex(catalog("so3"))
    for m in range(1, 7):
        for w in range(-7, 0):
            for mono in cx.basis(m, w):
                assert len(mono) == m
                assert monomial_weight(mono, gr) == w
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


def test_enumeration_cap():
    with pytest.raises(EnumerationCapExceeded):
        enumerate_monomials(form_levels(3), 4, -10, cap=10)


def test_feasibility_poly_matches_enumeration_n2():
    for w in range(-12, 0):
        for m in range(1, -w + 3):
            nonzero = chain_dim(2, m, w) > 0
            assert nonzero == (feasibility_poly(m, w) <= 0), (m, w)


def test_dim_formula_n3_matches_enumeration():
    for w in range(-15, 0):
        for m in range(0, -w + 2):
            assert chain_dim_formula_n3(m, w) == chain_dim(3, m, w), (m, w)


def test_custom_level_enumeration_double_weight():
    # two-coordinate weights: a toy doubly-graded basis
    levels = [
        Level(0, (0, 1), (("v", 1), ("v", 2))),
        Level(-1, (-1, 0), (("f", 1),)),
    ]
    monos = enumerate_monomials(levels, 2, (-1, 1))
    assert monos == [(("v", 1), ("f", 1)), (("v", 2), ("f", 1))]


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
        br = forms_complex(g).bracket
        toks = list(forms.all_subsets(g.n))
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
    # bd of a permuted factor sequence equals the permutation sign times bd
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
    # sequences with a repeated even factor are zero in the algebra and their
    # double-sum boundary cancels to zero on its own
    for name in ("so3", "dim2", "d1y"):
        g = catalog(name)
        br = forms_complex(g).bracket
        z = (1,)
        assert boundary_of_monomial((z, z), gr, br) == {}
        assert boundary_of_monomial((z, (), z), gr, br) == {}


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
            assert cx.boundary_matrix(m, w) == cx.boundary_matrix_left_action(m, w), (
                name, m, w,
            )


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


def test_format_monomial():
    assert format_monomial((E, E, Z2, V3)) == "1^2.s2.s123"
    assert format_monomial(()) == "<empty>"
