"""Polynomial forms and vector fields: bracket laws and doubly weighted Betti.

The Lie derivative inside poly_bracket runs through Cartan's formula
i_X d + d i_X; oracle_calculus.lie_direct evaluates L_X directly by the
product rule, so the two sides share no code path beyond d and the wedge.
"""

import inspect
import os
import re
import subprocess
import sys
from fractions import Fraction
from functools import cache

import pytest

import formchains
import formchains.polyforms as polyforms
from formchains.forms import add_into, add_term
from formchains.homology import (
    complex_homology,
    homology_csv,
    homology_json,
    homology_text,
)
from formchains.polyforms import (
    double_weight,
    double_weight_basis,
    double_weight_betti,
    double_weight_complex,
    exponent_tuples,
    lie_derivative,
    monomial_form,
    monomial_vector,
    poly_bracket,
    poly_d,
    poly_interior,
    poly_levels,
    poly_wedge,
    support_top,
    token_grade,
    token_weights,
    vector_commutator,
)
from formchains.superchain import EnumerationCapExceeded, Level, chain_dim

from oracle_boundary import _insert, boundary_of_monomial
import oracle_calculus
import oracle_enumeration

F = Fraction


# --- builders and validation --------------------------------------------------

def test_monomial_builders():
    assert monomial_form((1, 0), (2,)) == {((1, 0), (2,)): F(1)}
    assert monomial_vector((0, 2), 1) == {((0, 2), 1): F(1)}


def test_builder_validation():
    with pytest.raises(ValueError):
        monomial_form((-1,), ())
    with pytest.raises(ValueError):
        monomial_form((0, 0), (3,))
    with pytest.raises(ValueError):
        monomial_form((0, 0), (2, 1))
    with pytest.raises(ValueError):
        monomial_vector((0,), 2)


def test_exponent_tuples():
    assert exponent_tuples(1, 3) == [(3,)]
    assert exponent_tuples(2, 2) == [(0, 2), (1, 1), (2, 0)]
    assert exponent_tuples(2, -1) == []


@pytest.mark.parametrize("n", [0, -1])
def test_exponent_tuples_need_a_variable(n):
    with pytest.raises(ValueError, match=rf"^need n >= 1 variables, got n = {n}$"):
        exponent_tuples(n, 1)


# --- exterior derivative --------------------------------------------------------

def test_d_of_coordinate():
    # d(x_1) = dx_1
    assert poly_d(monomial_form((1,), ())) == {((0,), (1,)): F(1)}


def test_d_of_x1_dx2():
    # d(x_1 dx_2) = dx_1 ^ dx_2
    assert poly_d(monomial_form((1, 0), (2,))) == {((0, 0), (1, 2)): F(1)}


def test_d_hand_expansion():
    # d(x_1 x_2 dx_1) = x_1 dx_2 ^ dx_1 = -x_1 dx_1 ^ dx_2
    assert poly_d(monomial_form((1, 1), (1,))) == {((1, 0), (1, 2)): F(-1)}


def test_d_rejects_vectors():
    with pytest.raises(ValueError):
        poly_d(monomial_vector((1,), 1))


def test_d_squared_is_zero():
    for n in (1, 2):
        for total in range(4):
            for alpha in exponent_tuples(n, total):
                for a in range(n + 1):
                    from itertools import combinations
                    for A in combinations(range(1, n + 1), a):
                        assert poly_d(poly_d(monomial_form(alpha, A))) == {}


def test_d_shifts_both_weights():
    # d = [[1, .]] with 1 at weight (-1, -1): both weights drop by one
    for alpha, A in [((2,), ()), ((1, 1), (2,)), ((0, 3), (1,))]:
        w, h = double_weight(monomial_form(alpha, A))
        image = poly_d(monomial_form(alpha, A))
        assert double_weight(image) == (w - 1, h - 1)


# --- wedge and interior ---------------------------------------------------------

def test_wedge_supercommutes():
    a = monomial_form((1, 0), (1,))
    b = monomial_form((0, 2), (2,))
    ab = poly_wedge(a, b)
    ba = poly_wedge(b, a)
    # two 1-forms anticommute
    assert ab == {k: -v for k, v in ba.items()}
    assert ab == {((1, 2), (1, 2)): F(1)}


def test_wedge_collision_dies():
    assert poly_wedge(monomial_form((0,), (1,)), monomial_form((1,), (1,))) == {}


def test_wedge_arity_mismatch():
    with pytest.raises(ValueError):
        poly_wedge(monomial_form((1,), ()), monomial_form((1, 0), ()))


def test_interior_slot_sign():
    # i_{d_2}(dx_1 ^ dx_2) = -dx_1
    vec = monomial_vector((0, 0), 2)
    assert poly_interior(vec, monomial_form((0, 0), (1, 2))) == {
        ((0, 0), (1,)): F(-1)
    }


# --- brackets -------------------------------------------------------------------

def test_zero_form_bracket_is_d_of_product():
    # [[f, g]] = d(fg) for functions
    f = monomial_form((2, 0), ())
    g = monomial_form((0, 1), ())
    fg = poly_wedge(f, g)
    assert poly_bracket(f, g) == poly_d(fg)
    assert poly_bracket(f, g) == {
        ((1, 1), (1,)): F(2),
        ((2, 0), (2,)): F(1),
    }


def test_self_commutator_vanishes():
    x = monomial_vector((1,), 1)
    assert poly_bracket(x, x) == {}


def test_commutator_hand_value():
    # [x d/dx, x^2 d/dx] = x^2 d/dx
    a = monomial_vector((1,), 1)
    b = monomial_vector((2,), 1)
    assert vector_commutator(a, b) == {((2,), 1): F(1)}


def test_lie_derivative_hand_value():
    # [[d_1, x_1 dx_2]] = L_{d_1}(x_1 dx_2) = dx_2
    vec = monomial_vector((0, 0), 1)
    form = monomial_form((1, 0), (2,))
    assert poly_bracket(vec, form) == {((0, 0), (2,)): F(1)}
    # and the form/vector order is its negative
    assert poly_bracket(form, vec) == {((0, 0), (2,)): F(-1)}


def test_mixed_element_rejected():
    bad = {((0,), ()): F(1), ((0,), 1): F(1)}
    with pytest.raises(ValueError):
        poly_bracket(bad, monomial_form((0,), ()))


# --- the Lie derivative against direct evaluation -------------------------------

def _form_tokens(n, hmax):
    from itertools import combinations

    return [
        (alpha, A)
        for total in range(hmax + 2)
        for alpha in exponent_tuples(n, total)
        for a in range(n + 1)
        for A in combinations(range(1, n + 1), a)
    ]


def _vector_tokens(n, hmax):
    return [
        (alpha, i)
        for total in range(hmax + 2)
        for alpha in exponent_tuples(n, total)
        for i in range(1, n + 1)
    ]


def test_cartan_matches_direct_evaluation():
    for n, hmax in ((1, 2), (2, 1)):
        for vk in _vector_tokens(n, hmax):
            for fk in _form_tokens(n, hmax):
                vec = {vk: F(1)}
                form = {fk: F(1)}
                assert lie_derivative(vec, form) == oracle_calculus.lie_direct(vec, form), (
                    vk,
                    fk,
                )


def test_lie_derivative_is_a_derivation_over_wedge():
    # L_X(a ^ b) = L_X a ^ b + a ^ L_X b on a mixed sample
    vec = {((1, 1), 1): F(1), ((0, 0), 2): F(-2)}
    a = {((1, 0), (1,)): F(1), ((0, 0), ()): F(3)}
    b = {((0, 1), (2,)): F(1)}
    lhs = lie_derivative(vec, poly_wedge(a, b))
    rhs = poly_wedge(lie_derivative(vec, a), b)
    add_into(rhs, poly_wedge(a, lie_derivative(vec, b)))
    assert lhs == rhs


# --- superalgebra laws over token sweeps -----------------------------------------

def _all_tokens(n, hmax):
    return _vector_tokens(n, hmax) + _form_tokens(n, hmax)


def test_double_weight_additivity():
    for n, hmax in ((1, 2), (2, 0)):
        for ta in _all_tokens(n, hmax):
            for tb in _all_tokens(n, hmax):
                br = poly_bracket({ta: F(1)}, {tb: F(1)})
                if not br:
                    continue
                wa, ha = token_weights(ta)
                wb, hb = token_weights(tb)
                assert double_weight(br) == (wa + wb, ha + hb), (ta, tb)


def test_graded_antisymmetry():
    for n, hmax in ((1, 2), (2, 0)):
        for ta in _all_tokens(n, hmax):
            for tb in _all_tokens(n, hmax):
                ab = poly_bracket({ta: F(1)}, {tb: F(1)})
                ba = poly_bracket({tb: F(1)}, {ta: F(1)})
                sign = (-1) ** (token_grade(ta) * token_grade(tb))
                merged = dict(ab)
                add_into(merged, ba, sign)
                assert merged == {}, (ta, tb)


def test_super_jacobi():
    checked = 0
    for n, hmax in ((1, 1), (2, 0)):
        tokens = _all_tokens(n, hmax)
        for ta in tokens:
            ga = token_grade(ta)
            for tb in tokens:
                gb = token_grade(tb)
                for tc in tokens:
                    gc = token_grade(tc)
                    acc = {}
                    for (x, gx), (y, _), (z, gz) in (
                        ((ta, ga), (tb, gb), (tc, gc)),
                        ((tb, gb), (tc, gc), (ta, ga)),
                        ((tc, gc), (ta, ga), (tb, gb)),
                    ):
                        inner = poly_bracket({x: F(1)}, {y: F(1)})
                        term = poly_bracket(inner, {z: F(1)})
                        add_into(acc, term, (-1) ** (gx * gz))
                    assert acc == {}, (ta, tb, tc)
                    checked += 1
    # 9 generators in the n=1 window, 18 in the n=2 window
    assert checked == 9 ** 3 + 18 ** 3


# --- doubly weighted bases -------------------------------------------------------

def test_basis_trivial_examples():
    # the constant function is the only generator at (m, w, h) = (1, -1, -1)
    assert double_weight_basis(1, -1, -1, 1) == [(((0,), ()),)]
    # x dx is the only generator at (1, -2, 0)
    assert double_weight_basis(1, -2, 0, 1) == [(((1,), (1,)),)]


def test_basis_positive_weight_empty():
    for include in (False, True):
        assert double_weight_basis(2, 1, 0, 1, include_vectors=include) == []


def test_basis_degree_two_pairs():
    # primary -2, secondary 0 at m = 2: x^2 ^ 1 and x ^ x
    basis = double_weight_basis(2, -2, 0, 1)
    assert len(basis) == 2
    assert (((1,), ()), ((1,), ())) in basis
    assert (((0,), ()), ((2,), ())) in basis


def test_basis_deterministic():
    a = double_weight_basis(3, -3, 0, 2, include_vectors=True)
    b = double_weight_basis(3, -3, 0, 2, include_vectors=True)
    assert a == b


def test_basis_cap_guard():
    with pytest.raises(EnumerationCapExceeded):
        double_weight_basis(2, -2, 0, 1, cap=1)


def test_support_top_is_sharp_enough():
    for n, w, h, include in (
        (1, -2, 0, True),
        (1, -1, -1, True),
        (1, -3, 1, False),
        (2, -1, 0, True),
    ):
        top = support_top(w, h, n, include)
        levels = poly_levels(n, top + 2, h, include)
        from formchains.superchain import enumerate_monomials

        assert enumerate_monomials(levels, top + 1, (w, h)) == []
    # the two spaces whose downward walk once hung: checked by count
    for n, w, h in ((1, -1, 40), (2, -1, 3)):
        top = support_top(w, h, n, True)
        cx = double_weight_complex(n, h, top + 2, include_vectors=True)
        assert cx.dim(top + 1, (w, h)) == 0, (n, w, h)


# the n = 1, 2, 3 grids on which support_top is checked against every count
TOP_GRIDS = {
    1: [(w, h) for w in range(-4, 1) for h in range(-5, 9)],
    2: [(w, h) for w in range(-3, 1) for h in range(-4, 4)],
    3: [(w, h) for w in range(-1, 1) for h in range(-3, 2)],
}


@pytest.mark.parametrize("vectors", [False, True], ids=["forms", "vectors"])
@pytest.mark.parametrize("n", sorted(TOP_GRIDS))
def test_support_top_is_the_last_nonzero_degree(n, vectors):
    # every degree up to the superseded bound is counted
    for w, h in TOP_GRIDS[n]:
        bound = oracle_enumeration.support_bound(w, h, n, vectors)
        cx = double_weight_complex(n, h, bound + 1, vectors)
        live = [m for m in range(1, bound + 2) if cx.dim(m, (w, h))]
        assert support_top(w, h, n, vectors) == max(live, default=0), (w, h)


def test_dims_up_to_the_exact_top():
    # the superseded bound put the top at 45, and the degrees down to 11 were
    # proved empty one count at a time
    rep = double_weight_betti(-1, 40, 1, include_vectors=True)
    assert rep.dims == (1, 43, 484, 2443, 6754, 11178, 11447, 7194, 2624, 482, 30)
    assert set(rep.betti) == {0}


def test_cap_names_the_lowest_degree_over_it():
    # 127 monomials at the top degree 4 are over the cap too
    message = "102 monomials at degree 2, weight (-4, 2), more than the cap 20"
    with pytest.raises(EnumerationCapExceeded, match=rf"^{re.escape(message)}$"):
        double_weight_betti(-4, 2, 2, cap=20)


# --- boundary and homology -------------------------------------------------------

def test_boundary_squares_to_zero_n1():
    # acceptance-scale sweep: n = 1, all |w| <= 4, |h| <= 2
    for include in (False, True):
        for w in range(-4, 0):
            for h in range(-2, 3):
                top = support_top(w, h, 1, include)
                cx = double_weight_complex(1, h, top + 1, include)
                for m in range(1, top + 1):
                    a = cx.boundary_matrix(m, (w, h))
                    b = cx.boundary_matrix(m + 1, (w, h))
                    assert (a @ b).is_zero(), (include, w, h, m)


def test_boundary_squares_to_zero_n2_forms():
    for w in range(-3, 0):
        for h in range(-1, 2):
            top = support_top(w, h, 2, False)
            cx = double_weight_complex(2, h, top + 1, False)
            for m in range(1, top + 1):
                a = cx.boundary_matrix(m, (w, h))
                b = cx.boundary_matrix(m + 1, (w, h))
                assert (a @ b).is_zero(), (w, h, m)


def test_boundary_squares_to_zero_n2_with_vectors():
    # the full support runs to degree 9 here; the low degrees already mix
    # every bracket kind, so they are checked and the tail is left to the
    # n = 1 sweep
    cx = double_weight_complex(2, -1, 6, include_vectors=True)
    for m in range(1, 5):
        a = cx.boundary_matrix(m, (-1, -1))
        b = cx.boundary_matrix(m + 1, (-1, -1))
        assert (a @ b).is_zero(), m


def test_betti_pure_forms_frozen():
    # hand-checked: C_1 = {x dx}, C_2 = {x^2^1, x^x}, bd_2 of both is 2x dx
    rep = double_weight_betti(-2, 0, 1)
    assert rep.dims == (1, 2)
    assert rep.ranks == (0, 1)
    assert rep.betti == (0, 1)
    assert rep.euler == 1


def test_betti_with_vectors_frozen():
    # binomial dims from the x_1 d_1 pairing; engine-frozen Betti row
    rep = double_weight_betti(-2, 0, 1, include_vectors=True)
    assert rep.dims == (1, 5, 10, 10, 5, 1)
    assert rep.betti == (0, 0, 0, 0, 0, 0)
    assert rep.euler == 0


def test_betti_fill_heavy_complex_frozen():
    # n = 2 at (w, h) = (-7, 2): the column order inside exactla.rank
    # decides its fill-in, and so most of its run time; engine-frozen
    rep = double_weight_betti(-7, 2, 2)
    assert rep.dims == (0, 0, 620, 3828, 6064, 4146, 1098)
    assert rep.ranks == (0, 0, 0, 620, 3016, 3048, 1098)
    assert rep.betti == (0, 0, 0, 192, 0, 0, 0)


def test_betti_blocks_of_forms2_frozen():
    # n = 2 at (w, h) = (-9, 2), one block per S_n orbit ranked; the Betti
    # numbers are those of the whole space
    rep = double_weight_betti(-9, 2, 2)
    assert rep.dims == (0, 0, 52, 3828, 18608, 33800, 33092, 17508, 3906)
    assert rep.ranks == (0, 0, 0, 52, 3770, 14310, 19490, 13602, 3906)
    assert rep.betti == (0, 0, 0, 6, 528, 0, 0, 0, 0)


def test_euler_vanishes_with_vectors():
    # Euler needs dimensions only, so skip the rank computations and
    # check the alternating dimension sum over the whole support
    cases = [(1, w, h) for w in range(-4, 0) for h in range(-2, 3)]
    cases.append((2, -1, -1))
    for n, w, h in cases:
        top = support_top(w, h, n, True)
        cx = double_weight_complex(n, h, top + 1, include_vectors=True)
        dims = [cx.dim(m, (w, h)) for m in range(1, top + 1)]
        euler = sum((-1) ** m * d for m, d in enumerate(dims, start=1))
        assert euler == 0, (n, w, h, dims)


# the n = 1 grid on and around the diagonal, and five n = 2 cases
VECTOR_GRID = [
    *[(1, w, h) for w in range(-1, -5, -1) for h in range(-2, 5)],
    (2, -1, -2), (2, -1, -1), (2, -1, 0), (2, -2, -1), (2, -2, -2),
    (1, 0, -5),   # the support is empty: m_top = 0
]


@pytest.mark.parametrize("n, w, h", VECTOR_GRID)
def test_acyclic_shortcut_matches_full_homology(n, w, h):
    # double_weight_betti derives the ranks outside block 0 from the dims,
    # all of them off the diagonal; complex_homology assembles and
    # eliminates every boundary
    rep = double_weight_betti(w, h, n, include_vectors=True)
    cx = double_weight_complex(n, h, support_top(w, h, n, True) + 1, True)
    assert rep == complex_homology(cx, (w, h), len(rep.dims), f"poly{n}+T")
    if h != w:
        assert set(rep.betti) <= {0}


# n = 1 and 2 with vector fields on the diagonal, n = 1 and 2 forms at
# w = -1 .. -7, h = -1 .. 3, and n = 3 forms at w = -1 .. -5, h = -1 .. 1
BLOCK_GRID = [(n, w, w, True) for n in (1, 2) for w in range(0, -7, -1)] + [
    (n, w, h, False) for n in (1, 2) for w in range(-1, -8, -1) for h in range(-1, 4)] + [
    (3, w, h, False) for w in range(-1, -6, -1) for h in range(-1, 2)]


@pytest.mark.parametrize("n, w, h, vectors", BLOCK_GRID)
def test_blocks_match_full_homology(n, w, h, vectors):
    # double_weight_betti ranks block 0 or one block per S_n orbit;
    # complex_homology assembles and eliminates the whole space
    rep = double_weight_betti(w, h, n, include_vectors=vectors)
    cx = double_weight_complex(n, h, support_top(w, h, n, vectors) + 1, vectors)
    assert rep == complex_homology(cx, (w, h), len(rep.dims), f"poly{n}" + "+T" * vectors)


# vector fields on and off the diagonal, h < w included; every n <= 2 case
# has a chain with a factor at the bound
LEVEL_BOUND_CASES = [
    (-3, -1, 3), (-1, 0, 3), (0, 0, 3), (0, -2, 3), (-2, 1, 3),
    (-1, -1, 2), (0, 3, 2), (0, 0, 2), (-2, 1, 2), (0, -2, 2),
    (-1, -1, 1), (-3, 0, 1), (-1, 1, 1),
]


class Built(Exception):
    pass


def built_complex(w, h, n, monkeypatch):
    # the complex double_weight_betti builds, taken before it counts
    real = polyforms.double_weight_complex

    def build(*args, **kwargs):
        raise Built(real(*args, **kwargs))

    with monkeypatch.context() as patch, pytest.raises(Built) as got:
        patch.setattr(polyforms, "double_weight_complex", build)
        double_weight_betti(w, h, n, include_vectors=True)
    return got.value.args[0]


@pytest.mark.parametrize("w, h, n", LEVEL_BOUND_CASES)
def test_levels_stop_at_the_heaviest_usable_token(w, h, n, monkeypatch):
    # a factor of secondary weight s leaves h - s to the others, each >= -1,
    # and only the constant forms (at most -w) and the n fields d/dx_i (each
    # at most once) weigh -1: so s <= h - w + n
    bound, top = h - w + n, support_top(w, h, n, True)
    cx = built_complex(w, h, n, monkeypatch)
    assert max(token_weights(t)[1] for t in cx.tokens) <= bound
    full = double_weight_complex(n, h, top + 1, True)
    assert [cx.dim(m, (w, h)) for m in range(1, top + 2)] == [
        full.dim(m, (w, h)) for m in range(1, top + 2)]
    if n <= 2:  # the bound is sharp
        assert any(token_weights(t)[1] == bound for m in range(1, top + 1)
                   for chain in cx.basis(m, (w, h)) for t in chain)
    elif h != w:
        assert set(double_weight_betti(w, h, n, include_vectors=True).betti) == {0}


def test_empty_support_gives_an_empty_report():
    rep = double_weight_betti(0, -5, 1, include_vectors=True)
    assert rep.dims == rep.ranks == rep.betti == ()


@pytest.mark.parametrize("n, w, h", [
    (1, -2, 1), (1, -3, 2), (2, -1, 0), (1, -2, -2), (2, -1, -1),
])
def test_euler_field_is_a_contracting_homotopy(n, w, h):
    # Cartan's homotopy formula: with eps_E(c) = E ^ c for the Euler field
    # E = sum_i x_i d/dx_i, bd eps_E + eps_E bd = ad(E) = (h - w) id on
    # C_m^{w,h}, including 0 on the diagonal
    m_top = support_top(w, h, n, True)
    cx = double_weight_complex(n, h, m_top + 2, include_vectors=True)
    euler = [(tuple(int(j == i) for j in range(n)), i + 1) for i in range(n)]
    bracket = cache(cx.bracket)

    def eps(chain):
        out = {}
        for mono, cf in chain.items():
            for e in euler:
                s, canon = _insert(mono, 0, e, cx.grade_of)
                if s:
                    add_term(out, canon, s * cf)
        return out

    def bd(chain):
        out = {}
        for mono, cf in chain.items():
            add_into(out, boundary_of_monomial(mono, cx.grade_of, bracket), cf)
        return out

    for m in range(m_top + 1):
        for c in cx.basis(m, (w, h)):
            lhs = bd(eps({c: 1}))
            add_into(lhs, eps(bd({c: 1})))
            assert lhs == ({c: h - w} if h != w else {}), (m, c)


# three ways to break what the acyclic shortcut relies on, each a
# (name in polyforms, stand-in) pair built from the real polyforms module

def broken_euler_eigenvalue(pf):
    # x d/dx acts on the token x dx by 4 instead of 2
    real = pf.poly_bracket

    def bracket(x, y):
        out = real(x, y)
        if x == {((1,), 1): 1} and y == {((1,), (1,)): 1}:
            return {key: 2 * v for key, v in out.items()}
        return out

    return "poly_bracket", bracket


def miscounted_complex(pf):
    # one more chain at degree 2 than there is
    real = pf.double_weight_complex

    def build(*args, **kwargs):
        cx = real(*args, **kwargs)
        dim = cx.dim
        cx.dim = lambda m, w: dim(m, w) + (m == 2)
        return cx

    return "double_weight_complex", build


def short_support(pf):
    # a top degree below the support, which runs to m = 6 at (-2, 0)
    return "support_top", lambda w, h, n, include_vectors=False: 2


def broken_torus_eigenvalue(pf):
    # x_1 d/dx_1 acts on the token x_1 d/dx_2 by 2 instead of 1
    real = pf.poly_bracket

    def bracket(x, y):
        out = real(x, y)
        if x == {((1, 0), 1): 1} and y == {((1, 0), 2): 1}:
            return {key: 2 * v for key, v in out.items()}
        return out

    return "poly_bracket", bracket


def unwalked_torus_eigenvalue(pf):
    # x_1 d/dx_1 acts on the token dx_1, which no chain of (-1, -1) uses,
    # by 2 instead of 1
    real = pf.poly_bracket

    def bracket(x, y):
        out = real(x, y)
        if x == {((1, 0), 1): 1} and y == {((0, 0), (1,)): 1}:
            return {key: 2 * v for key, v in out.items()}
        return out

    return "poly_bracket", bracket


def term_in_another_block(pf):
    # L_{d/dx_1} x_1^2 = 2 x_1 answered as 2 x_2: equal weights, multidegree
    # (0, 1) instead of (1, 0)
    real = pf.poly_bracket

    def bracket(x, y):
        if x == {((0, 0), 1): 1} and y == {((2, 0), ()): 1}:
            return {((0, 1), ()): 2}
        return real(x, y)

    return "poly_bracket", bracket


def asymmetric_levels(pf):
    # the token x_2 left out, so that no permutation maps x_1 anywhere
    real = pf.poly_levels

    def levels(*args, **kwargs):
        return [Level(lv.grade, lv.weight, tuple(t for t in lv.tokens if t != ((0, 1), ())))
                for lv in real(*args, **kwargs)]

    return "poly_levels", levels


def exact(message):
    return f"^{re.escape(message)}$"


ACYCLIC_BREAKS = [
    (broken_euler_eigenvalue, ArithmeticError,
     exact("x_1 d/dx_1 does not act on ((1,), (1,)) by 2: {((1,), (1,)): 4}")),
    (miscounted_complex, ArithmeticError,
     r"poly1\+T at weight \(-2, 0\): no acyclic ranks fit the dims"),
    (short_support, ValueError, "complex does not vanish above m = 2"),
]

# what the ranked blocks rely on, broken on the diagonal (-1, -1) of R^2
# with vector fields and on the forms of R^2 at (-2, 1)
BLOCK_BREAKS = [
    (broken_torus_eigenvalue, (-1, -1, 2, True), ArithmeticError,
     "x_1 d/dx_1 does not act on ((1, 0), 2) by 1: {((1, 0), 2): 2}"),
    (unwalked_torus_eigenvalue, (-1, -1, 2, True), ArithmeticError,
     "x_1 d/dx_1 does not act on ((0, 0), (1,)) by 1: {((0, 0), (1,)): 2}"),
    (term_in_another_block, (-1, -1, 2, True), AssertionError,
     "boundary left the block of weight (-1, -1): (((0, 0), 1), ((0, 0), 2), ((0, 1), 1), "
     "((0, 1), 2), ((1, 0), 1), ((2, 0), ())) -> (((0, 0), 2), ((0, 1), 1), ((0, 1), 2), "
     "((1, 0), 1), ((0, 1), ()))"),
    (asymmetric_levels, (-2, 1, 2, False), ArithmeticError,
     "poly2 at weight (-2, 1): the blocks [(0, 3), (3, 0)] differ in dims"),
]


@pytest.mark.parametrize("breaker, error, message", ACYCLIC_BREAKS,
                         ids=[breaker.__name__ for breaker, _, _ in ACYCLIC_BREAKS])
def test_acyclic_shortcut_checks_raise(breaker, error, message, monkeypatch):
    monkeypatch.setattr(polyforms, *breaker(polyforms))
    with pytest.raises(error, match=message):
        double_weight_betti(-2, 0, 1, include_vectors=True)


@pytest.mark.parametrize("breaker, case, error, message", BLOCK_BREAKS,
                         ids=[breaker.__name__ for breaker, *_ in BLOCK_BREAKS])
def test_block_checks_raise(breaker, case, error, message, monkeypatch):
    double_weight_betti(*case)
    monkeypatch.setattr(polyforms, *breaker(polyforms))
    with pytest.raises(error, match=exact(message)):
        double_weight_betti(*case)


def test_acyclic_shortcut_checks_raise_under_python_O():
    breaks = [(breaker, (-2, 0, 1, True)) for breaker, _, _ in ACYCLIC_BREAKS]
    breaks += [(breaker, case) for breaker, case, _, _ in BLOCK_BREAKS]
    script = "\n".join([
        "import formchains.polyforms as pf",
        "from formchains.superchain import Level",
        *[inspect.getsource(breaker) for breaker, _ in breaks],
        "print(__debug__)",
        f"for breaker, case in [{', '.join(f'({b.__name__}, {c})' for b, c in breaks)}]:",
        "    name, fake = breaker(pf)",
        "    real = getattr(pf, name)",
        "    setattr(pf, name, fake)",
        "    try:",
        "        pf.double_weight_betti(*case)",
        "    except (ArithmeticError, AssertionError, ValueError) as exc:",
        "        print(type(exc).__name__, exc)",
        "    else:",
        "        raise SystemExit(f'{breaker.__name__}: nothing raised')",
        "    setattr(pf, name, real)",
    ])
    src = os.path.dirname(os.path.dirname(formchains.__file__))
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "False"
    assert lines[1] == (
        "ArithmeticError x_1 d/dx_1 does not act on ((1,), (1,)) by 2: {((1,), (1,)): 4}")
    assert lines[2].startswith(
        "ArithmeticError poly1+T at weight (-2, 0): no acyclic ranks fit the dims")
    assert lines[3] == "ValueError complex does not vanish above m = 2"
    assert lines[4:] == [f"{error.__name__} {message}" for _, _, error, message in BLOCK_BREAKS]


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("vectors", [False, True], ids=["forms", "vectors"])
def test_no_variables_is_rejected(n, vectors):
    with pytest.raises(ValueError, match=rf"^need n >= 1 variables, got n = {n}$"):
        double_weight_betti(-1, 5, n, include_vectors=vectors)


def test_weight_validation():
    with pytest.raises(ValueError):
        double_weight_betti(0, 0, 1)
    with pytest.raises(ValueError):
        double_weight_betti(1, 0, 1, include_vectors=True)


def test_explicit_m_top_is_honored():
    rep = complex_homology(double_weight_complex(1, 0, 9), (-2, 0), 8, "poly1")
    assert len(rep.dims) == 8
    assert rep.dims == (1, 2, 0, 0, 0, 0, 0, 0)


def test_m_top_cutting_the_support_is_rejected():
    with pytest.raises(ValueError):
        complex_homology(double_weight_complex(1, 0, 2), (-2, 0), 1, "poly1")


def test_constant_sector_matches_invariant_forms_on_abelian():
    # h = -m, all coefficients constant: same dimensions as the invariant
    # forms of the abelian algebra, and the boundary vanishes identically
    for n in (1, 2, 3):
        for w in range(-4, 0):
            for m in range(1, -w + 1):
                basis = double_weight_basis(m, w, -m, n)
                assert len(basis) == chain_dim(n, m, w), (n, w, m)
        cx = double_weight_complex(n, -1, 4)
        for m in range(1, 4):
            mat = cx.boundary_matrix(m, (-3, -m))
            assert mat.is_zero()
            # the target weight pair is unreachable with m - 1 factors
            assert (mat.nrows, mat.ncols) == (0, cx.dim(m, (-3, -m)))


# --- emitters with a weight pair ---------------------------------------------------

def test_csv_gains_h_column():
    rep = double_weight_betti(-2, 0, 1)
    lines = homology_csv([rep]).splitlines()
    assert lines[0] == "algebra,weight,h,m,dim,rank,kernel,betti"
    assert lines[1] == "poly1,-2,0,1,1,0,1,0"
    assert lines[2] == "poly1,-2,0,2,2,1,1,1"


def test_json_splits_weight_pair():
    rep = double_weight_betti(-2, 0, 1, include_vectors=True)
    import json

    payload = json.loads(homology_json([rep]))
    assert payload[0]["algebra"] == "poly1+T"
    assert payload[0]["weight"] == -2
    assert payload[0]["h"] == 0
    assert payload[0]["euler"] == 0


def test_text_heading_names_both_weights():
    rep = double_weight_betti(-2, 0, 1)
    out = homology_text([rep])
    assert out.startswith("poly1, w = -2, h = 0")
