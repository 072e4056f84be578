"""Polynomial forms and vector fields: bracket laws and doubly weighted Betti.

The Lie derivative inside poly_bracket runs through Cartan's formula
i_X d + d i_X; the oracle here evaluates L_X directly by the product rule
(L_X(G dx^A) = X(G) dx^A + G sum over slots of dx^A with dx_i replaced by
dF when X = F d/dx_i), so the two sides share no code path beyond d and
the wedge.
"""

from fractions import Fraction

import pytest

from formchains.forms import add_into
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
from formchains.superchain import EnumerationCapExceeded, chain_dim

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

def _lie_direct(vec, omega):
    # L_X(G dx^A) = X(G) dx^A + G sum_t dx^{A[:t]} ^ dF ^ dx^{A[t+1:]}
    # over slots with A[t] = i, for X = F d/dx_i = x^al d/dx_i
    out = {}
    for (al, i), cv in vec.items():
        for (be, A), cf in omega.items():
            e = be[i - 1]
            if e:
                gamma = tuple(a + b for a, b in zip(al, be))
                gamma = gamma[: i - 1] + (gamma[i - 1] - 1,) + gamma[i:]
                add_into(out, {(gamma, A): cv * cf * e})
            for t, idx in enumerate(A):
                if idx == i:
                    left = {(be, A[:t]): cv * cf}
                    mid = poly_d({(al, ()): F(1)})
                    right = {((0,) * len(al), A[t + 1:]): F(1)}
                    add_into(out, poly_wedge(left, poly_wedge(mid, right)))
    return out


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
                assert lie_derivative(vec, form) == _lie_direct(vec, form), (
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
