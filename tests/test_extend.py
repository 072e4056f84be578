from fractions import Fraction

import pytest

from formchains import forms
from formchains.extend import (
    JacobiReport,
    check_extended_jacobi,
    check_system_jacobi,
    extended_betti,
    extended_bracket,
    extended_complex,
    k_split_dims,
    lie_derivative,
    multivector_system,
    trivially_long,
)
from formchains.homology import betti_row, complex_homology
from formchains.liealg import catalog
from formchains.superchain import Level, WeightedComplex, chain_dim, forms_complex

CATALOG = ["so3", "sl2r", "d2(1)", "d2(-1)", "d1n", "d1y",
           "abelian(3)", "dim2", "abelian(2)"]


def F(x):
    return Fraction(x)


# --- Lie derivative ----------------------------------------------------------------

def test_lie_derivative_frozen_values():
    so3 = catalog("so3")
    assert lie_derivative(1, {(1,): F(1)}, so3) == {}
    assert lie_derivative(1, {(2,): F(1)}, so3) == {(3,): F(2)}
    assert lie_derivative(1, {(3,): F(1)}, so3) == {(2,): F(-2)}
    # derivation on a 2-form: L_1(s1^s2) = s1 ^ L_1(s2) = 2 s1^s3
    assert lie_derivative(1, {(1, 2): F(1)}, so3) == {(1, 3): F(2)}
    d1n = catalog("d1n")
    assert lie_derivative(1, {(2,): F(1)}, d1n) == {(2,): F(-2)}
    assert lie_derivative(2, {(1,): F(1)}, d1n) == {}
    # constants are invariant
    assert lie_derivative(1, {(): F(1)}, so3) == {}


@pytest.mark.parametrize("name", CATALOG)
def test_lie_derivative_equals_cartan_formula(name):
    # independent oracle: L_X = i_X d + d i_X on every basis form
    g = catalog(name)
    for i in range(1, g.n + 1):
        for subset in forms.all_subsets(g.n):
            f = {subset: F(1)}
            got = lie_derivative(i, f, g)
            want = forms.interior(i, forms.ext_d(f, g))
            forms.add_into(want, forms.ext_d(forms.interior(i, f), g))
            want = {k: v for k, v in want.items() if v}
            assert got == want, (name, i, subset)


def test_lie_derivative_is_a_derivation():
    g = catalog("d2(-1)")
    fa = {(1,): F(1), (2,): F(3)}
    fb = {(3,): F(1), (): F(-2)}
    lhs = lie_derivative(2, forms.wedge(fa, fb), g)
    rhs = forms.wedge(lie_derivative(2, fa, g), fb)
    forms.add_into(rhs, forms.wedge(fa, lie_derivative(2, fb, g)))
    rhs = {k: v for k, v in rhs.items() if v}
    assert lhs == rhs


# --- extended bracket ----------------------------------------------------------------

def test_extended_bracket_cases():
    so3 = catalog("so3")
    v1, v2 = ("v", 1), ("v", 2)
    s2 = ("f", (2,))
    one = ("f", ())
    # vector/vector: the Lie algebra itself
    assert extended_bracket(v1, v2, so3) == {("v", 3): F(2)}
    # vector/form and form/vector: +/- Lie derivative
    assert extended_bracket(v1, s2, so3) == {("f", (3,)): F(2)}
    assert extended_bracket(s2, v1, so3) == {("f", (3,)): F(-2)}
    assert extended_bracket(v1, one, so3) == {}
    # form/form: the d(a^b) bracket
    assert extended_bracket(one, s2, so3) == {("f", (1, 3)): F(2)}


def test_extended_token_grades():
    grade_of = extended_complex(catalog("so3")).grade_of
    assert grade_of(("v", 2)) == 0
    assert grade_of(("f", ())) == -1
    assert grade_of(("f", (1, 3))) == -3


@pytest.mark.parametrize("name", ["so3", "d2(-1)", "d1n", "dim2", "abelian(2)"])
def test_extended_bracket_graded_antisymmetry(name):
    g = catalog(name)
    sys = extended_complex(g)
    for x in sys.tokens:
        for y in sys.tokens:
            a = extended_bracket(x, y, g)
            b = extended_bracket(y, x, g)
            sign = (-1) ** (sys.grade_of(x) * sys.grade_of(y))
            merged = dict(a)
            for t, v in b.items():
                merged[t] = merged.get(t, F(0)) + sign * v
            assert not any(merged.values()), (name, x, y)


@pytest.mark.parametrize("name", CATALOG)
def test_extended_jacobi_exhaustive(name):
    rep = check_extended_jacobi(catalog(name))
    assert rep.ok, rep.summary()
    n = catalog(name).n
    assert rep.checked == (n + 2 ** n) ** 3
    assert "holds" in rep.summary()


def test_extended_jacobi_negative_control():
    # corrupt one action entry: Jacobi must fail
    g = catalog("so3")
    sys = extended_complex(g)

    def bad(x, y):
        if x == ("v", 1) and y == ("f", (2,)):
            return {("f", (3,)): F(-2)}   # wrong sign
        return sys.bracket(x, y)

    rep = check_system_jacobi(WeightedComplex(sys.levels, bad))
    assert not rep.ok
    assert rep.first_violation is not None
    assert "FAILS" in rep.summary()


# --- extended chain spaces --------------------------------------------------------

def binom(n, k):
    from math import comb
    return comb(n, k)


@pytest.mark.parametrize("name", ["so3", "d1n", "dim2"])
def test_extended_dims_are_vector_convolutions(name):
    g = catalog(name)
    cx = extended_complex(g)
    for w in range(-5, 0):
        for m in range(1, -w + g.n + 1):
            want = sum(binom(g.n, k) * chain_dim(g, m - k, w)
                       for k in range(0, min(g.n, m) + 1))
            assert cx.dim(m, w) == want, (name, m, w)


def test_extended_dims_low_weight():
    # n=2, w=-1: form dims (1) convolve with (1,2,1) -> (1,2,1)
    g = catalog("dim2")
    cx = extended_complex(g)
    assert [cx.dim(m, -1) for m in (1, 2, 3)] == [1, 2, 1]
    assert cx.dim(4, -1) == 0


def test_pure_vector_monomials_at_weight_zero():
    g = catalog("so3")
    cx = extended_complex(g)
    for k in (1, 2, 3):
        assert cx.dim(k, 0) == binom(3, k)
    assert cx.dim(4, 0) == 0


def test_k_split_dims():
    g = catalog("dim2")
    rows = k_split_dims(g, -2)
    # m=1: only the pure form row; m=4: 2 vectors + the top form pair
    assert rows[0] == (2, 0, 0)
    total = [sum(r) for r in rows]
    cx = extended_complex(g)
    assert total == [cx.dim(m, -2) for m in (1, 2, 3, 4)]
    assert rows[3][2] == chain_dim(g, 2, -2)  # k=2 column


# --- extended homology -------------------------------------------------------------

@pytest.mark.parametrize("name", CATALOG)
def test_extended_boundary_squares_to_zero(name):
    g = catalog(name)
    cx = extended_complex(g)
    for w in range(-6, 0):
        for m in range(2, -w + g.n + 1):
            first = cx.boundary_matrix(m - 1, w)
            second = cx.boundary_matrix(m, w)
            assert (first @ second).is_zero(), (name, m, w)


@pytest.mark.parametrize("name", CATALOG)
def test_extended_euler_vanishes(name):
    g = catalog(name)
    for w in range(-6, 0):
        rep = extended_betti(g, w)
        assert rep.euler == 0, (name, w)
        assert rep.euler == sum((-1) ** m * b
                                for m, b in enumerate(rep.betti, 1))


@pytest.mark.parametrize("name", ["so3", "d2(1)", "d1y", "dim2"])
def test_k_zero_restriction_is_plain_homology(name):
    g = catalog(name)
    sys = extended_complex(g)
    # levels[0] holds the vectors: drop it to keep the k = 0 forms only
    cx = WeightedComplex(sys.levels[1:], sys.bracket)
    for w in range(-5, 0):
        restricted = complex_homology(cx, w, -w, name)
        plain = betti_row(g, w)
        assert restricted.betti == plain.betti, (name, w)
        assert restricted.dims == plain.dims
        assert restricted.ranks == plain.ranks


# engine output frozen after the d^2 = 0 and Euler = 0 checks passed;
# dims agree with the binomial convolution over the number of vector factors
EXTENDED_SO3_W3 = {
    "dims": (3, 12, 19, 15, 6, 1),
    "ranks": (0, 3, 9, 9, 6, 0),
    "kernels": (3, 9, 10, 6, 0, 1),
    "betti": (0, 0, 1, 0, 0, 1),
}


def test_extended_betti_so3_weight_three_frozen():
    rep = extended_betti(catalog("so3"), -3)
    assert rep.dims == EXTENDED_SO3_W3["dims"]
    assert rep.ranks == EXTENDED_SO3_W3["ranks"]
    assert rep.kernels == EXTENDED_SO3_W3["kernels"]
    assert rep.betti == EXTENDED_SO3_W3["betti"]
    assert rep.euler == 0


def test_extended_betti_abelian_frozen():
    # abelian(2): d = 0 but the vectors still act trivially, so the boundary
    # vanishes and Betti = dims
    rep = extended_betti(catalog("abelian(2)"), -2)
    assert rep.betti == rep.dims
    assert rep.euler == 0


def test_extended_weight_must_be_negative():
    with pytest.raises(ValueError):
        extended_betti(catalog("so3"), 0)


# --- trivially long composites ------------------------------------------------------

def test_multivector_system_grading():
    sys = multivector_system(3)
    assert sys.grade_of(("mv", (1,))) == 0
    assert sys.grade_of(("mv", (1, 2, 3))) == 2
    assert len(sys.tokens) == 7
    assert sys.bracket(("mv", (1,)), ("mv", (2,))) == {}


def test_trivially_long_composite_passes_jacobi():
    g = catalog("so3")
    comp = trivially_long(forms_complex(g), multivector_system(3))
    rep = check_system_jacobi(comp)
    assert rep.ok
    assert rep.checked == (2 ** 3 + 7) ** 3


def test_trivially_long_cross_brackets_vanish():
    g = catalog("dim2")
    comp = trivially_long(forms_complex(g), multivector_system(2))
    assert comp.bracket((1,), ("mv", (1, 2))) == {}
    assert comp.bracket(("mv", (1,)), (1, 2)) == {}
    # the form side keeps its own bracket
    assert comp.bracket((), (1,)) == forms_complex(g).bracket((), (1,))


def test_trivially_long_cross_pairs_call_neither_side():
    calls = []

    def one_token_complex(tag, g):
        return WeightedComplex([Level(g, g, ((tag, 1),))],
                               lambda a, b: calls.append((a, b)) or {})

    comp = trivially_long(one_token_complex("n", -1), one_token_complex("p", 0))
    assert comp.bracket(("n", 1), ("p", 1)) == {}
    assert comp.bracket(("p", 1), ("n", 1)) == {}
    assert calls == []
    assert comp.bracket(("p", 1), ("p", 1)) == {}
    assert calls == [(("p", 1), ("p", 1))]


def test_trivially_long_grade_validation():
    g = catalog("dim2")
    with pytest.raises(ValueError):
        trivially_long(multivector_system(2), multivector_system(2))
    with pytest.raises(ValueError):
        trivially_long(forms_complex(g), forms_complex(g))


def test_trivially_long_composite_complex():
    # the composite is a valid graded system: its negative-weight chain
    # spaces coincide with the plain form complex (multivectors all have
    # non-negative grade = weight, so they cannot appear)
    g = catalog("dim2")
    cx = trivially_long(forms_complex(g), multivector_system(2))
    for w in range(-4, 0):
        for m in range(1, -w + 1):
            assert cx.dim(m, w) >= chain_dim(g, m, w)
    # pure multivector monomials show up at positive weights
    assert cx.dim(1, 1) == 1   # the 2-vector, grade 1
