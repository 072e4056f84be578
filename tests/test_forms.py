from fractions import Fraction
from itertools import product

import pytest

from formchains import forms
from formchains.forms import (
    all_subsets,
    basis_form,
    ext_d,
    grade,
    interior,
    one,
    sigma,
    super_bracket,
    wedge,
)
from formchains.liealg import catalog
from formchains.superchain import forms_complex

# shorthand used throughout the weighted tables for n = 3:
# w^{i+2} = sigma^i ^ sigma^{i+1} (indices mod 3), V = sigma^1^2^3
W1 = (2, 3)
W2 = (1, 3)  # w^2 = sigma^3 ^ sigma^1 = -sigma^1 ^ sigma^3
V = (1, 2, 3)

CATALOG_N3 = ["abelian(3)", "so3", "sl2r", "d2(1)", "d2(-1)", "d1n", "d1y"]
CATALOG_SMALL = CATALOG_N3 + ["abelian(1)", "abelian(2)", "dim2"]


def test_wedge_basics():
    assert wedge(sigma(1), sigma(2)) == {(1, 2): 1}
    assert wedge(sigma(2), sigma(1)) == {(1, 2): -1}
    assert wedge(sigma(1), sigma(1)) == {}
    assert wedge(one(), sigma(3)) == {(3,): 1}
    # (sigma1 + 2 sigma3) ^ sigma2
    f = {(1,): Fraction(1), (3,): Fraction(2)}
    assert wedge(f, sigma(2)) == {(1, 2): 1, (2, 3): -2}


def test_wedge_is_associative_and_graded_commutative():
    for a, b in product([(), (1,), (2, 3), (1, 3)], repeat=2):
        fa, fb = {a: Fraction(1)}, {b: Fraction(1)}
        ab = wedge(fa, fb)
        ba = wedge(fb, fa)
        sign = -1 if (len(a) * len(b)) % 2 else 1
        assert ab == {k: sign * v for k, v in ba.items()}
    x, y, z = sigma(1), {(2, 3): Fraction(1)}, one()
    assert wedge(wedge(x, y), z) == wedge(x, wedge(y, z))


def test_grade():
    assert grade(()) == -1
    assert grade((1,)) == -2
    assert grade((1, 2, 3)) == -4


def test_basis_form_rejects_unsorted():
    with pytest.raises(ValueError):
        basis_form((2, 1))


def test_d_values_dim2():
    g = catalog("dim2")
    assert ext_d(sigma(1), g) == {(1, 2): -2}
    assert ext_d(sigma(2), g) == {}
    assert ext_d(basis_form((1, 2)), g) == {}
    assert ext_d(one(), g) == {}


def test_d_values_so3_and_sl2r():
    so3 = catalog("so3")
    assert ext_d(sigma(1), so3) == {W1: -2}
    assert ext_d(sigma(2), so3) == {W2: 2}   # -2 w^2, and w^2 = -sigma^1^3
    assert ext_d(sigma(3), so3) == {(1, 2): -2}
    sl2r = catalog("sl2r")
    assert ext_d(sigma(1), sl2r) == {W1: 2}
    assert ext_d(sigma(2), sl2r) == {W2: 2}
    assert ext_d(sigma(3), sl2r) == {(1, 2): -2}


def test_d_values_d2_family():
    for kappa in (1, -1, Fraction(2, 3)):
        g = catalog(f"d2({kappa})")
        assert ext_d(sigma(1), g) == {W2: -2}        # 2 w^2
        assert ext_d(sigma(2), g) == {W1: -2 * kappa}
        assert ext_d(sigma(3), g) == {}


def test_d_values_d1_family():
    d1n = catalog("d1n")
    assert ext_d(sigma(1), d1n) == {}
    assert ext_d(sigma(2), d1n) == {(1, 2): -2}
    assert ext_d(sigma(3), d1n) == {}
    d1y = catalog("d1y")
    assert ext_d(sigma(3), d1y) == {(1, 2): -2}
    assert ext_d(sigma(1), d1y) == {}


@pytest.mark.parametrize("name", CATALOG_SMALL)
def test_d_squared_is_zero(name):
    g = catalog(name)
    for a in all_subsets(g.n):
        assert ext_d(ext_d({a: Fraction(1)}, g), g) == {}


def test_bracket_with_one_is_d():
    for name in CATALOG_N3:
        g = catalog(name)
        for a in all_subsets(g.n):
            alpha = {a: Fraction(1)}
            assert super_bracket(one(), alpha, g) == ext_d(alpha, g)
            lhs = super_bracket(alpha, one(), g)
            sign = -1 if len(a) % 2 else 1
            assert lhs == {k: sign * v for k, v in ext_d(alpha, g).items()}


def test_so3_bracket_values():
    g = catalog("so3")
    # [[sigma^p, 1]] = -d sigma^p = 2 w^p
    assert super_bracket(sigma(1), one(), g) == {W1: 2}
    assert super_bracket(sigma(2), one(), g) == {W2: -2}
    assert super_bracket(sigma(3), one(), g) == {(1, 2): 2}
    # the two-forms are central here and V brackets to nothing
    for a in [W1, W2, (1, 2), V]:
        for b in [W1, W2, (1, 2), V]:
            assert super_bracket({a: Fraction(1)}, {b: Fraction(1)}, g) == {}
    assert super_bracket(sigma(1), sigma(2), g) == {}


def test_d2_bracket_values():
    for kappa in (1, -1, 3):
        g = catalog(f"d2({kappa})")
        got = super_bracket(sigma(1), sigma(2), g)
        assert got == ({} if kappa == -1 else {V: -2 * (1 + kappa)})
        got = super_bracket(one(), {(1, 2): Fraction(1)}, g)
        assert got == ({} if kappa == -1 else {V: 2 * (1 + kappa)})


def test_d1n_bracket_values():
    g = catalog("d1n")
    assert super_bracket(sigma(2), sigma(3), g) == {V: 2}
    assert super_bracket(one(), {W1: Fraction(1)}, g) == {V: -2}


def brackets(spec):
    """[[sigma^A, sigma^B]] for every pair of basis subsets (zero forms kept)."""
    sys = forms_complex(spec)
    return {(a, b): sys.bracket(a, b) for a in sys.tokens for b in sys.tokens}


def test_d1y_bracket_support():
    g = catalog("d1y")
    table = brackets(g)
    nonzero = {(a, b) for (a, b), f in table.items() if f}
    assert nonzero == {((), (3,)), ((3,), ())}
    assert table[((), (3,))] == {(1, 2): -2}
    assert table[((3,), ())] == {(1, 2): 2}


def test_abelian_brackets_are_zero():
    table = brackets(catalog("abelian(3)"))
    assert all(f == {} for f in table.values())


@pytest.mark.parametrize("name", CATALOG_SMALL)
def test_graded_antisymmetry(name):
    # [[X, Y]] + (-1)^{x y} [[Y, X]] = 0 with x, y the super grades
    g = catalog(name)
    for a in all_subsets(g.n):
        for b in all_subsets(g.n):
            fa, fb = {a: Fraction(1)}, {b: Fraction(1)}
            ab = super_bracket(fa, fb, g)
            ba = super_bracket(fb, fa, g)
            sign = -1 if (grade(a) * grade(b)) % 2 else 1
            total = dict(ab)
            forms.add_into(total, ba, sign)
            assert total == {}, (name, a, b)


@pytest.mark.parametrize("name", CATALOG_SMALL)
def test_super_jacobi(name):
    # (-1)^{xz} [[[[X,Y]],Z]] + (-1)^{yx} [[[[Y,Z]],X]] + (-1)^{zy} [[[[Z,X]],Y]] = 0
    g = catalog(name)
    subsets = list(all_subsets(g.n))
    for a in subsets:
        for b in subsets:
            for c in subsets:
                x, y, z = grade(a), grade(b), grade(c)
                fa, fb, fc = ({a: Fraction(1)}, {b: Fraction(1)}, {c: Fraction(1)})
                total = {}
                forms.add_into(
                    total,
                    super_bracket(super_bracket(fa, fb, g), fc, g),
                    -1 if (x * z) % 2 else 1,
                )
                forms.add_into(
                    total,
                    super_bracket(super_bracket(fb, fc, g), fa, g),
                    -1 if (y * x) % 2 else 1,
                )
                forms.add_into(
                    total,
                    super_bracket(super_bracket(fc, fa, g), fb, g),
                    -1 if (z * y) % 2 else 1,
                )
                assert total == {}, (name, a, b, c)


@pytest.mark.parametrize("name", CATALOG_N3)
def test_leibniz_type_identity(name):
    # [[gamma, alpha^beta]] = [[gamma,alpha]]^beta
    #   + (-1)^{c'(1+a')} alpha^[[gamma,beta]] + (-1)^{c'} d gamma ^ alpha ^ beta
    g = catalog(name)
    subsets = list(all_subsets(g.n))
    for cset in subsets:
        for aset in subsets:
            for bset in subsets:
                gam = {cset: Fraction(1)}
                alp = {aset: Fraction(1)}
                bet = {bset: Fraction(1)}
                cp, ap = grade(cset), grade(aset)
                lhs = super_bracket(gam, wedge(alp, bet), g)
                rhs = dict(wedge(super_bracket(gam, alp, g), bet))
                forms.add_into(
                    rhs,
                    wedge(alp, super_bracket(gam, bet, g)),
                    -1 if (cp * (1 + ap)) % 2 else 1,
                )
                forms.add_into(
                    rhs,
                    wedge(ext_d(gam, g), wedge(alp, bet)),
                    -1 if cp % 2 else 1,
                )
                assert lhs == rhs, (name, cset, aset, bset)


def test_bracket_grade_additivity():
    # a nonzero [[a-form, b-form]] is an (a+b+1)-form: grades add
    for name in CATALOG_N3:
        g = catalog(name)
        for a in all_subsets(g.n):
            for b in all_subsets(g.n):
                res = super_bracket({a: Fraction(1)}, {b: Fraction(1)}, g)
                for key in res:
                    assert grade(key) == grade(a) + grade(b)


def test_interior_product():
    assert interior(1, sigma(1)) == {(): 1}
    assert interior(2, sigma(1)) == {}
    assert interior(3, basis_form((1, 3))) == {(1,): -1}
    assert interior(1, basis_form((1, 2, 3))) == {(2, 3): 1}
    assert interior(2, basis_form((1, 2, 3))) == {(1, 3): -1}
    assert interior(1, one()) == {}
    # contraction is a super derivation of degree -1: i_X(a ^ b) =
    # (i_X a) ^ b + (-1)^deg(a) a ^ (i_X b), spot-checked on a wedge
    f = basis_form((1, 2))
    gform = sigma(3)
    lhs = interior(2, wedge(f, gform))
    rhs = dict(wedge(interior(2, f), gform))
    forms.add_into(rhs, wedge(f, interior(2, gform)), 1)  # deg f even
    assert lhs == rhs
