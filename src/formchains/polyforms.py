"""Polynomial-coefficient forms and vector fields on R^n, doubly weighted.

A polynomial form is a dict {(alpha, A): Fraction} where alpha is an
exponent tuple of length n and A an increasing index tuple: the key stands
for x^alpha dx^A.  A polynomial vector field is a dict {(alpha, i): Fraction}
standing for x^alpha d/dx_i.  Every term carries two weights:

    primary   -(1 + |A|) for forms, 0 for vector fields
    secondary |alpha| - 1 for both

and the super bracket is additive in each: forms bracket by
[[omega, eta]] = (-1)^deg(omega) d(omega ^ eta), vector fields by the
commutator, vector/form by the Lie derivative L_X = i_X d + d i_X (and
form/vector by its negative).  In particular d = [[1, .]] shifts the weight
pair by (-1, -1), the constant 1 sitting at (-1, -1) itself.

Chains of degree m in the doubly weighted complex C_m^{w,h} are
super-exterior monomials in the term keys above, with the two weights
summing to (w, h).  When vector fields are admitted, pairing a monomial
with the weight-(0, 0) field x_1 d/dx_1 toggles the degree by one and makes
the Euler characteristic vanish at every w < 0.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .forms import _merge, _sign, add_into, add_term
from .homology import complex_homology
from .superchain import Level, WeightedComplex, enumerate_monomials

PolyForm = dict    # {(exponent tuple, index subset): Fraction}
PolyVector = dict  # {(exponent tuple, direction index): Fraction}


def monomial_form(alpha, A) -> PolyForm:
    """The single term x^alpha dx^A with coefficient 1."""
    alpha = tuple(alpha)
    A = tuple(A)
    n = len(alpha)
    if any(e < 0 for e in alpha):
        raise ValueError(f"exponents must be nonnegative, got {alpha}")
    if any(not 1 <= i <= n for i in A):
        raise ValueError(f"indices must lie in 1..{n}, got {A}")
    if any(A[s] >= A[s + 1] for s in range(len(A) - 1)):
        raise ValueError(f"indices must be strictly increasing, got {A}")
    return {(alpha, A): Fraction(1)}


def monomial_vector(alpha, i: int) -> PolyVector:
    """The single term x^alpha d/dx_i with coefficient 1."""
    alpha = tuple(alpha)
    if any(e < 0 for e in alpha):
        raise ValueError(f"exponents must be nonnegative, got {alpha}")
    if not 1 <= i <= len(alpha):
        raise ValueError(f"direction must lie in 1..{len(alpha)}, got {i}")
    return {(alpha, i): Fraction(1)}


def _kind(elem) -> str:
    kinds = {"form" if isinstance(key[1], tuple) else "vector" for key in elem}
    if len(kinds) > 1:
        raise ValueError("element mixes form and vector terms")
    return kinds.pop() if kinds else "zero"


def token_grade(key) -> int:
    """Super grade of one term key: -(1+|A|) for forms, 0 for vectors."""
    return -(1 + len(key[1])) if isinstance(key[1], tuple) else 0


def token_weights(key) -> tuple:
    """(primary, secondary) weight pair of one term key."""
    return (token_grade(key), sum(key[0]) - 1)


def double_weight(elem) -> tuple:
    """The (primary, secondary) pair of a doubly homogeneous element."""
    weights = {token_weights(key) for key in elem}
    if len(weights) != 1:
        raise ValueError(f"element is not doubly homogeneous: {sorted(weights)}")
    return weights.pop()


def poly_d(omega: PolyForm) -> PolyForm:
    """Exterior derivative d(x^alpha dx^A) = sum_i d(x^alpha)/dx_i dx_i^dx^A."""
    if _kind(omega) == "vector":
        raise ValueError("d acts on forms, not vector fields")
    out: PolyForm = {}
    for (alpha, A), cf in omega.items():
        for i in range(1, len(alpha) + 1):
            e = alpha[i - 1]
            if not e:
                continue
            s, merged = _merge((i,), A)
            if not s:
                continue
            reduced = alpha[: i - 1] + (e - 1,) + alpha[i:]
            add_term(out, (reduced, merged), cf * e * s)
    return out


def poly_wedge(f: PolyForm, g: PolyForm) -> PolyForm:
    out: PolyForm = {}
    for (al, A), va in f.items():
        for (be, B), vb in g.items():
            s, merged = _merge(A, B)
            if not s:
                continue
            gamma = tuple(x + y for x, y in zip(al, be, strict=True))
            add_term(out, (gamma, merged), s * va * vb)
    return out


def poly_interior(vec: PolyVector, omega: PolyForm) -> PolyForm:
    """Contraction: i_{x^al d_i}(x^be dx^A) drops dx_i with its slot sign."""
    out: PolyForm = {}
    for (al, i), cv in vec.items():
        for (be, A), cf in omega.items():
            for t, idx in enumerate(A):
                if idx == i:
                    gamma = tuple(x + y for x, y in zip(al, be, strict=True))
                    add_term(out, (gamma, A[:t] + A[t + 1:]),
                             cv * cf * _sign(t))
                    break  # indices are distinct: at most one slot matches
    return out


def vector_commutator(x: PolyVector, y: PolyVector) -> PolyVector:
    """[F d_i, G d_j] = F dG/dx_i d_j - G dF/dx_j d_i on monomials."""
    out: PolyVector = {}
    for (al, i), cx in x.items():
        for (be, j), cy in y.items():
            if len(al) != len(be):
                raise ValueError("ambient dimensions differ")
            e = be[i - 1]
            if e:
                gamma = tuple(a + b for a, b in zip(al, be))
                gamma = gamma[: i - 1] + (gamma[i - 1] - 1,) + gamma[i:]
                add_term(out, (gamma, j), cx * cy * e)
            e = al[j - 1]
            if e:
                gamma = tuple(a + b for a, b in zip(al, be))
                gamma = gamma[: j - 1] + (gamma[j - 1] - 1,) + gamma[j:]
                add_term(out, (gamma, i), -cx * cy * e)
    return out


def lie_derivative(vec: PolyVector, omega: PolyForm) -> PolyForm:
    """L_X omega by Cartan's formula i_X(d omega) + d(i_X omega)."""
    if _kind(vec) == "form" or _kind(omega) == "vector":
        raise ValueError("lie_derivative takes a vector field and a form")
    out = poly_interior(vec, poly_d(omega))
    add_into(out, poly_d(poly_interior(vec, omega)))
    return out


def poly_bracket(x, y):
    """Super bracket of doubly graded elements; kind read off the keys.

    form/form    (-1)^deg d(wedge), term by term in the left argument
    vector/vector  the commutator of vector fields
    vector/form    L_X omega, and form/vector its negative
    """
    kx, ky = _kind(x), _kind(y)
    if kx == "zero" or ky == "zero":
        return {}
    if kx == "form" and ky == "form":
        out: PolyForm = {}
        for (al, A), cf in x.items():
            piece = poly_d(poly_wedge({(al, A): cf}, y))
            add_into(out, piece, _sign(len(A)))
        return out
    if kx == "vector" and ky == "vector":
        return vector_commutator(x, y)
    if kx == "vector":
        return lie_derivative(x, y)
    out = lie_derivative(y, x)
    return {key: -v for key, v in out.items()}


# --- the doubly weighted chain complex ----------------------------------------

def exponent_tuples(n: int, total: int):
    """All alpha in N^n with |alpha| = total, lexicographically."""
    if total < 0:
        return []
    if n == 1:
        return [(total,)]
    return [(first,) + rest
            for first in range(total + 1)
            for rest in exponent_tuples(n - 1, total - first)]


def poly_levels(n: int, m_top: int, h: int, include_vectors=False):
    """Generator levels wide enough for every C_m^{*,h} with m <= m_top.

    Each factor has secondary weight >= -1, so m factors summing to h keep
    every factor's secondary weight at most h + m - 1.
    """
    if n < 1:
        raise ValueError(f"need n >= 1 variables, got n = {n}")
    smax = h + m_top - 1
    levels = []
    if include_vectors:
        for s in range(-1, smax + 1):
            tokens = tuple(sorted(
                (alpha, i)
                for alpha in exponent_tuples(n, s + 1)
                for i in range(1, n + 1)
            ))
            if tokens:
                levels.append(Level(0, (0, s), tokens))
    for a in range(n + 1):
        for s in range(-1, smax + 1):
            tokens = tuple(sorted(
                (alpha, A)
                for alpha in exponent_tuples(n, s + 1)
                for A in combinations(range(1, n + 1), a)
            ))
            if tokens:
                levels.append(Level(-(1 + a), (-(1 + a), s), tokens))
    return levels


def double_weight_complex(n: int, h: int, m_top: int,
                          include_vectors=False, cap=None) -> WeightedComplex:
    """The chain complex over all doubly homogeneous generators."""
    levels = poly_levels(n, m_top, h, include_vectors)
    return WeightedComplex(levels, lambda ta, tb: poly_bracket(
        {ta: Fraction(1)}, {tb: Fraction(1)}), cap)


def double_weight_basis(m: int, w: int, h: int, n: int,
                        include_vectors=False, cap=None):
    """All degree-m monomials of primary weight w and secondary weight h."""
    levels = poly_levels(n, m, h, include_vectors)
    return enumerate_monomials(levels, m, (w, h), cap=cap)


def support_top(w: int, h: int, n: int, include_vectors=False) -> int:
    """A degree above which C_m^{w,h} is guaranteed to vanish.

    Form factors have primary weight <= -1, so at most -w of them.  Vector
    factors never repeat: at most n of secondary weight -1, at most n^2 of
    secondary weight 0, and the secondary budget h caps the rest.
    """
    forms_top = -w
    if not include_vectors:
        return max(forms_top, 0)
    return max(forms_top + (h + forms_top + n) + n + n * n, 0)


def double_weight_betti(w: int, h: int, n: int, include_vectors=False, cap=None):
    """Homology report of C_*^{w,h}; degrees trimmed to the support."""
    if include_vectors:
        if w > 0:
            raise ValueError("primary weight must be nonpositive")
    elif w >= 0:
        raise ValueError("primary weight must be negative")
    m_top = support_top(w, h, n, include_vectors)
    cx = double_weight_complex(n, h, m_top + 1, include_vectors, cap=cap)
    while m_top > 0 and cx.dim(m_top, (w, h)) == 0:
        m_top -= 1
    label = f"poly{n}" + ("+T" if include_vectors else "")
    return complex_homology(cx, (w, h), m_top, label)
