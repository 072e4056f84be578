"""Polynomial-coefficient forms and vector fields on R^n, doubly weighted.

A polynomial form is a dict {(alpha, A): coefficient} where alpha is an
exponent tuple of length n and A an increasing index tuple: the key stands
for x^alpha dx^A.  A polynomial vector field is a dict {(alpha, i):
coefficient} standing for x^alpha d/dx_i.  Coefficients are exact rationals:
int when integral, Fraction otherwise.  Every term carries two weights:

    primary   -(1 + |A|) for forms, 0 for vector fields
    secondary |alpha| - 1 for both

and the super bracket is additive in each: forms bracket by
[[omega, eta]] = (-1)^deg(omega) d(omega ^ eta), vector fields by the
commutator, vector/form by the Lie derivative L_X = i_X d + d i_X (and
form/vector by its negative).  In particular d = [[1, .]] shifts the weight
pair by (-1, -1), the constant 1 sitting at (-1, -1) itself.

Chains of degree m in the doubly weighted complex C_m^{w,h} are
super-exterior monomials in the term keys above, with the two weights
summing to (w, h).  The torus x_i d/dx_i splits C^{w,h} into blocks by
multidegree, the sum over the factors of alpha + 1_A for x^alpha dx^A and
alpha - e_i for x^alpha d/dx_i; bd keeps each block, and permuting the
coordinates maps block d onto block sigma d.  So double_weight_betti ranks
one block per S_n orbit.  With vector fields, Cartan's formula bd eps_X +
eps_X bd = ad(X), for eps_X(c) = X ^ c and X = x_i d/dx_i acting by d_i,
makes every block d != 0 acyclic: only block 0 is ranked, and none off the
diagonal h = w, as the multidegree sums to h - w.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations, permutations
from types import SimpleNamespace

from .forms import _merge, _sign, add_into, add_term
from .homology import _report, complex_homology
from .superchain import Level, WeightedComplex

PolyForm = dict    # {(exponent tuple, index subset): int or Fraction}
PolyVector = dict  # {(exponent tuple, direction index): int or Fraction}


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
    return {(alpha, A): 1}


def monomial_vector(alpha, i: int) -> PolyVector:
    """The single term x^alpha d/dx_i with coefficient 1."""
    alpha = tuple(alpha)
    if any(e < 0 for e in alpha):
        raise ValueError(f"exponents must be nonnegative, got {alpha}")
    if not 1 <= i <= len(alpha):
        raise ValueError(f"direction must lie in 1..{len(alpha)}, got {i}")
    return {(alpha, i): 1}


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


def token_multidegree(key) -> tuple:
    """alpha + 1_A for a form x^alpha dx^A, alpha - e_i for x^alpha d/dx_i."""
    alpha, tail = key
    if isinstance(tail, tuple):
        return tuple(a + (i in tail) for i, a in enumerate(alpha, start=1))
    return tuple(a - (i == tail) for i, a in enumerate(alpha, start=1))


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
            if i in A:  # indices are distinct: at most one slot matches
                t = A.index(i)
                gamma = tuple(x + y for x, y in zip(al, be, strict=True))
                add_term(out, (gamma, A[:t] + A[t + 1:]), cv * cf * _sign(t))
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
    if n < 1:
        raise ValueError(f"need n >= 1 variables, got n = {n}")
    if total < 0:
        return []
    # stars and bars: the n - 1 bar slots among total + n - 1, in lexicographic
    # order, give alpha in lexicographic order
    ends = total + n - 1
    return [tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (ends,)))
            for bars in combinations(range(ends), n - 1)]


def poly_levels(n: int, m_top: int, h: int, include_vectors=False):
    """Generator levels wide enough for every C_m^{*,h} with m <= m_top.

    Each factor has secondary weight >= -1, so m factors summing to h keep
    every factor's secondary weight at most h + m - 1.
    """
    if n < 1:
        raise ValueError(f"need n >= 1 variables, got n = {n}")
    smax = h + m_top - 1
    # (grade, index tails): x^alpha d/dx_i at grade 0, x^alpha dx^A at -(1+|A|)
    slots = [(0, range(1, n + 1))] if include_vectors else []
    slots += [(-(1 + a), list(combinations(range(1, n + 1), a))) for a in range(n + 1)]
    levels = []
    for grade, tails in slots:
        for s in range(-1, smax + 1):
            tokens = tuple((alpha, tail)
                           for alpha in exponent_tuples(n, s + 1) for tail in tails)
            if tokens:
                levels.append(Level(grade, (grade, s), tokens))
    return levels


def double_weight_complex(n: int, h: int, m_top: int,
                          include_vectors=False, cap=None) -> WeightedComplex:
    """The chain complex over all doubly homogeneous generators."""
    return WeightedComplex(poly_levels(n, m_top, h, include_vectors),
                           lambda ta, tb: poly_bracket({ta: 1}, {tb: 1}), cap)


def double_weight_basis(m: int, w: int, h: int, n: int,
                        include_vectors=False, cap=None):
    """All degree-m monomials of primary weight w and secondary weight h,
    listed from the tokens they can use, as double_weight_betti lists them."""
    return double_weight_complex(n, h, min(m, n - w + 1), include_vectors, cap).basis(m, (w, h))


def support_top(w: int, h: int, n: int, include_vectors=False) -> int:
    """The top degree: the largest m >= 1 with C_m^{w,h} != 0, else 0.

    At most -w forms, of secondary weight >= -1: -w - 1 constants and one
    x^alpha reach it when h >= w.  Vectors never repeat (grade 0) and share
    at most h - w: add the most whose lightest weights (n of -1, n^2 of 0,
    n C(n + s, n - 1) of each s >= 1) sum to <= h - w.  The slack goes into
    the x^alpha, or at w = 0 into a heavier vector swapped in.
    """
    if not include_vectors or w > 0:
        return -w if w < 0 and h >= w else 0
    budget, total, vectors, s = h - w, -n, n + n * n, 1
    while budget - total >= s:
        fit = min(n * len(exponent_tuples(n, s + 1)), (budget - total) // s)
        vectors, total, s = vectors + fit, total + fit * s, s + 1
    return -w + vectors if budget >= -n else 0


def double_weight_betti(w: int, h: int, n: int, include_vectors=False, cap=None):
    """Homology report of C_*^{w,h}, degrees 1 .. support_top, by block.

    The complex holds the tokens of secondary weight <= h - w + n, all that
    a chain can use.  The dims are counted over the whole space, upward, so
    a cap names the lowest degree over it.  Always on, also under python -O:
    the blocks of an orbit have equal dims, ad(x_i d/dx_i) scales every
    token of the complex by d_i, and the ranks R_m = D_m - R_{m+1} of the
    D_m chains outside the ranked blocks fit 0 <= R_m <= min(D_m, D_{m-1}).
    """
    if include_vectors:
        if w > 0:
            raise ValueError("primary weight must be nonpositive")
    elif w >= 0:
        raise ValueError("primary weight must be negative")
    m_top = support_top(w, h, n, include_vectors)
    # a factor of secondary weight s leaves h - s to the others, each >= -1,
    # and only the constant forms (at most -w) and the n fields d/dx_i (each
    # at most once) weigh -1: so s <= h - w + n, as far as the levels reach
    # for degree n - w + 1
    cx = double_weight_complex(n, h, min(m_top, n - w) + 1, include_vectors, cap=cap)
    wh, name = (w, h), f"poly{n}" + ("+T" if include_vectors else "")
    dims = [cx.dim(m, wh) for m in range(1, m_top + 2)]
    if dims.pop():
        raise ValueError(f"complex does not vanish above m = {m_top}")
    if include_vectors and h != w:  # no block 0: nothing is walked
        sizes, kept = {}, {}
    else:
        keep = ((0,) * n).__eq__ if include_vectors else lambda d: list(d) == sorted(d)
        sizes, kept = _blocks(cx, wh, m_top, n, keep)
    for i in range(n if include_vectors else 0):
        field = (tuple(int(j == i) for j in range(n)), i + 1)
        for t in cx.tokens:
            di = token_multidegree(t)[i]
            if (got := cx.bracket(field, t)) != ({t: di} if di else {}):
                raise ArithmeticError(f"x_{i + 1} d/dx_{i + 1} does not act on {t} by {di}: {got}")
    ranks, rest = [0] * m_top, [0, *dims]
    for d, size in sizes.items():
        orbit = set(permutations(d))
        if any(sizes.get(e) != size for e in orbit):
            raise ArithmeticError(f"{name} at weight {wh}: the blocks {sorted(orbit)} differ in dims")
        if keys := kept.get(d):
            block = SimpleNamespace(dim=lambda m, w: len(keys.get(m, ())),
                                    boundary_matrix=partial(cx.boundary_matrix, keys=keys))
            for m, r in enumerate(complex_homology(block, wh, m_top, name).ranks, start=1):
                ranks[m - 1] += len(orbit) * r
                rest[m] -= len(orbit) * size[m - 1]
    # what no ranked orbit holds lies in acyclic blocks (none without vector fields)
    r = 0
    for m in range(m_top, 0, -1):
        r = rest[m] - r
        if not 0 <= r <= min(rest[m], rest[m - 1]):
            raise ArithmeticError(
                f"{name} at weight {wh}: no acyclic ranks fit the dims "
                f"{tuple(rest[1:])} (rank {r} at m = {m})")
        ranks[m - 1] += r
    return _report(name, wh, dims, ranks)


def _blocks(cx, w, m_top, n, keep):
    """Walk C_m^w once for each m = 1 .. m_top and split it by multidegree:
    {d: [dim of block d at each m]} over all blocks and {d: {m: run keys}}
    over those with keep(d).  A token adds d_i + 1 to digit i of one int, so
    a key's block is a single sum.
    """
    base = abs(w[1] - w[0]) + n * m_top + 1  # at degree m a digit is d_i + m <= h - w + n m
    packed = [sum((c + 1) * base ** i for i, c in enumerate(token_multidegree(t))) for t in cx.tokens]
    sizes, kept = {}, {}
    for m in range(1, m_top + 1):
        for p, keys in cx.split(m, w, packed).items():
            d = tuple(p // base ** i % base - m for i in range(n))
            sizes.setdefault(d, [0] * m_top)[m - 1] = len(keys)
            if keep(d):
                kept.setdefault(d, {})[m] = keys
    return sizes, kept
