"""Acceptance gate: the shipped guarantees, one pass/fail line per check.

Run with  pytest tests/test_acceptance.py -s  to see the summary lines.
Every expected table here is a frozen literal; the engine must reproduce
it exactly (all arithmetic is over Q, so there is no tolerance).
"""

import time
from fractions import Fraction as F
from itertools import combinations

from formchains.extend import (
    check_system_jacobi,
    extended_betti,
    extended_complex,
    k_split_dims,
)
from formchains.forms import add_into
from formchains.homology import betti_row, betti_table
from formchains.liealg import catalog
from formchains.polyforms import (
    double_weight,
    exponent_tuples,
    lie_derivative,
    monomial_form,
    monomial_vector,
    poly_bracket,
    poly_d,
)
from formchains.superchain import (
    chain_dim,
    chain_dim_formula_n3,
    forms_complex,
)

import oracle_calculus
from oracle_boundary import boundary_via_left_action, matrix_of

CATALOG = ["so3", "sl2r", "d2(1)", "d2(-1)", "d1n", "d1y",
           "abelian(3)", "dim2", "abelian(2)"]
# the published labels of the five non-abelian 3-dimensional classes
FAMILIES = ["d3", "d2y", "d2n", "d1y", "d1n"]


def _finish(label, t0, failures, budget=None):
    elapsed = time.perf_counter() - t0
    if budget is not None and elapsed >= budget:
        failures.append(f"runtime {elapsed:.2f}s over the {budget:.0f}s budget")
    print(f"[acceptance] {label}: {'FAIL' if failures else 'PASS'}"
          f" ({elapsed:.2f}s)")
    assert not failures, failures[:5]


# 1. the 2-dimensional algebra: full Betti table, w = -1 .. -12, under 1 s

DIM2_BETTI = {
    -1: (1,),
    -2: (2, 1),
    -3: (0, 1, 1),
    -4: (0, 1, 1, 1),
    -5: (0, 1, 0, 1, 1),
    -6: (0, 0, 0, 0, 1, 1),
    -7: (0, 0, 1, 0, 0, 1, 1),
    -8: (0, 0, 1, 0, 0, 0, 1, 1),
    -9: (0, 0, 0, 0, 0, 0, 0, 1, 1),
    -10: (0, 0, 0, 1, 0, 0, 0, 0, 1, 1),
    -11: (0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 1),
    -12: (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1),
}


def test_dim2_betti_table_fast():
    t0 = time.perf_counter()
    failures = []
    for rep in betti_table(catalog("dim2"), range(-1, -13, -1)):
        if rep.betti != DIM2_BETTI[rep.weight]:
            failures.append((rep.weight, rep.betti))
    _finish("dim2 Betti rows w=-1..-12", t0, failures, budget=1.0)


# 2. weighted chain dimensions for three generators

N3_DIMS = {
    -1: (1,),
    -2: (3, 1),
    -3: (3, 3, 1),
    -4: (1, 6, 3, 1),
    -5: (0, 10, 6, 3, 1),
    -6: (0, 9, 11, 6, 3, 1),
}


def test_n3_weighted_chain_dimensions():
    t0 = time.perf_counter()
    failures = []
    for w, expected in N3_DIMS.items():
        got = tuple(chain_dim(3, m, w) for m in range(1, -w + 1))
        if got != expected:
            failures.append((w, got))
    _finish("n=3 chain dimensions w=-1..-6", t0, failures)


# 3. kernel and Betti tables of the five 3-dimensional families

WEIGHTED_TABLES = {
    ("d3", -3): ((3, 0, 1), (0, 0, 1)),
    ("d3", -5): ((0, 10, 3, 0, 1), (0, 7, 0, 0, 1)),
    ("d3", -10): ((0, 0, 6, 32, 11, 7, 4, 3, 0, 1),
                  (0, 0, 0, 16, 0, 0, 1, 0, 0, 1)),
    ("d2y", -3): ((3, 1, 1), (1, 1, 1)),
    ("d2y", -5): ((0, 10, 3, 1, 1), (0, 7, 1, 1, 1)),
    ("d2y", -10): ((0, 0, 6, 33, 12, 8, 5, 3, 1, 1),
                   (0, 0, 1, 18, 2, 2, 2, 1, 1, 1)),
    ("d2n", -3): ((3, 1, 1), (1, 1, 1)),
    ("d2n", -5): ((0, 10, 2, 1, 1), (0, 6, 0, 1, 1)),
    ("d2n", -10): ((0, 0, 6, 32, 11, 7, 4, 2, 1, 1),
                   (0, 0, 0, 16, 0, 0, 0, 0, 1, 1)),
    ("d1y", -3): ((3, 2, 1), (2, 2, 1)),
    ("d1y", -5): ((0, 10, 4, 2, 1), (0, 8, 3, 2, 1)),
    ("d1y", -10): ((0, 0, 6, 35, 16, 11, 7, 4, 2, 1),
                   (0, 0, 3, 24, 9, 7, 5, 3, 2, 1)),
    ("d1n", -3): ((3, 2, 1), (2, 2, 1)),
    ("d1n", -5): ((0, 10, 3, 2, 1), (0, 7, 2, 2, 1)),
    ("d1n", -10): ((0, 0, 6, 32, 12, 8, 5, 3, 2, 1),
                   (0, 0, 0, 17, 2, 2, 2, 2, 2, 1)),
}


def test_3d_family_kernel_and_betti_tables():
    t0 = time.perf_counter()
    failures = []
    for label in FAMILIES:
        spec = catalog(label)
        for w in (-3, -5, -10):
            rep = betti_row(spec, w, name=label)
            kernels, betti = WEIGHTED_TABLES[(label, w)]
            if rep.kernels != kernels or rep.betti != betti:
                failures.append((label, w, rep.kernels, rep.betti))
    _finish("3d family kernel/Betti tables w=-3,-5,-10", t0, failures,
            budget=60.0)


# 4. closed-form n = 3 dimensions against direct enumeration

def test_closed_form_dimension_formula_matches_enumeration():
    t0 = time.perf_counter()
    failures = []
    for w in range(-1, -16, -1):
        for m in range(1, -w + 1):
            formula = chain_dim_formula_n3(m, w)
            counted = chain_dim(3, m, w)
            if formula != counted:
                failures.append((m, w, formula, counted))
    _finish("n=3 dimension formula vs enumeration w=-1..-15", t0, failures)


# 5. structural identities of the differential

def test_differential_structure_is_consistent():
    t0 = time.perf_counter()
    failures = []
    for name in CATALOG:
        spec = catalog(name)
        cx = forms_complex(spec)
        # the boundary squares to zero in every weight w = -1 .. -10
        for w in range(-1, -11, -1):
            for m in range(2, -w + 2):
                prod = cx.boundary_matrix(m - 1, w) @ cx.boundary_matrix(m, w)
                if not prod.is_zero():
                    failures.append(("dd", name, m, w))
        # the pairwise double sum agrees with the left-action recursion
        for w in range(-1, -9, -1):
            for m in range(1, -w + 1):
                oracle = matrix_of(cx, m, w, boundary_via_left_action)
                if cx.boundary_matrix(m, w) != oracle:
                    failures.append(("left-action", name, m, w))
        # exhaustive super Jacobi and graded antisymmetry on the form tokens
        jac = check_system_jacobi(cx)
        if not jac.ok:
            failures.append(("jacobi", name, jac.first_violation))
        for x in cx.tokens:
            gx = cx.grade_of(x)
            for y in cx.tokens:
                res = dict(cx.bracket(x, y))
                sign = (-1) ** (gx * cx.grade_of(y))
                add_into(res, cx.bracket(y, x), sign)
                if res:
                    failures.append(("antisym", name, x, y))
    _finish("dd=0, double sum = left action, Jacobi, antisymmetry",
            t0, failures)


# 6. isomorphic presentations and rescalings give the same homology

def test_isomorphic_and_rescaled_algebras_agree():
    t0 = time.perf_counter()
    failures = []
    so3, sl2r = catalog("so3"), catalog("sl2r")
    for w in range(-1, -11, -1):
        a, b = betti_row(so3, w), betti_row(sl2r, w)
        if a.betti != b.betti:
            failures.append(("sl2r", w, a.betti, b.betti))
    for spec in (so3, sl2r, catalog("dim2")):
        for lam in (F(2), F(-3), F(1, 5)):
            scaled = spec.rescale(lam)
            for w in range(-1, -9, -1):
                a, b = betti_row(spec, w), betti_row(scaled, w)
                if (a.dims, a.ranks, a.betti) != (b.dims, b.ranks, b.betti):
                    failures.append(("rescale", spec.name, lam, w))
    _finish("sl2r = so3 homology; rescaling invariance", t0, failures)


# 7. the extension by invariant vector fields

EXTENDED_SO3_W3 = {
    "dims": (3, 12, 19, 15, 6, 1),
    "ranks": (0, 3, 9, 9, 6, 0),
    "kernels": (3, 9, 10, 6, 0, 1),
    "betti": (0, 0, 1, 0, 0, 1),
}


def test_extended_complexes_euler_and_restriction():
    t0 = time.perf_counter()
    failures = []
    for name in CATALOG:
        spec = catalog(name)
        cx = extended_complex(spec)
        # Euler characteristic vanishes in every weight w = -1 .. -8
        for w in range(-1, -9, -1):
            euler = sum((-1) ** m * cx.dim(m, w)
                        for m in range(1, -w + spec.n + 1))
            if euler != 0:
                failures.append(("euler", name, w, euler))
        # the no-vector sector is exactly the plain form complex
        for w in range(-1, -5, -1):
            for m, row in enumerate(k_split_dims(spec, w), start=1):
                plain = chain_dim(spec, m, w) if m <= -w else 0
                if row[0] != plain:
                    failures.append(("k=0", name, w, m, row[0], plain))
    rep = extended_betti(catalog("so3"), -3)
    got = {"dims": rep.dims, "ranks": rep.ranks,
           "kernels": rep.kernels, "betti": rep.betti}
    if got != EXTENDED_SO3_W3:
        failures.append(("so3 w=-3", got))
    _finish("extended complexes: Euler = 0, k=0 sector, so3 table",
            t0, failures)


# 8. the doubly weighted polynomial complexes, element by element

def _poly_tokens(n, hmax):
    # every monomial form and vector token whose weights satisfy the window
    # primary >= -(1 + n) and secondary <= hmax
    forms = [
        (alpha, A)
        for total in range(hmax + 2)
        for alpha in exponent_tuples(n, total)
        for a in range(n + 1)
        for A in combinations(range(1, n + 1), a)
    ]
    vectors = [
        (alpha, i)
        for total in range(hmax + 2)
        for alpha in exponent_tuples(n, total)
        for i in range(1, n + 1)
    ]
    return forms, vectors


def test_polynomial_complex_element_identities():
    t0 = time.perf_counter()
    failures = []
    for n in (1, 2):
        forms, vectors = _poly_tokens(n, 2)
        # d squares to zero on every monomial form in the window
        for fk in forms:
            if poly_d(poly_d({fk: F(1)})):
                failures.append(("dd", n, fk))
        # both weights add under the bracket, for every kind pairing
        tokens = [monomial_form(*fk) for fk in forms]
        tokens += [monomial_vector(*vk) for vk in vectors]
        for x in tokens:
            wx = double_weight(x)
            for y in tokens:
                br = poly_bracket(x, y)
                if not br:
                    continue
                wy = double_weight(y)
                if double_weight(br) != (wx[0] + wy[0], wx[1] + wy[1]):
                    failures.append(("weights", n, x, y))
        # the Cartan formula agrees with the direct product-rule derivative
        for vk in vectors:
            vec = {vk: F(1)}
            for fk in forms:
                form = {fk: F(1)}
                if lie_derivative(vec, form) != oracle_calculus.lie_direct(vec, form):
                    failures.append(("cartan", n, vk, fk))
    _finish("polynomial complexes: dd=0, weight additivity, Cartan",
            t0, failures)
