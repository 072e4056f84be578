"""Left-invariant differential forms and their super bracket.

A form is a dict mapping basis subsets to rational coefficients: the key
(i1, ..., ia) with i1 < ... < ia stands for sigma^i1 ^ ... ^ sigma^ia, and the
empty key () is the constant function 1.  The exterior derivative is induced
by the structure constants, d sigma^i = -sum_{j<k} c^i_jk sigma^j ^ sigma^k,
and the bracket of an a-form alpha with any form beta is

    [[alpha, beta]] = (-1)^a d(alpha ^ beta),

which makes the invariant forms a Z-graded Lie superalgebra once an a-form is
placed in grade -(1+a).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

Form = dict  # {tuple[int, ...]: Fraction}


def _sign(e: int) -> int:
    return -1 if e % 2 else 1


def zero() -> Form:
    return {}


def basis_form(indices) -> Form:
    """The basis monomial sigma^{i1} ^ ... (indices strictly increasing)."""
    t = tuple(indices)
    if any(t[s] >= t[s + 1] for s in range(len(t) - 1)):
        raise ValueError(f"basis indices must be strictly increasing, got {t}")
    return {t: Fraction(1)}


def one() -> Form:
    return {(): Fraction(1)}


def sigma(i: int) -> Form:
    return {(i,): Fraction(1)}


def grade(subset) -> int:
    """Super grade of an a-form: -(1 + a)."""
    return -(1 + len(subset))


def all_subsets(n: int):
    """Every basis subset of {1..n} by length then lexicographically."""
    for a in range(n + 1):
        yield from combinations(range(1, n + 1), a)


def add_term(acc: dict, key, val) -> None:
    """acc[key] += val, dropping the key when the sum is exactly zero."""
    v = acc.get(key, Fraction(0)) + val
    if v:
        acc[key] = v
    else:
        acc.pop(key, None)


def add_into(acc: Form, other: Form, factor=1) -> None:
    f = Fraction(factor)
    for key, v in other.items():
        add_term(acc, key, v * f)


def _merge(a: tuple, b: tuple):
    """Merge two increasing index tuples; returns (sign, merged) or (0, None)."""
    if set(a) & set(b):
        return 0, None
    merged = []
    sign = 1
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] < b[j]:
            merged.append(a[i])
            i += 1
        else:
            # b[j] jumps over the remaining len(a)-i one-forms
            merged.append(b[j])
            sign *= _sign(len(a) - i)
            j += 1
    merged.extend(a[i:])
    merged.extend(b[j:])
    return sign, tuple(merged)


def wedge(f: Form, g: Form) -> Form:
    out: Form = {}
    for ka, va in f.items():
        for kb, vb in g.items():
            s, merged = _merge(ka, kb)
            if s:
                add_term(out, merged, s * va * vb)
    return out


def d_sigma(i: int, spec) -> Form:
    """d sigma^i = -sum_{j<k} c^i_jk sigma^j ^ sigma^k."""
    out: Form = {}
    for j in range(1, spec.n + 1):
        for k in range(j + 1, spec.n + 1):
            v = spec.structure_constant(j, k, i)
            if v:
                out[(j, k)] = -v
    return out


def ext_d(f: Form, spec) -> Form:
    """Exterior derivative, term by term via the Leibniz rule."""
    out: Form = {}
    for key, v in f.items():
        for t in range(len(key)):
            # sigma^{key[:t]} ^ d sigma^{key[t]} ^ sigma^{key[t+1:]}
            piece = wedge(
                {key[:t]: Fraction(1)},
                wedge(d_sigma(key[t], spec), {key[t + 1:]: Fraction(1)}),
            )
            add_into(out, piece, v * _sign(t))
    return out


def super_bracket(f: Form, g: Form, spec) -> Form:
    """[[alpha, beta]] = (-1)^deg(alpha) d(alpha ^ beta), extended bilinearly."""
    out: Form = {}
    for ka, va in f.items():
        term = {ka: va}
        piece = ext_d(wedge(term, g), spec)
        add_into(out, piece, _sign(len(ka)))
    return out


def interior(i: int, f: Form) -> Form:
    """Contraction with the frame vector xi_i (so <sigma^j, xi_i> = delta^j_i)."""
    out: Form = {}
    for key, v in f.items():
        for t, idx in enumerate(key):
            if idx == i:
                add_term(out, key[:t] + key[t + 1:], v * _sign(t))
                break  # indices are distinct; xi_i matches at most once
    return out


def bracket_table(spec) -> dict:
    """[[sigma^A, sigma^B]] for every pair of basis subsets (zero forms kept)."""
    subsets = list(all_subsets(spec.n))
    return {
        (a, b): super_bracket({a: Fraction(1)}, {b: Fraction(1)}, spec)
        for a in subsets
        for b in subsets
    }
