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

Form = dict  # {tuple[int, ...]: exact rational, int when integral, Fraction otherwise}


def _sign(e: int) -> int:
    return -1 if e % 2 else 1


def basis_form(indices) -> Form:
    """The basis monomial sigma^{i1} ^ ... (indices strictly increasing)."""
    t = tuple(indices)
    if any(t[s] >= t[s + 1] for s in range(len(t) - 1)):
        raise ValueError(f"basis indices must be strictly increasing, got {t}")
    return {t: 1}


def one() -> Form:
    return {(): 1}


def sigma(i: int) -> Form:
    return {(i,): 1}


def grade(subset) -> int:
    """Super grade of an a-form: -(1 + a)."""
    return -(1 + len(subset))


def add_term(acc: dict, key, val) -> None:
    """acc[key] += val, dropping the key when the sum is exactly zero."""
    v = acc.get(key, 0) + val
    if v:
        acc[key] = v
    else:
        acc.pop(key, None)


def add_into(acc: Form, other: Form, factor=1) -> None:
    for key, v in other.items():
        add_term(acc, key, v * factor)


def _merge(a: tuple, b: tuple):
    """Merge two increasing index tuples; returns (sign, merged) or (0, None).

    The sign is that of the shuffle, (-1)^(inversions): one inversion for
    each pair x in a, y in b with x > y, where y moves past x to its slot.
    """
    if set(a) & set(b):
        return 0, None
    return _sign(sum(x > y for x in a for y in b)), tuple(sorted(a + b))


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
                {key[:t]: 1},
                wedge(d_sigma(key[t], spec), {key[t + 1:]: 1}),
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
        if i in key:  # indices are distinct: at most one slot matches
            t = key.index(i)
            add_term(out, key[:t] + key[t + 1:], v * _sign(t))
    return out
