"""The term calculus that formchains computed with before, and a direct
evaluation of the Lie derivative, kept as test oracles.

merge is the sign-tracking merge of two increasing index tuples that
forms._merge replaced with an inversion count and a sort.  lie_direct
evaluates L_X on polynomial forms by the product rule,
L_X(G dx^A) = X(G) dx^A + G sum over slots of dx^A with dx_i replaced by dF
when X = F d/dx_i, so it shares no code path with Cartan's formula
i_X d + d i_X beyond d and the wedge.
"""

from fractions import Fraction

from formchains.forms import _sign, add_into
from formchains.polyforms import poly_d, poly_wedge


def merge(a, b):
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


def lie_direct(vec, omega):
    """L_X omega by the product rule, term by term in X and omega."""
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
                    mid = poly_d({(al, ()): Fraction(1)})
                    right = {((0,) * len(al), A[t + 1:]): Fraction(1)}
                    add_into(out, poly_wedge(left, poly_wedge(mid, right)))
    return out
