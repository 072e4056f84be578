"""One-step extension: invariant vector fields joined to the form superalgebra.

The invariant vector fields xi_i sit at grade 0 and act on invariant forms
by Lie derivative,

    [[X, Y]]  = Lie bracket          (two vectors)
    [[X, a]]  = L_X a                (vector, form)
    [[a, X]]  = -L_X a               (form, vector)
    [[a, b]]  = (-1)^deg(a) d(a^b)   (two forms)

with L_{xi_i} sigma^j pinned down by <L_{xi_i} sigma^j, xi_k> = -c^j_{ik}
and the Leibniz rule.  Chain spaces pick up wedge factors of vectors, which
add degree but no weight, so the extended C_m^w decomposes by the number k
of vector factors and dies above m = -w + n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import comb

from .forms import add_into, ext_d, interior, super_bracket
from .homology import complex_homology
from .superchain import Level, WeightedComplex, form_levels


def lie_derivative(i, f, spec):
    """L_{xi_i} applied to a form (dict subset -> coefficient), by Cartan's
    formula i_{xi_i}(d f) + d(i_{xi_i} f)."""
    out = interior(i, ext_d(f, spec))
    add_into(out, ext_d(interior(i, f), spec))
    return out


def extended_bracket(x, y, spec):
    """Bracket of two extended basis tokens, as dict token -> coefficient."""
    (tx, px), (ty, py) = x, y
    if tx == "v" and ty == "v":
        return {("v", k): c for k, c in spec.bracket(px, py).items()}
    if tx == "v" and ty == "f":
        return {("f", s): c for s, c in lie_derivative(px, {py: 1}, spec).items()}
    if tx == "f" and ty == "v":
        return {("f", s): -c for s, c in lie_derivative(py, {px: 1}, spec).items()}
    return {("f", s): c for s, c in super_bracket({px: 1}, {py: 1}, spec).items()}


def extended_complex(spec, cap=None):
    """The vector fields ("v", i) at grade 0 above the forms ("f", subset).

    levels[0] holds the vectors; the rest are the form levels, tagged.
    """
    return _extended_complex(spec, None, cap)


def _extended_complex(spec, w, cap):
    """extended_complex on the form levels that occur at weight w (all if w is None)."""
    vectors = Level(0, (0,), tuple(("v", i) for i in range(1, spec.n + 1)))
    tagged = [Level(lv.grade, lv.weight, tuple(("f", s) for s in lv.tokens))
              for lv in form_levels(spec.n, w)]
    return WeightedComplex([vectors] + tagged,
                           lambda a, b: extended_bracket(a, b, spec), cap)


def extended_betti(spec, w, cap=None):
    """Homology report of the extended complex, degrees m = 1 .. -w + n."""
    if w >= 0:
        raise ValueError("weight must be negative")
    return complex_homology(_extended_complex(spec, w, cap), w, -w + spec.n,
                            (spec.name or "?") + "+T")


def k_split_dims(spec, w, cap=None):
    """Per degree m, C_m^w split by the number k of vectors: C(n, k) dim C_{m-k}^w."""
    cx, forms = _extended_complex(spec, w, cap), WeightedComplex(form_levels(spec.n, w), None)
    out = []
    for m in range(1, -w + spec.n + 1):
        cx.dim(m, w)  # the cap applies to the whole C_m^w
        out.append(tuple(comb(spec.n, k) * forms.dim(m - k, w) for k in range(spec.n + 1)))
    return out


# --- super Jacobi over a complex's tokens -----------------------------------------

def _bilinear(table_bracket, fx, fy):
    out = {}
    for x, cx in fx.items():
        for y, cy in fy.items():
            add_into(out, table_bracket(x, y), cx * cy)
    return out


@dataclass(frozen=True)
class JacobiReport:
    ok: bool
    checked: int
    first_violation: tuple = None   # (x, y, z) tokens
    residual: dict = None           # leftover combination

    def summary(self):
        if self.ok:
            return f"super Jacobi holds on {self.checked} basis triples"
        residual = ", ".join(f"{key}: {v}" for key, v in self.residual.items())
        return (f"super Jacobi FAILS at {self.first_violation} "
                f"(residual {{{residual}}}), {self.checked} triples checked")


def check_system_jacobi(cx):
    """Exhaustive super Jacobi over all basis-token triples of a complex,
    each ordered pair bracketed once."""
    br = cache(cx.bracket)
    toks = cx.tokens
    checked = 0
    for x in toks:
        gx = cx.grade_of(x)
        for y in toks:
            gy = cx.grade_of(y)
            for z in toks:
                gz = cx.grade_of(z)
                checked += 1
                res = {}
                for sign, fa, b in (
                    ((-1) ** (gx * gz), br(x, y), z),
                    ((-1) ** (gy * gx), br(y, z), x),
                    ((-1) ** (gz * gy), br(z, x), y),
                ):
                    add_into(res, _bilinear(br, fa, {b: 1}), sign)
                if res:
                    return JacobiReport(False, checked, (x, y, z), res)
    return JacobiReport(True, checked)


def check_extended_jacobi(spec):
    """Super Jacobi of the one-step extension, exhaustive on basis triples."""
    return check_system_jacobi(extended_complex(spec))
