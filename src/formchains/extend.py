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

Also here: the "trivially long" glueing of a negative-graded complex with a
non-negative one (zero cross bracket), which is how multivectors sit next to
forms without any interaction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .forms import _merge, _sign, add_into, add_term, super_bracket
from .homology import complex_homology
from .superchain import Level, WeightedComplex, form_levels


def lie_derivative(i, f, spec):
    """L_{xi_i} applied to a form (dict subset -> coefficient).

    L is an even derivation: it replaces one 1-form slot at a time with
    L_{xi_i} sigma^a = -sum_k c^a_{ik} sigma^k, no position signs.
    """
    out = {}
    for subset, cf in f.items():
        for t, a in enumerate(subset):
            rest = subset[:t] + subset[t + 1:]
            for k in range(1, spec.n + 1):
                c = spec.structure_constant(i, k, a)   # c^a_{ik}
                if not c:
                    continue
                # k moves from slot t to the front, then merges into the rest
                s, srt = _merge((k,), rest)
                if s:
                    add_term(out, srt, -cf * c * s * _sign(t))
    return out


def extended_bracket(x, y, spec):
    """Bracket of two extended basis tokens, as dict token -> coefficient."""
    (tx, px), (ty, py) = x, y
    if tx == "v" and ty == "v":
        return {("v", k): c for k, c in spec.bracket(px, py).items()}
    if tx == "v" and ty == "f":
        return {("f", s): c
                for s, c in lie_derivative(px, {py: Fraction(1)}, spec).items()}
    if tx == "f" and ty == "v":
        return {("f", s): -c
                for s, c in lie_derivative(py, {px: Fraction(1)}, spec).items()}
    return {("f", s): c
            for s, c in super_bracket({px: Fraction(1)},
                                      {py: Fraction(1)}, spec).items()}


def extended_complex(spec, cap=None):
    """The vector fields ("v", i) at grade 0 above the forms ("f", subset).

    levels[0] holds the vectors; the rest are the form levels, tagged.
    """
    vectors = Level(0, (0,), tuple(("v", i) for i in range(1, spec.n + 1)))
    tagged = [Level(lv.grade, lv.weight, tuple(("f", s) for s in lv.tokens))
              for lv in form_levels(spec.n)]
    return WeightedComplex([vectors] + tagged,
                           lambda a, b: extended_bracket(a, b, spec), cap)


def extended_betti(spec, w, cap=None):
    """Homology report of the extended complex, degrees m = 1 .. -w + n."""
    if w >= 0:
        raise ValueError("weight must be negative")
    return complex_homology(extended_complex(spec, cap=cap), w, -w + spec.n,
                            (spec.name or "?") + "+T")


def k_split_dims(spec, w, cap=None):
    """Per degree m, how C_m^w splits by the number k of vector factors."""
    cx = extended_complex(spec, cap=cap)
    out = []
    for m in range(1, -w + spec.n + 1):
        counts = [0] * (spec.n + 1)
        for mono in cx.basis(m, w):
            counts[sum(1 for t in mono if t[0] == "v")] += 1
        out.append(tuple(counts))
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
        return (f"super Jacobi FAILS at {self.first_violation} "
                f"(residual {self.residual}), {self.checked} triples checked")


def check_system_jacobi(cx):
    """Exhaustive super Jacobi over all basis-token triples of a complex."""
    br = cx.bracket
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
                    add_into(res, _bilinear(br, fa, {b: Fraction(1)}), sign)
                if res:
                    return JacobiReport(False, checked, (x, y, z), res)
    return JacobiReport(True, checked)


def check_extended_jacobi(spec):
    """Super Jacobi of the one-step extension, exhaustive on basis triples."""
    return check_system_jacobi(extended_complex(spec))


# --- trivially long composites -----------------------------------------------------

def multivector_system(n):
    """Wedge powers of vector fields, grade of a j-vector is j - 1, j >= 1.

    The bracket is identically zero: a stand-in occupying the non-negative
    grades, to be glued below a form complex.
    """
    levels = [Level(j - 1, j - 1,
                    tuple(("mv", c) for c in combinations(range(1, n + 1), j)))
              for j in range(1, n + 1)]
    return WeightedComplex(levels, lambda a, b: {})


def trivially_long(neg, pos):
    """Glue a negative-graded complex under a non-negative one, zero cross bracket.

    Both inputs keep their own brackets; any pair straddling the two sides
    brackets to zero.  Raises if the complexes' grades overlap the wrong half
    or share a token name.
    """
    if any(g >= 0 for g in neg.grades.values()):
        raise ValueError("negative-side complex occupies grade >= 0")
    if any(g < 0 for g in pos.grades.values()):
        raise ValueError("non-negative-side complex occupies grade < 0")
    if set(neg.grades) & set(pos.grades):
        raise ValueError("token names collide between the two complexes")

    def bracket(a, b):
        for side in (neg, pos):
            if a in side.grades and b in side.grades:
                return side.bracket(a, b)
        return {}

    levels = sorted(neg.levels + pos.levels, key=lambda lv: -lv.grade)
    return WeightedComplex(levels, bracket)
