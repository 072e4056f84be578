"""Doubly weighted complexes of polynomial forms on R^n.

Polynomial differential forms x^alpha dx^A carry two weights: the primary
one -(1 + |A|) from the form degree and a secondary one |alpha| - 1 from
the polynomial degree.  The bracket adds both, so for each pair (w, h)
there is a finite-dimensional chain complex.  Polynomial vector fields
x^alpha d/dx_i join at primary weight 0, and as in the invariant-form
extension their presence kills every Euler characteristic: the constant
field x_1 d/dx_1 has weight (0, 0) and toggling it pairs the degrees.

The script prints small bases, applies d to a sample form, and tabulates
homology across a (w, h) window with and without vector fields.
"""

from formchains import (
    double_weight_basis,
    double_weight_betti,
    homology_text,
    monomial_form,
    poly_d,
)
from formchains.superchain import format_monomial


def token_str(key):
    alpha, tail = key
    head = "".join(f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}"
                   for i, e in enumerate(alpha) if e)
    if isinstance(tail, int):
        return (head or "1") + f" d/dx{tail}"
    wedge = "".join(f"dx{i}" for i in tail)
    return (head + wedge) or "1"


def main():
    # d(x1 x2 dx1): only the x2 exponent contributes, dx1^dx1 collapsing
    f = monomial_form((1, 1), (1,))
    image = poly_d(f)
    print("d(x1 x2 dx1) =",
          " + ".join(f"{v} * {token_str(k)}" for k, v in image.items()))
    print()

    print("basis of the (w, h) = (-3, 0) complex on R^2, by degree m:")
    for m in (1, 2, 3):
        basis = double_weight_basis(m, -3, 0, 2)
        names = [format_monomial(mono, token_str) for mono in basis]
        shown = ", ".join(names[:4]) + (", ..." if len(names) > 4 else "")
        print(f"  m = {m}: dim {len(names):2d}   {shown}")
    print()

    print(homology_text([double_weight_betti(-2, 0, 1)]))

    print("pure forms on R^1, Euler characteristics over a (w, h) window:")
    hdr = "      " + "".join(f"h={h:+d}  " for h in range(-2, 3))
    print(hdr)
    for w in range(-1, -5, -1):
        cells = []
        for h in range(-2, 3):
            rep = double_weight_betti(w, h, 1)
            cells.append(f"{rep.euler:4d}  ")
        print(f"  w={w} " + "".join(cells))
    print()

    print("with vector fields every Euler characteristic vanishes:")
    for w in (-1, -2):
        rep = double_weight_betti(w, 0, 1, include_vectors=True)
        print(f"  w={w}, h=0: dims {list(rep.dims)}, Euler {rep.euler}")


if __name__ == "__main__":
    main()
