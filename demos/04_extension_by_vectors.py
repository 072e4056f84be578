"""Adjoining invariant vector fields to the form superalgebra.

The invariant vector fields X_1 .. X_n sit in grade 0 and act on forms by
the Lie derivative; among themselves they bracket through the structure
constants.  The enlarged set of tokens still satisfies the super Jacobi
identity (checked exhaustively below), and its weighted complexes have a
striking feature: every Euler characteristic vanishes.  The reason is a
perfect pairing -- wedging with or removing a fixed grade-0 vector token
matches degree m bijectively with degree m+1.

The script prints the extended so3 table at w = -3, splits its dimensions
by the number of vector factors (the k = 0 column is the plain form
complex), and sweeps the Euler characteristics.
"""

from formchains import (
    catalog,
    chain_dim,
    check_extended_jacobi,
    extended_betti,
    extended_complex,
    homology_text,
    k_split_dims,
)

CATALOG = ["so3", "sl2r", "d2(1)", "d2(-1)", "d1n", "d1y", "dim2"]


def main():
    so3 = catalog("so3")
    print(check_extended_jacobi(so3).summary())
    print()

    print(homology_text([extended_betti(so3, -3)]))

    print("so3, w = -3: dimensions split by vector-token count k")
    rows = k_split_dims(so3, -3)
    header = "    m | " + "  ".join(f"k={k}" for k in range(len(rows[0])))
    print(header)
    for m, row in enumerate(rows, start=1):
        print(f"    {m} | " + "  ".join(f"{d:3d}" for d in row))
    plain = [chain_dim(so3, m, -3) for m in (1, 2, 3)]
    print(f"  k=0 column {[r[0] for r in rows[:3]]} = plain dims {plain}")
    print()

    print("Euler characteristics of the extended complexes, w = -1 .. -6:")
    for name in CATALOG:
        spec = catalog(name)
        cx = extended_complex(spec)
        eulers = [
            sum((-1) ** m * cx.dim(m, w)
                for m in range(1, -w + spec.n + 1))
            for w in range(-1, -7, -1)
        ]
        print(f"  {name:7s} {eulers}")


if __name__ == "__main__":
    main()
