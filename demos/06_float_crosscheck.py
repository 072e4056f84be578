"""Cross-checking exact boundary ranks against floating-point SVD.

Every rank in this package is computed by sparse Gaussian elimination over
Q in exact Fraction arithmetic, so there is no numerical tolerance anywhere
in the library.  As an external sanity check, this script rebuilds a sweep
of boundary matrices as dense float arrays and counts singular values above
a tolerance.  The two rank computations agree on every matrix tested; the
exact one remains authoritative (an SVD threshold can misjudge an
ill-conditioned matrix, exact elimination cannot).

numpy is optional for the library; if it is missing the script just says
so and exits cleanly.
"""

from formchains import catalog, exactla, forms_complex

try:
    import numpy as np
except ImportError:  # keep the library dependency-free
    np = None


def float_rank(mat, tol=1e-9):
    if mat.nrows == 0 or mat.ncols == 0 or mat.is_zero():
        return 0
    dense = np.zeros((mat.nrows, mat.ncols))
    for (r, c), v in mat.entries.items():
        dense[r, c] = float(v)
    return int(np.sum(np.linalg.svd(dense, compute_uv=False) > tol))


def main():
    if np is None:
        print("numpy not installed; skipping the floating-point cross-check")
        return

    checked = mismatches = 0
    for name in ("so3", "sl2r", "d2(1)", "d2(-1)", "d1n", "d1y", "dim2"):
        cx = forms_complex(catalog(name))
        for w in range(-1, -9, -1):
            for m in range(1, -w + 1):
                mat = cx.boundary_matrix(m, w)
                exact = exactla.rank(mat)
                approx = float_rank(mat)
                checked += 1
                if exact != approx:
                    mismatches += 1
                    print(f"  {name} w={w} m={m}: exact {exact}, svd {approx}")
    print(f"{checked} boundary matrices compared, {mismatches} disagreements")


if __name__ == "__main__":
    main()
