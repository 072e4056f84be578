"""Exact linear algebra over Q for sparse boundary matrices.

Matrices hold exact rationals: int when integral, Fraction otherwise, stored
by column, the way boundaries are built and eliminated.  echelon brings the
columns to echelon form sparsest first, ties in index order, each new column
reduced against the pivot columns kept so far, and returns the pivots; rank
counts them.  There is no pivot search: a sparse pivot kept early carries
little fill into the columns reduced against it (Markowitz 1957).  It works
on integer columns, fraction free: each column is brought once to integers,
every step multiplies it by a nonzero integer before subtracting a pivot
multiple, and kept pivots are primitive (the gcd of their entries is 1).  No
floating point or modular arithmetic is used, so ranks and kernel dimensions
are exact over Q.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class SparseRationalMatrix:
    """An nrows x ncols matrix over Q stored as cols, one {row: value} dict
    per column, each value an exact rational: int when integral, Fraction
    otherwise.  entries is a {(row, col): value} view, built when read."""

    def __init__(self, nrows: int, ncols: int, entries=None):
        if nrows < 0 or ncols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.nrows = nrows
        self.ncols = ncols
        self.cols: list[dict[int, int | Fraction]] = [{} for _ in range(ncols)]
        if entries:
            items = entries.items() if hasattr(entries, "items") else entries
            for (r, c), v in items:
                self.add(r, c, v)

    @classmethod
    def from_columns(cls, nrows, cols):
        """Adopt cols, {row < nrows: nonzero int or Fraction} dicts, as columns."""
        mat = cls(nrows, 0)
        mat.ncols, mat.cols = len(cols), cols
        return mat

    @property
    def entries(self) -> dict[tuple[int, int], int | Fraction]:
        return {(r, c): v for c, col in enumerate(self.cols) for r, v in col.items()}

    def add(self, r: int, c: int, v) -> None:
        """Accumulate v into entry (r, c), dropping exact zeros; an int or
        Fraction v is kept as it is, any other v is read as Fraction(v)."""
        w = self[r, c] + (v if isinstance(v, (int, Fraction)) else Fraction(v))
        if w:
            self.cols[c][r] = w
        else:
            self.cols[c].pop(r, None)

    def __getitem__(self, rc) -> int | Fraction:
        r, c = rc
        if not (0 <= r < self.nrows and 0 <= c < self.ncols):
            raise IndexError(f"entry ({r}, {c}) outside {self.nrows}x{self.ncols}")
        return self.cols[c].get(r, 0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseRationalMatrix)
            and self.nrows == other.nrows
            and self.cols == other.cols
        )

    def is_zero(self) -> bool:
        return not any(self.cols)

    def __matmul__(self, other: "SparseRationalMatrix") -> "SparseRationalMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        # column c of the product: the sum over k of other[k, c] * column k of self
        out = SparseRationalMatrix(self.nrows, other.ncols)
        for c, col in enumerate(other.cols):
            for k, w in col.items():
                for r, v in self.cols[k].items():
                    out.add(r, c, v * w)
        return out

    def __repr__(self) -> str:
        nnz = sum(map(len, self.cols))
        return f"SparseRationalMatrix({self.nrows}x{self.ncols}, {nnz} entries)"


def echelon(mat: SparseRationalMatrix) -> dict[int, dict[int, int]]:
    """Column echelon form over Q by insertion, sparsest column first, as
    {lowest row: primitive pivot column}, each column a {row: int} dict.

    Columns go by nonzero count, ties in index order (the order changes the
    fill, not the rank); mat is not changed.  A column of int entries is
    copied as it is: it shares its int objects with mat, where scaling by 1
    would allocate new ints and raise the peak memory.  Any other
    column is scaled once to integers by the lcm of its denominators.  The
    column is then reduced at its lowest live row (the smallest row index
    with a nonzero entry) by the kept pivot column whose lowest row that is,
    until it is zero or its lowest row has no pivot yet; then it is divided
    by the gcd of its entries and kept as that row's pivot.  A step is
    fraction free: with a = col[low] and b = pivot[low] divided by their gcd,
    col becomes b*col - a*pivot, a nonzero multiple of col plus a multiple
    of a pivot.  So a column reduces to zero exactly when it is a
    combination of the kept pivots, which are independent because their
    lowest rows differ: the pivot count is the rank.  Each pivot is a vector
    of the column space of mat, nonzero at its lowest row.
    """
    pivots: dict[int, dict[int, int]] = {}  # lowest row -> primitive pivot column
    for given in sorted(mat.cols, key=len):
        if all(type(v) is int for v in given.values()):
            col = dict(given)
        else:
            scale = lcm(*(v.denominator for v in given.values()))
            col = {r: v.numerator * (scale // v.denominator) for r, v in given.items()}
        while col:
            low = min(col)
            pivot = pivots.get(low)
            if pivot is None:
                # primitive, with a positive lowest entry, so every b below is > 0
                g = gcd(*col.values())
                if col[low] < 0:
                    g = -g
                if g != 1:
                    for r, v in col.items():
                        col[r] = v // g
                pivots[low] = col
                break
            a, b = col[low], pivot[low]
            g = gcd(a, b)
            a, b = a // g, b // g
            if b != 1:
                for r, v in col.items():
                    col[r] = b * v
            for r, v in pivot.items():
                w = col.get(r, 0) - a * v
                if w:
                    col[r] = w
                else:
                    del col[r]
    return pivots


def rank(mat: SparseRationalMatrix) -> int:
    """Exact rank over Q: the number of pivots echelon keeps."""
    return len(echelon(mat))


def kernel_dim(mat: SparseRationalMatrix) -> int:
    """dim ker = ncols - rank (columns are the domain basis)."""
    return mat.ncols - rank(mat)
