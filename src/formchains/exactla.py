"""Exact linear algebra over Q for sparse boundary matrices.

Matrices hold exact rationals: int when integral, Fraction otherwise.  rank
brings the columns to echelon form one at a time, each new column reduced
against the pivot columns kept so far, with no pivot search.  It works on
integer columns, fraction free: each column is scaled once to integers, every
step multiplies it by a nonzero integer before subtracting a pivot multiple,
and kept pivots are primitive (the gcd of their entries is 1).  No floating
point or modular arithmetic is used, so ranks and kernel dimensions are exact
over Q.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class SparseRationalMatrix:
    """An nrows x ncols matrix over Q stored as {(row, col): value}, each value
    an exact rational: int when integral, Fraction otherwise."""

    def __init__(self, nrows: int, ncols: int, entries=None):
        if nrows < 0 or ncols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.nrows = nrows
        self.ncols = ncols
        self.entries: dict[tuple[int, int], int | Fraction] = {}
        if entries:
            items = entries.items() if hasattr(entries, "items") else entries
            for (r, c), v in items:
                self.add(r, c, v)

    def add(self, r: int, c: int, v) -> None:
        """Accumulate v into entry (r, c), dropping exact zeros; an int or
        Fraction v is kept as it is, any other v is read as Fraction(v)."""
        w = self[r, c] + (v if isinstance(v, (int, Fraction)) else Fraction(v))
        if w:
            self.entries[(r, c)] = w
        else:
            self.entries.pop((r, c), None)

    def __getitem__(self, rc) -> int | Fraction:
        r, c = rc
        if not (0 <= r < self.nrows and 0 <= c < self.ncols):
            raise IndexError(f"entry ({r}, {c}) outside {self.nrows}x{self.ncols}")
        return self.entries.get(rc, 0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseRationalMatrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.entries == other.entries
        )

    def is_zero(self) -> bool:
        return not self.entries

    def __matmul__(self, other: "SparseRationalMatrix") -> "SparseRationalMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        # column index of self == row index of other
        by_row: dict[int, list[tuple[int, int | Fraction]]] = {}
        for (r, c), v in other.entries.items():
            by_row.setdefault(r, []).append((c, v))
        out = SparseRationalMatrix(self.nrows, other.ncols)
        for (r, k), v in self.entries.items():
            for c, w in by_row.get(k, ()):
                out.add(r, c, v * w)
        return out

    def __repr__(self) -> str:
        return f"SparseRationalMatrix({self.nrows}x{self.ncols}, {len(self.entries)} entries)"


def rank(mat: SparseRationalMatrix) -> int:
    """Exact rank over Q: column echelon by insertion, columns in index order.

    Each column is scaled once to integers by the lcm of its denominators,
    then reduced at its lowest live row (the smallest row index with a
    nonzero entry) by the kept pivot column whose lowest row that is, until
    it is zero or its lowest row has no pivot yet; then it is divided by the
    gcd of its entries and kept as that row's pivot.  A step is fraction
    free: with a = col[low] and b = pivot[low] divided by their gcd, col
    becomes b*col - a*pivot, a nonzero multiple of col plus a multiple of a
    pivot.  So a column reduces to zero exactly when it is a combination of
    the kept pivots, which are independent because their lowest rows
    differ: the rank is the pivot count.
    """
    cols: dict[int, dict] = {}  # int or Fraction entries until the column's turn
    for (r, c), v in mat.entries.items():
        cols.setdefault(c, {})[r] = v
    pivots: dict[int, dict[int, int]] = {}  # lowest row -> primitive pivot column
    for c in sorted(cols):
        col = cols[c]
        scale = lcm(*(v.denominator for v in col.values()))
        for r, v in col.items():
            col[r] = v.numerator * (scale // v.denominator)
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
    return len(pivots)


def kernel_dim(mat: SparseRationalMatrix) -> int:
    """dim ker = ncols - rank (columns are the domain basis)."""
    return mat.ncols - rank(mat)
