"""Exact linear algebra over Q for sparse boundary matrices.

Everything here is arbitrary-precision rational (fractions.Fraction); no
floating point is ever introduced, so ranks and kernel dimensions are exact.
rank brings the columns to echelon form one at a time: each new column is
reduced against the pivot columns kept so far, with no pivot search.
"""

from __future__ import annotations

from fractions import Fraction


class SparseRationalMatrix:
    """An nrows x ncols matrix over Q stored as {(row, col): Fraction}."""

    def __init__(self, nrows: int, ncols: int, entries=None):
        if nrows < 0 or ncols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.nrows = nrows
        self.ncols = ncols
        self.entries: dict[tuple[int, int], Fraction] = {}
        if entries:
            items = entries.items() if hasattr(entries, "items") else entries
            for (r, c), v in items:
                self.add(r, c, v)

    def add(self, r: int, c: int, v) -> None:
        """Accumulate v into entry (r, c), dropping exact zeros."""
        if not (0 <= r < self.nrows and 0 <= c < self.ncols):
            raise IndexError(f"entry ({r}, {c}) outside {self.nrows}x{self.ncols}")
        w = self.entries.get((r, c), Fraction(0)) + Fraction(v)
        if w:
            self.entries[(r, c)] = w
        else:
            self.entries.pop((r, c), None)

    def __getitem__(self, rc) -> Fraction:
        return self.entries.get(rc, Fraction(0))

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
        by_row: dict[int, list[tuple[int, Fraction]]] = {}
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

    Each column is reduced at its lowest live row (the smallest row index
    with a nonzero entry) by the kept pivot column whose lowest row that is,
    until it is zero or its lowest row has no pivot yet; then it is kept as
    that row's pivot.  Kept pivots have distinct lowest rows, so they are
    independent, and a column reduced to zero is a combination of them: the
    rank is the pivot count.
    """
    cols: dict[int, dict[int, Fraction]] = {}
    for (r, c), v in mat.entries.items():
        cols.setdefault(c, {})[r] = v
    pivots: dict[int, dict[int, Fraction]] = {}  # lowest row -> pivot column
    for c in sorted(cols):
        col = cols[c]
        while col:
            low = min(col)
            pivot = pivots.get(low)
            if pivot is None:
                pivots[low] = col
                break
            factor = col[low] / pivot[low]
            for r, v in pivot.items():
                w = col.get(r, 0) - factor * v
                if w:
                    col[r] = w
                else:
                    del col[r]
    return len(pivots)


def kernel_dim(mat: SparseRationalMatrix) -> int:
    """dim ker = ncols - rank (columns are the domain basis)."""
    return mat.ncols - rank(mat)
