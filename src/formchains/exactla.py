"""Exact linear algebra over Q for sparse boundary matrices.

Everything here is arbitrary-precision rational (fractions.Fraction); no
floating point is ever introduced, so ranks and kernel dimensions are exact.
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


def _bitlen(v: Fraction) -> int:
    # pivot-size measure: total bit length of numerator and denominator
    return abs(v.numerator).bit_length() + v.denominator.bit_length()


def rank(mat: SparseRationalMatrix) -> int:
    """Exact rank over Q: sparse Gaussian elimination, columns left to right.

    Each column pivots on its live entry with the fewest numerator plus
    denominator bits, first row on ties.
    """
    rows: dict[int, dict[int, Fraction]] = {}
    cols_of: dict[int, set[int]] = {}
    for (r, c), v in mat.entries.items():
        rows.setdefault(r, {})[c] = v
        cols_of.setdefault(c, set()).add(r)
    pivots = 0
    for col in sorted(cols_of):
        live = [r for r in cols_of[col] if r in rows and col in rows[r]]
        if not live:
            continue
        live.sort()
        piv_row = min(live, key=lambda r: (_bitlen(rows[r][col]), r))
        piv_val = rows[piv_row][col]
        pivot = rows.pop(piv_row)
        for r in live:
            if r == piv_row:
                continue
            factor = rows[r][col] / piv_val
            target = rows[r]
            for c2, v2 in pivot.items():
                w = target.get(c2, Fraction(0)) - factor * v2
                if w:
                    target[c2] = w
                    if c2 != col:
                        cols_of.setdefault(c2, set()).add(r)
                else:
                    target.pop(c2, None)
            if not target:
                del rows[r]
        pivots += 1
    return pivots


def kernel_dim(mat: SparseRationalMatrix) -> int:
    """dim ker = ncols - rank (columns are the domain basis)."""
    return mat.ncols - rank(mat)
