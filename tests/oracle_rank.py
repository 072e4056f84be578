"""The sparse Fraction eliminator that exactla.rank used before the column
echelon, kept as a test oracle for it.

Rows are eliminated column by column, left to right; each column pivots on
the live entry with the fewest numerator plus denominator bits.
"""

from fractions import Fraction

from formchains.exactla import SparseRationalMatrix


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
        # Fraction, so that the divisions below stay exact on int entries
        rows.setdefault(r, {})[c] = Fraction(v)
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
