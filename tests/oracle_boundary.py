"""The boundaries that formchains assembled with before, kept as test
oracles for superchain, all on flat canonical product tuples.

boundary_by_sorting is the sorting boundary: normalize re-sorts a whole
factor sequence by insertion sort, so it accepts any factor order,
canonical or not.  boundary_by_insertion is the position-pair boundary that
followed it: one bracket call per pair i < j, each term inserted into the
canonical rest by _insert.  boundary_of_monomial is the run-pair boundary
that followed that: one bracket call per pair of runs of equal factors.
WeightedComplex.boundary_matrix computes the same sums on run keys.
boundary_via_left_action is the independent left-action recursion.
matrix_of builds a boundary matrix from any of them and the flat bases.
"""

from bisect import bisect_left
from functools import cache

from formchains.exactla import SparseRationalMatrix
from formchains.forms import _sign, add_term


def _key(token, grade_of):
    return (-grade_of(token), token)


def normalize(factors, grade_of):
    """Sort factors canonically; returns (sign, monomial) or (0, None).

    The sign tracks the super-exterior transpositions; a repeated even-grade
    factor kills the monomial.
    """
    fac = list(factors)
    sign = 1
    # insertion sort: short sequences, and we need every adjacent swap's sign
    for i in range(1, len(fac)):
        j = i
        while j > 0 and _key(fac[j - 1], grade_of) > _key(fac[j], grade_of):
            x = grade_of(fac[j - 1]) % 2
            y = grade_of(fac[j]) % 2
            if not (x and y):
                sign = -sign  # even factors anticommute with everything
            fac[j - 1], fac[j] = fac[j], fac[j - 1]
            j -= 1
    for s in range(len(fac) - 1):
        if fac[s] == fac[s + 1] and grade_of(fac[s]) % 2 == 0:
            return 0, None
    return sign, tuple(fac)


def boundary_by_sorting(mono, grade_of, bracket) -> dict:
    """All pairwise bracket insertions, as {canonical monomial: coefficient}."""
    out: dict = {}
    par = [grade_of(t) % 2 for t in mono]
    m = len(mono)
    for i in range(m):
        for j in range(i + 1, m):
            br = bracket(mono[i], mono[j])
            if not br:
                continue
            e = i + par[i] * sum(par[i + 1: j])
            for tok, cf in br.items():
                seq = mono[:i] + mono[i + 1: j] + (tok,) + mono[j + 1:]
                s, canon = normalize(seq, grade_of)
                if s:
                    add_term(out, canon, _sign(e) * s * cf)
    return out


def _insert(rest, pos, tok, grade_of):
    """Move tok, standing at index pos of the canonical sequence rest, to its
    canonical slot; returns (sign, monomial) or (0, None).

    Crossing a factor flips the sign unless both are odd; an even tok that
    meets its equal kills the product.
    """
    g = grade_of(tok)
    k = bisect_left(rest, (-g, tok), key=lambda t: (-grade_of(t), t))
    if g % 2 == 0 and k < len(rest) and rest[k] == tok:
        return 0, None
    crossed = rest[k:pos] if k <= pos else rest[pos:k]
    if g % 2:
        crossed = [t for t in crossed if grade_of(t) % 2 == 0]
    return _sign(len(crossed)), rest[:k] + (tok,) + rest[k:]


def boundary_by_insertion(mono, grade_of, bracket) -> dict:
    """All pairwise bracket insertions, as {canonical monomial: coefficient}.

    mono is a canonical basis monomial, so dropping A_i and A_j leaves a
    canonical product, and each bracket term is inserted where A_j stood.
    """
    out: dict = {}
    par = [grade_of(t) % 2 for t in mono]
    m = len(mono)
    for i in range(m):
        for j in range(i + 1, m):
            br = bracket(mono[i], mono[j])
            if not br:
                continue
            e = i + par[i] * sum(par[i + 1: j])
            rest = mono[:i] + mono[i + 1: j] + mono[j + 1:]
            for tok, cf in br.items():
                s, canon = _insert(rest, j - 1, tok, grade_of)
                if s:
                    add_term(out, canon, _sign(e) * s * cf)
    return out


def boundary_of_monomial(mono, grade_of, bracket) -> dict:
    """bd of one product, as {canonical monomial: coefficient}.

    mono is a canonical monomial, or any order of at most three factors (the
    pair and triple identity tests pass these; dropping two factors then
    leaves a canonical rest).  Adjacent equal even factors make the product
    zero, and the result is {}.  bracket(A, B) must be homogeneous of grade
    a + b.

    Position pairs i < j are summed per pair of runs of equal factors, one
    bracket call, one rest and one insertion per bracket term each, with the
    signs and multiplicities of WeightedComplex._image.
    """
    out: dict = {}
    runs = []  # [factor, first position, length, parity, odd factors before it]
    odd = 0
    for pos, tok in enumerate(mono):
        if runs and runs[-1][0] == tok:
            if not runs[-1][3]:
                return out  # a repeated even factor: the product is zero
            runs[-1][2] += 1
        else:
            runs.append([tok, pos, 1, grade_of(tok) % 2, odd])
        odd += runs[-1][3]
    for a, (ta, sa, ka, pa, oa) in enumerate(runs):
        for tb, sb, kb, _, ob in runs[a:] if ka > 1 else runs[a + 1:]:
            br = bracket(ta, tb)
            if not br:
                continue
            if sb == sa:
                mult = ka * (ka - 1) // 2
                rest, pos = mono[:sa] + mono[sa + 2:], sa
            else:
                mult = (ka * _sign(1 + ob - oa) if pa else 1) * kb
                rest, pos = mono[:sa] + mono[sa + 1: sb] + mono[sb + 1:], sb - 1
            mult *= _sign(sa)
            for tok, cf in br.items():
                s, canon = _insert(rest, pos, tok, grade_of)
                if s:
                    add_term(out, canon, s * mult * cf)
    return out


def boundary_via_left_action(mono, grade_of, bracket) -> dict:
    """Same boundary through the recursion

    bd(A_0 ^ R) = -A_0 ^ bd(R) + A_0.R,
    A_0.R = sum_i (-1)^{a_0(a_1+...+a_{i-1})} R with R_i replaced by [[A_0,R_i]].

    Kept independent of the pairwise sums as a cross-check.
    """
    out: dict = {}
    if len(mono) <= 1:
        return out
    a0, rest = mono[0], mono[1:]
    for sub, cf in boundary_via_left_action(rest, grade_of, bracket).items():
        s, canon = normalize((a0,) + sub, grade_of)
        if s:
            add_term(out, canon, -cf * s)
    p0 = grade_of(a0) % 2
    acc = 0
    for i, tok_i in enumerate(rest):
        e = p0 * acc
        for tok, cf in bracket(a0, tok_i).items():
            seq = rest[:i] + (tok,) + rest[i + 1:]
            s, canon = normalize(seq, grade_of)
            if s:
                add_term(out, canon, _sign(e) * s * cf)
        acc += grade_of(tok_i) % 2
    return out


def matrix_of(cx, m, w, image):
    """The matrix of bd: C_m^w -> C_{m-1}^w in cx's flat bases, each column
    image(monomial, cx.grade_of, cx.bracket), each pair bracketed once."""
    bracket = cache(cx.bracket)
    cols = cx.basis(m, w)
    rows = cx.basis(m - 1, w) if m >= 1 else []
    index = {mono: r for r, mono in enumerate(rows)}
    mat = SparseRationalMatrix(len(rows), len(cols))
    for c, mono in enumerate(cols):
        for tgt, cf in image(mono, cx.grade_of, bracket).items():
            mat.add(index[tgt], c, cf)
    return mat
