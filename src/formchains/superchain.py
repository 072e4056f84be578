"""Weighted chain spaces over a graded super-commutative monomial basis.

Chains of degree m are spanned by products A_1 ^ ... ^ A_m of homogeneous
generators.  The product is super-exterior: swapping adjacent factors of
grades x and y multiplies by -(-1)^{xy}, so odd-grade generators commute and
may repeat while even-grade generators anticommute and square to zero.  The
weight of a monomial is the sum of its factor grades (a tuple of weights for
the doubly-graded case) and the boundary operator

  bd(A_1^...^A_m) = sum_{i<j} (-1)^{i-1 + a_i(a_{i+1}+...+a_{j-1})}
                      A_1 ^ ... ^{A_i dropped} ... ^ [[A_i,A_j]] ^ ... ^ A_m

(the bracket replacing A_j in place) preserves it.  A token is any hashable,
totally ordered within its grade; monomials are kept sorted by descending
grade, ascending token.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

from .exactla import SparseRationalMatrix
from . import forms
from .forms import _sign, add_term


class EnumerationCapExceeded(Exception):
    """Raised when a basis enumeration grows past the configured cap."""


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


def boundary_of_monomial(mono, grade_of, bracket) -> dict:
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


def boundary_via_left_action(mono, grade_of, bracket) -> dict:
    """Same boundary through the recursion

    bd(A_0 ^ R) = -A_0 ^ bd(R) + A_0.R,
    A_0.R = sum_i (-1)^{a_0(a_1+...+a_{i-1})} R with R_i replaced by [[A_0,R_i]].

    Kept independent of boundary_of_monomial as a cross-check.
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


@dataclass(frozen=True)
class Level:
    """All generators of one (grade, weight) slot, in token order."""
    grade: int
    weight: tuple
    tokens: tuple

    @property
    def capacity(self):
        # even grades anticommute: each token at most once
        return len(self.tokens) if self.grade % 2 == 0 else None


def _as_tuple(w):
    return w if isinstance(w, tuple) else (w,)


def enumerate_monomials(levels, m, weight, cap=None):
    """All degree-m monomials of the given total weight, in a fixed order.

    levels must be sorted by descending grade (ties resolved consistently
    with the token order); weight is an int or a tuple of ints.
    """
    target = _as_tuple(weight)
    dims = len(target)
    for lv in levels:
        if len(_as_tuple(lv.weight)) != dims:
            raise ValueError("level weight arity does not match the target")

    # per-coordinate weight ranges over the levels from index idx on
    nlev = len(levels)
    lo = [[0] * dims for _ in range(nlev + 1)]
    hi = [[0] * dims for _ in range(nlev + 1)]
    for idx in range(nlev - 1, -1, -1):
        wv = _as_tuple(levels[idx].weight)
        for dcoord in range(dims):
            lo[idx][dcoord] = min(wv[dcoord], lo[idx + 1][dcoord]) if idx < nlev - 1 else wv[dcoord]
            hi[idx][dcoord] = max(wv[dcoord], hi[idx + 1][dcoord]) if idx < nlev - 1 else wv[dcoord]

    out = []
    grades = _grades(levels)

    def emit(chosen):
        if cap is not None and len(out) >= cap:
            raise EnumerationCapExceeded(
                f"more than {cap} monomials at degree {m}, weight {weight}"
            )
        # the basis element is the multiset's canonical (sorted) product
        out.append(tuple(sorted(chosen, key=lambda t: (-grades[t], t))))

    def feasible(idx, k_rem, w_rem):
        if idx == nlev:
            return k_rem == 0 and all(x == 0 for x in w_rem)
        if k_rem == 0:
            return all(x == 0 for x in w_rem)
        for dcoord in range(dims):
            if not k_rem * lo[idx][dcoord] <= w_rem[dcoord] <= k_rem * hi[idx][dcoord]:
                return False
        return True

    def rec(idx, k_rem, w_rem, chosen):
        if idx == nlev:
            if k_rem == 0 and all(x == 0 for x in w_rem):
                emit(chosen)
            return
        lv = levels[idx]
        wv = _as_tuple(lv.weight)
        kmax = k_rem if lv.capacity is None else min(k_rem, lv.capacity)
        picker = combinations if lv.capacity is not None else combinations_with_replacement
        for k in range(kmax + 1):
            w2 = tuple(w_rem[d] - k * wv[d] for d in range(dims))
            if not feasible(idx + 1, k_rem - k, w2):
                continue
            for combo in picker(lv.tokens, k):
                rec(idx + 1, k_rem - k, w2, chosen + combo)

    rec(0, m, target, ())
    return out


def _grades(levels):
    return {t: lv.grade for lv in levels for t in lv.tokens}


def monomial_weight(mono, weight_of):
    """Sum of factor weights (int or tuple, matching weight_of)."""
    total = None
    for t in mono:
        wv = _as_tuple(weight_of(t))
        total = wv if total is None else tuple(a + b for a, b in zip(total, wv))
    if total is None:
        return None
    return total if len(total) > 1 else total[0]


class WeightedComplex:
    """Graded tokens, one Level per occupied slot, their bracket, and the
    bases and boundary matrices of the weighted chain spaces C_m^w.

    bracket(a, b) returns {token: coefficient}; each pair is computed at most
    once, on first use, and the result is shared, so callers must not mutate it.
    """

    def __init__(self, levels, bracket, cap=None):
        self.levels = tuple(levels)
        self.grades = _grades(self.levels)
        self.grade_of = self.grades.__getitem__
        self.cap = cap
        self._compute = bracket
        self._memo: dict = {}
        self._basis_cache: dict = {}

    def bracket(self, a, b):
        out = self._memo.get((a, b))
        if out is None:
            out = self._memo[(a, b)] = self._compute(a, b)
        return out

    @property
    def tokens(self):
        return tuple(sorted(self.grades, key=lambda t: (-self.grades[t], t)))

    def basis(self, m, w):
        key = (m, _as_tuple(w))
        if key not in self._basis_cache:
            self._basis_cache[key] = enumerate_monomials(
                self.levels, m, w, cap=self.cap
            )
        return self._basis_cache[key]

    def dim(self, m, w) -> int:
        return len(self.basis(m, w))

    def boundary_matrix(self, m, w, image=boundary_of_monomial) -> SparseRationalMatrix:
        """The matrix of bd: C_m^w -> C_{m-1}^w in the enumerated bases."""
        cols = self.basis(m, w)
        rows = self.basis(m - 1, w) if m >= 1 else []
        index = {mono: r for r, mono in enumerate(rows)}
        mat = SparseRationalMatrix(len(rows), len(cols))
        for c, mono in enumerate(cols):
            for tgt, cf in image(mono, self.grade_of, self.bracket).items():
                if tgt not in index:
                    raise AssertionError(
                        f"boundary left the weight-{w} space: {mono} -> {tgt}"
                    )
                mat.add(index[tgt], c, cf)
        return mat

    def boundary_matrix_left_action(self, m, w) -> SparseRationalMatrix:
        return self.boundary_matrix(m, w, image=boundary_via_left_action)


# --- the invariant-forms complex ---------------------------------------------

def form_levels(n: int):
    """Grade levels of the forms superalgebra: a-forms at grade -(1+a)."""
    return [
        Level(-(1 + a), (-(1 + a),), tuple(combinations(range(1, n + 1), a)))
        for a in range(n + 1)
    ]


def forms_complex(spec, cap=None) -> WeightedComplex:
    """The invariant-forms chain complex: basis subsets as tokens."""
    return WeightedComplex(form_levels(spec.n), lambda a, b: forms.super_bracket(
        {a: Fraction(1)}, {b: Fraction(1)}, spec), cap)


def chain_dim(spec_or_n, m: int, w: int) -> int:
    """dim C_m^w by direct enumeration (depends only on n)."""
    n = spec_or_n if isinstance(spec_or_n, int) else spec_or_n.n
    return len(enumerate_monomials(form_levels(n), m, w))


def feasibility_poly(m: int, w: int) -> int:
    """Q(m) = (-w - m)(-w - 3m); for n = 2, C_m^w is nonzero iff Q(m) <= 0."""
    return (-w - m) * (-w - 3 * m)


def _nb(p: int, q: int) -> int:
    # binomial that vanishes outside the combinatorial range
    if p < 0 or q < 0 or p < q:
        return 0
    from math import comb

    return comb(p, q)


def _ind(p: int) -> int:
    # C(p, 0) as used in the closed forms: an indicator of p >= 0
    return 1 if p >= 0 else 0


def chain_dim_formula_n3(m: int, w: int) -> int:
    """Closed-form dim C_m^w for n = 3 (binomial counting of 1^a Z^B W^C V^l)."""
    if w >= 0 or m <= 0 or m > -w:
        return 1 if (m == 0 and w == 0) else 0
    r = -w - m
    if r % 2 == 0:
        K = r // 2
        u = -w - 3 * K
        return _ind(u) * (_nb(K + 2, 2) + 3 * _nb(K, K - 2)) + _ind(u - 1) * (
            3 * _nb(K + 1, K - 1) + _nb(K - 1, K - 3)
        )
    L = (r - 1) // 2
    u = -w - 3 * L
    return 3 * _ind(u - 2) * (_nb(L + 2, 2) + _nb(L, L - 2)) + (
        _ind(u - 3) + _ind(u - 1)
    ) * _nb(L + 1, L - 1)


def format_monomial(mono, token_str=None) -> str:
    """Readable rendering like 1^2.s2.V for reports and demos."""
    if not mono:
        return "<empty>"

    def default_str(tok):
        if tok == ():
            return "1"
        return "s" + "".join(str(i) for i in tok)

    token_str = token_str or default_str
    parts = []
    run = None
    count = 0
    for t in mono + (object(),):
        if t == run:
            count += 1
            continue
        if run is not None:
            parts.append(token_str(run) + (f"^{count}" if count > 1 else ""))
        run, count = t, 1
    return ".".join(parts)
