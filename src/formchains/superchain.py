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

One class, WeightedComplex, holds a list of levels, each the tokens of one
grade and weight.  It counts every C_m^w without enumerating, walks a basis
only where the count is nonzero, and assembles the boundary matrices.

Boundaries are assembled per distinct factor pair: a canonical monomial is
a list of runs of equal factors (a long 1^k run in deep form weights), and
each pair of runs gets one bracket call and one insertion per bracket term,
its position-pair signs folded into one integer coefficient.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cache
from itertools import accumulate, combinations, combinations_with_replacement, groupby
from math import comb

from .exactla import SparseRationalMatrix
from . import forms
from .forms import _sign, add_term


class EnumerationCapExceeded(Exception):
    """Raised when a basis enumeration grows past the configured cap."""


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


def boundary_of_monomial(mono, grade_of, bracket) -> dict:
    """bd of one product, as {canonical monomial: coefficient}.

    mono is a canonical monomial, or any order of at most three factors (the
    pair and triple identity tests pass these; dropping two factors then
    leaves a canonical rest).  Adjacent equal even factors make the product
    zero, and the result is {}.  bracket(A, B) must be homogeneous of grade
    a + b.

    Position pairs i < j are summed per pair of runs of equal factors (run
    a: k_a copies of A_a from position s_a, counting from 0).  Every pair of
    one run pair drops the same two factors, so a run pair gets one bracket
    call, one rest and one insertion per bracket term, at the first j; and
    its position pairs all have one sign:
    - over i, in an odd run the exponent i + a_i(a_{i+1}+...+a_{j-1}) does
      not move (each step adds 2), and an even run has k_a = 1;
    - over j, a step within an odd run b adds a_i to the exponent and moves
      the bracket term, of parity a_i + 1, across a copy of A_b, which flips
      its insertion sign iff a_i = 1: the two cancel;
    - for i < j in one odd run, the d-th j has exponent s_a + d and d + 1
      choices of i, and its even bracket term crosses d copies of A_a.
    So the sign is counted k_a k_b times, or k_a (k_a - 1) / 2 in one run.
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
                # the exponent at the first j is s_a for an even run a, and
                # s_a - 1 + (odd factors from s_a up to s_b) for an odd one
                mult = (ka * _sign(1 + ob - oa) if pa else 1) * kb
                rest, pos = mono[:sa] + mono[sa + 1: sb] + mono[sb + 1:], sb - 1
            mult *= _sign(sa)
            for tok, cf in br.items():
                s, canon = _insert(rest, pos, tok, grade_of)
                if s:
                    add_term(out, canon, s * mult * cf)
    return out


@dataclass(frozen=True)
class Level:
    """All generators of one (grade, weight) slot.

    A token may be listed once, in one level.  The order of the levels and
    of their tokens fixes only the order in which a basis is listed; every
    monomial in it is a canonical product.
    """
    grade: int
    weight: tuple
    tokens: tuple

    @property
    def capacity(self):
        # even grades anticommute: each token at most once
        return len(self.tokens) if self.grade % 2 == 0 else None


def _as_tuple(w):
    return w if isinstance(w, tuple) else (w,)


class WeightedComplex:
    """Graded tokens, one Level per occupied slot, their bracket, and the
    dims, bases and boundary matrices of the weighted chain spaces C_m^w.

    dim counts without enumerating.  N(idx, k, w) is the number of ways to
    pick k more tokens of total weight w from levels idx, idx + 1, ...: the
    sum over j of ways_j * N(idx + 1, k - j, w - j * weight(idx)), where an
    even level of c tokens gives ways_j = C(c, j) and an odd one
    C(c + j - 1, j).  Per-coordinate min/max weights of the remaining levels
    answer most zero states in O(1); the counts are memoized per complex.
    basis walks only where the count is nonzero, so its cost follows the
    output.  The cap applies to every dim, and so to every basis.

    bracket(a, b) returns {token: coefficient}; each pair is computed at most
    once, on first use, and the result is shared, so callers must not mutate
    it.  Callers that only count or list monomials pass None.
    """

    def __init__(self, levels, bracket, cap=None):
        self.levels = tuple(levels)
        self.grades = {}
        for lv in self.levels:
            for t in lv.tokens:
                if t in self.grades:
                    raise ValueError(f"token {t!r} is listed twice in the levels")
                self.grades[t] = lv.grade
        self.grade_of = self.grades.__getitem__
        # canonical order: descending grade, then token
        self.tokens = tuple(sorted(self.grades, key=lambda t: (-self.grades[t], t)))
        self._position = {t: i for i, t in enumerate(self.tokens)}.__getitem__
        self._weights = [_as_tuple(lv.weight) for lv in self.levels]
        # a target weight must have the arity of every level weight
        self._arities = {len(wv) for wv in self._weights}
        # per-coordinate (min, max) weights over the levels from index idx on
        rev = self._weights[::-1]
        lo = list(accumulate(rev, lambda a, b: tuple(map(min, a, b))))[::-1]
        hi = list(accumulate(rev, lambda a, b: tuple(map(max, a, b))))[::-1]
        self._box = [tuple(zip(mins, maxs)) for mins, maxs in zip(lo, hi)]
        self._counts: dict = {}
        self.cap = cap
        self.bracket = bracket and cache(bracket)
        self._basis_cache: dict = {}

    def _known(self, state):
        """N(idx, k, w) of a state if a zero test or the memo gives it, else None."""
        idx, k, w = state
        if k == 0:
            return 0 if any(w) else 1
        if idx == len(self.levels):
            return 0
        for x, (lo, hi) in zip(w, self._box[idx]):
            if not k * lo <= x <= k * hi:
                return 0
        return self._counts.get(state)

    def _n(self, idx, k, w):
        """N(idx, k, w) as in the class docstring; dim is its only caller.

        No recursion, so a long level list cannot reach the recursion limit:
        the states still unknown are expanded level by level down from idx,
        then every expanded state is summed and memoized in one backward
        pass, from the deepest level up, each child before its parents.
        """
        known, memo = self._known, self._counts
        got = known((idx, k, w))
        if got is not None:
            return got
        sums = []  # (state, its known terms, [(ways, child still to sum)])
        level = {(idx, k, w)}
        for i in range(idx, len(self.levels)):
            lv, wv = self.levels[i], self._weights[i]
            c, odd = len(lv.tokens), lv.capacity is None
            below = set()
            for state in level:
                _, k_rem, w_rem = state
                total, kids = 0, []
                for j in range(k_rem + 1 if odd else min(k_rem, c) + 1):
                    # j tokens: a subset of an even level, a multiset of an odd one
                    ways = comb(c, j) if not odd else comb(c + j - 1, j) if j else 1
                    w2 = tuple(x - j * y for x, y in zip(w_rem, wv))
                    child = (i + 1, k_rem - j, w2)
                    got = known(child)
                    if got is None:
                        kids.append((ways, child))
                        below.add(child)
                    else:
                        total += ways * got
                sums.append((state, total, kids))
            level = below
        for state, total, kids in reversed(sums):
            memo[state] = total + sum(ways * memo[child] for ways, child in kids)
        return memo[(idx, k, w)]

    def dim(self, m, w) -> int:
        """dim C_m^w, counted without enumerating; the cap applies to it."""
        target = _as_tuple(w)
        if self._arities - {len(target)}:
            raise ValueError("level weight arity does not match the target")
        size = self._n(0, m, target)
        if self.cap is not None and size > self.cap:
            raise EnumerationCapExceeded(
                f"{size} monomials at degree {m}, weight {w}, "
                f"more than the cap {self.cap}"
            )
        return size

    def basis(self, m, w):
        """The degree-m monomials of weight w, memoized, after the cap check.

        The walk picks j tokens from each level in turn and descends only
        where N of the rest is nonzero, so every node it visits emits.  It
        reads N of the rest from the memo that dim has just filled (dim
        expands every state it needs); a miss would skip a child and fail
        the count check below, never give a wrong basis.
        """
        key = (m, _as_tuple(w))
        if key in self._basis_cache:
            return self._basis_cache[key]
        size = self.dim(m, w)
        levels, weights, position = self.levels, self._weights, self._position
        out = []

        # depth first, on an explicit stack instead of one call per level
        stack = [(0, m, key[1], ())] if size else []
        while stack:
            idx, k_rem, w_rem, chosen = stack.pop()
            if k_rem == 0:
                # the basis element is the multiset's canonical (sorted) product
                out.append(tuple(sorted(chosen, key=position)))
                continue
            lv, wv = levels[idx], weights[idx]
            kmax = k_rem if lv.capacity is None else min(k_rem, lv.capacity)
            picker = combinations if lv.capacity is not None else combinations_with_replacement
            kids = []
            for k in range(kmax + 1):
                w2 = tuple(x - k * y for x, y in zip(w_rem, wv))
                if not self._known((idx + 1, k_rem - k, w2)):
                    continue
                for combo in picker(lv.tokens, k):
                    kids.append((idx + 1, k_rem - k, w2, chosen + combo))
            # popped last first, so the children come out in order
            stack.extend(reversed(kids))
        # always on, also under python -O: the walk must list what was counted
        if len(out) != size:
            raise ArithmeticError(
                f"enumerated {len(out)} monomials at degree {m}, weight {w}, "
                f"but counted {size}"
            )
        self._basis_cache[key] = out
        return out

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
                        f"boundary left the space of weight {w}: {mono} -> {tgt}"
                    )
                mat.add(index[tgt], c, cf)
        return mat


def enumerate_monomials(levels, m, weight, cap=None):
    """All degree-m monomials of the given total weight, each a canonical
    product, in an order fixed by the order of the levels and their tokens.

    weight is an int or a tuple of ints.  The size is counted first and
    checked against cap.
    """
    return WeightedComplex(levels, None, cap).basis(m, weight)


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
        {a: 1}, {b: 1}, spec), cap)


def chain_dim(spec_or_n, m: int, w: int) -> int:
    """dim C_m^w, counted without enumerating (depends only on n)."""
    n = spec_or_n if isinstance(spec_or_n, int) else spec_or_n.n
    return WeightedComplex(form_levels(n), None).dim(m, w)


def _nb(p: int, q: int) -> int:
    # binomial that vanishes outside the combinatorial range
    if p < 0 or q < 0 or p < q:
        return 0
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
        return "1" if tok == () else "s" + "".join(map(str, tok))

    token_str = token_str or default_str
    parts = []
    for tok, run in groupby(mono):
        count = len(list(run))
        parts.append(token_str(tok) + (f"^{count}" if count > 1 else ""))
    return ".".join(parts)
