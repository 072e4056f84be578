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
from one nonzero count state to the next, and assembles the boundaries.

Inside the class a monomial is a run key: a tuple of (id, multiplicity)
pairs in id order, where a token's id is its index in the canonical order
(a long 1^k run in deep form weights is one pair).  The walk emits run keys
and boundary_matrix reads them; only basis expands them into canonical
product tuples, the form every public function returns.  Boundaries are
assembled per pair of runs: one memo read and one insertion per bracket
term, the position-pair signs folded into one integer coefficient and the
insertion sign read off prefix counts of the key.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations, combinations_with_replacement, groupby
from math import comb

from .exactla import SparseRationalMatrix
from . import forms
from .forms import _sign, add_term


class EnumerationCapExceeded(Exception):
    """Raised when a basis enumeration grows past the configured cap."""


def _drop(key, c):
    """The run key with one factor of its run c taken out."""
    i, k = key[c]
    return key[:c] + ((i, k - 1),) + key[c + 1:] if k > 1 else key[:c] + key[c + 1:]


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
    The walk steps between nonzero count states only, so its cost follows
    the output; basis expands its keys into canonical product tuples, and
    boundary_matrix assembles from the keys.  The cap applies to every dim.

    bracket(a, b) returns {token: int or Fraction}, else boundary_matrix
    raises TypeError; it is called once per pair, its terms kept by ids until
    self.bracket is set anew.  Callers that only count or list pass None.
    The counts, bases and picks depend only on the levels, so they survive
    cx.bracket = ...: complexes that differ only in their bracket can share
    one WeightedComplex, given each bracket in turn.
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
        # a token's id is its index in that order, so run keys sort by id
        self._ids = {t: i for i, t in enumerate(self.tokens)}
        self._odd = [self.grades[t] % 2 for t in self.tokens]
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
        self.bracket = bracket
        self._terms = (bracket, {})  # its memo {id_a * n + id_b: ((id, cf), ...)}
        self._pick_cache: dict = {}  # (level index, j) -> the run keys of its j-token picks
        self._key_cache: dict = {}   # (m, w) -> the run keys of the basis

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

    def dim(self, m, w) -> int:
        """dim C_m^w = N(0, m, w), counted without enumerating; the cap
        applies to it.

        No recursion, so a long level list cannot reach the recursion limit:
        the states still unknown are expanded level by level, then every
        expanded state is summed and memoized in one backward pass, from the
        deepest level up, each child before its parents.
        """
        target = _as_tuple(w)
        if self._arities - {len(target)}:
            raise ValueError("level weight arity does not match the target")
        known, memo, top = self._known, self._counts, (0, m, target)
        size = known(top)
        if size is None:
            sums = []  # (state, its known terms, [(ways, child still to sum)])
            level = {top}
            for i, (lv, wv) in enumerate(zip(self.levels, self._weights)):
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
            size = memo[top]
        if self.cap is not None and size > self.cap:
            raise EnumerationCapExceeded(
                f"{size} monomials at degree {m}, weight {w}, "
                f"more than the cap {self.cap}"
            )
        return size

    def _picks(self, idx, j):
        """The run keys of the j-token picks from level idx, in the order
        the walk takes them: subsets of an even level, multisets of an odd
        one.  Computed once per complex."""
        got = self._pick_cache.get((idx, j))
        if got is None:
            lv, ids = self.levels[idx], self._ids
            picker = combinations if lv.capacity is not None else combinations_with_replacement
            got = self._pick_cache[idx, j] = [
                tuple((ids[t], len(list(run))) for t, run in groupby(combo))
                for combo in picker(lv.tokens, j)]
        return got

    def _run_keys(self, m, w):
        """The run keys of the degree-m monomials of weight w, memoized,
        after the cap check.

        The walk goes from one nonzero count state (idx, k, w) to the next:
        a step takes j >= 1 tokens from one level i >= idx, none from idx ..
        i - 1, and needs N(i + 1, k - j, w - j * weight(i)) != 0.
        """
        mw = (m, _as_tuple(w))
        if mw in self._key_cache:
            return self._key_cache[mw]
        size = self.dim(m, w)
        levels, weights, known = self.levels, self._weights, self._known
        steps, out = {}, []  # state -> its (child, picks), for this call
        # depth first, on an explicit stack instead of one call per step
        stack = [((0, m, mw[1]), ())] if size else []
        while stack:
            state, chosen = stack.pop()
            idx, k, w_rem = state
            if k == 0:
                # the picks of all levels, in id (canonical) order
                out.append(tuple(sorted(chosen)))
                continue
            kids = steps.get(state)
            if kids is None:
                kids = steps[state] = []
                for i in range(idx, len(levels)):
                    cap = levels[i].capacity
                    for j in range(k if cap is None else min(k, cap), 0, -1):
                        child = (i + 1, k - j, tuple(x - j * y for x, y in zip(w_rem, weights[i])))
                        if known(child):
                            kids.append((child, self._picks(i, j)))
                    # N(i + 1, k, w) <= N(i, k, w) (take none), so stop at a 0
                    if not known((i + 1, k, w_rem)):
                        break
            # popped last first: later levels, then j and picks ascending
            for child, picks in kids:
                stack.extend([(child, chosen + pick) for pick in reversed(picks)])
        # always on, also under python -O: the walk must list what was counted
        if len(out) != size:
            raise ArithmeticError(
                f"enumerated {len(out)} monomials at degree {m}, weight {w}, "
                f"but counted {size}"
            )
        self._key_cache[mw] = out
        return out

    def split(self, m, w, values):
        """The run keys of C_m^w by the sum over their factors of values[i]
        for the token self.tokens[i], {sum: [run keys]}.  Not memoized: the
        caller keeps the groups it needs."""
        keys = self._run_keys(m, w)
        del self._key_cache[m, _as_tuple(w)]
        groups = {}
        for key in keys:
            groups.setdefault(sum(values[i] * k for i, k in key), []).append(key)
        return groups

    def _flat(self, key):
        """The canonical product of a run key: each token repeated k times."""
        tokens = self.tokens
        return tuple(t for i, k in key for t in (tokens[i],) * k)

    def basis(self, m, w):
        """The degree-m monomials of weight w, each a canonical product
        tuple, in a new list on each call, after the cap check.

        These are the run keys of the walk (see _run_keys) expanded into
        tokens; boundary_matrix reads the keys and never builds them.
        """
        return [self._flat(key) for key in self._run_keys(m, w)]

    def _image(self, key, index):
        """bd of one product, from its run key: {row in index: coefficient},
        and {run key: coefficient} of the terms not in index.

        The key has no repeated even factor, as every basis key.  bracket(A,
        B) must be homogeneous of grade a + b.

        Position pairs i < j are summed per pair of runs of equal factors
        (run a: k_a copies of A_a from position s_a, counting from 0).
        Every pair of one run pair drops the same two factors, so a run pair
        gets one memo read, one rest and one insertion per bracket term,
        at the first j; and its position pairs all have one sign:
        - over i, in an odd run the exponent i + a_i(a_{i+1}+...+a_{j-1})
          does not move (each step adds 2), and an even run has k_a = 1;
        - over j, a step within an odd run b adds a_i to the exponent and
          moves the bracket term, of parity a_i + 1, across a copy of A_b,
          which flips its insertion sign iff a_i = 1: the two cancel;
        - for i < j in one odd run, the d-th j has exponent s_a + d and
          d + 1 choices of i, and its even bracket term crosses d copies of
          A_a.
        So the sign is counted k_a k_b times, or k_a (k_a - 1) / 2 in one
        run.  A bracket term t, put where A_b stood, moves to its slot
        across the factors of the rest whose id lies in [min(t, id_b),
        max(t, id_b)), only the even ones if t is odd; an even t that meets
        its equal kills the term.
        """
        tokens, ids, odd, n = self.tokens, self._ids, self._odd, len(self.tokens)
        bracket, terms = self._terms
        # factors before each run (and before the end): all, and the even ones
        starts, evens = [0], [0]
        for i, k in key:
            starts.append(starts[-1] + k)
            evens.append(evens[-1] + (0 if odd[i] else k))
        col, aside = {}, {}
        for a, (ia, ka) in enumerate(key):
            pa = odd[ia]
            for b in range(a if ka > 1 else a + 1, len(key)):
                ib, kb = key[b]
                br = terms.get(p := ia * n + ib)
                if br is None:
                    ab = tokens[ia], tokens[ib]
                    br = tuple((ids[t], cf) for t, cf in bracket(*ab).items())
                    if bad := [cf for _, cf in br if not isinstance(cf, (int, Fraction))]:
                        raise TypeError(f"bracket{ab!r} has the non-exact coefficient {bad[0]!r}")
                    terms[p] = br
                if not br:
                    continue
                if a == b:
                    mult = ka * (ka - 1) // 2
                else:
                    # the exponent at the first j is s_a for an even run a,
                    # and s_a - 1 + (odd factors from s_a up to s_b) for an odd one
                    odds = starts[b] - starts[a] - evens[b] + evens[a]
                    mult = (ka * _sign(1 + odds) if pa else 1) * kb
                mult *= _sign(starts[a])
                rest = _drop(_drop(key, b), a)
                for t, cf in br:
                    y = bisect_left(rest, (t,))
                    if y < len(rest) and rest[y][0] == t:
                        if not odd[t]:
                            continue  # an even factor met its equal
                        tgt = rest[:y] + ((t, rest[y][1] + 1),) + rest[y + 1:]
                    else:
                        tgt = rest[:y] + ((t, 1),) + rest[y:]
                    # the crossed factors are R(t) - R(id_b) up to sign, R(v)
                    # counting those of the rest below id v: the key's prefix
                    # count less A_a if ia < v and A_b if ib < v
                    x = bisect_left(key, (t,))
                    if odd[t]:
                        crossed = (evens[x] + evens[b] + (ib < t) * (1 - odd[ib])
                                   + ((ia < t) + (a != b)) * (1 - pa))
                    else:
                        crossed = starts[x] + starts[b] + (ib < t) + (ia < t) + (a != b)
                    row = index.get(tgt)
                    cf *= -mult if crossed % 2 else mult
                    if row is None:
                        add_term(aside, tgt, cf)
                    else:
                        add_term(col, row, cf)
        return col, aside

    def boundary_matrix(self, m, w, columns=None, keys=None) -> SparseRationalMatrix:
        """The matrix of bd: C_m^w -> C_{m-1}^w in the enumerated bases.

        Columns and rows are the run keys of the basis walk; no flat
        product is built unless the boundary leaves the weight space, to
        name it.  Given columns, a list of basis positions, only those are
        assembled, column c of the matrix being the image of columns[c].
        Given keys, {degree: run keys} of a block bd must keep, they stand
        in for the bases.
        self.bracket is read here, at call time.
        """
        if keys is None:
            cols, rows = self._run_keys(m, w), self._run_keys(m - 1, w) if m >= 1 else []
        else:
            cols, rows = keys.get(m, []), keys.get(m - 1, [])
        if columns is not None:
            cols = [cols[c] for c in columns]
        index = {key: r for r, key in enumerate(rows)}
        if self._terms[0] is not self.bracket:
            self._terms = (self.bracket, {})
        out = []
        for key in cols:
            col, aside = self._image(key, index)
            if aside:
                raise AssertionError(
                    f"boundary left the {'space' if keys is None else 'block'} of weight {w}: "
                    f"{self._flat(key)} -> {self._flat(next(iter(aside)))}"
                )
            out.append(col)
        return SparseRationalMatrix.from_columns(len(rows), out)


def enumerate_monomials(levels, m, weight, cap=None):
    """All degree-m monomials of the given total weight, each a canonical
    product, in an order fixed by the order of the levels and their tokens.

    weight is an int or a tuple of ints.  The size is counted first and
    checked against cap.
    """
    return WeightedComplex(levels, None, cap).basis(m, weight)


# --- the invariant-forms complex ---------------------------------------------

def form_levels(n: int, w=None):
    """Grade levels of the forms superalgebra: a-forms at grade -(1+a).

    Given a weight w, only the levels that can occur in it: every factor of
    a monomial of weight w < 0 weighs at least w, so a <= -w - 1.
    """
    top = n if w is None else min(n, -w - 1)
    return [
        Level(-(1 + a), (-(1 + a),), tuple(combinations(range(1, n + 1), a)))
        for a in range(top + 1)
    ]


def forms_bracket(spec):
    """The bracket of two form tokens in the forms superalgebra of spec.

    A new function on each call, so setting it as a complex's bracket
    starts that complex's bracket memo over.
    """
    return lambda a, b: forms.super_bracket({a: 1}, {b: 1}, spec)


def forms_complex(spec, cap=None) -> WeightedComplex:
    """The invariant-forms chain complex: basis subsets as tokens."""
    return WeightedComplex(form_levels(spec.n), forms_bracket(spec), cap)


def chain_dim(spec_or_n, m: int, w: int) -> int:
    """dim C_m^w, counted without enumerating (depends only on n)."""
    n = spec_or_n if isinstance(spec_or_n, int) else spec_or_n.n
    return WeightedComplex(form_levels(n, w), None).dim(m, w)


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
