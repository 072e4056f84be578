"""The basis walker that formchains used before it counted first, kept as a
test oracle for the count-guided walk in superchain, and the upper bound on
the top degree of a polynomial complex that came before the exact one.

The walker prunes with per-coordinate min/max weight bounds only, so on the
vector-field levels it spends most of its time in branches that emit
nothing; it is slow but independent of the completion count.
"""

from itertools import combinations, combinations_with_replacement

from formchains.superchain import EnumerationCapExceeded, _as_tuple


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
    grades = {t: lv.grade for lv in levels for t in lv.tokens}

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


def support_bound(w, h, n, include_vectors=False):
    """A degree above which C_m^{w,h} is guaranteed to vanish.

    Form factors have primary weight <= -1, so at most -w of them.  Vector
    factors never repeat: at most n of secondary weight -1, at most n^2 of
    secondary weight 0, and the secondary budget h caps the rest.
    """
    forms_top = -w
    if not include_vectors:
        return max(forms_top, 0)
    return max(forms_top + (h + forms_top + n) + n + n * n, 0)
