"""The boundaries that formchains assembled with before, kept as test
oracles for superchain.

boundary_of_monomial is the sorting boundary: normalize re-sorts a whole
factor sequence by insertion sort, so it accepts any factor order,
canonical or not.  boundary_by_insertion is the position-pair boundary that
followed it: one bracket call per pair i < j, each term inserted into the
canonical rest.  boundary_via_left_action is the independent left-action
recursion; it is reached as boundary_matrix(m, w, image=boundary_via_left_action).
"""

from formchains.forms import _sign, add_term
from formchains.superchain import _insert


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

def boundary_via_left_action(mono, grade_of, bracket) -> dict:
    """Same boundary through the recursion

    bd(A_0 ^ R) = -A_0 ^ bd(R) + A_0.R,
    A_0.R = sum_i (-1)^{a_0(a_1+...+a_{i-1})} R with R_i replaced by [[A_0,R_i]].

    Kept independent of boundary_of_monomial as a cross-check; the tests
    reach it as boundary_matrix(m, w, image=boundary_via_left_action).
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
