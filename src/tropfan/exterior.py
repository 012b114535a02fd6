"""Exterior powers of Z^m in the wedge-monomial basis.

Elements of the p-th exterior power are stored as coordinate tuples
over the monomial basis e_I = e_{i_1} ^ ... ^ e_{i_p} indexed by sorted
index tuples I in lexicographic order.  This ordering is fixed globally
and shared by every module that manipulates multivectors or
multi-forms.
"""

from __future__ import annotations

import itertools
from functools import lru_cache


@lru_cache(maxsize=None)
def monomials(m, p):
    """Sorted p-subsets of range(m) in lexicographic order."""
    if p < 0 or p > m:
        return ()
    return tuple(itertools.combinations(range(m), p))


@lru_cache(maxsize=None)
def monomial_index(m, p):
    return {I: k for k, I in enumerate(monomials(m, p))}


def dim(m, p):
    return len(monomials(m, p))


def det(rows):
    """Determinant of a small square matrix, fraction-free (Bareiss)."""
    n = len(rows)
    if n == 0:
        return 1
    a = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def wedge_rows(rows, m):
    """Coordinates of row_1 ^ ... ^ row_p in the monomial basis of /\\^p Z^m."""
    p = len(rows)
    out = []
    for I in monomials(m, p):
        out.append(det([[r[i] for i in I] for r in rows]))
    return tuple(out)


def shuffle_sign(I, J):
    """Sign of the permutation sorting the concatenation I + J.

    I and J are sorted disjoint tuples; the sign counts inversions of J
    against I.
    """
    sign = 1
    for j in J:
        sign *= (-1) ** sum(1 for i in I if i > j)
    return sign


def wedge_coords(x, p, y, q, m):
    """Wedge product of x in /\\^p and y in /\\^q, in /\\^(p+q) coordinates."""
    monp = monomials(m, p)
    monq = monomials(m, q)
    idx = monomial_index(m, p + q)
    out = [0] * dim(m, p + q)
    for a, I in enumerate(monp):
        xa = x[a]
        if not xa:
            continue
        setI = set(I)
        for b, J in enumerate(monq):
            yb = y[b]
            if not yb:
                continue
            if setI & set(J):
                continue
            K = tuple(sorted(I + J))
            out[idx[K]] += shuffle_sign(I, J) * xa * yb
    return tuple(out)


def induced_matrix(P_rows, p, m_src, m_dst):
    """Matrix of /\\^p of the linear map v -> v . P on monomial bases.

    ``P_rows`` is the m_src x m_dst matrix of the map on row vectors.
    Row indexed by source monomials, column by target monomials; entries
    are the p x p minors of P.
    """
    src = monomials(m_src, p)
    dst = monomials(m_dst, p)
    out = []
    for I in src:
        sel = [P_rows[i] for i in I]
        out.append(tuple(det([[row[j] for j in J] for row in sel]) for J in dst))
    return out


def contract_vector(alpha, k, x, p, m):
    """Contraction of a p-multivector x by a k-form alpha: a (p-k)-vector.

    The coefficient of e_J is the sum over I of
    sign(I, J) alpha(e_I) x_{I u J}.
    """
    monk = monomials(m, k)
    monr = monomials(m, p - k)
    idxp = monomial_index(m, p)
    out = []
    for J in monr:
        setJ = set(J)
        acc = 0
        for a, I in enumerate(monk):
            aa = alpha[a]
            if not aa or (setJ & set(I)):
                continue
            K = tuple(sorted(I + J))
            acc += shuffle_sign(I, J) * aa * x[idxp[K]]
        out.append(acc)
    return tuple(out)


def wedge_forms(alpha, p, beta, q, m):
    """Wedge of a p-form and a q-form given on all monomials.

    Both forms must be given by their values on every monomial of the
    ambient exterior power (rational extensions are fine); the result is
    the usual shuffle formula, valued on all (p+q)-monomials.
    """
    out = []
    idxp = monomial_index(m, p)
    idxq = monomial_index(m, q)
    for K in monomials(m, p + q):
        acc = 0
        for I in itertools.combinations(K, p):
            J = tuple(x for x in K if x not in I)
            acc += shuffle_sign(I, J) * alpha[idxp[I]] * beta[idxq[J]]
        out.append(acc)
    return tuple(out)
