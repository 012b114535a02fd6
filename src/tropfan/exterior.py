"""Exterior powers of Z^m in the wedge-monomial basis.

Elements of the p-th exterior power are stored as coordinate tuples
over the monomial basis e_I = e_{i_1} ^ ... ^ e_{i_p} indexed by sorted
index tuples I in lexicographic order.  This ordering is fixed globally
and shared by every module that manipulates multivectors or
multi-forms.

The kernels read index tables built once per shape, so no call
enumerates subsets, builds sets or works out a sign:

- the Laplace table of (m, s) expands the minor of s rows on the
  columns J of each s-monomial along its first row.  All p-minors of p
  rows are built bottom-up, each from the (p-1)-minors of the rows
  below its first.  :func:`induced_matrix` shares those lower minors
  between source monomials with the same tail.
- the shuffle table of (m, p, q) pairs each p-monomial I with the
  q-monomials J disjoint from it, the index of I u J and the sign of
  the shuffle sorting I + J.  It drives both :func:`wedge_coords`
  (forms on all monomials wedge by the same formula as multivectors)
  and :func:`contract_vector`.
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


@lru_cache(maxsize=None)
def _laplace(m, s):
    """Per s-monomial J: (column J[t], index of J without J[t], sign (-1)^t) for each t."""
    lower = monomial_index(m, s - 1)
    return tuple(
        tuple((J[t], lower[J[:t] + J[t + 1 :]], -1 if t % 2 else 1) for t in range(s)) for J in monomials(m, s)
    )


def _expand(row, lower, table):
    """Minors of ``row`` stacked on the rows whose minors are ``lower``, by first-row expansion."""
    out = []
    for entry in table:
        acc = 0
        for c, k, sign in entry:
            x = row[c]
            if x:
                y = lower[k]
                if y:
                    acc += sign * x * y
        out.append(acc)
    return tuple(out)


def wedge_rows(rows, m):
    """Coordinates of row_1 ^ ... ^ row_p in the monomial basis of /\\^p Z^m."""
    p = len(rows)
    if p == 0:
        return (1,)
    minors = tuple(rows[-1])
    for s in range(2, p + 1):
        minors = _expand(rows[p - s], minors, _laplace(m, s))
    return minors


def shuffle_sign(I, J):
    """Sign of the permutation sorting the concatenation I + J.

    I and J are sorted disjoint tuples; the sign counts inversions of J
    against I.
    """
    sign = 1
    for j in J:
        sign *= (-1) ** sum(1 for i in I if i > j)
    return sign


@lru_cache(maxsize=None)
def _shuffles(m, p, q):
    """Per p-monomial I: (index of J, index of I u J, shuffle sign) for each q-monomial J disjoint from I."""
    union = monomial_index(m, p + q)
    return tuple(
        tuple(
            (b, union[tuple(sorted(I + J))], shuffle_sign(I, J))
            for b, J in enumerate(monomials(m, q))
            if not set(I) & set(J)
        )
        for I in monomials(m, p)
    )


def wedge_coords(x, p, y, q, m):
    """Wedge product of x in /\\^p and y in /\\^q, in /\\^(p+q) coordinates.

    Forms given by their values on every monomial (rational or scaled
    extensions are fine) wedge by the same shuffle formula.
    """
    out = [0] * dim(m, p + q)
    for xa, pairs in zip(x, _shuffles(m, p, q)):
        if xa:
            for b, k, sign in pairs:
                yb = y[b]
                if yb:
                    out[k] += sign * xa * yb
    return tuple(out)


def induced_matrix(P_rows, p, m_src, m_dst):
    """Matrix of /\\^p of the linear map v -> v . P on monomial bases.

    ``P_rows`` is the m_src x m_dst matrix of the map on row vectors.
    Row indexed by source monomials, column by target monomials; entries
    are the p x p minors of P.
    """
    if p == 0:
        return [(1,)]
    if p == 1:
        return [tuple(r) for r in P_rows]
    # minors of the rows of P indexed by each tail of a source monomial
    minors = {(i,): tuple(P_rows[i]) for i in range(p - 1, m_src)}
    for s in range(2, p + 1):
        table = _laplace(m_dst, s)
        for T in monomials(m_src, s):
            if T[0] >= p - s:
                minors[T] = _expand(P_rows[T[0]], minors[T[1:]], table)
    return [minors[I] for I in monomials(m_src, p)]


def contract_vector(alpha, k, x, p, m):
    """Contraction of a p-multivector x by a k-form alpha: a (p-k)-vector.

    The coefficient of e_J is the sum over I of
    sign(I, J) alpha(e_I) x_{I u J}.
    """
    out = [0] * dim(m, p - k)
    for aa, pairs in zip(alpha, _shuffles(m, k, p - k)):
        if aa:
            for b, j, sign in pairs:
                xv = x[j]
                if xv:
                    out[b] += sign * aa * xv
    return tuple(out)
