"""The table-driven exterior kernels against per-monomial reference implementations."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from tropfan import exterior
from tropfan.exterior import det, dim, monomial_index, monomials, shuffle_sign


# reference implementations: one Bareiss determinant per minor, one subset walk per monomial


def oracle_wedge_rows(rows, m):
    p = len(rows)
    return tuple(det([[r[i] for i in I] for r in rows]) for I in monomials(m, p))


def oracle_induced_matrix(P_rows, p, m_src, m_dst):
    out = []
    for I in monomials(m_src, p):
        sel = [P_rows[i] for i in I]
        out.append(tuple(det([[row[j] for j in J] for row in sel]) for J in monomials(m_dst, p)))
    return out


def oracle_wedge_coords(x, p, y, q, m):
    idx = monomial_index(m, p + q)
    out = [0] * dim(m, p + q)
    for a, I in enumerate(monomials(m, p)):
        for b, J in enumerate(monomials(m, q)):
            if not set(I) & set(J):
                out[idx[tuple(sorted(I + J))]] += shuffle_sign(I, J) * x[a] * y[b]
    return tuple(out)


def oracle_wedge_forms(alpha, p, beta, q, m):
    idxp, idxq = monomial_index(m, p), monomial_index(m, q)
    out = []
    for K in monomials(m, p + q):
        acc = 0
        for I in itertools.combinations(K, p):
            J = tuple(x for x in K if x not in I)
            acc += shuffle_sign(I, J) * alpha[idxp[I]] * beta[idxq[J]]
        out.append(acc)
    return tuple(out)


def oracle_contract_vector(alpha, k, x, p, m):
    idxp = monomial_index(m, p)
    out = []
    for J in monomials(m, p - k):
        acc = 0
        for a, I in enumerate(monomials(m, k)):
            if not set(J) & set(I):
                acc += shuffle_sign(I, J) * alpha[a] * x[idxp[tuple(sorted(I + J))]]
        out.append(acc)
    return tuple(out)


entries = st.integers(-4, 4) | st.just(0)


def matrix(rows, cols):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols).map(tuple), min_size=rows, max_size=rows)


def vector(m, p):
    return st.lists(entries, min_size=dim(m, p), max_size=dim(m, p)).map(tuple)


# m <= 6 and every degree up to m + 1, so p = 0, p = m and p > m all occur
shapes = st.integers(0, 6).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, m + 1), st.integers(0, m + 1)))


class TestAgainstOracles:
    @given(shapes.flatmap(lambda s: st.tuples(st.just(s[0]), matrix(s[1], s[0]))))
    @settings(max_examples=200, deadline=None)
    def test_wedge_rows(self, case):
        m, rows = case
        assert exterior.wedge_rows(rows, m) == oracle_wedge_rows(rows, m)

    @given(
        st.integers(0, 6).flatmap(
            lambda m_src: st.integers(0, 6).flatmap(
                lambda m_dst: st.tuples(
                    st.just(m_src), st.just(m_dst), st.integers(0, max(m_src, m_dst) + 1), matrix(m_src, m_dst)
                )
            )
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_induced_matrix(self, case):
        m_src, m_dst, p, P = case
        assert exterior.induced_matrix(P, p, m_src, m_dst) == oracle_induced_matrix(P, p, m_src, m_dst)

    @given(shapes.flatmap(lambda s: st.tuples(st.just(s), vector(s[0], s[1]), vector(s[0], s[2]))))
    @settings(max_examples=200, deadline=None)
    def test_wedge_coords_and_forms(self, case):
        (m, p, q), x, y = case
        got = exterior.wedge_coords(x, p, y, q, m)
        assert got == oracle_wedge_coords(x, p, y, q, m)
        # forms on all monomials wedge by the same formula
        assert got == oracle_wedge_forms(x, p, y, q, m)

    @given(shapes.flatmap(lambda s: st.tuples(st.just(s), vector(s[0], s[1]), vector(s[0], s[2]))))
    @settings(max_examples=200, deadline=None)
    def test_contract_vector(self, case):
        # x of degree q, contracted by a p-form: q < p gives the empty vector
        (m, p, q), alpha, x = case
        assert exterior.contract_vector(alpha, p, x, q, m) == oracle_contract_vector(alpha, p, x, q, m)

    def test_empty_matrix(self):
        for m in range(4):
            assert exterior.wedge_rows([], m) == oracle_wedge_rows([], m) == (1,)
            for p in range(3):
                assert exterior.induced_matrix([], p, 0, m) == oracle_induced_matrix([], p, 0, m)
