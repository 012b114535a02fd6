import math
import os
import pathlib
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropfan import sheaf, zlinalg
from tropfan.homology import compactification
from tropfan.zlinalg import (
    EQ,
    GE,
    GT,
    AbGroup,
    IntMatrix,
    LatticeQuotient,
    RowSolver,
    Sublattice,
    cokernel_group,
    feasible,
    hnf,
    hnf_basis,
    kernel_basis,
    rank_frac,
    saturate,
    in_rowspace,
    snf,
    snf_divisors,
    solve_frac,
    strict_lp_feasible,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent


def matrices(max_dim=4, max_entry=9, min_dim=1):
    return st.integers(min_dim, max_dim).flatmap(
        lambda m: st.integers(min_dim, max_dim).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-max_entry, max_entry), min_size=n, max_size=n),
                min_size=m,
                max_size=m,
            ).map(lambda rows: IntMatrix.from_rows(rows, n))
        )
    )


def sparse_unit_matrices(max_dim=7):
    """Small integer matrices, mostly zeros and +-1 like the differentials."""
    entry = st.sampled_from([0] * 6 + [1, -1] * 3 + [2, -2, 3, -4, 6])
    return st.integers(1, max_dim).flatmap(
        lambda m: st.integers(1, max_dim).flatmap(
            lambda n: st.lists(
                st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m
            ).map(lambda rows: IntMatrix.from_rows(rows, n))
        )
    )


def sympy_divisors(M):
    """Invariant factors from sympy's Smith normal form (independent oracle)."""
    from sympy import Matrix
    from sympy.matrices.normalforms import smith_normal_form
    from sympy.polys.domains import ZZ

    D = smith_normal_form(Matrix(M.row_list()), domain=ZZ)
    return tuple(sorted(abs(int(D[i, i])) for i in range(min(M.rows, M.cols)) if D[i, i] != 0))


def dict_rows(M):
    """The dict rows (column -> nonzero entry) of a dense matrix."""
    return [{j: e for j, e in enumerate(r) if e} for r in M.row_tuples()]


class TestSnfDivisors:
    @given(st.one_of(sparse_unit_matrices(), matrices()))
    @settings(max_examples=300, deadline=None)
    def test_matches_snf_and_sympy(self, M):
        divs = snf_divisors(dict_rows(M))
        assert divs == snf(M).divisors
        assert divs == sympy_divisors(M)

    def test_unit_pivots_and_residual(self):
        # one unit pivot leaves the block diag(2, 6) behind
        M = IntMatrix.from_rows([(1, 1, 0), (2, 4, 0), (0, 0, 6)])
        assert snf_divisors(dict_rows(M)) == (1, 2, 6)

    def test_empty_shapes(self):
        assert snf_divisors([]) == ()
        assert snf_divisors([{}, {}, {}]) == ()
        assert snf_divisors(dict_rows(IntMatrix(2, 2, [0] * 4))) == ()

    @given(sparse_unit_matrices())
    @settings(max_examples=200, deadline=None)
    def test_a_pivoted_row_never_changes_again(self, M):
        # steps keep pivot rows by reference: each must end as it was when it left the live rows
        rows = dict_rows(M)
        where, live = zlinalg._sparse_index(rows)
        left = {}

        class Live(set):
            def discard(self, i):
                if i in self:
                    left[i] = dict(rows[i])
                super().discard(i)

        pivots = zlinalg._unit_pivots(rows, where, Live(live))
        assert len({i for i, _ in pivots}) == len({j for _, j in pivots}) == len(pivots)
        for i, j in pivots:
            assert rows[i] == left[i]
            assert rows[i][j] in (1, -1)


class TestSparseProduct:
    @given(sparse_unit_matrices(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_vector_times_rows_matches_vecmat(self, M, data):
        vec = data.draw(st.lists(st.integers(-3, 3), min_size=M.rows, max_size=M.rows))
        want = zlinalg.vecmat(vec, M.row_tuples(), M.cols)
        assert zlinalg.sparse_vecmat(enumerate(vec), dict_rows(M)) == {j: x for j, x in enumerate(want) if x}

    def test_cancellation_is_not_stored(self):
        assert zlinalg.sparse_vecmat([(0, 1), (1, 1)], [{0: 1, 1: 2}, {0: -1}]) == {1: 2}


def _in_lattice(B, v):
    """v in the row lattice of B, decided by SNF: adding v keeps rank and index."""
    if B.rows == 0:
        return not any(v)
    ext = IntMatrix.from_rows(B.row_tuples() + [tuple(v)], B.cols)
    d, d_ext = snf(B).divisors, snf(ext).divisors
    return len(d) == len(d_ext) and math.prod(d) == math.prod(d_ext)


class TestRowSolver:
    @given(
        st.one_of(sparse_unit_matrices(5), matrices(min_dim=0)),
        st.lists(st.lists(st.integers(-3, 3), min_size=7, max_size=7), min_size=1, max_size=6),
        st.lists(st.booleans(), min_size=6, max_size=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_in_rowspace(self, B, draws, combine):
        solver = RowSolver(B)
        for draw, in_span in zip(draws, combine):
            if in_span:
                v = zlinalg.vecmat(draw[: B.rows], B.row_tuples(), B.cols)
            else:
                v = tuple(draw[: B.cols])
            x = solver.solve(v)
            assert x == in_rowspace(B, v)
            assert (x is not None) == _in_lattice(B, v)
            if x is not None:
                assert len(x) == B.rows
                assert zlinalg.vecmat(x, B.row_tuples(), B.cols) == v

    def test_outside_the_lattice(self):
        solver = RowSolver(IntMatrix.from_rows([(2, 0), (0, 3)]))
        assert solver.solve((2, 3)) == (1, 1)
        assert solver.solve((1, 0)) is None
        assert solver.solve((0, 4)) is None


class TestSNF:
    def test_identity(self):
        M = IntMatrix.identity(2)
        res = snf(M)
        assert res.D == IntMatrix.identity(2)

    def test_diag_2_3(self):
        res = snf(IntMatrix.from_rows([(2, 0), (0, 3)]))
        assert res.D == IntMatrix.from_rows([(1, 0), (0, 6)])

    def test_zero(self):
        res = snf(IntMatrix(2, 3, [0] * 6))
        assert not any(res.D.entries)

    @given(matrices(min_dim=0))
    @settings(max_examples=150, deadline=None)
    def test_snf_properties(self, M):
        res = snf(M)
        assert res.U * M * res.V == res.D
        assert abs(_det(res.U)) == 1
        assert abs(_det(res.V)) == 1
        assert res.V * res.Vinv == IntMatrix.identity(M.cols)
        divs = res.divisors
        assert all(d > 0 for d in divs)
        for a, b in zip(divs, divs[1:]):
            assert b % a == 0
        for i in range(res.D.rows):
            for j in range(res.D.cols):
                if i != j:
                    assert res.D[i, j] == 0


def _det(M):
    from tropfan.exterior import det

    return det(M.row_list())


def _with_identity(M):
    """[M | I]: reduced on M's columns, the identity block records the row operations."""
    rows = [r + tuple(int(i == k) for k in range(M.rows)) for i, r in enumerate(M.row_tuples())]
    return IntMatrix.from_rows(rows, M.cols + M.rows)


class TestHNF:
    @given(matrices(min_dim=0))
    @settings(max_examples=150, deadline=None)
    def test_hnf_shape(self, M):
        HT = hnf(_with_identity(M), M.cols).row_tuples()
        H = IntMatrix.from_rows([r[: M.cols] for r in HT], M.cols)
        T = IntMatrix.from_rows([r[M.cols :] for r in HT], M.rows)
        assert hnf(M) == H
        assert T * M == H
        assert abs(_det(T)) == 1
        basis = [r for r in H.row_tuples() if any(r)]
        assert hnf_basis(M.row_tuples(), M.cols) == basis
        assert Sublattice.from_rows(M.row_tuples(), M.cols).basis == IntMatrix.from_rows(basis, M.cols)
        if M.rows == 0:
            assert basis == [] and H == IntMatrix(0, M.cols, [])
        pivots = []
        for i in range(H.rows):
            row = H.row(i)
            p = next((j for j, e in enumerate(row) if e), None)
            if p is None:
                # all following rows must be zero too
                assert all(not any(H.row(k)) for k in range(i, H.rows))
                break
            assert H[i, p] > 0
            if pivots:
                assert p > pivots[-1]
            for k in range(i):
                assert 0 <= H[k, p] < H[i, p]
            pivots.append(p)

    def test_tall_basis_keeps_no_transform(self):
        # a basis from many generators, as the SF_p bases of large fans are built: no m x m transform
        rng = random.Random(11)
        rows = [tuple(rng.randint(-3, 3) for _ in range(6)) for _ in range(1000)]
        tracemalloc.start()
        try:
            basis = hnf_basis(rows, 6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert basis == [tuple(int(i == j) for j in range(6)) for i in range(6)]
        assert peak < 2 * 2**20


class TestCokernel:
    def test_example_rows(self):
        M = IntMatrix.from_rows([(1, 1, -2), (0, -3, 3)])
        assert cokernel_group(M) == AbGroup(1, (3,))

    def test_no_relations(self):
        assert cokernel_group(IntMatrix(0, 2, [])) == AbGroup(2)

    def test_full_rank_unimodular(self):
        assert cokernel_group(IntMatrix.from_rows([(1, 0), (0, 1)])).is_trivial


class TestKernel:
    def test_identity_kernel_empty(self):
        assert kernel_basis(IntMatrix.identity(3)).rows == 0

    def test_zero_map(self):
        K = kernel_basis(IntMatrix(1, 3, [0] * 3))
        assert K.rows == 3

    def test_p2_balancing_kernel(self, p2):
        from tropfan.chow import relation_matrix

        rows = relation_matrix(p2, 1)
        K = kernel_basis(IntMatrix.from_rows([[r.get(j, 0) for j in range(3)] for r in rows], 3))
        assert K.rows == 1
        assert K.row(0) in ((1, 1, 1), (-1, -1, -1))

    @given(matrices(min_dim=0))
    @settings(max_examples=100, deadline=None)
    def test_kernel_saturated_and_annihilates(self, M):
        K = kernel_basis(M)
        if M.rows == 0:
            assert K == IntMatrix.identity(M.cols)
        for i in range(K.rows):
            col = K.row(i)
            for r in range(M.rows):
                assert sum(M[r, j] * col[j] for j in range(M.cols)) == 0
        if K.rows:
            _, index = saturate(Sublattice(M.cols, K))
            assert index == 1


class TestSaturate:
    def test_index_three(self):
        L = Sublattice.from_rows([(1, 0), (0, 3)], 2)
        sat, index = saturate(L)
        assert index == 3
        assert sat.basis == IntMatrix.identity(2)

    def test_primitive_vector(self):
        L = Sublattice.from_rows([(1, 0)], 2)
        sat, index = saturate(L)
        assert index == 1
        assert sat.basis == L.basis

    def test_index_four(self):
        _, index = saturate(Sublattice.from_rows([(2, 0), (0, 2)], 2))
        assert index == 4


def _check_quotient(R, coeffs, extra):
    """LatticeQuotient of R against the dense snf(R) and RowSolver membership.

    ``coeffs`` and ``extra`` hold at least R.rows and 2 * R.cols
    integers.  u and w come from ``extra``; v is u plus the combination
    ``coeffs`` of the rows, plus w when w has an odd sum.  The classes
    of u and v must agree iff u - v is in the row lattice.
    """
    q = LatticeQuotient(R.cols, dict_rows(R))
    res = snf(R)
    divs = list(res.divisors) + [0] * (R.cols - res.rank)
    f, tor = divs.count(0), [d for d in divs if d >= 2]
    assert q.group == AbGroup(f, tuple(tor))
    u, w = tuple(extra[: R.cols]), tuple(extra[R.cols : 2 * R.cols])
    v = [a + b for a, b in zip(u, zlinalg.vecmat(coeffs[: R.rows], R.row_tuples(), R.cols))]
    if sum(w) % 2:
        v = [a + b for a, b in zip(v, w)]
    diff = tuple(a - b for a, b in zip(u, v))
    in_lattice = RowSolver(R).solve(diff) is not None if R.rows else not any(diff)
    assert (q.class_of(u) == q.class_of(tuple(v))) == in_lattice
    for c in (q.class_of(u), q.class_of(tuple(v))):
        assert len(c) == f + len(tor) and all(0 <= x < d for x, d in zip(c[f:], tor))
    reps = q.free_representatives()
    assert len(reps) == f
    for i, rep in enumerate(reps):
        assert q.class_of(rep) == tuple(int(j == i) for j in range(f)) + (0,) * len(tor)
    return q


class TestLatticeQuotient:
    def test_classes(self):
        q = LatticeQuotient(3, [{0: 1, 1: 1, 2: -2}, {1: -3, 2: 3}])
        assert q.group == AbGroup(1, (3,))
        zero = q.class_of((0, 0, 0))
        assert q.class_of((1, 1, -2)) == zero
        assert q.class_of((0, -1, 1)) != zero
        assert q.class_of((0, -3, 3)) == zero

    def test_free_representatives(self):
        q = LatticeQuotient(2, [{0: 2}])
        reps = q.free_representatives()
        assert len(reps) == 1
        assert any(q.class_of(reps[0]))

    def test_canonical_coordinates_are_pinned(self):
        # they follow the pivot order and the replay of the steps, which keep their pivot rows by reference
        q = LatticeQuotient(3, [{0: 1, 1: 1, 2: -2}, {1: -3, 2: 3}])
        assert [q.class_of(v) for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (2, -1, 5))] == [(1, 2), (1, 1), (1, 0), (6, 0)]
        assert q.free_representatives() == [(0, 0, 1)]
        q = LatticeQuotient(4, [{0: 1, 1: 2}, {2: 4, 3: 6}])
        vecs = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (3, -1, 2, 7))
        assert [q.class_of(v) for v in vecs] == [(-2, 0, 0), (1, 0, 0), (0, 3, 1), (0, -2, 1), (-7, -8, 1)]
        assert q.free_representatives() == [(0, 1, 0, 0), (0, 0, 1, 1)]

    @given(
        st.one_of(sparse_unit_matrices(), matrices(min_dim=0)),
        st.lists(st.integers(-4, 4), min_size=7, max_size=7),
        st.lists(st.integers(-9, 9), min_size=14, max_size=14),
    )
    @settings(max_examples=300, deadline=None)
    def test_against_the_dense_snf(self, R, coeffs, extra):
        _check_quotient(R, coeffs, extra)

    def test_nonempty_residuals(self):
        # no unit entry at all, or one unit pivot that leaves a block without units behind
        rng = random.Random(3)
        for rows in ([(2, 0), (0, 3)], [(1, 1, 0), (2, 4, 0), (0, 0, 6)], [(2, 4, 6), (4, 6, 8)], [(1, 2, 0, 0), (0, 0, 4, 6)]):
            R = IntMatrix.from_rows(rows)
            for _ in range(20):
                q = _check_quotient(R, [rng.randint(-4, 4) for _ in range(7)], [rng.randint(-9, 9) for _ in range(14)])
            assert q._cols, rows


class TestSmithWithoutLeftTransform:
    @given(st.one_of(sparse_unit_matrices(), matrices(min_dim=0)))
    @settings(max_examples=300, deadline=None)
    def test_same_d_v_and_vinv(self, M):
        full, right = snf(M), zlinalg._snf(M)
        assert right.U == IntMatrix(M.rows, 0, [])
        assert (right.D, right.V, right.Vinv) == (full.D, full.V, full.Vinv)


def _full_scan_snf(M, ncols=None):
    """``_snf`` as it was before its pivot search stopped at the first unit: the oracle below."""
    m = M.rows
    n = M.cols if ncols is None else ncols
    a = M.row_list()
    V = zlinalg._identity_rows(n)
    Vinv = zlinalg._identity_rows(n)

    def col_op(i, j, k):
        zlinalg._add_col(a, i, j, k)
        zlinalg._add_col(V, i, j, k)
        zlinalg._add_row(Vinv, j, i, -k)

    def col_swap(i, j):
        zlinalg._swap_cols(a, i, j)
        zlinalg._swap_cols(V, i, j)
        zlinalg._swap_rows(Vinv, i, j)

    t = 0
    while t < m and t < n:
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = abs(a[i][j])
                if v and (best is None or v < best):
                    best = v
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            zlinalg._swap_rows(a, pi, t)
        if pj != t:
            col_swap(pj, t)
        dirty = False
        for i in range(m):
            if i != t and a[i][t] != 0:
                q = a[i][t] // a[t][t]
                zlinalg._add_row(a, i, t, -q)
                if a[i][t] != 0:
                    dirty = True
        for j in range(n):
            if j != t and a[t][j] != 0:
                q = a[t][j] // a[t][t]
                col_op(j, t, -q)
                if a[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        p = a[t][t]
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % p != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            zlinalg._add_row(a, t, offender, 1)
            continue
        t += 1

    for i in range(min(m, n)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
    return (
        IntMatrix._trusted_rows([r[n:] for r in a], M.cols - n),
        IntMatrix._trusted_rows([r[:n] for r in a], n),
        IntMatrix._trusted_rows(V, n),
        IntMatrix._trusted_rows(Vinv, n),
    )


def unit_heavy_matrices(max_dim=6):
    """Matrices of up to max_dim rows and columns (either may be 0), mostly +-1 with some zeros and larger entries."""
    entry = st.sampled_from([1, -1] * 4 + [0] * 3 + [2, -2, 3, 5, -6])
    return st.integers(0, max_dim).flatmap(
        lambda m: st.integers(0, max_dim).flatmap(
            lambda n: st.lists(
                st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m
            ).map(lambda rows: IntMatrix(m, n, [x for r in rows for x in r]))
        )
    )


class TestSmithPivotSearch:
    """Stopping the pivot search at the first unit keeps the pivot the full scan keeps."""

    @given(st.one_of(unit_heavy_matrices(), sparse_unit_matrices(), matrices(min_dim=0)))
    @settings(max_examples=400, deadline=None)
    def test_same_forms_as_the_full_scan(self, M):
        res = zlinalg._snf(M)
        assert (res.U, res.D, res.V, res.Vinv) == _full_scan_snf(M)
        # with the identity carried, as snf reads the left transform
        carried = IntMatrix._trusted_rows(zlinalg._with_identity(M.row_tuples()), M.cols + M.rows)
        res = zlinalg._snf(carried, M.cols)
        assert (res.U, res.D, res.V, res.Vinv) == _full_scan_snf(carried, M.cols)

    def test_empty_shapes(self):
        for m, n in ((0, 0), (0, 3), (3, 0)):
            M = IntMatrix(m, n, [])
            res = zlinalg._snf(M)
            assert (res.U, res.D, res.V, res.Vinv) == _full_scan_snf(M)
            assert res.divisors == ()


def _fraction_rref(rows, ncols=None):
    """Gauss-Jordan elimination in Fractions on the first ``ncols`` columns, carrying the rest: (rows, pivots).

    Pivots are taken column by column from the first row at or below the
    current one with a nonzero entry, and each pivot row is scaled to a
    leading one.
    """
    a = [[Fraction(e) for e in r] for r in rows]
    m = len(a)
    if ncols is None:
        ncols = len(a[0]) if a else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == m:
            break
        piv = next((i for i in range(r, m) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(m):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots


def _fraction_solution(rows, rhs, ncols):
    """The solution g of rows . g = rhs with free coordinates zero, from :func:`_fraction_rref`, or None."""
    a, pivots = _fraction_rref([list(r[:ncols]) + [b] for r, b in zip(rows, rhs)], ncols)
    if any(row[ncols] for row in a[len(pivots) :]):
        return None
    g = [Fraction(0)] * ncols
    for row, c in zip(a, pivots):
        g[c] = row[ncols]
    return tuple(g)


def _cleared(rows):
    """Each rational row times the least common denominator of its entries, as ints."""
    out = []
    for r in rows:
        d = math.lcm(*(Fraction(x).denominator for x in r))
        out.append([int(x * d) for x in r])
    return out


def _check_scaled(solver, rhs, want):
    """``solver.solve_scaled(rhs)``, in ints, is ``denominator`` times ``want``, or None with it."""
    scaled = solver.solve_scaled(rhs)
    assert (scaled is None) == (want is None)
    if scaled is not None:
        assert all(type(x) is int for x in scaled)
        assert tuple(Fraction(x, solver.denominator) for x in scaled) == want


@st.composite
def rational_systems(draw, max_rows=6, max_cols=5):
    """Rational rows over ``ncols`` pivot columns and up to two augmented ones.

    Besides random rows it inserts combinations k1 r1 + k2 r2 of earlier
    rows at random places: zero rows, repeated and scaled rows, and
    rows dependent on the pivot columns but not on the augmented ones.
    """
    ncols = draw(st.integers(0, max_cols))
    width = ncols + draw(st.integers(0, 2))
    den = draw(st.sampled_from([1, 2, 6]))
    entry = st.builds(Fraction, st.integers(-6, 6), st.integers(1, den))
    rows = draw(st.lists(st.lists(entry, min_size=width, max_size=width), max_size=max_rows))
    combos = st.tuples(st.integers(0, max_rows), st.integers(0, max_rows), st.integers(-2, 2), st.integers(-2, 2),
                       st.integers(0, max_rows), st.integers(-1, 1))
    for i, j, k1, k2, at, shift in draw(st.lists(combos, max_size=3)):
        if not rows:
            break
        a, b = rows[i % len(rows)], rows[j % len(rows)]
        new = [k1 * x + k2 * y for x, y in zip(a, b)]
        if width > ncols:
            new[-1] += shift
        rows.insert(at % (len(rows) + 1), new)
    return rows, ncols


class TestRationalElimination:
    @given(rational_systems())
    @settings(max_examples=300, deadline=None)
    def test_solve_frac_matches_the_fraction_elimination(self, system):
        # each carried column as a right-hand side, and the zero one: Fraction entries straight into
        # solve_frac and rank_frac, and each equation cleared of denominators into a RowSolver
        rows, ncols = system
        coeffs = [r[:ncols] for r in rows]
        rank = len(_fraction_rref(coeffs, ncols)[1])
        assert rank_frac(coeffs) == rank
        for rhs in [[r[c] for r in rows] for c in range(ncols, len(rows[0]) if rows else 0)] + [[0] * len(rows)]:
            want = _fraction_solution(rows, rhs, ncols)
            if rows:
                assert solve_frac(coeffs, rhs) == want
            equations = _cleared([list(r) + [b] for r, b in zip(coeffs, rhs)])
            solver = RowSolver(IntMatrix.from_rows([e[:ncols] for e in equations], ncols))
            assert solver.rank == rank
            _check_scaled(solver, [e[ncols] for e in equations], want)

    @given(rational_systems(), st.lists(st.lists(st.integers(-9, 9), min_size=9, max_size=9), min_size=1, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_factored_solver_matches_solve_frac(self, system, draws):
        # one factorization of the cleared rows against the carried columns, one consistent
        # right-hand side B . x and one arbitrary per draw
        rows, ncols = system
        cleared = _cleared(rows)
        B = [r[:ncols] for r in cleared]
        solver = RowSolver(IntMatrix.from_rows(B, ncols))
        assert solver.rank == rank_frac(B) == len(_fraction_rref(B, ncols)[1])
        carried = [[r[c] for r in cleared] for c in range(ncols, len(rows[0]) if rows else 0)]
        drawn = [[sum(a * x for a, x in zip(r, draw)) for r in B] for draw in draws] + [d[: len(B)] for d in draws]
        for rhs in carried + drawn:
            want = _fraction_solution(B, rhs, ncols)
            if B:
                assert solve_frac(B, rhs) == want
            _check_scaled(solver, rhs, want)

    @given(rational_systems())
    @settings(max_examples=300, deadline=None)
    def test_hnf_pivots_are_the_fraction_pivots(self, system):
        # every echelon form pivots on the same columns, so the back substitution on H's pivot rows
        # pins the same free coordinates to zero as the Fraction elimination
        rows, ncols = system
        cleared = _cleared(rows)
        solver = RowSolver(IntMatrix.from_rows([r[:ncols] for r in cleared], ncols))
        pivots = _fraction_rref(rows, ncols)[1]
        assert [c for c, _, _ in solver._pivots] == pivots
        assert solver.denominator == math.prod(e for _, e, _ in solver._pivots) > 0
        whole = RowSolver(IntMatrix.from_rows(cleared, len(rows[0]) if rows else 0))
        assert rank_frac(rows) == len(_fraction_rref(rows)[1]) == whole.rank

    @pytest.mark.parametrize("name", ["p2", "delta", "sigma3", "cone2", "cube", "u23", "k4"])
    def test_solver_denominator_on_coefficient_lattices(self, name, request):
        # on every SF_p basis, the basis solver's denominator clears the Fraction solution of each unit
        # right-hand side, and solve_scaled gives exactly that multiple
        fan = request.getfixturevalue("k4_pair")[0] if name == "k4" else request.getfixturevalue(name)
        comp = compactification(fan)
        seen = set()
        for fid in range(len(comp.faces)):
            for p in range(fan.dim + 1):
                b = sheaf.basis(comp, fid, p)
                if not b or b in seen:
                    continue
                seen.add(b)
                solver = sheaf.basis_solver(comp, fid, p)
                for i in range(len(b)):
                    unit = [int(i == j) for j in range(len(b))]
                    _check_scaled(solver, unit, _fraction_solution(b, unit, len(b[0])))
        assert len(seen) > 1

    @given(matrices(), st.lists(st.integers(-9, 9), min_size=4, max_size=4), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_rank_and_solve(self, M, draw, in_image):
        rows = M.row_tuples()
        if in_image:
            # right-hand side M . x, so the system is consistent
            rhs = [sum(a * x for a, x in zip(r, draw)) for r in rows]
        else:
            rhs = draw[: M.rows]
        assert rank_frac(rows) == snf(M).rank
        augmented = IntMatrix.from_rows([r + (b,) for r, b in zip(rows, rhs)], M.cols + 1)
        consistent = snf(augmented).rank == snf(M).rank
        sol = solve_frac(rows, rhs)
        assert (sol is not None) == consistent
        if sol is not None:
            assert len(sol) == M.cols
            for r, b in zip(rows, rhs):
                assert sum(a * x for a, x in zip(r, sol)) == b


@st.composite
def lp_systems(draw, max_vars=6, max_rows=14):
    """Up to ``max_rows`` constraints in up to ``max_vars`` variables.

    Besides random rows it draws integer combinations k1 r1 + k2 r2 of
    earlier rows under any relation: all-zero rows (k1 = k2 = 0),
    repeated and scaled rows, and dependent, possibly inconsistent,
    equalities.
    """
    n = draw(st.integers(0, max_vars))
    den = draw(st.sampled_from([1, 1, 2, 3]))  # rational rows as the criteria build them
    entry = st.integers(-4, 4).map(lambda k: Fraction(k, den) if den > 1 else k)
    row = st.tuples(
        st.lists(entry, min_size=n, max_size=n).map(tuple),
        entry,
        st.sampled_from([EQ, GE, GT]),
    )
    cons = draw(st.lists(row, max_size=max_rows))
    combos = st.tuples(
        st.integers(0, max_rows), st.integers(0, max_rows),
        st.integers(-2, 2), st.integers(-2, 2),
        st.sampled_from([EQ, GE, GT]), st.integers(-1, 1),
    )
    for i, j, k1, k2, rel, shift in draw(st.lists(combos, max_size=max_rows - len(cons))):
        if not cons:
            break
        (a, b, _), (c, d, _) = cons[i % len(cons)], cons[j % len(cons)]
        cons.append((tuple(k1 * x + k2 * y for x, y in zip(a, c)), k1 * b + k2 * d + shift, rel))
    return n, cons


class TestLP:
    def test_single_positive(self):
        ok, cert = strict_lp_feasible([], [[1]])
        assert ok and cert.point == (Fraction(1),)

    def test_contradiction(self):
        ok, cert = strict_lp_feasible([], [[1], [-1]])
        assert not ok
        assert cert.verify([((1,), 0, GT), ((-1,), 0, GT)], 1)

    def test_p2_convexity_system(self, p2):
        from tropfan.criteria import strict_convexity_system
        from tropfan.fan import ConewiseLinear

        f = ConewiseLinear([0, 0, 1])
        cons = strict_convexity_system(p2, f, p2.cone_index((0,)))
        cert = feasible(cons, 2)
        assert cert.feasible
        assert cert.verify(cons, 2)

    @given(lp_systems())
    @settings(max_examples=300, deadline=None)
    def test_certificates_verify(self, system):
        # either verdict comes with a proof, so verification is the oracle
        nvars, cons = system
        cert = feasible(cons, nvars)
        assert cert.verify(cons, nvars)
        if not cert.feasible:
            assert cert.multipliers and all(m != 0 for m in cert.multipliers.values())

    def test_corrupted_certificates_rejected(self):
        LP = zlinalg.LPCertificate
        opposite = [((1,), 0, GT), ((-1,), 0, GT)]
        assert LP(False, multipliers={0: 1, 1: 1}).verify(opposite, 1)
        assert not LP(False, multipliers={0: 1, 1: 2}).verify(opposite, 1)  # x survives
        assert not LP(False, multipliers={0: -1, 1: -1}).verify(opposite, 1)  # negative on an inequality
        weak = [((1,), 0, GE), ((-1,), 0, GE)]
        assert not LP(False, multipliers={0: 1, 1: 1}).verify(weak, 1)  # 0 >= 0 holds
        assert not LP(False, multipliers={0: 0, 1: 1, 2: 1}).verify(opposite[:1] + weak, 1)  # no strict row counts
        assert not LP(False, multipliers={0: 1, 1: -1}).verify([((1,), -1, EQ), ((1,), -1, EQ)], 1)
        assert LP(False, multipliers={0: 1, 1: -1}).verify([((1,), -1, EQ), ((1,), -2, EQ)], 1)
        assert LP(True, point=(Fraction(1),)).verify([((1,), -1, GE)], 1)
        assert not LP(True, point=(Fraction(1, 2),)).verify([((1,), -1, GE)], 1)
        assert not LP(True, point=(Fraction(0),)).verify([((1,), 0, GT)], 1)
        assert not LP(True, point=(Fraction(1, 3),)).verify([((3,), 0, EQ)], 1)

    def test_empty_systems(self):
        assert feasible([], 3).point == (0, 0, 0)
        cert = feasible([], 0)
        assert cert.feasible and cert.point == ()

    def test_no_variables(self):
        for const, rel, ok in ((1, GT, True), (0, GT, False), (0, GE, True), (-1, GE, False),
                               (0, EQ, True), (2, EQ, False)):
            cons = [((), const, rel)]
            cert = feasible(cons, 0)
            assert cert.feasible is ok and cert.verify(cons, 0), (const, rel)

    def test_zero_rows(self):
        assert feasible([((0, 0), 0, GE), ((0, 0), 0, EQ), ((1, 0), 0, GT)], 2).feasible
        cons = [((1, 0), 0, GT), ((0, 0), 0, GT)]
        cert = feasible(cons, 2)
        assert not cert.feasible and set(cert.multipliers) == {1}

    def test_rank_deficient_equalities(self):
        # repeated and dependent equalities no free variable can absorb
        cons = [((1, 1, 0), -1, EQ), ((2, 2, 0), -2, EQ), ((1, 1, 0), -1, EQ), ((0, 0, 1), 0, GT)]
        cert = feasible(cons, 3)
        assert cert.feasible and cert.verify(cons, 3)
        cons = [((1, 1, 0), -1, EQ), ((0, 0, 1), 0, GE), ((2, 2, 0), -3, EQ)]
        cert = feasible(cons, 3)
        assert not cert.feasible and cert.verify(cons, 3)
        assert set(cert.multipliers) == {0, 2}

    def test_phase_one_on_rows_with_denominators(self):
        # the auxiliary variable must enter every row at unit rate, whatever its denominator
        h = Fraction(1, 2)
        cons = [
            ((0, h, 1), h, GE),
            ((-1, -1, -2), Fraction(3, 4), GE),
            ((Fraction(2, 3), Fraction(-3, 4), Fraction(1, 4)), 0, EQ),
            ((h, -1, h), Fraction(-1, 3), GE),
            ((0, Fraction(-3, 2), 1), 1, GT),
        ]
        cert = feasible(cons, 3)
        assert cert.feasible and cert.verify(cons, 3)

    def test_strict_needs_every_row(self):
        # x > 0, y > 0, x + y < 1 is feasible; with x + y <= 0 it is not
        base = [((1, 0), 0, GT), ((0, 1), 0, GT)]
        cert = feasible(base + [((-1, -1), 1, GT)], 2)
        assert cert.feasible and all(0 < v < 1 for v in cert.point)
        cons = base + [((-1, -1), 0, GE)]
        cert = feasible(cons, 2)
        assert not cert.feasible and cert.verify(cons, 2)

    def test_failed_verification_raises_under_optimize(self):
        code = (
            "from tropfan.zlinalg import GE, GT, LPCertificate, feasible\n"
            "LPCertificate.verify = lambda self, constraints, nvars: False\n"
            "for cons in ([((1,), 0, GT)], [((1,), 0, GT), ((-1,), 0, GE)]):\n"
            "    try:\n"
            "        feasible(cons, 1)\n"
            "    except AssertionError as exc:\n"
            "        print('raised:', exc)\n"
        )
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        ).stdout.splitlines()
        assert len(out) == 2
        assert out[0].startswith("raised: LP certificate fails to verify: LPCertificate(feasible=True")
        assert out[1].startswith("raised: LP certificate fails to verify: LPCertificate(feasible=False")
