"""Exact integer and rational linear algebra.

All computations use arbitrary-precision Python integers and
``fractions.Fraction``; there is no floating point anywhere in the
package.  Matrices at the scale of this project are tiny (at most a few
hundred rows), so the classical cubic algorithms with careful pivoting
are adequate and keep everything exact.

The main entry points are :func:`snf`, its divisors-only variant
:func:`snf_divisors`, :func:`hnf`, the factor-once solver
:class:`RowSolver`, :func:`kernel_basis`, :func:`cokernel_group`,
:func:`saturate`, the quotient :class:`LatticeQuotient` with its step
replay :func:`replay`, the rational solver :func:`solve_frac`, the
row-vector products :func:`vecmat` and :func:`sparse_vecmat`, and the
exact Bland-rule simplex :func:`feasible` / :func:`strict_lp_feasible`.

The two eliminations :func:`hnf` and :func:`_snf` share one convention:
they pivot on the first ``ncols`` columns and carry the rest along by the
same row operations.  A transform is never tracked on its own; whoever
needs one reduces [A | I] and reads it off the carried block
(:func:`snf`'s U, :class:`RowSolver`'s T), so no elimination builds a
transform that nobody reads.  Every exact solve, integral or rational,
factors its matrix with :func:`hnf`; :func:`_snf` serves the groups and
quotients.  Sparse rows lose their +-1 pivots first
(:func:`_unit_pivots`); each can be kept as a step (:func:`record_step`),
which holds the pivot row itself, as no later pivot changes it, and a
class map replays the steps.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction


class IntMatrix:
    """An immutable integer matrix stored in row-major order."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        entries = tuple(int(e) for e in entries)
        if len(entries) != rows * cols:
            raise ValueError(f"need {rows * cols} entries, got {len(entries)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, *args):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def _trusted(cls, rows, cols, entries):
        """A matrix over a tuple of ints that the package computed itself.

        Skips the per-entry ``int()`` coercion and the length check of
        the public constructor, which stay for matrices built from
        outside input.
        """
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "entries", entries)
        return m

    @classmethod
    def _trusted_rows(cls, rows, cols):
        """Trusted :meth:`from_rows`: computed int rows, all of width ``cols``."""
        return cls._trusted(len(rows), cols, tuple(itertools.chain.from_iterable(rows)))

    @classmethod
    def from_rows(cls, rows, cols=None):
        rows = [tuple(r) for r in rows]
        if cols is None:
            if not rows:
                raise ValueError("cannot infer width of an empty matrix")
            cols = len(rows[0])
        if any(len(r) != cols for r in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), cols, [e for r in rows for e in r])

    @classmethod
    def identity(cls, n):
        return cls._trusted(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def row(self, i):
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def row_list(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def row_tuples(self):
        return [self.row(i) for i in range(self.rows)]

    def transpose(self):
        e, c = self.entries, self.cols
        return IntMatrix._trusted(c, self.rows, tuple(itertools.chain.from_iterable(e[j::c] for j in range(c))))

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def __mul__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        out = []
        orows = other.row_tuples()
        for i in range(self.rows):
            r = self.row(i)
            acc = [0] * other.cols
            for k, rk in enumerate(r):
                if rk:
                    orow = orows[k]
                    for j in range(other.cols):
                        acc[j] += rk * orow[j]
            out.extend(acc)
        return IntMatrix._trusted(self.rows, other.cols, tuple(out))

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"IntMatrix({self.row_tuples()!r})"


@dataclass(frozen=True)
class SparseMatrix:
    """An integer matrix as dict rows, the form of every differential.

    ``data[i]`` maps the columns of row i, in increasing order, to their
    entries; a zero is never stored.
    """

    rows: int
    cols: int
    data: tuple

    @property
    def entries(self):
        """The stored entries, row by row: every nonzero entry once."""
        return tuple(e for r in self.data for e in r.values())


def sparse_vecmat(vec, rows):
    """Row vector of (index, value) pairs times dict rows, as dict column -> nonzero entry."""
    out = {}
    for i, x in vec:
        if x:
            for j, e in rows[i].items():
                out[j] = out.get(j, 0) + x * e
    return {j: v for j, v in out.items() if v}


@dataclass(frozen=True)
class AbGroup:
    """A finitely generated abelian group: free rank plus invariant factors.

    The torsion part is the ordered list of invariant factors
    ``d_1 | d_2 | ... | d_k`` with every ``d_i >= 2``.
    """

    free_rank: int
    torsion: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "torsion", tuple(int(d) for d in self.torsion))
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        for d in self.torsion:
            if d < 2:
                raise ValueError("invariant factors must be >= 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError("invariant factors must form a divisibility chain")

    @property
    def is_trivial(self):
        return self.free_rank == 0 and not self.torsion

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}Z" for d in self.torsion)
        return " x ".join(parts) if parts else "0"


def _identity_rows(n):
    """The n x n identity as mutable rows, for the column transforms V and Vinv of snf."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
    return rows


def _with_identity(rows):
    """The rows of [A | I] for the rows of A.

    Reduced on A's columns, the carried identity block records the row
    operations: it ends as the left transform.
    """
    m = len(rows)
    return [tuple(r) + (0,) * i + (1,) + (0,) * (m - 1 - i) for i, r in enumerate(rows)]


def _swap_rows(a, i, j):
    a[i], a[j] = a[j], a[i]


def _add_row(a, i, j, k):
    """row i += k * row j"""
    ri, rj = a[i], a[j]
    for c in range(len(ri)):
        ri[c] += k * rj[c]


def _swap_cols(a, i, j):
    for r in a:
        r[i], r[j] = r[j], r[i]


def _add_col(a, i, j, k):
    """col i += k * col j"""
    for r in a:
        r[i] += k * r[j]


@dataclass(frozen=True)
class SNFResult:
    """A Smith form: U * M * V = D and V * Vinv = I.

    From :func:`_snf`, U is whatever block was carried: the left
    transform only when M came with an identity block.
    """

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix
    Vinv: IntMatrix

    @property
    def divisors(self):
        """Nonzero diagonal entries of D, in divisibility order."""
        n = min(self.D.rows, self.D.cols)
        return tuple(self.D[i, i] for i in range(n) if self.D[i, i] != 0)

    @property
    def rank(self):
        return len(self.divisors)


def snf(M):
    """Smith normal form: U * M * V = D with U, V unimodular.

    D is diagonal with a divisibility chain d_1 | d_2 | ... and
    non-negative entries.  Pivoting picks the entry of minimal absolute
    value to limit coefficient growth.  U is read off [M | I].
    """
    return _snf(IntMatrix._trusted_rows(_with_identity(M.row_tuples()), M.cols + M.rows), M.cols)


def _snf(M, ncols=None):
    """The Smith elimination of the first ``ncols`` columns of M, carrying the rest.

    Pivots, column operations, V and Vinv involve only the first
    ``ncols`` columns (all of them by default); row operations act on
    whole rows.  D is the first ``ncols`` columns after elimination and
    U the carried ones, so a caller that needs no left transform carries
    nothing and pays for none.
    """
    m = M.rows
    n = M.cols if ncols is None else ncols
    a = M.row_list()
    V = _identity_rows(n)
    Vinv = _identity_rows(n)

    def col_op(i, j, k):
        # col i += k * col j ; V tracks the same op, Vinv the inverse op on rows
        _add_col(a, i, j, k)
        _add_col(V, i, j, k)
        _add_row(Vinv, j, i, -k)

    def col_swap(i, j):
        _swap_cols(a, i, j)
        _swap_cols(V, i, j)
        _swap_rows(Vinv, i, j)

    t = 0
    while t < m and t < n:
        # locate the first minimal-absolute-value nonzero pivot in the
        # trailing block, row by row; a unit is minimal, so stop at the first
        pivot = None
        best = None
        for i in range(t, m):
            row = a[i]
            for j in range(t, n):
                v = abs(row[j])
                if v and (best is None or v < best):
                    best = v
                    pivot = (i, j)
                    if v == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            _swap_rows(a, pi, t)
        if pj != t:
            col_swap(pj, t)
        # clear column t and row t; repeat until clean since reductions may
        # reintroduce entries
        dirty = False
        for i in range(m):
            if i != t and a[i][t] != 0:
                q = a[i][t] // a[t][t]
                _add_row(a, i, t, -q)
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
        # enforce divisibility of the remaining block by the pivot; a unit divides every entry
        p = a[t][t]
        if p != 1 and p != -1:
            offender = next((i for i in range(t + 1, m) if any(a[i][j] % p for j in range(t + 1, n))), None)
            if offender is not None:
                _add_row(a, t, offender, 1)
                continue
        t += 1

    for i in range(min(m, n)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]

    return SNFResult(
        IntMatrix._trusted_rows([r[n:] for r in a], M.cols - n),
        IntMatrix._trusted_rows([r[:n] for r in a], n),
        IntMatrix._trusted_rows(V, n),
        IntMatrix._trusted_rows(Vinv, n),
    )


def _sparse_index(rows):
    """Column index (column -> set of row indices) and nonempty rows of dict rows."""
    where = {}
    for i, r in enumerate(rows):
        for j in r:
            where.setdefault(j, set()).add(i)
    return where, {i for i, r in enumerate(rows) if r}


def _unit_pivots(rows, where, alive):
    """Split off every +-1 pivot of a sparse matrix, in place; returns the (row, column) pivots in order.

    ``rows`` are dicts column -> nonzero entry, ``where`` maps each
    column to the indices of the rows with an entry in it, and ``alive``
    holds the rows still in play.  A +-1 entry clears its column by row
    operations, after which column operations would clear its row
    without touching any other, so the pivot splits off a divisor 1 and
    its row and column drop out.  Rows are visited shortest first and
    each takes the unit entry whose column is sparsest, which keeps
    fill-in low.  A row leaves ``alive`` and ``where`` once it has
    pivoted, so no later pivot changes it: a step of :func:`record_step`
    may keep it by reference.
    """
    pivots = []
    progress = True
    while progress:
        progress = False
        for i in sorted(alive, key=lambda i: len(rows[i])):
            if i not in alive:
                continue
            r = rows[i]
            j = min((j for j, e in r.items() if e == 1 or e == -1), key=lambda j: len(where[j]), default=None)
            if j is None:
                continue
            for k in where[j] - {i}:
                rk = rows[k]
                f = rk[j] * r[j]
                for c, e in r.items():
                    v = rk.get(c, 0) - f * e
                    if v:
                        if c not in rk:
                            where[c].add(k)
                        rk[c] = v
                    elif c in rk:
                        del rk[c]
                        where[c].discard(k)
                if not rk:
                    alive.discard(k)
            for c in r:
                where[c].discard(i)
            alive.discard(i)
            pivots.append((i, j))
            progress = True
    return pivots


# the Smith form of the empty residual that unit pivots often leave
_NO_RESIDUAL = SNFResult(*(IntMatrix._trusted(0, 0, ()) for _ in range(4)))


def _units_then_snf(rows):
    """Unit pivots of dict rows, then the dense Smith form of what is left.

    The rows are consumed by :func:`_unit_pivots`.  Returns its pivots,
    the columns the residual rows still have, in increasing order, and
    the Smith form (no left transform) of the residual over them.
    """
    where, alive = _sparse_index(rows)
    pivots = _unit_pivots(rows, where, alive)
    if not alive:
        return pivots, [], _NO_RESIDUAL
    residual = [rows[i] for i in sorted(alive)]
    cols = sorted(set().union(*residual))
    dense = [tuple(r.get(c, 0) for c in cols) for r in residual]
    return pivots, cols, _snf(IntMatrix._trusted_rows(dense, len(cols)))


def snf_divisors(rows):
    """Invariant factors of a matrix given as dict rows, as :attr:`SNFResult.divisors`.

    The rows are consumed: unit pivots first, on the sparse rows, then
    the residual block (:func:`_units_then_snf`).
    """
    pivots, _, res = _units_then_snf(rows)
    return (1,) * len(pivots) + res.divisors


def hnf(M, ncols=None):
    """Row-style Hermite normal form of the first ``ncols`` columns of M.

    H is in echelon form with positive pivots and entries above each
    pivot reduced to lie in [0, pivot).  Zero rows sink to the bottom.
    Pivots are taken on the first ``ncols`` columns only (all of them by
    default); the rest are carried by the same row operations, so
    ``hnf`` of [B | I] on B's columns is [H | T] with H = T * B and T
    unimodular.  Returns the whole reduced matrix.
    """
    m = M.rows
    n = M.cols if ncols is None else ncols
    a = M.row_list()
    r = 0
    for c in range(n):
        # gcd cascade in column c among rows >= r
        while True:
            nz = [i for i in range(r, m) if a[i][c] != 0]
            if not nz:
                break
            piv = min(nz, key=lambda i: abs(a[i][c]))
            if piv != r:
                _swap_rows(a, piv, r)
            done = True
            for i in range(r + 1, m):
                if a[i][c] != 0:
                    q = a[i][c] // a[r][c]
                    _add_row(a, i, r, -q)
                    if a[i][c] != 0:
                        done = False
            if done:
                break
        if r < m and a[r][c] != 0:
            if a[r][c] < 0:
                a[r] = [-x for x in a[r]]
            for i in range(r):
                q = a[i][c] // a[r][c]
                if q:
                    _add_row(a, i, r, -q)
            r += 1
            if r == m:
                break
    return IntMatrix._trusted_rows(a, M.cols)


def hnf_basis(rows, cols):
    """HNF basis (nonzero rows only) of the lattice generated by ``rows``."""
    return [r for r in hnf(IntMatrix.from_rows(rows, cols)).row_tuples() if any(r)]


def kernel_basis(M):
    """Basis of the saturated integer kernel of the map x -> M * x.

    Rows of the result are vectors k in Z^cols with M * k = 0 (viewing k
    as a column).  The basis spans a saturated sublattice.
    """
    res = _snf(M)
    # the kernel columns of V, read as rows of its transpose
    return IntMatrix._trusted_rows(res.V.transpose().row_tuples()[res.rank :], M.cols)


def cokernel_group(M):
    """The abelian group Z^cols / rowspace(M)."""
    divisors = snf_divisors([{j: e for j, e in enumerate(r) if e} for r in M.row_tuples()])
    return AbGroup(M.cols - len(divisors), tuple(d for d in divisors if d >= 2))


@dataclass(frozen=True)
class Sublattice:
    """A sublattice of Z^ambient_rank given by an HNF basis."""

    ambient_rank: int
    basis: IntMatrix

    @classmethod
    def from_rows(cls, rows, ambient_rank):
        return cls(ambient_rank, IntMatrix._trusted_rows(hnf_basis(rows, ambient_rank), ambient_rank))

    @property
    def rank(self):
        return self.basis.rows


def saturate(L):
    """Saturation of a sublattice and the index of L inside it.

    The saturation is the intersection of the rational span of L with
    the ambient lattice; the index is the product of the invariant
    factors of any basis matrix of L.
    """
    res = _snf(L.basis)
    index = 1
    for d in res.divisors:
        index *= d
    # rows of the saturation: first rank rows of Vinv
    rows = [res.Vinv.row(i) for i in range(res.rank)]
    sat = Sublattice.from_rows(rows, L.ambient_rank)
    return sat, index


class RowSolver:
    """Integer solutions x of x * B = v, and rational ones g of B * g = r, for many v and r, from one HNF of B.

    B is factored once as :func:`hnf` of [B | I] on B's columns, which
    gives [H | T] with H = T * B; each :meth:`solve` reduces v against
    the pivot rows of H and maps the coefficients back through T, and
    each :meth:`solve_scaled` back-substitutes T * r on them.  B need not
    be in HNF.
    """

    def __init__(self, B):
        n = B.cols
        self.rows, self.cols = B.rows, n
        H = hnf(IntMatrix._trusted_rows(_with_identity(B.row_tuples()), n + B.rows), n)
        # the rows of T past the rank span the left kernel of B: B * g = r is solvable iff they annihilate r
        self._pivots, self._T, self._null = _split_echelon(H, n)
        self.rank = len(self._pivots)
        # the determinant of H's pivot block, so denominator * g is integral for an integer r (Cramer)
        self.denominator = math.prod(pivot for _, pivot, _ in self._pivots)

    def solve(self, vec):
        """Coefficients x with x * B = vec, or None if there are none."""
        v = list(vec)
        coeff = []
        for p, pivot, nz in self._pivots:
            q, r = divmod(v[p], pivot)
            if r:
                return None
            coeff.append(q)
            if q:
                for j, e in nz:
                    v[j] -= q * e
        if any(v):
            return None
        return vecmat(coeff, self._T, self.rows)

    def solve_scaled(self, rhs):
        """``denominator`` times the rational g with B * g = rhs that is zero off H's pivot columns, or None.

        The columns of B at H's pivot columns are independent and every
        echelon form of B pivots on them, so g is unique: it is the
        solution Gauss-Jordan elimination gives with free coordinates
        zero.  It is integral for an integer ``rhs``.
        """
        if any(_dot(t, rhs) for t in self._null):
            return None
        d = self.denominator
        return _back_substitute(self._pivots, [d * _dot(t, rhs) for t in self._T], self.cols)


def _split_echelon(H, n):
    """The (column, pivot, nonzero entries) of each nonzero row of an :func:`hnf` on its first n columns.

    Also returns the carried part of those rows, and that of the rows
    past the rank, which are zero on the first n columns.
    """
    rows = H.row_tuples()
    pivots = []
    for row in rows:
        nz = [(j, row[j]) for j in range(n) if row[j]]
        if not nz:
            break
        pivots.append((nz[0][0], nz[0][1], nz))
    rank = len(pivots)
    return pivots, [row[n:] for row in rows[:rank]], [row[n:] for row in rows[rank:]]


def _dot(row, vec):
    return sum(x * y for x, y in zip(row, vec) if x)


def _back_substitute(pivots, u, n):
    """The g with H * g = u that is zero off the pivot columns, last pivot first.

    ``pivots`` holds the (column, pivot, nonzero entries) of H's echelon
    rows.  Every division must be exact, as it is for u scaled by the
    product of the pivots.
    """
    g = [0] * n
    for (c, pivot, nz), x in zip(reversed(pivots), reversed(u)):
        g[c] = (x - sum(e * g[j] for j, e in nz[1:])) // pivot
    return tuple(g)


def in_rowspace(B, vec):
    """Coordinates of ``vec`` over the rows of B with integer coefficients.

    Returns the coefficient tuple, or None if ``vec`` is not an integer
    combination of the rows.  Solving many vectors against one B should
    go through one :class:`RowSolver` instead.
    """
    return RowSolver(B).solve(vec)


def solve_int(A, b):
    """Integer solution x of x * A = b, or None.  A is an IntMatrix."""
    return in_rowspace(A, b)


def vecmat(vec, rows, width=None):
    """Row vector times a matrix given as a sequence of rows.

    ``width`` is the number of columns; it is read off the first row
    when omitted, so it must be given for a matrix with no rows.
    """
    if width is None:
        width = len(rows[0]) if rows else 0
    out = [0] * width
    for x, row in zip(vec, rows):
        if x:
            for j in range(width):
                out[j] += x * row[j]
    return tuple(out)


def _integer_row(row):
    """A row of Fraction/int entries times the least common denominator of its entries."""
    d = math.lcm(*(x.denominator for x in row))
    return [x.numerator * (d // x.denominator) for x in row]


def rank_frac(rows):
    """Rank of a matrix with Fraction/int entries, read off a :class:`RowSolver` of its rows cleared of denominators."""
    if not rows:
        return 0
    ints = [_integer_row(r) for r in rows]
    return RowSolver(IntMatrix._trusted_rows(ints, len(ints[0]))).rank


def solve_frac(rows, rhs):
    """One rational solution g of rows . g = rhs, or None.

    ``rows`` is a list of coefficient rows (the system is
    sum_j rows[i][j] * g[j] = rhs[i]) of Fraction/int entries.  Each
    equation is cleared of denominators and rhs is carried through one
    :func:`hnf` on the coefficient columns.  Free variables are set to
    zero, which makes the solution deterministic: it is
    :meth:`RowSolver.solve_scaled`'s, by the same back substitution.
    """
    if not rows:
        return ()
    n = len(rows[0])
    augmented = [_integer_row((*r, b)) for r, b in zip(rows, rhs)]
    pivots, u, rest = _split_echelon(hnf(IntMatrix._trusted_rows(augmented, n + 1), n), n)
    if any(x for x, in rest):
        return None
    d = math.prod(pivot for _, pivot, _ in pivots)
    return tuple(Fraction(x, d) for x in _back_substitute(pivots, [d * x for x, in u], n))


def record_step(steps, j, row=None):
    """Record the unit pivot of a dict row at column j as the next step for :func:`replay`.

    The step keeps the row itself, which must not change afterwards, as
    no row that :func:`_unit_pivots` has pivoted on does; with no row it
    drops coordinate j and subtracts nothing.
    """
    steps[j] = (len(steps), row)


def replay(steps, x):
    """Apply recorded unit-pivot steps to a sparse vector (dict column -> value), in place.

    ``steps`` maps each pivot column j to (k, r), k the step's place in
    the pivot order and r the pivot row from :func:`record_step`.  Step
    j drops coordinate j, first subtracting x_j * r[j] * r (r scaled to
    1 at j, as r[j] = +-1) off column j if x_j and r are nonzero.  Only
    the steps at columns that x reaches run, in the order of k: r holds
    no earlier pivot column, and a later one it brings in runs in turn.
    Returns x.
    """
    heap = [(steps[j][0], j) for j in x if j in steps]
    heapq.heapify(heap)
    while heap:
        _, j = heapq.heappop(heap)
        xj = x.pop(j, 0)
        r = steps[j][1]
        if xj and r:
            xj *= r[j]
            for c, e in r.items():
                if c == j:
                    continue
                v = x.get(c, 0) - xj * e
                if v:
                    if c not in x and c in steps:
                        heapq.heappush(heap, (steps[c][0], c))
                    x[c] = v
                else:
                    del x[c]
    return x


class LatticeQuotient:
    """The quotient Z^n / rowspace(R) with a canonical-form class map.

    R is given as dict rows (column -> nonzero entry), which are copied.
    Its +-1 pivots are split off first and recorded as steps for
    :func:`replay`; only the residual goes to the dense Smith
    elimination (:func:`_units_then_snf`).  Canonical coordinates list
    the free components first (the surviving columns that no residual
    row touches, then the free directions of the residual), then one
    component modulo each invariant factor >= 2.
    """

    def __init__(self, n, relation_rows):
        self.n = n
        rows = [dict(r) for r in relation_rows]
        self._steps = steps = {}
        pivots, self._cols, res = _units_then_snf(rows)
        for i, j in pivots:
            record_step(steps, j, rows[i])
        dropped = steps.keys() | self._cols
        self._kept = [c for c in range(n) if c not in dropped]
        self._V = res.V.row_tuples()
        self._Vinv = res.Vinv
        # D has its nonzero divisors first, so the residual's free directions come last
        self._free_idx = range(res.rank, len(self._cols))
        self._torsion = [(i, d) for i, d in enumerate(res.divisors) if d >= 2]
        self.group = AbGroup(len(self._kept) + len(self._free_idx), tuple(d for _, d in self._torsion))

    def class_of(self, vec):
        """Canonical coordinates (free parts, then torsion parts) of a class."""
        if len(vec) != self.n:
            raise ValueError("length mismatch")
        x = replay(self._steps, {i: v for i, v in enumerate(vec) if v})
        kept = tuple(x.get(c, 0) for c in self._kept)
        if not self._cols:
            return kept
        y = vecmat([x.get(c, 0) for c in self._cols], self._V, len(self._cols))
        return kept + tuple(y[i] for i in self._free_idx) + tuple(y[i] % d for i, d in self._torsion)

    def free_representatives(self):
        """Vectors in Z^n whose classes are the canonical free generators."""
        reps = [{c: 1} for c in self._kept] + [dict(zip(self._cols, self._Vinv.row(i))) for i in self._free_idx]
        return [tuple(r.get(j, 0) for j in range(self.n)) for r in reps]


EQ, GE, GT = "=", ">=", ">"


@dataclass
class LPCertificate:
    """Either a feasible point or a Farkas-style infeasibility witness.

    For an infeasible system the witness is a linear combination of the
    input constraints (non-negative multipliers on inequalities, signed
    on equalities) whose coefficient part vanishes while the constant
    part contradicts the combined relation.
    """

    feasible: bool
    point: tuple = None
    multipliers: dict = None

    def verify(self, constraints, nvars):
        # the point, or the multipliers, times the lcm of their denominators:
        # every sign below is unchanged by that positive scale
        if self.feasible:
            scale = math.lcm(*(v.denominator for v in self.point))
            x = [v.numerator * (scale // v.denominator) for v in self.point]
            for coeffs, const, rel in constraints:
                val = sum(c * x[i] for i, c in enumerate(coeffs) if c) + const * scale
                if rel == EQ and val != 0:
                    return False
                if rel == GE and val < 0:
                    return False
                if rel == GT and val <= 0:
                    return False
            return True
        scale = math.lcm(*(m.denominator for m in self.multipliers.values()))
        combo = [0] * nvars
        const = 0
        strict = False
        has_ineq = False
        for idx, mult in self.multipliers.items():
            mult = mult.numerator * (scale // mult.denominator)
            coeffs, c, rel = constraints[idx]
            if rel in (GE, GT):
                if mult < 0:
                    return False
                has_ineq = True
                if rel == GT and mult > 0:
                    strict = True
            for i, a in enumerate(coeffs):
                if a:
                    combo[i] += mult * a
            const += mult * c
        if any(combo):
            return False
        # derived statement: const (>|>=|=) 0 must be false
        if strict:
            return const <= 0
        if has_ineq:
            return const < 0
        return const != 0


def feasible(constraints, nvars):
    """Exact feasibility of a system of linear constraints over Q.

    ``constraints`` is a list of (coeffs, const, rel) triples encoding
    coeffs . x + const  rel  0 with rel one of EQ, GE, GT.  Returns an
    :class:`LPCertificate`, re-verified before it is returned.

    An exact simplex under Bland's rule, in dictionary form: variable
    ``nvars + 2 + i`` is the slack ``s_i = a_i . x + b_i`` of constraint
    i.  The free ``x_j`` are pivoted into the basis first, through
    equalities before inequalities; equality slacks that leave are fixed
    at 0 and never re-enter.  Phase one uses Chvátal's single auxiliary
    variable.  A strict row gets ``- t`` and a cap row ``1 - t >= 0`` is
    added; phase two maximises ``t``, and the system is feasible exactly
    when ``t* > 0``.  Otherwise the final objective row ``obj* + sum c_j
    s_j`` is an identity in x, so the multipliers ``-c_j`` on the
    nonbasic slacks combine the constraints into a contradiction.
    """
    t, aux, cap = nvars, nvars + 1, nvars + 2 + len(constraints)
    rows = {}
    eqs, ineqs = [], []
    for i, (coeffs, const, rel) in enumerate(constraints):
        d = math.lcm(*(a.denominator for a in coeffs if a), const.denominator)
        row = {j: a.numerator * (d // a.denominator) for j, a in enumerate(coeffs) if a}
        if rel == GT:
            row[t] = -d
        rows[nvars + 2 + i] = [const.numerator * (d // const.denominator), row, d]
        (eqs if rel == EQ else ineqs).append(nvars + 2 + i)
    strict = any(rel == GT for _, _, rel in constraints)
    if strict:
        rows[cap] = [1, {t: -1}, 1]

    def certified(cert):
        if not cert.verify(constraints, nvars):
            raise AssertionError(f"LP certificate fails to verify: {cert}")
        return cert

    def farkas(row, d):
        return certified(LPCertificate(False, multipliers={
            j - nvars - 2: Fraction(-c, d) for j, c in row.items() if nvars + 2 <= j < cap
        }))

    fixed = set(eqs)
    for group in (eqs, ineqs):
        for s in group:
            j = min((j for j in rows[s][1] if j < nvars), default=None)
            if j is not None:
                _pivot(rows, s, j)
    for s in eqs:
        if s in rows:
            # no free variable left here: d s = b + sum of fixed equality slacks
            b, row, d = rows.pop(s)
            if b:
                return farkas({s: -d, **row}, 1)

    low = min((v for v, (b, _, _) in rows.items() if v >= nvars and b < 0),
              key=lambda v: (Fraction(rows[v][0], rows[v][2]), v), default=None)
    if low is not None:
        for v, (_, row, d) in rows.items():
            if v >= nvars:
                row[aux] = d
        objective = [0, {aux: -1}, 1]
        _pivot(rows, low, aux, objective)
        _maximise(rows, objective, fixed, nvars)
        if objective[0] < 0:
            return farkas(objective[1], objective[2])
        if aux in rows:
            enter = min((j for j in rows[aux][1] if j not in fixed), default=None)
            if enter is None:
                del rows[aux]
            else:
                _pivot(rows, aux, enter)
        for _, row, _ in rows.values():
            row.pop(aux, None)

    if strict:
        objective = [rows[t][0], dict(rows[t][1]), rows[t][2]] if t in rows else [0, {t: 1}, 1]
        _maximise(rows, objective, fixed, nvars)
        if objective[0] <= 0:
            return farkas(objective[1], objective[2])
    point = [Fraction(0)] * nvars
    for v, (b, _, d) in rows.items():
        if v < nvars:
            point[v] = Fraction(b, d)
    return certified(LPCertificate(True, point=tuple(point)))


def _pivot(rows, leave, enter, objective=None):
    """Exchange basic ``leave`` for nonbasic ``enter`` in a dictionary.

    ``rows`` maps each basic variable v to ``[b, {j: a_j}, d]`` with
    integers and ``d > 0``, meaning d v = b + sum a_j v_j over nonbasic
    j (no zero ``a_j`` stored; a rewritten row is divided by its
    content); the ``objective`` row, of the same form, is rewritten
    with them.
    """
    b, row, d = rows.pop(leave)
    q = row.pop(enter)
    # q v_enter = d v_leave - b - sum a_j v_j
    sign = -1 if q > 0 else 1
    new = {j: sign * a for j, a in row.items()}
    new[leave] = -sign * d
    b, q = sign * b, abs(q)
    others = list(rows.values())
    if objective is not None:
        others.append(objective)
    for other in others:
        c = other[1].pop(enter, None)
        if c is None:
            continue
        g = math.gcd(c, q)
        keep, add = q // g, c // g
        coeffs = other[1]
        if keep != 1:
            for j in coeffs:
                coeffs[j] *= keep
        for j, a in new.items():
            v = coeffs.get(j, 0) + add * a
            if v:
                coeffs[j] = v
            else:
                del coeffs[j]
        other[0] = other[0] * keep + add * b
        other[2] *= keep
        g = math.gcd(other[0], other[2], *coeffs.values())
        if g != 1:
            other[0] //= g
            other[2] //= g
            for j in coeffs:
                coeffs[j] //= g
    rows[enter] = [b, new, q]


def _maximise(rows, objective, fixed, nvars):
    """Bland-rule simplex on ``objective`` from a feasible dictionary.

    The rows of the free variables (below ``nvars``) take no part in the
    ratio test and the ``fixed`` equality slacks never enter, so every
    other variable is non-negative.  Stops at an optimum.
    """
    while True:
        enter = min((j for j, c in objective[1].items() if c > 0 and j not in fixed), default=None)
        if enter is None:
            return
        leave = None
        for v, (b, row, _) in rows.items():
            a = row.get(enter)
            if v < nvars or a is None or a > 0:
                continue
            # the step b / -a this row allows, against the best b_min / -a_min so far
            if leave is None or b * a_min > b_min * a or (b * a_min == b_min * a and v < leave):
                leave, b_min, a_min = v, b, a
        if leave is None:
            raise AssertionError("simplex objective is unbounded")
        _pivot(rows, leave, enter, objective)


def strict_lp_feasible(eqs, strict_ineqs):
    """Decide existence of x with eqs . x = 0 and strict_ineqs . x > 0.

    Both arguments are matrices given as lists of rational rows.  The
    system is homogeneous.  Returns (bool, certificate); the certificate
    re-verifies by substitution via :meth:`LPCertificate.verify`.
    """
    nvars = 0
    for row in itertools.chain(eqs, strict_ineqs):
        nvars = max(nvars, len(row))
    cons = [(tuple(row) + (0,) * (nvars - len(row)), 0, EQ) for row in eqs]
    cons += [(tuple(row) + (0,) * (nvars - len(row)), 0, GT) for row in strict_ineqs]
    cert = feasible(cons, nvars)
    return cert.feasible, cert


def primitive_cosolution(c):
    """Integer x with c . x == 1 for a primitive integer vector c.

    Deterministic: built by a left-to-right extended gcd over the
    entries.  Raises ValueError if gcd(c) != 1.
    """
    n = len(c)
    if n == 0:
        raise ValueError("empty vector")
    x = [0] * n
    g = 0
    for i, ci in enumerate(c):
        if g == 0:
            if ci != 0:
                g = abs(ci)
                x = [0] * n
                x[i] = 1 if ci > 0 else -1
            continue
        if ci == 0:
            continue
        s, t, g2 = _bezout(g, ci)
        # g2 = s*g + t*ci
        x = [s * v for v in x]
        x[i] += t
        g = g2
        if g == 1:
            break
    if g != 1:
        raise ValueError("vector is not primitive")
    return tuple(x)


def _bezout(a, b):
    """(s, t, g) with s*a + t*b = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_s, old_t, old_r
