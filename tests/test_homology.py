import itertools
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropfan import exterior, homology, sheaf, zlinalg
from tropfan.chow import chow_generator_cocycle, ray_cocycle
from tropfan.fan import Fan, TropicalWeights, is_unimodular
from tropfan.matroid import Matroid, bergman_fan
from tropfan.homology import (
    Cochain,
    ComplexGroups,
    build_complex,
    cap,
    coboundary,
    compactification,
    cubical_complex,
    cup,
    fine_double_complex,
    fundamental_cycle,
    VARIANTS,
    groups,
    table,
    unit_cochain,
)

FIXTURES = ["p2", "delta", "sigma3", "cone2", "cube", "u23"]
FANS = pathlib.Path(__file__).resolve().parent.parent / "fans"


def dense(m):
    """The IntMatrix of a sparse differential, for tests that read it densely."""
    return zlinalg.IntMatrix(m.rows, m.cols, [r.get(j, 0) for r in m.data for j in range(m.cols)])


def group_table(fan, variant, space="comp"):
    target = compactification(fan) if space == "comp" else fan
    return table(target, "Z", variant)


class TestBuildComplex:
    def test_square_p0(self, cone2):
        comp = compactification(cone2)
        gs = groups(build_complex(comp, 0, "cohomology"))
        assert [str(g) for g in gs] == ["Z", "0", "0"]

    def test_p2_compact_support_ranks(self, p2):
        gc = build_complex(p2, 0, "compact_support")
        assert [gc.dim(q) for q in range(3)] == [1, 3, 3]

    def test_fan_cohomology_concentrated_in_degree_zero(self, p2):
        gc = build_complex(p2, 1, "cohomology")
        assert gc.dim(0) == 2
        assert all(gc.dim(q) == 0 for q in range(1, 3))

    @pytest.mark.parametrize("name", FIXTURES)
    def test_homology_transposes_cohomology(self, name, request):
        fan = request.getfixturevalue(name)
        comp = compactification(fan)
        for p in range(fan.dim + 1):
            co = build_complex(comp, p, "cohomology")
            ho = build_complex(comp, p, "homology")
            for q in co.spaces:
                assert co.spaces[q] == ho.spaces[q]
                assert dense(co.map_out(q)) == dense(ho.map_out(q + 1)).transpose()

    def test_compact_space_variants_coincide(self, cube):
        comp = compactification(cube)
        for p in range(3):
            a = build_complex(comp, p, "cohomology")
            b = build_complex(comp, p, "compact_support")
            assert a.spaces == b.spaces
            assert all(a.map_out(q) == b.map_out(q) for q in a.spaces)


def _composable(max_dim=4):
    """Pairs of integer matrices (A, B) with A.cols == B.rows, empty shapes included."""
    entry = st.sampled_from([0] * 4 + [1, -1, 2])
    shape = st.tuples(*(st.integers(0, max_dim) for _ in range(3)))

    def pair(dims):
        m, n, k = dims
        rows = lambda r, c: st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r)
        return st.tuples(rows(m, n), rows(n, k)).map(
            lambda ab: (zlinalg.IntMatrix.from_rows(ab[0], n), zlinalg.IntMatrix.from_rows(ab[1], k))
        )

    return shape.flatmap(pair)


def _sparse(M):
    return zlinalg.SparseMatrix(M.rows, M.cols, tuple({j: e for j, e in enumerate(r) if e} for r in M.row_tuples()))


class TestSparseDifferentials:
    @pytest.mark.parametrize("name", FIXTURES + ["k4_pair"])
    def test_maps_store_only_nonzero_entries(self, name, request):
        fan = request.getfixturevalue(name)
        if name == "k4_pair":
            fan = fan[0]
        complexes = [build_complex(space, p, variant)
                     for space in (fan, compactification(fan)) for variant in VARIANTS for p in range(fan.dim + 1)]
        complexes += [fine_double_complex(fan, p).total_complex() for p in range(fan.dim + 1)]
        if name != "sigma3":
            complexes += [cubical_complex(fan, p) for p in range(fan.dim + 1)]
        for gc in complexes:
            for q, m in gc.maps.items():
                assert isinstance(m, zlinalg.SparseMatrix)
                assert (m.rows, m.cols) == (gc.dim(q), gc.dim(q + gc.step))
                assert 0 not in m.entries
                assert len(m.entries) == sum(1 for e in dense(m).entries if e)

    @given(_composable())
    @settings(max_examples=300, deadline=None)
    def test_dd_zero_matches_dense_product(self, ab):
        A, B = ab
        labels = lambda n: tuple((0, i) for i in range(n))
        gc = homology.GradedComplex(None, 0, "cohomology", "Z", 1,
                                    {0: labels(A.rows), 1: labels(A.cols), 2: labels(B.cols)},
                                    {0: _sparse(A), 1: _sparse(B)})
        assert gc.check_dd_zero() == (not any((A * B).entries))

    def test_flipped_block_exits_3_under_optimize(self):
        # one sign flipped in one stored p = 1 block, read by both the coboundary and, transposed,
        # the boundary: d^2 = 0 fails even under -O, and the CLI says where.  The block maps between two different
        # bases: one from a basis to itself may be the identity wherever it is read, and a sign
        # flipped there is a change of basis, under which d^2 stays zero
        code = (
            "import sys\n"
            "from tropfan import cli, sheaf\n"
            "original = sheaf._solve_block\n"
            "flipped = []\n"
            "def flip(rows, a, b):\n"
            "    return tuple(tuple((c, -e if (r, c) == (a, b) else e) for c, e in row) for r, row in enumerate(rows))\n"
            "def wrapped(comp, p, key, gid, did):\n"
            "    transport = original(comp, p, key, gid, did)\n"
            "    if p == 1 and not flipped and key[0] != key[1] and any(transport):\n"
            "        flipped.append(key)\n"
            "        j, (i, _) = next((j, row[0]) for j, row in enumerate(transport) if row)\n"
            "        transport = flip(transport, j, i)\n"
            "    return transport\n"
            "sheaf._solve_block = wrapped\n"
            f"sys.exit(cli.run(['cohomology', '--fan', {str(FANS / 'cube.json')!r}, '--space', 'comp']))\n"
        )
        res = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(FANS.parent / "src")},
        )
        assert res.returncode == 3
        assert "the cohomology differential for p = 1 does not square to zero" in res.stderr


def _dense_block(comp, p, gid, did, dual):
    """The dense rows of the dual transport (``dual``) or of the restriction of an incident pair."""
    rows = sheaf.dual_transport(comp, p, gid, did) if dual else sheaf.restriction(comp, p, gid, did)
    width = sheaf.rank(comp, did if dual else gid, p)
    out = [[0] * width for _ in rows]
    for o, row in zip(out, rows):
        for j, x in row:
            o[j] = x
    return out


def _oracle_complex(space, p, variant, coeff, covers):
    """The complex as assembled from one checked dense block per cover pair by the dense ``_assemble``.

    ``covers`` lists each face's covers, as the ``face_covers`` fixture reads them.
    """
    comp = space if isinstance(space, homology.Compactification) else compactification(space)
    use_fan_faces = comp is not space
    zero = comp.fan.zero_cone
    faces = []
    for fid, (t, _) in enumerate(comp.faces):
        if use_fan_faces and (t != zero or (homology._COMPACT_ONLY[variant] and fid != comp.face_index[(zero, zero)])):
            continue
        faces.append(fid)
    face_set = set(faces)
    dual = homology._DUAL_VARIANTS[variant]
    step = 1 if dual else -1
    spaces, offsets, faces_of = {}, {}, {}
    for fid in faces:
        q = comp.dim(fid)
        lab = spaces.setdefault(q, [])
        faces_of.setdefault(q, []).append(fid)
        offsets[fid] = len(lab)
        lab.extend((fid, i) for i in range(sheaf.rank(comp, fid, p)))
    maps = {}
    for q, labs in spaces.items():
        blocks = []
        for src in faces_of[q]:
            for dst, sign in comp.cofaces_of(src) if dual else covers[src]:
                if dst in face_set:
                    M = _dense_block(comp, p, src, dst, True) if dual else _dense_block(comp, p, dst, src, False)
                    rpos = range(offsets[src], offsets[src] + sheaf.rank(comp, src, p))
                    cpos = range(offsets[dst], offsets[dst] + sheaf.rank(comp, dst, p))
                    blocks.append((rpos, cpos, sign, M))
        maps[q] = homology._assemble(len(labs), len(spaces.get(q + step, ())), blocks)
    return {q: tuple(v) for q, v in spaces.items()}, maps


class TestAssemblyOracle:
    """Differentials assembled from the interned sparse blocks equal the dense per-pair assembly."""

    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("name", FIXTURES + ["k4", "u53", "u44"])
    def test_rows_and_column_order(self, name, seed, request, reordered, face_covers):
        fan = reordered(_oracle_fan(name, request), seed)
        covers = face_covers(compactification(fan))
        for space in (fan, compactification(fan)):
            for variant in VARIANTS:
                for p in range(fan.dim + 1):
                    for coeff in ("Z", "Q"):
                        gc = build_complex(space, p, variant, coeff)
                        spaces, maps = _oracle_complex(space, p, variant, coeff, covers)
                        assert gc.spaces == spaces
                        assert gc.maps.keys() == maps.keys()
                        for q, m in maps.items():
                            assert (gc.maps[q].rows, gc.maps[q].cols) == (m.rows, m.cols)
                            # the same entries, each row's columns in the same order
                            assert [list(r.items()) for r in gc.maps[q].data] == [list(r.items()) for r in m.data]


class TestChainsTransposeCochains:
    """Each chain differential is the exact transpose of the matching cochain differential."""

    @pytest.mark.parametrize("seed", [None, 13])
    @pytest.mark.parametrize("name", FIXTURES + ["k4", "u53", "u44"])
    def test_boundary_is_the_transposed_coboundary(self, name, seed, request, reordered):
        fan = _oracle_fan(name, request)
        if seed is not None:
            fan = reordered(fan, seed)
        for space in (fan, compactification(fan)):
            for chains, cochains in (("homology", "cohomology"), ("borel_moore", "compact_support")):
                for p in range(fan.dim + 1):
                    down, up = build_complex(space, p, chains), build_complex(space, p, cochains)
                    assert down.spaces == up.spaces
                    assert down.maps.keys() == up.maps.keys()
                    for q, m in down.maps.items():
                        # the map into degree q - 1 against the transpose of the map out of it, if any
                        transposed = [{} for _ in range(m.rows)]
                        coboundary = up.maps.get(q - 1)
                        if coboundary is not None:
                            assert (coboundary.rows, coboundary.cols) == (m.cols, m.rows)
                            for j, row in enumerate(coboundary.data):
                                for i, x in row.items():
                                    transposed[i][j] = x
                        else:
                            assert m.cols == 0
                        assert [list(r.items()) for r in m.data] == [list(r.items()) for r in transposed]


class TestFixtureTables:
    def test_cube_table_right_half(self, cube):
        t = group_table(cube, "cohomology")
        expect = {
            (0, 0): "Z",
            (1, 1): "Z^5",
            (2, 1): "Z^2",
            (2, 2): "Z",
        }
        for (p, q), g in t.items():
            assert str(g) == expect.get((p, q), "0"), (p, q, str(g))

    def test_cube_table_left_half(self, cube):
        t = group_table(cube, "compact_support", space="fan")
        expect = {
            (0, 2): "Z^5",
            (1, 2): "Z^3 x Z/2Z",
            (2, 1): "Z^2",
            (2, 2): "Z",
        }
        for (p, q), g in t.items():
            assert str(g) == expect.get((p, q), "0"), (p, q, str(g))

    def test_sigma3_torsion_class(self, sigma3):
        t = group_table(sigma3, "cohomology")
        assert str(t[(1, 2)]) == "Z/3Z"

    def test_delta_h11(self, delta):
        t = group_table(delta, "cohomology")
        assert str(t[(1, 1)]) == "Z"
        assert str(t[(0, 0)]) == "Z"

    def test_q_mode_ranks(self, sigma3):
        comp = compactification(sigma3)
        gz = ComplexGroups(build_complex(comp, 1, "cohomology", "Z"))
        gq = ComplexGroups(build_complex(comp, 1, "cohomology", "Q"))
        for q in range(3):
            assert gq.group(q).free_rank == gz.group(q).free_rank
            assert not gq.group(q).torsion


class TestLazyClassMaps:
    @pytest.mark.parametrize("name", FIXTURES + ["k4_pair"])
    def test_quotient_is_the_divisor_group(self, name, request):
        fan = request.getfixturevalue(name)
        if name == "k4_pair":
            fan = fan[0]
        for space in (fan, compactification(fan)):
            for variant in VARIANTS:
                for p in range(fan.dim + 1):
                    gc = build_complex(space, p, variant)
                    cg = ComplexGroups(gc)
                    for q in gc.spaces:
                        *_, quot = cg._class_map(q)
                        assert quot.group == cg.group(q), (variant, p, q)
                        if q - gc.step in gc.spaces:
                            for v in dense(gc.map_out(q - gc.step)).row_tuples():
                                assert not any(cg.class_of(q, enumerate(v))), (variant, p, q)

    def test_group_mismatch_raises_under_optimize(self):
        code = (
            "from tropfan.cli import load_fan_file\n"
            "from tropfan.homology import ComplexGroups, build_complex, compactification\n"
            "from tropfan.zlinalg import AbGroup\n"
            f"fan = load_fan_file({str(FANS / 'sigma3.json')!r})[0]\n"
            "gc = build_complex(compactification(fan), 1, 'cohomology')\n"
            "cg = ComplexGroups(gc)\n"
            "cg.groups[2] = AbGroup(0)\n"
            "try:\n"
            "    cg.class_of(2, ())\n"
            "except AssertionError as exc:\n"
            "    print('raised:', exc)\n"
        )
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(FANS.parent / "src")},
        ).stdout
        assert out.startswith("raised: class map quotient Z/3Z differs from H_2 = 0")


def _left_kernel(M):
    """Saturated basis of {x : x * M = 0}: the rows of T with H = T * M zero.

    [H | T] is the HNF of [M | I] on M's columns.  T is unimodular, so
    these rows span a saturated lattice; nothing here shares code with
    the reduction behind ``class_of``.
    """
    n = M.cols
    aug = [r + tuple(int(i == k) for k in range(M.rows)) for i, r in enumerate(M.row_tuples())]
    HT = zlinalg.hnf(zlinalg.IntMatrix.from_rows(aug, n + M.rows), n)
    return [r[n:] for r in HT.row_tuples() if not any(r[:n])]


def _add_classes(group, a, b):
    """Sum of canonical coordinates: free parts exactly, torsion parts modulo d."""
    f = group.free_rank
    return tuple(x + y for x, y in zip(a[:f], b[:f])) + tuple(
        (x + y) % d for x, y, d in zip(a[f:], b[f:], group.torsion)
    )


@pytest.fixture(scope="session")
def reduction_cases(request):
    """(label, groups, q, kernel basis, d_in solver) for every Z class map.

    Fixtures, K4, U(5,3) and U(4,4); fan and compactification, every
    variant, p and q.  The kernel basis comes from :func:`_left_kernel`,
    d_in membership from one RowSolver per degree.
    """
    fans = [request.getfixturevalue(name) for name in FIXTURES]
    fans.append(request.getfixturevalue("k4_pair")[0])
    fans += [bergman_fan(Matroid.uniform(n, r), name=f"u{n}{r}")[0] for n, r in ((5, 3), (4, 4))]
    cases = []
    for fan in fans:
        for space in (fan, compactification(fan)):
            for variant in VARIANTS:
                for p in range(fan.dim + 1):
                    gc = build_complex(space, p, variant)
                    cg = ComplexGroups(gc)
                    for q in gc.spaces:
                        d_in = dense(gc.map_out(q - gc.step)) if q - gc.step in gc.spaces else None
                        solver = zlinalg.RowSolver(d_in) if d_in is not None and d_in.rows else None
                        label = (fan.name, space is fan, variant, p, q)
                        cases.append((label, cg, q, _left_kernel(dense(gc.map_out(q))), d_in, solver))
    return cases


class TestReducedClassMaps:
    def test_boundaries_have_class_zero(self, reduction_cases):
        for label, cg, q, _, d_in, _ in reduction_cases:
            if d_in is not None:
                for v in d_in.row_tuples():
                    assert not any(cg.class_of(q, enumerate(v))), label

    def test_additive_modulo_torsion(self, reduction_cases):
        rng = random.Random(5)
        for label, cg, q, K, _, _ in reduction_cases:
            g = cg.group(q)
            for _ in range(4 if K else 0):
                u, v = (zlinalg.vecmat([rng.randint(-3, 3) for _ in K], K) for _ in range(2))
                total = cg.class_of(q, enumerate(a + b for a, b in zip(u, v)))
                assert total == _add_classes(g, cg.class_of(q, enumerate(u)), cg.class_of(q, enumerate(v))), label

    def test_kernel_basis_classes_generate(self, reduction_cases):
        for label, cg, q, K, _, _ in reduction_cases:
            g = cg.group(q)
            width = g.free_rank + len(g.torsion)
            if width == 0:
                continue
            rows = [cg.class_of(q, enumerate(k)) for k in K]
            rows += [tuple(d if j == g.free_rank + i else 0 for j in range(width)) for i, d in enumerate(g.torsion)]
            assert zlinalg.cokernel_group(zlinalg.IntMatrix.from_rows(rows, width)).is_trivial, label

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_equal_classes_exactly_on_boundaries(self, reduction_cases, data):
        label, cg, q, K, d_in, solver = data.draw(st.sampled_from([c for c in reduction_cases if c[3]]))
        coeffs = st.integers(-4, 4)
        u = zlinalg.vecmat(data.draw(st.lists(coeffs, min_size=len(K), max_size=len(K))), K)
        # v = u + a boundary + (in half the draws) a further kernel combination
        v = u
        if d_in is not None:
            b = data.draw(st.lists(coeffs, min_size=d_in.rows, max_size=d_in.rows))
            b = zlinalg.vecmat(b, d_in.row_tuples(), len(u))
            v = [x + y for x, y in zip(v, b)]
        if data.draw(st.booleans()):
            e = zlinalg.vecmat(data.draw(st.lists(coeffs, min_size=len(K), max_size=len(K))), K)
            v = [x + y for x, y in zip(v, e)]
        diff = tuple(x - y for x, y in zip(u, v))
        boundary = solver.solve(diff) is not None if solver is not None else not any(diff)
        assert (cg.class_of(q, enumerate(u)) == cg.class_of(q, enumerate(v))) == boundary, label

    def test_non_cocycle_raises_under_optimize(self):
        code = (
            "from tropfan.cli import load_fan_file\n"
            "from tropfan.homology import ComplexGroups, build_complex, compactification\n"
            f"fan = load_fan_file({str(FANS / 'cube.json')!r})[0]\n"
            "gc = build_complex(compactification(fan), 1, 'cohomology')\n"
            "cg = ComplexGroups(gc)\n"
            "vec = [0] * gc.dim(1)\n"
            "vec[0] = 1\n"
            "try:\n"
            "    cg.class_of(1, enumerate(vec))\n"
            "except AssertionError as exc:\n"
            "    print('raised:', exc)\n"
        )
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(FANS.parent / "src")},
        ).stdout
        assert out.startswith("raised: vector is not a cycle in degree 1")


def _pivots_with_callback(rows, where, alive, on_pivot):
    """The unit-pivot loop of ``zlinalg._unit_pivots``, calling ``on_pivot(i, j)`` after each pivot.

    The callback may drop rows or columns from the three structures
    while the elimination runs, which the stacked reduction below needs.
    """
    progress = True
    while progress:
        progress = False
        for i in sorted(alive, key=lambda i: len(rows[i])):
            if i not in alive:
                continue
            r = rows[i]
            j = min((j for j, e in r.items() if e in (1, -1)), key=lambda j: len(where[j]), default=None)
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
            progress = True
            on_pivot(i, j)


class _TwoPassGroups:
    """Groups and class maps of a complex with every differential eliminated twice.

    The groups come from the invariant factors of each map on its own;
    the class map of a degree from a second elimination of d_in and
    d_out stacked into one matrix, where a unit of d_out drops its row's
    cell as a column of d_in and a unit of d_in drops the row of d_out
    of its column's cell, each as it is taken.  An oracle for
    :class:`ComplexGroups`, which eliminates each map once.
    """

    def __init__(self, gc):
        self.gc = gc
        divisors = {q: zlinalg.snf_divisors([dict(r) for r in gc.maps[q].data]) for q in gc.spaces}
        self.groups = {}
        for q in sorted(gc.spaces):
            d_in = divisors.get(q - gc.step, ())
            torsion = tuple(d for d in d_in if d >= 2) if gc.coeff == "Z" else ()
            self.groups[q] = zlinalg.AbGroup(gc.dim(q) - len(divisors[q]) - len(d_in), torsion)
        self._class_maps = {}

    def class_of(self, q, pairs):
        steps, cells, solver, quot = self._class_map(q)
        x = zlinalg.replay(steps, {i: v for i, v in pairs if v})
        if solver is None:
            assert not x
            return ()
        c = solver.solve(tuple(x.get(i, 0) for i in cells))
        assert c is not None
        return quot.class_of(c)

    def _class_map(self, q):
        if q not in self._class_maps:
            gc = self.gc
            n = gc.dim(q)
            d_in = gc.maps[q - gc.step].data if q - gc.step in gc.spaces else ()
            # rows of d_in over the cells 0..n-1 of degree q, then the row of d_out of cell c as row m + c
            m = len(d_in)
            rows = [dict(r) for r in d_in] + [{n + j: e for j, e in r.items()} for r in gc.map_out(q).data]
            where, alive = zlinalg._sparse_index(rows)
            steps = {}

            def on_pivot(i, j):
                if i >= m:
                    for k in where.pop(i - m, ()):
                        del rows[k][i - m]
                        if not rows[k]:
                            alive.discard(k)
                    zlinalg.record_step(steps, i - m)
                else:
                    zlinalg.record_step(steps, j, rows[i])
                    if m + j in alive:
                        for c in rows[m + j]:
                            where[c].discard(m + j)
                        alive.discard(m + j)

            _pivots_with_callback(rows, where, alive, on_pivot)
            cells = [c for c in range(n) if c not in steps]
            pos = {c: i for i, c in enumerate(cells)}
            transposed = {}
            for c in cells:
                for j, e in rows[m + c].items():
                    transposed.setdefault(j, [0] * len(cells))[pos[c]] = e
            K = zlinalg.kernel_basis(zlinalg.IntMatrix.from_rows(list(transposed.values()), len(cells)))
            solver = zlinalg.RowSolver(K) if K.rows else None
            rel_rows = []
            for k in sorted(alive):
                if k < m:
                    v = [0] * len(cells)
                    for c, e in rows[k].items():
                        v[pos[c]] = e
                    rel_rows.append({j: e for j, e in enumerate(solver.solve(v)) if e})
            quot = zlinalg.LatticeQuotient(K.rows, rel_rows)
            assert quot.group == self.groups[q]
            self._class_maps[q] = (steps, cells, solver, quot)
        return self._class_maps[q]


class TestOneReduction:
    """One reduction per complex gives the groups and the classes of the two-pass reduction."""

    @pytest.mark.parametrize("seed", [5, 17])
    @pytest.mark.parametrize("name", FIXTURES + ["k4", "u53", "u63"])
    def test_groups_and_classes_match_the_two_pass_reduction(self, name, seed, request, reordered):
        fan = reordered(_oracle_fan(name, request), seed)
        torsion = 0
        for space in (fan, compactification(fan)):
            for variant in VARIANTS:
                for p in range(fan.dim + 1):
                    for coeff in ("Z", "Q"):
                        gc = build_complex(space, p, variant, coeff)
                        cg, oracle = ComplexGroups(gc), _TwoPassGroups(gc)
                        assert cg.groups == oracle.groups, (variant, p)
                        torsion += sum(len(g.torsion) for g in cg.groups.values())
                        if coeff == "Z":
                            for q in gc.spaces:
                                _check_classes(gc, cg, oracle, q, (space is fan, variant, p, q))
        if name == "sigma3":
            assert torsion

    def test_sigma3_keeps_its_torsion_class(self, sigma3):
        comp = compactification(sigma3)
        gc = build_complex(comp, 1, "cohomology")
        cg = ComplexGroups(gc)
        assert str(cg.group(2)) == "Z/3Z"
        _check_classes(gc, cg, _TwoPassGroups(gc), 2, "sigma3")


def _check_classes(gc, cg, oracle, q, label):
    """Boundaries have class zero, and two cocycles share a class for ``cg`` exactly when they do for ``oracle``.

    The cocycles are the kernel basis of d_out and their pairwise sums;
    the canonical coordinates of the two reductions may differ, but the
    classes must pair up one to one.
    """
    if q - gc.step in gc.spaces:
        for r in gc.maps[q - gc.step].data:
            assert not any(cg.class_of(q, r.items())), label
    K = _left_kernel(dense(gc.map_out(q)))
    cocycles = list(K) + [tuple(a + b for a, b in zip(u, v)) for u, v in itertools.combinations(K, 2)]
    mine, theirs = {}, {}
    for x in cocycles:
        a, b = cg.class_of(q, enumerate(x)), oracle.class_of(q, enumerate(x))
        assert mine.setdefault(a, b) == b, label
        assert theirs.setdefault(b, a) == a, label


class TestCubicalModel:
    def test_delta_p1_shape(self, delta):
        gc = cubical_complex(delta, 1)
        assert gc.dim(0) == 2  # SF^1 at the origin has rank two
        assert gc.dim(1) == 3
        gs = groups(gc)
        assert [str(g) for g in gs] == ["0", "Z"]

    def test_p0_concentrated(self, p2):
        gc = cubical_complex(p2, 0)
        assert gc.dim(0) == 1
        assert all(gc.dim(q) == 0 for q in range(1, 3))
        assert str(groups(gc)[0]) == "Z"

    def test_cone2_h11_vanishes(self, cone2):
        gs = groups(cubical_complex(cone2, 1))
        assert str(gs[1]) == "0"

    def test_rejects_non_unimodular_in_Z_mode(self, sigma3):
        with pytest.raises(ValueError):
            cubical_complex(sigma3, 1, "Z")

    @pytest.mark.parametrize("name", ["p2", "delta", "cone2", "cube", "u23"])
    def test_oracle_equivalence(self, name, request):
        fan = request.getfixturevalue(name)
        comp = compactification(fan)
        for p in range(fan.dim + 1):
            cell = ComplexGroups(build_complex(comp, p, "cohomology"))
            cub = ComplexGroups(cubical_complex(fan, p))
            for q in range(fan.dim + 1):
                assert cell.group(q) == cub.group(q), (name, p, q)

    def test_oracle_equivalence_rational_sigma3(self, sigma3):
        comp = compactification(sigma3)
        for p in range(3):
            cell = ComplexGroups(build_complex(comp, p, "cohomology", "Q"))
            cub = ComplexGroups(cubical_complex(sigma3, p, "Q"))
            for q in range(3):
                assert cell.group(q).free_rank == cub.group(q).free_rank


def _mixed_face_block(fan, comp, p, t, s):
    """The cubical block from infinity of t to infinity of s as dense rows, lifted through the mixed face (t, s).

    Each basis element of SF_k at infinity of s, k = p - |s|, lifts to
    SF_k at (t, s) along an integral section of the restriction, and
    column j holds the coordinates of the unit normal of t in s wedged
    with lift j.
    """
    k = p - len(fan.cones[s])
    face_t, face_s = comp.face_index[(t, t)], comp.face_index[(s, s)]
    r_src, r_dst = sheaf.rank(comp, face_t, k + 1), sheaf.rank(comp, face_s, k)
    if r_src == 0 or r_dst == 0:
        return [[0] * r_dst for _ in range(r_src)]
    star_t = fan.star(t)
    m_t = star_t.quotient_rank
    face_ts = comp.face_index[(t, s)]
    mixed = sheaf.basis(comp, face_ts, k)
    rows = [dict(r) for r in sheaf.restriction(comp, k, face_s, face_ts)]
    solver = zlinalg.RowSolver(zlinalg.IntMatrix.from_rows([[r.get(j, 0) for j in range(r_dst)] for r in rows], r_dst))
    section = [solver.solve(tuple(int(i == j) for i in range(r_dst))) for j in range(r_dst)]
    lifts = [zlinalg.vecmat(c, mixed, exterior.dim(m_t, k)) for c in section]
    cols = [sheaf.coords_in(comp, face_t, k + 1, exterior.wedge_coords(star_t.normals[s], 1, v, k, m_t)) for v in lifts]
    return [[col[i] for col in cols] for i in range(r_src)]


UNIMODULAR_FIXTURES = [name for name in FIXTURES if name != "sigma3"]


class TestCubicalOracles:
    """The cubical model against the mixed-face lift it replaced and against the cellular slices."""

    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize(
        "name, coeff", [(n, "Z") for n in UNIMODULAR_FIXTURES + ["k4", "u53", "u44"]] + [("sigma3", "Q")]
    )
    def test_blocks_match_the_mixed_face_lift(self, name, coeff, seed, request, reordered):
        fan = reordered(_oracle_fan(name, request), seed)
        comp = compactification(fan)
        for p in range(fan.dim + 1):
            gc = cubical_complex(fan, p, coeff)
            first = {q: {fid: k for k, (fid, i) in enumerate(labs) if i == 0} for q, labs in gc.spaces.items()}
            blocks = {q: [] for q in gc.spaces}
            for s, cone in enumerate(fan.cones):
                for t in fan.covers_of(s):
                    want = _mixed_face_block(fan, comp, p, t, s)
                    cols = homology._cubical_block(fan, comp, p, t, s)
                    assert [[col[i] for col in cols] for i in range(len(want))] == want, (cone, fan.cones[t], p)
                    q = len(cone) - 1
                    if want and want[0]:
                        r0, c0 = first[q][comp.face_index[(t, t)]], first[q + 1][comp.face_index[(s, s)]]
                        blocks[q].append((range(r0, r0 + len(want)), range(c0, c0 + len(want[0])), 1, want))
            # the complex is those blocks, entry by entry and each row's columns in order
            for q, m in gc.maps.items():
                oracle = homology._assemble(m.rows, m.cols, blocks[q])
                assert [list(r.items()) for r in m.data] == [list(r.items()) for r in oracle.data], (p, q)

    @pytest.mark.parametrize("seed", [None, 23])
    @pytest.mark.parametrize(
        "name, coeff", [(n, "Z") for n in UNIMODULAR_FIXTURES + ["k4", "u53", "u63"]] + [(n, "Q") for n in FIXTURES]
    )
    def test_slices_match_the_cellular_slices(self, name, coeff, seed, request, reordered):
        # H^(p,q) of D_tau is H^(q + |tau|) of the degree-(p + |tau|) cubical complex on the cones containing tau
        fan = _oracle_fan(name, request)
        if seed is not None:
            fan = reordered(fan, seed)
        comp = compactification(fan)
        cellular = [build_complex(comp, p, "cohomology", coeff) for p in range(fan.dim + 1)]
        cubical = [cubical_complex(fan, p, coeff) for p in range(fan.dim + 1)]
        for tau, cone in enumerate(fan.cones):
            k = len(cone)
            stratum = comp.closed_stratum(tau)
            above = {comp.face_index[(s, s)] for s in fan.cones_containing(tau)}
            for p in range(fan.dim - k + 1):
                cell = ComplexGroups(cellular[p].restrict(stratum))
                cub = ComplexGroups(cubical[p + k].restrict(above))
                for q in range(fan.dim + 1):
                    assert cell.group(q) == cub.group(q + k), (cone, p, q)

    def test_slices_keep_the_cell_order_of_unsorted_cones(self, cube):
        # cones of one dimension listed against the order of the points at infinity's face ids
        cones = sorted(cube.cones, key=lambda c: (len(c), [-i for i in c]))
        fan = Fan(cube.rank, cube.rays, cones, [cones.index(cube.cones[c]) for c in cube.maximal])
        comp = compactification(fan)
        complexes = [cubical_complex(fan, p) for p in range(fan.dim + 1)]
        for tau in range(len(fan.cones)):
            above = {comp.face_index[(s, s)] for s in fan.cones_containing(tau)}
            for p, gc in enumerate(complexes):
                for q, labs in gc.restrict(above).spaces.items():
                    assert labs == tuple(lab for lab in gc.spaces[q] if lab[0] in above), (fan.cones[tau], p, q)


class TestFineDoubleComplex:
    @pytest.mark.parametrize("name", FIXTURES)
    def test_total_complex_matches_cellular(self, name, request):
        fan = request.getfixturevalue(name)
        for p in range(fan.dim + 1):
            fine_double_complex(fan, p)  # all assertions live inside

    def test_flipped_horizontal_entry_raises(self, cube, monkeypatch):
        # one wrong sign in a row of the double complex breaks d^2 = 0
        unflipped = homology.DoubleComplex

        def flipped(comp, p, entries, horizontal, vertical):
            block = horizontal[(1, 0)]
            i, j = next((i, j) for i, row in enumerate(block) for j, x in enumerate(row) if x)
            block[i][j] = -block[i][j]
            return unflipped(comp, p, entries, horizontal, vertical)

        monkeypatch.setattr(homology, "DoubleComplex", flipped)
        with pytest.raises(AssertionError, match="the double complex of SF\\^1 does not square to zero"):
            fine_double_complex(cube, 1)

    def test_hypercube_column_vanishing(self, cube):
        # per-cone columns of the double complex have cohomology only at the
        # top, where it matches the coefficient rank at the infinity point
        p = 1
        dc = fine_double_complex(cube, p)
        comp = dc.comp
        for sigma_idx in range(len(cube.cones)):
            a = len(cube.cones[sigma_idx])
            col_spaces = {}
            for (aa, bb), labs in dc.entries.items():
                if aa != a:
                    continue
                keep = [i for i, (fid, _) in enumerate(labs) if comp.faces[fid][1] == sigma_idx]
                col_spaces[bb] = keep
            ranks = {}
            for bb, keep in sorted(col_spaces.items()):
                nxt = col_spaces.get(bb + 1, [])
                block = dc.vertical.get((a, bb))
                rows = []
                src_labs = dc.entries[(a, bb)]
                for i in keep:
                    rows.append([block[i][j] for j in nxt])
                if rows and nxt:
                    ranks[bb] = zlinalg.rank_frac(rows)
                else:
                    ranks[bb] = 0
            bs = sorted(col_spaces)
            for i, bb in enumerate(bs):
                dim_here = len(col_spaces[bb])
                out_rank = ranks.get(bb, 0)
                in_rank = ranks.get(bb - 1, 0) if bb - 1 in col_spaces else 0
                h = dim_here - out_rank - in_rank
                if bb == 0:
                    fid_inf = comp.face_index[(sigma_idx, sigma_idx)]
                    assert h == sheaf.rank(comp, fid_inf, p - a)
                else:
                    assert h == 0, (cube.cones[sigma_idx], bb, h)


class TestUniversalCoefficients:
    @pytest.mark.parametrize("name", FIXTURES)
    def test_homology_vs_cohomology(self, name, request):
        fan = request.getfixturevalue(name)
        comp = compactification(fan)
        d = fan.dim
        for p in range(d + 1):
            hom = ComplexGroups(build_complex(comp, p, "homology"))
            coh = ComplexGroups(build_complex(comp, p, "cohomology"))
            for q in range(d + 1):
                assert hom.group(q).free_rank == coh.group(q).free_rank
                assert hom.group(q).torsion == coh.group(q + 1).torsion


class TestVanishing:
    @pytest.mark.parametrize("name", ["p2", "delta", "cone2", "cube", "u23"])
    def test_unimodular_vanishing(self, name, request):
        fan = request.getfixturevalue(name)
        t = group_table(fan, "cohomology")
        for (p, q), g in t.items():
            if p < q:
                assert g.is_trivial, (p, q, str(g))
            if q == 0 and p > 0:
                assert g.is_trivial, (p, q, str(g))

    @pytest.mark.parametrize("name", FIXTURES)
    def test_homology_row_zero(self, name, request):
        fan = request.getfixturevalue(name)
        comp = compactification(fan)
        for p in range(1, fan.dim + 1):
            hom = ComplexGroups(build_complex(comp, p, "homology"))
            assert hom.group(0).is_trivial


def random_cochain(comp, p, q, rng):
    c = Cochain(comp, p, q)
    for fid in range(len(comp.faces)):
        if comp.dim(fid) == q:
            r = sheaf.rank(comp, fid, p)
            c.set_value(fid, tuple(rng.randint(-2, 2) for _ in range(r)))
    return c


class TestCupProduct:
    def test_unit_laws(self, p2):
        comp = compactification(p2)
        rng = random.Random(3)
        u = unit_cochain(comp)
        for (p, q) in [(1, 0), (1, 1), (2, 1)]:
            a = random_cochain(comp, p, q, rng)
            assert (cup(a, u) - a).is_zero()
            assert (cup(u, a) - a).is_zero()

    def test_leibniz(self, p2):
        comp = compactification(p2)
        rng = random.Random(4)
        for (p1, q1, p2_, q2) in [(1, 0, 1, 0), (1, 1, 1, 0), (0, 1, 1, 0), (1, 1, 1, 1)]:
            a = random_cochain(comp, p1, q1, rng)
            b = random_cochain(comp, p2_, q2, rng)
            lhs = coboundary(cup(a, b))
            rhs = cup(coboundary(a), b) + cup(a, coboundary(b)).scale((-1) ** q1)
            assert (lhs - rhs).is_zero()

    def test_cocycle_cup_cocycle_is_cocycle(self, cube):
        from tropfan.chow import chow_generator_cocycle

        a = chow_generator_cocycle(cube, cube.cone_index((0,)))
        b = chow_generator_cocycle(cube, cube.cone_index((7,)))
        assert coboundary(cup(a, b)).is_zero()

    def test_associativity_on_ray_cocycles(self, p2):
        from tropfan.chow import chow_generator_cocycle

        a = chow_generator_cocycle(p2, p2.cone_index((0,)))
        b = chow_generator_cocycle(p2, p2.cone_index((1,)))
        c = chow_generator_cocycle(p2, p2.cone_index((2,)))
        lhs = cup(cup(a, b), c)
        rhs = cup(a, cup(b, c))
        assert (lhs - rhs).is_zero()

    def test_graded_commutativity_on_classes(self, cube):
        from tropfan.chow import chow_generator_cocycle

        comp = compactification(cube)
        gc = build_complex(comp, 2, "cohomology")
        gr = ComplexGroups(gc)
        a = chow_generator_cocycle(cube, cube.cone_index((0,)))
        b = chow_generator_cocycle(cube, cube.cone_index((1,)))
        ab = cup(a, b)
        ba = cup(b, a)
        # degree (1,1) classes commute on cohomology
        assert gr.class_of(2, gc.pairs(ab)) == gr.class_of(2, gc.pairs(ba))


def _dense_cup(a, b):
    """The cup product as a loop over every face of the output dimension.

    For each face (t, eta) it tries every sigma between them with
    |sigma| - |t| = a.q and adds the terms where a at (t, sigma) and b at
    (sigma, eta) are both nonzero; :func:`~tropfan.homology.cup` walks
    the supports instead.
    """
    comp = a.comp
    fan = comp.fan
    out = Cochain(comp, a.p + b.p, a.q + b.q)
    for fid in comp.faces_of_dim(a.q + b.q):
        t, eta = comp.faces[fid]
        rank_out = sheaf.rank(comp, fid, a.p + b.p)
        if rank_out == 0:
            continue
        free = [r for r in fan.cones[eta] if r not in fan.cones[t]]
        total = [Fraction(0)] * rank_out
        for picked in itertools.combinations(free, a.q):
            sigma = fan.cone_index(fan.cones[t] + picked)
            mid_a = comp.face_index[(t, sigma)]
            mid_b = comp.face_index[(sigma, eta)]
            av = a.data.get(mid_a, ())
            bv = b.data.get(mid_b, ())
            if not any(av) or not any(bv):
                continue
            rest = fan.cone_index(fan.cones[t] + tuple(r for r in free if r not in picked))
            m_t = fan.star(t).quotient_rank
            w = exterior.wedge_coords(fan.nu_face(t, sigma), a.q, fan.nu_face(t, rest), b.q, m_t)
            coefficient = fan.varpi_face(t, eta, w)
            a_here = homology._transport_dual(comp, a.p, mid_a, ((fid, 1),), av, {})[fid]
            b_here = homology._transport_dual(comp, b.p, mid_b, ((fid, 1),), bv, {})[fid]
            a_ext, b_ext = sheaf.extend_dual(comp, fid, a.p, a_here), sheaf.extend_dual(comp, fid, b.p, b_here)
            term = sheaf.wedge_duals(comp, fid, a.p, a_ext, b.p, b_ext)
            for i, x in enumerate(term):
                total[i] += coefficient * x
        out.set_value(fid, total)
    return out


_UNIFORM = {"u53": (5, 3), "u63": (6, 3), "u44": (4, 4), "u54": (5, 4)}


def _oracle_fan(name, request):
    if name == "k4":
        return request.getfixturevalue("k4_pair")[0]
    if name in _UNIFORM:
        return bergman_fan(Matroid.uniform(*_UNIFORM[name]))[0]
    return request.getfixturevalue(name)


class TestCupOracle:
    """The support walk of cup equals the dense face loop it replaced."""

    @pytest.mark.parametrize("seed", [None, 23])
    @pytest.mark.parametrize("name", FIXTURES + ["k4", "u53", "u63"])
    def test_generator_cups_match_the_dense_loop(self, name, seed, request, reordered):
        fan = _oracle_fan(name, request)
        if seed is not None:
            fan = reordered(fan, seed)
        comp = compactification(fan)
        # generator cocycles exist on unimodular fans; seeded cochains of every bidegree run everywhere
        cochains = [chow_generator_cocycle(fan, s, "Q") for s in range(len(fan.cones))] if is_unimodular(fan)[1] else []
        rng = random.Random(11)
        cochains += [random_cochain(comp, p, q, rng) for p in range(fan.dim + 1) for q in range(fan.dim + 1)]
        pairs = 0
        for a in cochains:
            for b in cochains:
                if a.q + b.q > fan.dim:
                    continue
                got, want = cup(a, b).data, _dense_cup(a, b).data
                # the same values, set in face-id order, and every one an int
                assert list(got.items()) == list(want.items()), ((a.p, a.q), (b.p, b.q))
                assert all(type(x) is int for v in got.values() for x in v)
                pairs += 1
        assert pairs > len(cochains)

    @pytest.mark.parametrize("seed", [None, 23])
    @pytest.mark.parametrize("name", UNIMODULAR_FIXTURES + ["k4", "u53", "u63", "u44"])
    def test_memoised_ray_cups_match_the_dense_loop(self, name, seed, request, reordered):
        fan = _oracle_fan(name, request)
        if seed is not None:
            fan = reordered(fan, seed)
        comp = compactification(fan)
        rays = fan.cones_of_dim(1)
        # the (lead, ray) pairs of the generator cocycles, then those of the ring checks
        pairs = [(fan.cone_index(c[:-1]), fan.cone_index(c[-1:])) for c in fan.cones if len(c) >= 2]
        pairs += [(s1, s2) for s1 in rays for s2 in rays if s1 <= s2]
        for lead, ray in pairs:
            a, b = chow_generator_cocycle(fan, lead), chow_generator_cocycle(fan, ray)
            got = cup(a, b, comp.ray_cups.setdefault(ray, {})).data
            assert list(got.items()) == list(_dense_cup(a, b).data.items()), (fan.cones[lead], fan.cones[ray])
            assert all(type(x) is int for v in got.values() for x in v)
        # the memos, shared by every lead above and by the generator cocycles' own cups, hold extensions
        # wherever a cup of two rays can be nonzero
        assert fan.dim < 2 or any(memo["extended"] for memo in comp.ray_cups.values())

    @pytest.mark.parametrize("seed", [None, 23])
    @pytest.mark.parametrize("name", ["p2", "cube", "k4", "u44"])
    def test_generator_cocycles_are_the_left_fold_of_ray_cups(self, name, seed, request, reordered):
        fan = _oracle_fan(name, request)
        if seed is not None:
            fan = reordered(fan, seed)
        for s, cone in enumerate(fan.cones):
            if not cone:
                continue
            fold = ray_cocycle(fan, cone[0])
            for r in cone[1:]:
                fold = cup(fold, ray_cocycle(fan, r))
            assert chow_generator_cocycle(fan, s, "Q").data == fold.data, cone
            want = fold.data
            got = chow_generator_cocycle(fan, s)
            assert got.data == want, cone
            # a caller's changes stay with its copy
            fid, values = next(iter(got.data.items()))
            got.set_value(fid, (0,) * len(values))
            got.data[-1] = (7,)
            assert chow_generator_cocycle(fan, s).data == want, cone


class TestStratumSlices:
    """The closed stratum of a cone cuts the star's complexes out of the fan's."""

    @pytest.mark.parametrize("seed", [None, 23])
    @pytest.mark.parametrize("name", FIXTURES + ["k4", "u53"])
    def test_closed_stratum_is_the_face_closed_set_above_the_cone(self, name, seed, request, reordered, face_covers):
        fan = _oracle_fan(name, request)
        if seed is not None:
            fan = reordered(fan, seed)
        comp = compactification(fan)
        covers = face_covers(comp)
        for tau, cone in enumerate(fan.cones):
            stratum = comp.closed_stratum(tau)
            assert stratum == [fid for fid, (t, _) in enumerate(comp.faces) if set(cone) <= set(fan.cones[t])]
            inside = set(stratum)
            assert all(gid in inside for did in stratum for gid, _ in covers[did]), cone

    @pytest.mark.parametrize("seed", [None, 23])
    @pytest.mark.parametrize("coeff", ["Z", "Q"])
    @pytest.mark.parametrize("name", FIXTURES + ["k4", "u53", "u63", "u54"])
    def test_slices_have_the_groups_of_the_compactified_stars(self, name, coeff, seed, request, reordered):
        fan = _oracle_fan(name, request)
        if seed is not None:
            fan = reordered(fan, seed)
        comp = compactification(fan)
        complexes = [build_complex(comp, p, "cohomology", coeff) for p in range(fan.dim + 1)]
        for tau, cone in enumerate(fan.cones):
            star = fan.star(tau).fan
            stratum = comp.closed_stratum(tau)
            for p in range(star.dim + 1):
                sliced = ComplexGroups(complexes[p].restrict(stratum))
                own = ComplexGroups(build_complex(compactification(star), p, "cohomology", coeff))
                for q in range(fan.dim + 1):
                    assert sliced.group(q) == own.group(q), (cone, p, q)

    def test_restrict_keeps_the_rows_and_columns_of_the_faces(self, cube):
        comp = compactification(cube)
        gc = build_complex(comp, 1, "cohomology")
        stratum = comp.closed_stratum(cube.cone_index((0,)))
        sliced = gc.restrict(stratum)
        inside = set(stratum)
        for q, labs in gc.spaces.items():
            kept = [k for k, (fid, _) in enumerate(labs) if fid in inside]
            assert sliced.spaces.get(q, ()) == tuple(labs[k] for k in kept)
            if not kept:
                continue
            cols = [k for k, (fid, _) in enumerate(gc.spaces.get(q + 1, ())) if fid in inside]
            want = [[gc.maps[q].data[r].get(c, 0) for c in cols] for r in kept]
            assert dense(sliced.maps[q]).row_list() == want, q
        assert sliced.check_dd_zero()
        # every face: the complex itself
        whole = gc.restrict(range(len(comp.faces)))
        assert whole.spaces == gc.spaces and whole.maps == gc.maps


class TestFundamentalAndCap:
    def test_delta_fundamental(self, delta, delta_weights):
        chain = fundamental_cycle(delta, delta_weights)
        comp = compactification(delta)
        for s in delta.maximal:
            fid = comp.face_index[(delta.zero_cone, s)]
            (coeff,) = chain.data[fid]
            (basis_row,) = sheaf.basis(comp, fid, 1)
            restored = tuple(coeff * x for x in basis_row)
            assert restored == delta.nu(s)  # the coefficient is the ray generator

    def test_unbalanced_rejected(self, delta):
        bad = TropicalWeights.from_list(delta, [1, 1, 2])
        with pytest.raises(ValueError):
            fundamental_cycle(delta, bad)

    def test_cap_with_unit(self, p2, p2_weights):
        chain = fundamental_cycle(p2, p2_weights)
        capped = cap(p2, p2_weights, (1,), 0)
        assert capped.data == chain.data
        assert capped.p == 2

    def test_cap_bidegree(self, p2, p2_weights):
        comp = compactification(p2)
        origin = comp.face_index[(p2.zero_cone, p2.zero_cone)]
        r = sheaf.rank(comp, origin, 1)
        alpha = tuple(1 if i == 0 else 0 for i in range(r))
        chain = cap(p2, p2_weights, alpha, 1)
        assert chain.p == 1 and chain.q == 2
        assert any(any(v) for v in chain.data.values())
