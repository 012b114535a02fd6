import itertools
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from tropfan import exterior, sheaf, zlinalg
from tropfan.compactify import Compactification
from tropfan.fan import Fan
from tropfan.homology import compactification
from tropfan.matroid import Matroid, bergman_fan
from tropfan.zlinalg import IntMatrix, Sublattice, vecmat


def dense(rows, width):
    """The IntMatrix of a block's sparse rows of (column, entry) pairs."""
    out = [[0] * width for _ in rows]
    for o, row in zip(out, rows):
        for j, x in row:
            o[j] = x
    return IntMatrix.from_rows(out, width)


def restriction_matrix(comp, p, gid, did):
    return dense(sheaf.restriction(comp, p, gid, did), sheaf.rank(comp, gid, p))


def origin_face(fan):
    comp = compactification(fan)
    return comp, comp.face_index[(fan.zero_cone, fan.zero_cone)]


class TestLowerLattices:
    def test_delta_origin_index_three(self, delta):
        comp, fid = origin_face(delta)
        assert sheaf.basis(comp, fid, 1) == ((1, 0), (0, 3))
        L = Sublattice.from_rows(sheaf.basis(comp, fid, 1), 2)
        _, index = zlinalg.saturate(L)
        assert index == 3  # regression: SF_1 need not be saturated

    def test_degree_zero_is_Z(self, delta):
        comp = compactification(delta)
        for fid in range(len(comp.faces)):
            assert sheaf.basis(comp, fid, 0) == ((1,),)

    def test_p2_top_wedge(self, p2):
        comp, fid = origin_face(p2)
        assert sheaf.basis(comp, fid, 2) == ((1,),)

    def test_coefficient_lattice_dataclass(self, p2):
        # the degree-1 coefficient lattice at the origin of P^2 is all of Z^2
        comp, fid = origin_face(p2)
        assert len(sheaf.basis(comp, fid, 1)) == 2
        assert sheaf.rank(comp, fid, 1) == 2

    def test_rank_one_at_facet_stars(self, cube):
        # at a facet the only cone above is itself, so top wedges have rank 1
        comp = compactification(cube)
        for s in cube.maximal:
            fid = comp.face_index[(cube.zero_cone, s)]
            assert sheaf.rank(comp, fid, 2) == 1


class TestRestriction:
    def test_same_sedentarity_inclusion(self, cone2):
        comp = compactification(cone2)
        z = cone2.zero_cone
        top = cone2.cone_index((0, 1))
        gid = comp.face_index[(z, z)]
        did = comp.face_index[(z, top)]
        M = restriction_matrix(comp, 1, gid, did)
        # SF_1 at the big face includes into SF_1 at the vertex
        assert M.rows == 2 and M.cols == 2
        assert abs(exterior.det(M.row_list())) == 1

    def test_projection_kills_ray(self, cone2):
        comp = compactification(cone2)
        r1 = cone2.cone_index((0,))
        top = cone2.cone_index((0, 1))
        did = comp.face_index[(cone2.zero_cone, top)]
        gid = comp.face_index[(r1, top)]
        M = restriction_matrix(comp, 1, gid, did)
        assert M.row_tuples() == [(0,), (1,)]

    def test_zero_rank_target(self, delta):
        comp = compactification(delta)
        r1 = delta.cone_index((0,))
        did = comp.face_index[(delta.zero_cone, r1)]
        gid = comp.face_index[(r1, r1)]
        M = restriction_matrix(comp, 1, gid, did)
        assert M.cols == 0
        assert sheaf.basis(comp, gid, 1) == ()

    @pytest.mark.parametrize("name", ["p2", "cube", "sigma3"])
    def test_functoriality_along_chains(self, name, request):
        fan = request.getfixturevalue(name)
        comp = compactification(fan)
        rng = random.Random(11)
        chains = []
        for did in range(len(comp.faces)):
            for mid, _ in comp.covers_of(did):
                for gid, _ in comp.covers_of(mid):
                    chains.append((gid, mid, did))
        rng.shuffle(chains)
        for gid, mid, did in chains[:40]:
            for p in range(fan.dim + 1):
                direct = restriction_matrix(comp, p, gid, did)
                two_step = restriction_matrix(comp, p, mid, did) * restriction_matrix(comp, p, gid, mid)
                assert direct == two_step


def contract(comp, fid, p, alpha_values, nu_coords, k):
    """Contraction of alpha in SF^p by a k-multivector in /\\^k of the star coordinates: values on SF_(p-k)."""
    alpha_hat, den = sheaf.extend_dual(comp, fid, p, alpha_values)
    m = sheaf.star_rank(comp, fid)
    return tuple(
        Fraction(sum(a * x for a, x in zip(alpha_hat, exterior.wedge_coords(nu_coords, k, row, p - k, m))), den)
        for row in sheaf.basis(comp, fid, p - k)
    )


class TestContract:
    """The contraction built on the rational extension of a dual element (the pairing the cap product uses)."""

    def test_units(self, p2):
        comp, fid = origin_face(p2)
        alpha = (3, -5)
        out = contract(comp, fid, 1, alpha, (1,), 0)
        assert tuple(out) == alpha

    def test_full_contraction_is_evaluation(self, p2):
        comp, fid = origin_face(p2)
        alpha = (2, 7)
        nu = (1, 4)
        out = contract(comp, fid, 1, alpha, nu, 1)
        assert out == (2 * 1 + 7 * 4,)

    def test_wedge_pairing_example(self, p2):
        comp, fid = origin_face(p2)
        # alpha dual to e1 ^ e2; contraction by e1 evaluates e2 to one
        out = contract(comp, fid, 2, (1,), (1, 0), 1)
        assert tuple(out) == (0, 1)

    def test_composition_up_to_sign(self, cube):
        comp = compactification(cube)
        fid = comp.face_index[(cube.zero_cone, cube.zero_cone)]
        rng = random.Random(5)
        m = 3
        for _ in range(15):
            alpha = tuple(rng.randint(-3, 3) for _ in range(sheaf.rank(comp, fid, 2)))
            u = tuple(rng.randint(-2, 2) for _ in range(m))
            v = tuple(rng.randint(-2, 2) for _ in range(m))
            uv = exterior.wedge_coords(u, 1, v, 1, m)
            lhs = contract(comp, fid, 2, alpha, uv, 2)
            kv = contract(comp, fid, 2, alpha, u, 1)
            rhs = contract(comp, fid, 1, kv, v, 1)
            assert tuple(lhs) == tuple(rhs)


class TestFactoredBases:
    @pytest.mark.parametrize("name", ["p2", "delta", "sigma3", "cone2", "cube", "u23", "k4"])
    def test_extend_dual_matches_solve_frac(self, name, request):
        fan = request.getfixturevalue("k4_pair")[0] if name == "k4" else request.getfixturevalue(name)
        comp = compactification(fan)
        rng = random.Random(3)
        for fid in range(len(comp.faces)):
            for p in range(fan.dim + 1):
                b = sheaf.basis(comp, fid, p)
                width = exterior.dim(sheaf.star_rank(comp, fid), p)
                for _ in range(2):
                    values = tuple(rng.randint(-4, 4) for _ in b)
                    scaled, den = sheaf.extend_dual(comp, fid, p, values)
                    assert all(type(x) is int for x in scaled)
                    g = tuple(Fraction(x, den) for x in scaled)
                    assert len(g) == width
                    if b:
                        assert g == zlinalg.solve_frac([list(r) for r in b], list(values))
                    assert tuple(sum(x * y for x, y in zip(row, g)) for row in b) == values

    @pytest.mark.parametrize("name", ["p2", "delta", "sigma3", "cube"])
    def test_coords_of_basis_rows_are_unit_vectors(self, name, request):
        fan = request.getfixturevalue(name)
        comp = compactification(fan)
        for fid in range(len(comp.faces)):
            for p in range(fan.dim + 1):
                b = sheaf.basis(comp, fid, p)
                assert sheaf.basis_solver(comp, fid, p) is sheaf.basis_solver(comp, fid, p)
                for i, row in enumerate(b):
                    assert sheaf.coords_in(comp, fid, p, row) == tuple(int(i == j) for j in range(len(b)))

    def test_dual_transport_is_cached_transpose(self, cube):
        comp = compactification(cube)
        for did in range(len(comp.faces)):
            for gid, _ in comp.covers_of(did):
                for p in range(cube.dim + 1):
                    M = sheaf.dual_transport(comp, p, gid, did)
                    assert dense(M, sheaf.rank(comp, did, p)) == restriction_matrix(comp, p, gid, did).transpose()
                    assert sheaf.dual_transport(comp, p, gid, did) is M

    @pytest.mark.parametrize("name", ["p2", "delta", "sigma3", "cone2", "cube", "u23", "k4", "u35"])
    def test_integer_wedge_duals_match_the_rational_path(self, name, request):
        # scaled integer extensions, divided once, against Fraction extensions wedged and paired
        fan = _oracle_fan(name, request)
        comp = compactification(fan)
        rng = random.Random(17)

        def rational_extension(fid, p, values):
            b = sheaf.basis(comp, fid, p)
            width = exterior.dim(sheaf.star_rank(comp, fid), p)
            return zlinalg.solve_frac([list(r) for r in b], list(values)) if b else (0,) * width

        for fid in range(len(comp.faces)):
            m = sheaf.star_rank(comp, fid)
            for p in range(fan.dim + 1):
                for q in range(fan.dim + 1 - p):
                    a = tuple(rng.randint(-4, 4) for _ in sheaf.basis(comp, fid, p))
                    b = tuple(rng.randint(-4, 4) for _ in sheaf.basis(comp, fid, q))
                    a_ext, b_ext = sheaf.extend_dual(comp, fid, p, a), sheaf.extend_dual(comp, fid, q, b)
                    got = sheaf.wedge_duals(comp, fid, p, a_ext, q, b_ext)
                    assert all(type(x) is int for x in got)
                    prod = exterior.wedge_coords(rational_extension(fid, p, a), p, rational_extension(fid, q, b), q, m)
                    assert got == tuple(sum(f * x for f, x in zip(prod, row)) for row in sheaf.basis(comp, fid, p + q))

    def test_inexact_wedge_division_raises_under_O(self):
        # a corrupted SF_1 basis row leaves a wedge that the common denominators do not divide
        code = (
            "from tropfan import sheaf\n"
            "from tropfan.fan import Fan\n"
            "from tropfan.homology import compactification\n"
            "fan = Fan.from_max_cones(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])\n"
            "comp = compactification(fan)\n"
            "comp.sheaf_bases[sheaf.basis_id(comp, 0, 1)] = ((2, 0), (0, 1))\n"
            "try:\n"
            "    sheaf.wedge_duals(comp, 0, 1, sheaf.extend_dual(comp, 0, 1, (1, 0)), 1, sheaf.extend_dual(comp, 0, 1, (0, 1)))\n"
            "except AssertionError as exc:\n"
            "    print('raised:', exc)\n"
        )
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        ).stdout
        assert out.startswith("raised: the wedge of SF^1 and SF^1 values at face 0 is not integral")

    def test_dependent_basis_raises_under_O(self):
        # the full-row-rank check is a raise, not an assert
        code = (
            "from tropfan import sheaf\n"
            "from tropfan.fan import Fan\n"
            "from tropfan.homology import compactification\n"
            "fan = Fan.from_max_cones(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])\n"
            "comp = compactification(fan)\n"
            "comp.sheaf_bases[sheaf.basis_id(comp, 0, 1)] = ((1, 0), (2, 0))\n"
            "try:\n"
            "    sheaf.extend_dual(comp, 0, 1, (1, 2))\n"
            "except AssertionError as exc:\n"
            "    print('raised:', exc)\n"
        )
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        ).stdout
        assert out.startswith("raised: SF_1 basis rows at face 0 are linearly dependent")


def _cover_pairs(comp):
    return [(gid, did) for did in range(len(comp.faces)) for gid, _ in comp.covers_of(did)]


def _oracle_bases(comp, p):
    """SF_p at every face, built per face without interning: the HNF of the bases above, or of the wedges."""
    fan = comp.fan
    out = {}
    for fid in sorted(range(len(comp.faces)), key=lambda f: -comp.dims[f]):
        t, s = comp.faces[fid]
        m = fan.star(t).quotient_rank
        if p == 0:
            out[fid] = ((1,),)
            continue
        if p > m:
            out[fid] = ()
            continue
        above = fan.covered_by(s)
        if above:
            gens = [row for eta in above for row in out[comp.face_index[(t, eta)]]]
        else:
            # the HNF basis of the tangent lattice N_sigma / N_tau
            star = fan.star(t)
            projected = [vecmat(row, star.proj) for row in fan.cone_lattice(s).basis.row_tuples()]
            tangent = Sublattice.from_rows(projected, m).basis.row_tuples()
            gens = [exterior.wedge_rows(list(sub), m) for sub in itertools.combinations(tangent, p)]
        H = zlinalg.hnf(IntMatrix.from_rows(gens, exterior.dim(m, p)))
        out[fid] = tuple(r for r in H.row_tuples() if any(r))
    return out


def _oracle_restriction(comp, p, bases, gid, did):
    """The restriction block solved for this one pair, with its own transition matrix."""
    fan = comp.fan
    (tg, _), (td, _) = comp.faces[gid], comp.faces[did]
    mapped = bases[did]
    if tg != td:
        small, big = fan.star(td), fan.star(tg)
        proj = [vecmat(row, big.proj) for row in small.section]
        A = exterior.induced_matrix(proj, p, small.quotient_rank, big.quotient_rank)
        mapped = [vecmat(row, A, exterior.dim(big.quotient_rank, p)) for row in mapped]
    if not bases[gid]:
        assert not any(any(v) for v in mapped)
        return [() for _ in mapped]
    target = IntMatrix.from_rows(bases[gid])
    return [zlinalg.solve_int(target, v) for v in mapped]


_ORACLE_FANS = ["p2", "delta", "sigma3", "cone2", "cube", "u23", "k4", "u44", "u35"]


def _oracle_fan(name, request):
    if name == "k4":
        return request.getfixturevalue("k4_pair")[0]
    if name == "u44":
        return bergman_fan(Matroid.uniform(4, 4))[0]
    if name == "u35":
        return bergman_fan(Matroid.uniform(5, 3))[0]
    return request.getfixturevalue(name)


class TestInternedAgainstOracle:
    @pytest.mark.parametrize("seed", [None, 7])
    @pytest.mark.parametrize("name", _ORACLE_FANS)
    def test_bases_and_blocks(self, name, seed, request, reordered):
        fan = _oracle_fan(name, request)
        if seed is not None:
            fan = reordered(fan, seed)
        comp = Compactification(fan)
        for p in range(fan.dim + 1):
            bases = _oracle_bases(comp, p)
            assert [sheaf.basis(comp, fid, p) for fid in range(len(comp.faces))] == [bases[f] for f in sorted(bases)]
            for gid, did in _cover_pairs(comp):
                rows, transport = sheaf.restriction(comp, p, gid, did), sheaf.dual_transport(comp, p, gid, did)
                R = dense(rows, len(bases[gid]))
                assert R.row_tuples() == _oracle_restriction(comp, p, bases, gid, did)
                assert (len(rows), len(transport)) == (len(bases[did]), len(bases[gid]))
                assert dense(transport, len(bases[did])) == R.transpose()
                # sparse: increasing columns, no zero stored
                assert all([j for j, _ in row] == sorted({j for j, _ in row}) and all(x for _, x in row)
                           for row in rows + transport)


class TestInterning:
    def test_complete_unimodular_bases_are_identities(self):
        # U(4,4) is the complete unimodular 3-dim permutohedral fan: SF_p is all of /\^p at every face
        fan = bergman_fan(Matroid.uniform(4, 4))[0]
        comp = Compactification(fan)
        for p in range(fan.dim + 1):
            ids = {sheaf.basis_id(comp, fid, p) for fid in range(len(comp.faces))}
            nontrivial = {comp.sheaf_bases[i] for i in ids if comp.sheaf_bases[i]}
            ranks = {fan.star(t).quotient_rank for t, _ in comp.faces if fan.star(t).quotient_rank >= p}
            # one basis per star rank m >= p, the identity of /\^p Z^m
            assert nontrivial == {tuple(IntMatrix.identity(exterior.dim(m, p)).row_tuples()) for m in ranks}

    @pytest.mark.parametrize("name", ["cube", "sigma3", "u44", "u35"])
    def test_one_block_per_distinct_content(self, name, request):
        # a block is fixed by the two bases and, for a sedentarity drop, the projection and degree
        shared = _oracle_fan(name, request)
        fan = Fan(shared.rank, shared.rays, shared.cones, shared.maximal)  # no transitions built yet
        comp = Compactification(fan)
        contents = set()
        projections = set()
        for p in range(fan.dim + 1):
            for gid, did in _cover_pairs(comp):
                sheaf.restriction(comp, p, gid, did)
                (tg, _), (td, _) = comp.faces[gid], comp.faces[did]
                drop = None
                if td != tg:
                    small, big = fan.star(td), fan.star(tg)
                    drop = (tuple(vecmat(row, big.proj) for row in small.section), big.quotient_rank, p)
                    projections.add(drop)
                contents.add((sheaf.basis(comp, did, p), sheaf.basis(comp, gid, p), drop))
        assert len(comp.sheaf_blocks) == len(contents)
        assert len(comp.sheaf_bases) == len(set(comp.sheaf_bases))
        # one /\^k transition matrix per distinct projection and degree
        assert len(fan._transitions) == len(projections)
