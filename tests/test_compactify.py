import itertools
import os
import pathlib
import subprocess
import sys

import pytest

from tropfan import exterior, sheaf, zlinalg
from tropfan.compactify import Compactification, comp_faces
from tropfan.fan import Fan
from tropfan.homology import _cup_coefficient, build_complex, compactification
from tropfan.matroid import Matroid, bergman_fan

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


class TestFaceCounts:
    def test_cone2_square(self, cone2):
        comp = comp_faces(cone2)
        assert len(comp.faces) == 9
        by_dim = {q: len(comp.faces_of_dim(q)) for q in range(3)}
        assert by_dim == {0: 4, 1: 4, 2: 1}

    def test_delta_seven(self, delta):
        comp = comp_faces(delta)
        assert len(comp.faces) == 7
        assert len(comp.faces_of_dim(0)) == 4
        assert len(comp.faces_of_dim(1)) == 3

    @pytest.mark.parametrize("name", ["p2", "delta", "sigma3", "cone2", "cube", "u23"])
    def test_count_formula(self, name, request):
        fan = request.getfixturevalue(name)
        comp = compactification(fan)
        expected = sum(2 ** len(c) for c in fan.cones)
        assert len(comp.faces) == expected

    def test_cover_count_is_twice_dimension(self, cube, face_covers):
        comp = compactification(cube)
        covers = face_covers(comp)
        for fid in range(len(comp.faces)):
            assert len(covers[fid]) == 2 * comp.dim(fid)


def _whole_poset_covers(comp):
    """Covers and cofaces of every face in one pass over the poset, as built before cofaces were built per face."""
    cones = comp.fan.cones
    facets = [comp.fan.covers_of(c) for c in range(len(cones))]
    raised = [{} for _ in cones]
    for c, below in enumerate(facets):
        for r, f in zip(cones[c], below):
            raised[f][r] = c
    covers = [[] for _ in comp.faces]
    for did, (t, s) in enumerate(comp.faces):
        free = [(r, f) for r, f in zip(cones[s], facets[s]) if r not in cones[t]]
        for pos, (_, f) in enumerate(free):
            covers[did].append((comp.face_index[(t, f)], -1 if pos % 2 else 1))
        for pos, (r, _) in enumerate(free):
            covers[did].append((comp.face_index[(raised[t][r], s)], 1 if pos % 2 else -1))
    cofaces = [[] for _ in comp.faces]
    for did, lst in enumerate(covers):
        for gid, sign in lst:
            cofaces[gid].append((did, sign))
    return covers, cofaces


class TestIncidenceIndex:
    @pytest.mark.parametrize("name", ["p2", "delta", "sigma3", "cone2", "cube", "u23", "k4"])
    def test_cofaces_transpose_covers(self, name, request):
        fan = request.getfixturevalue("k4_pair")[0] if name == "k4" else request.getfixturevalue(name)
        comp = compactification(fan)
        n = len(comp.faces)
        covers, _ = _whole_poset_covers(comp)
        down = sorted((gid, did, sign) for did in range(n) for gid, sign in covers[did])
        up = sorted((gid, did, sign) for gid in range(n) for did, sign in comp.cofaces_of(gid))
        assert up == down
        assert len(set(down)) == len(down)

    @pytest.mark.parametrize("seed", [None, 5])
    @pytest.mark.parametrize("name", ["p2", "delta", "sigma3", "cone2", "cube", "u23", "k4", "u44"])
    def test_per_face_covers_match_the_whole_poset_pass(self, name, seed, request, reordered, face_covers):
        if name == "u44":
            fan = bergman_fan(Matroid.uniform(4, 4))[0]
        else:
            fan = request.getfixturevalue("k4_pair")[0] if name == "k4" else request.getfixturevalue(name)
        if seed is not None:
            fan = reordered(fan, seed)
        comp = Compactification(fan)
        covers, cofaces = _whole_poset_covers(comp)
        for fid in range(len(comp.faces)):
            assert comp.cofaces_of(fid) == cofaces[fid], fid
        # the covers, read as the transpose of the cofaces, in increasing id
        read = face_covers(comp)
        for fid in range(len(comp.faces)):
            assert read[fid] == sorted(covers[fid]), fid

    @pytest.mark.parametrize("name", ["p2", "delta", "sigma3", "cone2", "cube", "u23", "k4"])
    def test_faces_of_dim_partition(self, name, request):
        fan = request.getfixturevalue("k4_pair")[0] if name == "k4" else request.getfixturevalue(name)
        comp = compactification(fan)
        seen = []
        for q in range(fan.dim + 1):
            ids = comp.faces_of_dim(q)
            assert ids == sorted(ids)
            assert all(len(fan.cones[s]) - len(fan.cones[t]) == q for t, s in (comp.faces[f] for f in ids))
            seen.extend(ids)
        assert sorted(seen) == list(range(len(comp.faces)))
        assert comp.faces_of_dim(fan.dim + 1) == []


class TestFaceSign:
    def test_vertex_to_edge(self, cone2):
        comp = compactification(cone2)
        z = cone2.zero_cone
        r1 = cone2.cone_index((0,))
        gid = comp.face_index[(z, z)]
        did = comp.face_index[(z, r1)]
        assert comp.face_sign(gid, did) == 1

    def test_sedentarity_drop(self, cone2):
        comp = compactification(cone2)
        r1 = cone2.cone_index((0,))
        gid = comp.face_index[(r1, r1)]
        did = comp.face_index[(cone2.zero_cone, r1)]
        assert comp.face_sign(gid, did) == -1

    def test_non_cover_rejected(self, cone2):
        comp = compactification(cone2)
        z = cone2.zero_cone
        top = cone2.cone_index((0, 1))
        with pytest.raises(ValueError):
            comp.face_sign(comp.face_index[(z, z)], comp.face_index[(z, top)])

    @pytest.mark.parametrize("name", ["p2", "delta", "sigma3", "cone2", "cube", "u23"])
    def test_boundary_squares_to_zero(self, name, request):
        # dd = 0 for every variant and every p is asserted inside build_complex
        fan = request.getfixturevalue(name)
        comp = compactification(fan)
        for p in range(fan.dim + 1):
            for variant in ("cohomology", "homology", "borel_moore", "compact_support"):
                build_complex(comp, p, variant)
                build_complex(fan, p, variant)

    def test_degenerate_incidence_raises(self):
        # three rays in a plane (validate rejects the cone): the signs never
        # look at the rays, so the star checks are what refuses to orient it,
        # also under -O
        code = (
            "from tropfan.fan import Fan\n"
            "from tropfan.homology import build_complex, compactification\n"
            "fan = Fan.from_max_cones(2, [(1, 0), (0, 1), (1, 1)], [(0, 1, 2)])\n"
            "try:\n"
            "    for p in range(3):\n"
            "        build_complex(compactification(fan), p)\n"
            "except AssertionError as exc:\n"
            "    print('raised:', exc)\n"
        )
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        ).stdout
        assert out.startswith("raised:") and "(0, 1, 2)" in out


def _determinant_sign(comp, gid, did):
    """The incidence sign as an orientation coefficient: the wedge of the
    normal with gamma's face multivector, read against delta's."""
    fan = comp.fan
    (tg, sg), (td, sd) = comp.faces[gid], comp.faces[did]
    if tg == td:
        star = fan.star(td)
        extra = next(i for i in fan.cones[sd] if i not in fan.cones[sg])
        normal = zlinalg.vecmat(fan.rays[extra], star.proj)
        k = len(fan.cones[sg]) - len(fan.cones[tg])
        w = exterior.wedge_coords(normal, 1, fan.nu_face(tg, sg), k, star.quotient_rank)
        flip = 1
    else:
        # a lift of gamma's multivector to star(t_delta), wedged with the unit normal
        normal = fan.star(td).normals[tg]
        k = len(fan.cones[sd]) - len(fan.cones[tg])
        rest = fan.cone_index(fan.cones[td] + tuple(i for i in fan.cones[sd] if i not in fan.cones[tg]))
        w = exterior.wedge_coords(normal, 1, fan.nu_face(td, rest), k, fan.star(td).quotient_rank)
        flip = -1
    c = fan.varpi_face(td, sd, w)
    assert c != 0
    return flip if c > 0 else -flip


class TestSignOracle:
    """The ray-order signs equal the determinant signs they replaced."""

    UNIFORM = {"u44": (4, 4), "u53": (5, 3), "u63": (6, 3), "u54": (5, 4)}

    @pytest.mark.parametrize("seed", [None, 17, 29])
    @pytest.mark.parametrize("name", ["p2", "delta", "sigma3", "cone2", "cube", "u23", "k4", "u44", "u53", "u63", "u54"])
    def test_every_cover_matches_the_determinant(self, name, seed, request, reordered):
        if name == "k4":
            fan = request.getfixturevalue("k4_pair")[0]
        elif name in self.UNIFORM:
            fan = bergman_fan(Matroid.uniform(*self.UNIFORM[name]))[0]
        else:
            fan = request.getfixturevalue(name)
        if seed is not None:
            fan = reordered(fan, seed)
        comp = Compactification(fan)
        pairs = [(gid, did, sign) for gid in range(len(comp.faces)) for did, sign in comp.cofaces_of(gid)]
        assert pairs
        for gid, did, sign in pairs:
            assert sign == comp.face_sign(gid, did) == _determinant_sign(comp, gid, did), (comp.faces[gid], comp.faces[did])


def _skew_fan():
    """2-cones in Z^3: the rays of (0, 1) span index 2 in N_sigma, the other two are unimodular."""
    return Fan.from_max_cones(3, [(1, 0, 0), (1, 2, 0), (0, 1, 2)], [[0, 1], [1, 2], [0, 2]])


class TestCupCoefficientOracle:
    """The cup's orientation coefficient from the ray order equals the wedge read against nu_face."""

    @pytest.mark.parametrize("name", ["p2", "delta", "sigma3", "cone2", "cube", "u23", "k4", "u53", "u44", "skew"])
    def test_every_triple_matches_the_wedge(self, name, request):
        if name == "k4":
            fan = request.getfixturevalue("k4_pair")[0]
        elif name in TestSignOracle.UNIFORM:
            fan = bergman_fan(Matroid.uniform(*TestSignOracle.UNIFORM[name]))[0]
        elif name == "skew":
            fan = _skew_fan()
        else:
            fan = request.getfixturevalue(name)
        values = []
        for eta, c_eta in enumerate(fan.cones):
            for t_size in range(len(c_eta) + 1):
                for c_t in itertools.combinations(c_eta, t_size):
                    free = [r for r in c_eta if r not in c_t]
                    t = fan.cone_index(c_t)
                    m_t = fan.star(t).quotient_rank
                    for a_q in range(len(free) + 1):
                        for picked in itertools.combinations(free, a_q):
                            sigma = fan.cone_index(c_t + picked)
                            rest = fan.cone_index(c_t + tuple(r for r in free if r not in picked))
                            w = exterior.wedge_coords(
                                fan.nu_face(t, sigma), a_q, fan.nu_face(t, rest), len(free) - a_q, m_t
                            )
                            want = fan.varpi_face(t, eta, w)
                            got = _cup_coefficient(fan, t, sigma, eta)
                            assert got == want and type(got) is type(want), (c_t, c_t + picked, c_eta)
                            values.append(got)
        assert values
        if name in ("sigma3", "skew"):
            # the cones whose rays do not span their lattice give coefficients other than +-1
            assert any(abs(c) != 1 for c in values)


def _solve_lift(fan, t, sigma, k, target):
    """A rational multivector of star(t) mapping to ``target`` in star(sigma)."""
    A = fan._transitions[fan.transition_id(t, sigma, k)]
    rows = [[A[a][b] for a in range(len(A))] for b in range(len(A[0]) if A else 0)]
    lift = zlinalg.solve_frac(rows, target)
    assert lift is not None
    return lift


class TestFaceMultivectorLifts:
    @pytest.mark.parametrize("name", ["u44", "sigma3"])
    def test_lift_by_face_multivector_matches_solved_lift(self, name, request):
        # for t < sigma < eta, nu_face(t, t + (eta - sigma)) is the lift of
        # nu_face(sigma, eta) used by the signs and the cup product: its wedge
        # with the kernel of star(t) -> star(sigma) equals a solved lift's
        if name == "u44":
            fan = bergman_fan(Matroid.uniform(4, 4))[0]
        else:
            fan = request.getfixturevalue(name)
        triples = 0
        for eta, c_eta in enumerate(fan.cones):
            for t_size in range(len(c_eta) + 1):
                for c_t in itertools.combinations(c_eta, t_size):
                    free = [r for r in c_eta if r not in c_t]
                    for a_q in range(len(free) + 1):
                        for picked in itertools.combinations(free, a_q):
                            t, sigma = fan.cone_index(c_t), fan.cone_index(c_t + picked)
                            rest = fan.cone_index(c_t + tuple(r for r in free if r not in picked))
                            b_q = len(free) - a_q
                            m = fan.star(t).quotient_rank
                            solved = _solve_lift(fan, t, sigma, b_q, fan.nu_face(sigma, eta))
                            lift = fan.nu_face(t, rest)
                            kernels = [(fan.nu_face(t, sigma), a_q)]
                            if a_q == 1:
                                kernels.append((fan.star(t).normals[sigma], 1))
                            for vec, deg in kernels:
                                assert exterior.wedge_coords(vec, deg, lift, b_q, m) == exterior.wedge_coords(
                                    vec, deg, solved, b_q, m
                                )
                            triples += 1
        assert triples > 0


def tangent_lattice(comp, fid):
    """HNF basis of the face tangent lattice N_sigma / N_tau, in star(tau) coordinates."""
    t, s = comp.faces[fid]
    star = comp.fan.star(t)
    rows = [zlinalg.vecmat(r, star.proj) for r in comp.fan.cone_lattice(s).basis.row_tuples()]
    return zlinalg.Sublattice.from_rows(rows, star.quotient_rank)


def _bases_from(comp, p, tangent_rows):
    """SF_p at every face, from the top down, with the maximal faces' generators wedged from ``tangent_rows(fid)``."""
    fan = comp.fan
    out = {}
    for fid in sorted(range(len(comp.faces)), key=lambda f: -comp.dims[f]):
        t, s = comp.faces[fid]
        m = fan.star(t).quotient_rank
        above = fan.covered_by(s)
        if above:
            gens = [row for eta in above for row in out[comp.face_index[(t, eta)]]]
        else:
            gens = [exterior.wedge_rows(list(sub), m) for sub in itertools.combinations(tangent_rows(fid), p)]
        out[fid] = tuple(zlinalg.hnf_basis(gens, exterior.dim(m, p))) if gens else ()
    return out


class TestTangentLattice:
    def test_sedentarity_zero(self, cone2):
        comp = compactification(cone2)
        top = cone2.cone_index((0, 1))
        fid = comp.face_index[(cone2.zero_cone, top)]
        L = tangent_lattice(comp, fid)
        assert L.rank == 2

    def test_point_at_infinity(self, cone2):
        comp = compactification(cone2)
        top = cone2.cone_index((0, 1))
        fid = comp.face_index[(top, top)]
        assert tangent_lattice(comp, fid).rank == 0

    def test_mixed_face(self, cone2):
        comp = compactification(cone2)
        r1 = cone2.cone_index((0,))
        top = cone2.cone_index((0, 1))
        fid = comp.face_index[(r1, top)]
        L = tangent_lattice(comp, fid)
        assert L.rank == 1

    def test_rank_equals_dimension(self, cube):
        comp = compactification(cube)
        for fid in range(len(comp.faces)):
            assert tangent_lattice(comp, fid).rank == comp.dim(fid)

    @pytest.mark.parametrize("name", ["p2", "delta", "sigma3", "cone2", "cube", "u23", "k4", "u35", "skew"])
    def test_spanning_rows_give_the_tangent_bases(self, name, request):
        # the wedges of the projected cone-lattice rows, which are not independent when
        # tau is not the origin, span the same SF_p as the wedges of the HNF tangent basis
        if name == "k4":
            fan = request.getfixturevalue("k4_pair")[0]
        elif name == "u35":
            fan = bergman_fan(Matroid.uniform(5, 3))[0]
        elif name == "skew":
            fan = _skew_fan()
        else:
            fan = request.getfixturevalue(name)
        comp = Compactification(fan)

        def spanning(fid):
            t, s = comp.faces[fid]
            return [zlinalg.vecmat(r, fan.star(t).proj) for r in fan.cone_lattice(s).basis.row_tuples()]

        for p in range(fan.dim + 1):
            hnf_tangent = _bases_from(comp, p, lambda fid: tangent_lattice(comp, fid).basis.row_tuples())
            assert _bases_from(comp, p, spanning) == hnf_tangent
            assert [sheaf.basis(comp, fid, p) for fid in range(len(comp.faces))] == [
                hnf_tangent[fid] for fid in range(len(comp.faces))
            ]
