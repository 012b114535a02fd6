import itertools

import pytest

from tropfan import exterior, zlinalg
from tropfan.compactify import comp_faces
from tropfan.homology import build_complex, compactification
from tropfan.matroid import Matroid, bergman_fan


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

    def test_cover_count_is_twice_dimension(self, cube):
        comp = compactification(cube)
        for fid in range(len(comp.faces)):
            assert len(comp.covers_of(fid)) == 2 * comp.dim(fid)


class TestIncidenceIndex:
    @pytest.mark.parametrize("name", ["p2", "delta", "sigma3", "cone2", "cube", "u23", "k4"])
    def test_cofaces_transpose_covers(self, name, request):
        fan = request.getfixturevalue("k4_pair")[0] if name == "k4" else request.getfixturevalue(name)
        comp = compactification(fan)
        n = len(comp.faces)
        down = sorted((gid, did, sign) for did in range(n) for gid, sign in comp.covers_of(did))
        up = sorted((gid, did, sign) for gid in range(n) for did, sign in comp.cofaces_of(gid))
        assert up == down
        assert len(set(down)) == len(down)

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

    def test_degenerate_incidence_raises(self, cone2, monkeypatch):
        comp = compactification(cone2)
        monkeypatch.setattr(cone2, "varpi_face", lambda *args: 0)
        z, r1, top = cone2.zero_cone, cone2.cone_index((0,)), cone2.cone_index((0, 1))
        with pytest.raises(AssertionError, match=r"degenerate incidence of face \(\(\), \(0,\)\) in face \(\(\), \(0, 1\)\)"):
            comp._sign_same_sedentarity(z, r1, top)
        with pytest.raises(AssertionError, match=r"degenerate incidence of face \(\(0,\), \(0, 1\)\) in face \(\(\), \(0, 1\)\)"):
            comp._sign_sedentarity_drop(z, r1, top)


def _solve_lift(fan, t, sigma, k, target):
    """A rational multivector of star(t) mapping to ``target`` in star(sigma)."""
    A = fan.transition_wedge(t, sigma, k)
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
                                kernels.append((fan.unit_normal(t, sigma)[1], 1))
                            for vec, deg in kernels:
                                assert exterior.wedge_coords(vec, deg, lift, b_q, m) == exterior.wedge_coords(
                                    vec, deg, solved, b_q, m
                                )
                            triples += 1
        assert triples > 0


class TestTangentLattice:
    def test_sedentarity_zero(self, cone2):
        comp = compactification(cone2)
        top = cone2.cone_index((0, 1))
        fid = comp.face_index[(cone2.zero_cone, top)]
        L = comp.tangent_lattice(fid)
        assert L.rank == 2

    def test_point_at_infinity(self, cone2):
        comp = compactification(cone2)
        top = cone2.cone_index((0, 1))
        fid = comp.face_index[(top, top)]
        assert comp.tangent_lattice(fid).rank == 0

    def test_mixed_face(self, cone2):
        comp = compactification(cone2)
        r1 = cone2.cone_index((0,))
        top = cone2.cone_index((0, 1))
        fid = comp.face_index[(r1, top)]
        L = comp.tangent_lattice(fid)
        assert L.rank == 1

    def test_rank_equals_dimension(self, cube):
        comp = compactification(cube)
        for fid in range(len(comp.faces)):
            assert comp.tangent_lattice(fid).rank == comp.dim(fid)
