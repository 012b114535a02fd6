import pytest

from tropfan.compactify import comp_faces
from tropfan.homology import build_complex, compactification


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
