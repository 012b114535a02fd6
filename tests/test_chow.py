import itertools
import os
import pathlib
import subprocess
import sys

import pytest

from tropfan import chow, homology, sheaf, zlinalg
from tropfan.chow import (
    ChowClass,
    MinkowskiWeight,
    chow_generator_cocycle,
    chow_group,
    chow_multiply,
    chow_mw_pairing,
    cocycle_to_chow,
    cycle_class,
    degree_map,
    fundamental_weight,
    minkowski_weights,
    relation_matrix,
    weight_is_balanced,
)
from tropfan.fan import TropicalWeights
from tropfan.homology import ComplexGroups, build_complex, compactification, cup
from tropfan.matroid import Matroid, bergman_fan
from tropfan.zlinalg import AbGroup, IntMatrix, LatticeQuotient

ROOT = pathlib.Path(__file__).resolve().parent.parent


class MonomialQuotient:
    """Independent model of the degree-k Chow group: the polynomial ring on
    rays modulo non-cone monomials and the linear-form relations, with the
    quotient computed by plain integer linear algebra."""

    def __init__(self, fan, k):
        self.fan = fan
        self.k = k
        self.monomials = list(itertools.combinations_with_replacement(range(len(fan.rays)), k))
        self.index = {m: i for i, m in enumerate(self.monomials)}
        cone_set = set(fan.cones)
        rels = []
        for m in self.monomials:
            if tuple(sorted(set(m))) not in cone_set:
                rels.append({self.index[m]: 1})
        if k >= 1:
            for mu in itertools.combinations_with_replacement(range(len(fan.rays)), k - 1):
                for j in range(fan.rank):
                    row = {}
                    for z in range(len(fan.rays)):
                        mm = self.index[tuple(sorted(mu + (z,)))]
                        row[mm] = row.get(mm, 0) + fan.rays[z][j]
                    rels.append({c: e for c, e in row.items() if e})
        self.quotient = LatticeQuotient(len(self.monomials), rels)

    def class_of_monomial(self, mono):
        v = [0] * len(self.monomials)
        v[self.index[tuple(sorted(mono))]] = 1
        return self.quotient.class_of(v)

    def class_of_chow(self, cls):
        v = [0] * len(self.monomials)
        for c, cone_idx in zip(cls.vector, self.fan.cones_of_dim(cls.degree)):
            if c:
                mono = tuple(sorted(self.fan.cones[cone_idx]))
                v[self.index[mono]] += c
        return self.quotient.class_of(v)


class TestChowGroups:
    def test_delta_degree_one(self, delta):
        pres = chow_group(delta, 1)
        assert pres.group == AbGroup(1, (3,))
        x1 = pres.generator(delta.cone_index((0,)))
        x2 = pres.generator(delta.cone_index((1,)))
        diff = x1 + x2.scale(-1)
        assert not pres.is_zero(diff)
        assert pres.is_zero(diff.scale(3))

    def test_p2_degree_one(self, p2):
        assert chow_group(p2, 1).group == AbGroup(1)

    def test_degree_zero_is_Z(self, p2, delta, cube):
        for fan in (p2, delta, cube):
            assert chow_group(fan, 0).group == AbGroup(1)

    def test_above_top_degree_trivial(self, p2):
        assert chow_group(p2, 3).group.is_trivial

    def test_sigma3_degree_one_torsion(self, sigma3):
        assert chow_group(sigma3, 1).group == AbGroup(1, (3,))

    def test_sigma3_higher_integral_rejected(self, sigma3):
        with pytest.raises(ValueError):
            chow_group(sigma3, 2, "Z")
        assert chow_group(sigma3, 2, "Q").group.free_rank == 1

    def test_cube_groups(self, cube):
        assert chow_group(cube, 1).group == AbGroup(5)
        assert chow_group(cube, 2).group == AbGroup(1)


class TestMultiplication:
    def test_join_case(self, p2):
        pres = chow_group(p2, 1)
        prod = chow_multiply(p2, pres.generator(p2.cone_index((0,))), pres.generator(p2.cone_index((1,))))
        pres2 = chow_group(p2, 2)
        assert pres2.classes_equal(prod, pres2.generator(p2.cone_index((0, 1))))

    def test_self_intersection(self, p2):
        pres = chow_group(p2, 1)
        x1 = pres.generator(p2.cone_index((0,)))
        sq = chow_multiply(p2, x1, x1)
        pres2 = chow_group(p2, 2)
        assert pres2.classes_equal(sq, pres2.generator(p2.cone_index((0, 2))))

    def test_sum_of_mixed_degrees_rejected(self, p2):
        x = chow_group(p2, 1).generator(p2.cone_index((0,)))
        y = chow_group(p2, 2).generator(p2.cone_index((0, 1)))
        with pytest.raises(ValueError, match="degrees 1 and 2"):
            x + y

    def test_incomparable_rays_vanish(self, delta):
        pres = chow_group(delta, 1)
        prod = chow_multiply(
            delta, pres.generator(delta.cone_index((0,))), pres.generator(delta.cone_index((1,)))
        )
        assert all(x == 0 for x in prod.vector)

    @pytest.mark.parametrize("name", ["p2", "u23", "cube"])
    def test_against_monomial_oracle(self, name, request):
        fan = request.getfixturevalue(name)
        d = fan.dim
        pres1 = chow_group(fan, 1)
        oracle = MonomialQuotient(fan, 2)
        if d < 2:
            return
        rays = fan.cones_of_dim(1)
        for a in rays:
            for b in rays:
                prod = chow_multiply(fan, pres1.generator(a), pres1.generator(b))
                got = oracle.class_of_chow(prod)
                want = oracle.class_of_monomial(fan.cones[a] + fan.cones[b])
                assert got == want, (fan.cones[a], fan.cones[b])

    def test_against_monomial_oracle_k4(self, k4_pair):
        fan, _ = k4_pair
        pres1 = chow_group(fan, 1)
        oracle = MonomialQuotient(fan, 2)
        rays = fan.cones_of_dim(1)
        for a in rays:
            for b in rays[: len(rays) : 3] + [a]:
                prod = chow_multiply(fan, pres1.generator(a), pres1.generator(b))
                assert oracle.class_of_chow(prod) == oracle.class_of_monomial(
                    fan.cones[a] + fan.cones[b]
                )

    def test_triple_products_associative(self, p2):
        pres1 = chow_group(p2, 1)
        xs = [pres1.generator(p2.cone_index((r,))) for r in range(3)]
        two = chow_multiply(p2, xs[0], xs[1])
        lhs = chow_multiply(p2, two, xs[2])
        assert all(x == 0 for x in lhs.vector)  # degree three on a surface

    def test_rational_products_kill_linear_relations(self, sigma3):
        # over Q the products are defined on the merely simplicial fan and
        # must annihilate the degree-one relation classes
        pres1 = chow_group(sigma3, 1, "Q")
        pres2 = chow_group(sigma3, 2, "Q")
        assert pres2.group.free_rank == 1
        n = len(pres1.generators)
        for row in relation_matrix(sigma3, 1):
            rel = ChowClass(sigma3, 1, [row.get(j, 0) for j in range(n)])
            for r in range(3):
                prod = chow_multiply(sigma3, rel, pres1.generator(sigma3.cone_index((r,))), "Q")
                assert pres2.is_zero(prod)

    def test_products_repeat_from_the_memo(self, sigma3):
        # repeated products read the fan's ray-product memo and stay equal; over Q the Z and Q products agree
        pres1, pres2 = chow_group(sigma3, 1), chow_group(sigma3, 2, "Q")
        gens = [pres1.generator(s) for s in sigma3.cones_of_dim(1)]
        first = {}
        for _ in range(2):
            for coeff in ("Z", "Q"):
                got = [chow_multiply(sigma3, a, b, coeff) for a in gens for b in gens]
                assert [p.vector for p in got] == first.setdefault(coeff, [p.vector for p in got])
        for z, q in zip(first["Z"], first["Q"]):
            assert pres2.classes_equal(ChowClass(sigma3, 2, z), ChowClass(sigma3, 2, q))

    def test_non_unimodular_self_intersection_raises_every_time(self, sigma3):
        # the cone (1, 2) has index 3: no integral form is 1 on ray 1 and 0 on ray 2, and a failure is not stored
        cone = sigma3.cone_index((1, 2))
        for _ in range(2):
            with pytest.raises(ValueError, match="unimodular"):
                chow._ray_times_generator(sigma3, 1, cone, "Z")
            assert (1, cone, "Z") not in sigma3._ray_products
        assert chow._ray_times_generator(sigma3, 1, cone, "Q") == {}


class TestDegreeAndPairing:
    def test_degree_of_point_class(self, p2, p2_weights):
        pres1 = chow_group(p2, 1)
        prod = chow_multiply(
            p2, pres1.generator(p2.cone_index((0,))), pres1.generator(p2.cone_index((1,)))
        )
        assert degree_map(p2, p2_weights, prod) == 1

    def test_degree_zero_class(self, p2, p2_weights):
        zero = ChowClass(p2, 2, (0, 0, 0))
        assert degree_map(p2, p2_weights, zero) == 0

    def test_cube_facet_degrees(self, cube, cube_weights):
        pres = chow_group(cube, 2)
        for s in cube.cones_of_dim(2):
            assert degree_map(cube, cube_weights, pres.generator(s)) == 1

    def test_unbalanced_weights_rejected(self, delta):
        bad = TropicalWeights.from_list(delta, [1, 1, 2])
        with pytest.raises(ValueError):
            degree_map(delta, bad, ChowClass(delta, 1, (1, 0, 0)))

    def test_pairing_examples(self, p2):
        pres1 = chow_group(p2, 1)
        w = minkowski_weights(p2, 1)[0]
        vals = {chow_mw_pairing(pres1.generator(p2.cone_index((r,))), w) for r in range(3)}
        assert vals == {1} or vals == {-1}

    def test_relation_rows_pair_to_zero(self, cube):
        for p in range(1, 3):
            rows = relation_matrix(cube, p)
            n = len(cube.cones_of_dim(p))
            for w in minkowski_weights(cube, p):
                for row in rows:
                    cls = ChowClass(cube, p, [row.get(j, 0) for j in range(n)])
                    assert chow_mw_pairing(cls, w) == 0

    def test_cube_gram_determinant_two(self, cube, cube_weights):
        pres1 = chow_group(cube, 1)
        reps = pres1.quotient.free_representatives()
        gram = []
        for u in reps:
            row = []
            cu = ChowClass(cube, 1, u)
            for v in reps:
                cv = ChowClass(cube, 1, v)
                row.append(degree_map(cube, cube_weights, chow_multiply(cube, cu, cv)))
            gram.append(row)
        from tropfan.exterior import det

        assert abs(det(gram)) == 2


class TestMinkowskiWeights:
    def test_p2_rank_one(self, p2):
        basis = minkowski_weights(p2, 1)
        assert len(basis) == 1
        assert basis[0].values in ((1, 1, 1), (-1, -1, -1))

    def test_cube_rank_five(self, cube):
        assert len(minkowski_weights(cube, 1)) == 5

    def test_dimension_zero_rank_one(self, p2):
        assert len(minkowski_weights(p2, 0)) == 1

    def test_balancing_of_basis(self, cube):
        for p in range(3):
            for w in minkowski_weights(cube, p):
                assert weight_is_balanced(w)


class TestChowMWDuality:
    @pytest.mark.parametrize("name", ["p2", "delta", "sigma3", "cone2", "cube", "u23"])
    def test_mw_rank_equals_chow_free_rank(self, name, request):
        fan = request.getfixturevalue(name)
        for k in range(fan.dim + 1):
            mw_rank = len(minkowski_weights(fan, k))
            chow_rank = chow_group(fan, k, "Q").group.free_rank
            assert mw_rank == chow_rank, (name, k)


class TestCycleClass:
    def test_delta_fundamental_generates(self, delta, delta_weights):
        w = fundamental_weight(delta, delta_weights)
        cls = cycle_class(delta, w)
        assert cls.groups.group(1) == AbGroup(1)
        assert cls.coords in ((1,), (-1,))

    def test_zero_weight(self, p2):
        w = MinkowskiWeight(p2, 1, (0, 0, 0))
        cls = cycle_class(p2, w)
        assert all(x == 0 for x in cls.coords)

    def test_unbalanced_rejected(self, p2):
        with pytest.raises(ValueError):
            cycle_class(p2, MinkowskiWeight(p2, 1, (1, 0, 0)))

    @pytest.mark.parametrize("name", ["p2", "delta", "cone2", "cube", "u23"])
    def test_bijective_on_unimodular_fixtures(self, name, request):
        fan = request.getfixturevalue(name)
        for p in range(fan.dim + 1):
            basis = minkowski_weights(fan, p)
            if not basis:
                comp = compactification(fan)
                hom = ComplexGroups(build_complex(comp, p, "homology"))
                assert hom.group(p).is_trivial
                continue
            classes = [cycle_class(fan, w) for w in basis]
            H = classes[0].groups.group(p)
            assert H == AbGroup(len(basis)), (name, p, str(H))
            mat = IntMatrix.from_rows([c.coords for c in classes])
            assert zlinalg.snf(mat).divisors == (1,) * len(basis)


def _solved_chow(fan, cochain):
    """``cocycle_to_chow`` with a ``coords_in`` solve per cone and call: the oracle of its cached coordinates."""
    comp = cochain.comp
    p = cochain.q
    out = []
    for s in fan.cones_of_dim(p):
        fid = comp.face_index[(fan.zero_cone, s)]
        coords = sheaf.coords_in(comp, fid, p, fan.nu(s))
        out.append(sum(v * c for v, c in zip(cochain.value(fid), coords)))
    return ChowClass(fan, p, out)


class TestPsiMaps:
    @pytest.mark.parametrize("name", ["p2", "cone2", "u23", "cube"])
    def test_round_trip_all_generators(self, name, request):
        fan = request.getfixturevalue(name)
        for p in range(fan.dim + 1):
            pres = chow_group(fan, p)
            for s in fan.cones_of_dim(p):
                a = chow_generator_cocycle(fan, s)
                back = cocycle_to_chow(fan, a)
                assert pres.classes_equal(back, pres.generator(s)), (name, p, fan.cones[s])

    def test_delta_round_trip_mod_torsion(self, delta):
        pres = chow_group(delta, 1)
        for s in delta.cones_of_dim(1):
            a = chow_generator_cocycle(delta, s)
            back = cocycle_to_chow(delta, a)
            diff = back + pres.generator(s).scale(-1)
            assert pres.is_zero(diff.scale(3))  # difference is at most torsion

    def test_coboundary_maps_to_zero_saturated(self, p2):
        comp = compactification(p2)
        import random

        rng = random.Random(9)
        from tests.test_homology import random_cochain

        c = random_cochain(comp, 1, 0, rng)
        db = homology.coboundary(c)
        pres = chow_group(p2, 1)
        assert pres.is_zero(cocycle_to_chow(p2, db))

    def test_coboundary_lands_in_torsion_unsaturated(self, delta):
        # without saturation the reading map need not kill coboundaries,
        # but the defect is torsion: here a fractional functional on the
        # coefficient lattice pushes to a nonzero 3-torsion class
        comp = compactification(delta)
        origin = comp.face_index[(delta.zero_cone, delta.zero_cone)]
        c = homology.Cochain(comp, 1, 0)
        c.set_value(origin, (0, 1))
        cls = cocycle_to_chow(delta, homology.coboundary(c))
        pres = chow_group(delta, 1)
        assert not pres.is_zero(cls)
        assert pres.is_zero(cls.scale(3))

    def test_non_cocycle_rejected(self, p2):
        comp = compactification(p2)
        bad = homology.Cochain(comp, 1, 1)
        fid = comp.face_index[(p2.zero_cone, p2.cone_index((0,)))]
        r = sheaf.rank(comp, fid, 1)
        bad.set_value(fid, (1,) * r)
        with pytest.raises(ValueError):
            cocycle_to_chow(p2, bad)

    def test_ring_morphism_on_ray_pairs(self, cube):
        pres1 = chow_group(cube, 1)
        pres2 = chow_group(cube, 2)
        rays = cube.cones_of_dim(1)
        cocycles = {r: chow_generator_cocycle(cube, r) for r in rays}
        for a in rays[:4]:
            for b in rays[:4]:
                lhs = cocycle_to_chow(cube, cup(cocycles[a], cocycles[b]))
                rhs = chow_multiply(cube, pres1.generator(a), pres1.generator(b))
                assert pres2.classes_equal(lhs, rhs)

    def test_psi_of_cup_matches_spec_example(self, p2):
        # the preimages of two transverse ray classes cup to the point class
        a = chow_generator_cocycle(p2, p2.cone_index((0,)))
        b = chow_generator_cocycle(p2, p2.cone_index((1,)))
        pres2 = chow_group(p2, 2)
        got = cocycle_to_chow(p2, cup(a, b))
        assert pres2.classes_equal(got, pres2.generator(p2.cone_index((0, 1))))

    @pytest.mark.parametrize("name", ["p2", "delta", "cube", "u23", "k4_pair"])
    def test_cached_coordinates_match_a_solve_per_call(self, name, request):
        from tropfan.chow import ray_cocycle

        fan = request.getfixturevalue(name)
        if name == "k4_pair":
            fan = fan[0]
        cocycles = [chow_generator_cocycle(fan, s) for s in range(len(fan.cones))]
        rays = [fan.cones[r][0] for r in fan.cones_of_dim(1)]
        cocycles += [cup(ray_cocycle(fan, a), ray_cocycle(fan, b)) for a in rays for b in rays if a <= b]
        for a in cocycles:
            assert cocycle_to_chow(fan, a) == _solved_chow(fan, a), (a.p, a.q)

    def test_coordinates_leaving_the_lattice_raise_when_cached(self, monkeypatch):
        from tropfan.cli import load_fan_file

        fan = load_fan_file(str(ROOT / "fans" / "cube.json"))[0]
        a = chow_generator_cocycle(fan, fan.cone_index((0,)))
        monkeypatch.setattr(sheaf, "coords_in", lambda *args: None)
        with pytest.raises(AssertionError, match=r"canonical multivector of cone \(0,\) leaves SF_1"):
            cocycle_to_chow(fan, a)

    @pytest.mark.parametrize("coeff", ["Z", "Q"])
    def test_returned_cocycles_are_not_shared(self, cube, coeff):
        # the ray cocycles are memoised per compactification; callers get copies
        from tropfan.chow import ray_cocycle

        for s in (cube.cone_index((0,)), cube.cone_index((0, 1))):
            first = chow_generator_cocycle(cube, s, coeff)
            want = dict(first.data)
            fid = next(iter(first.data))
            first.data[fid] = tuple(x + 1 for x in first.data[fid])
            first.data[-1] = (7,)
            assert chow_generator_cocycle(cube, s, coeff).data == want
        ray = cube.cones[cube.cone_index((2,))][0]
        a = ray_cocycle(cube, ray)
        want = dict(a.data)
        a.data.clear()
        assert ray_cocycle(cube, ray).data == want

    def test_corrupted_ray_cocycle_raises_under_optimize(self):
        # every generator cocycle, rays included, is checked once, when built, and the raise
        # names the cone: a ray cochain that is no cocycle fails its own check, and a memo
        # entry changed after its check fails the check of a cone cupped from it (U(4,4):
        # the cube is 2-dim, so its 2-cones sit in top degree, where every cochain is a cocycle)
        code = (
            "from tropfan import chow\n"
            "from tropfan.cli import load_fan_file\n"
            "from tropfan.chow import chow_generator_cocycle\n"
            "from tropfan.homology import compactification\n"
            "from tropfan.matroid import Matroid, bergman_fan\n"
            "def corrupt(values):\n"
            "    fid = next(iter(values))\n"
            "    values[fid] = tuple(x + 1 for x in values[fid])\n"
            "    return values\n"
            "fan = bergman_fan(Matroid.uniform(4, 4))[0]\n"
            "ray = fan.cone_index((0,))\n"
            "chow_generator_cocycle(fan, ray)\n"
            "corrupt(compactification(fan).generator_cocycles[ray])\n"
            "edge = next(s for s in fan.cones_of_dim(2) if fan.cones[s][0] == 0)\n"
            "try:\n"
            "    chow_generator_cocycle(fan, edge)\n"
            "except AssertionError as exc:\n"
            "    print('raised:', exc)\n"
            "built = chow._ray_cocycle_values\n"
            "chow._ray_cocycle_values = lambda *args: corrupt(built(*args))\n"
            f"fan = load_fan_file({str(ROOT / 'fans' / 'cube.json')!r})[0]\n"
            "try:\n"
            "    chow_generator_cocycle(fan, fan.cone_index((0, 1)))\n"
            "except AssertionError as exc:\n"
            "    print('raised:', exc)\n"
        )
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        ).stdout.splitlines()
        fan = bergman_fan(Matroid.uniform(4, 4))[0]
        edge = next(fan.cones[s] for s in fan.cones_of_dim(2) if fan.cones[s][0] == 0)
        assert out == [
            f"raised: the generator cochain of cone {edge} is not a cocycle",
            "raised: the generator cochain of cone (0,) is not a cocycle",
        ]

    def test_one_cocycle_check_per_generator(self, monkeypatch):
        # a ray cocycle costs two coboundaries (the correction and the check), a higher cone one
        from tropfan.cli import load_fan_file

        fan = load_fan_file(str(ROOT / "fans" / "cube.json"))[0]
        calls = []
        coboundary = homology.coboundary

        def counted(a):
            calls.append(a.q)
            return coboundary(a)

        monkeypatch.setattr(homology, "coboundary", counted)
        for s in range(len(fan.cones)):
            chow_generator_cocycle(fan, s)
        rays, higher = len(fan.cones_of_dim(1)), len(fan.cones) - 1 - len(fan.cones_of_dim(1))
        assert (rays, higher) == (8, 12)
        assert len(calls) == 2 * rays + higher == 28
