import math
import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tropfan import exterior, zlinalg
from tropfan import fan as fan_module
from tropfan.fan import (
    Diagnostics,
    Fan,
    TropicalWeights,
    _interiors_meet,
    is_balanced,
    is_saturated,
    is_saturated_at,
    is_unimodular,
    validate,
)
from tropfan.matroid import Matroid, bergman_fan
from tropfan.zlinalg import Sublattice, vecmat

FIXTURES = ["p2", "delta", "sigma3", "cone2", "cube", "u23"]
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


_UNIFORM = {"u35": (5, 3), "u44": (4, 4), "u63": (6, 3)}


def _named_fan(name, request):
    """A fixture fan, the Bergman fan of K4, or that of U(n,r) for a name in ``_UNIFORM``."""
    if name == "k4":
        return request.getfixturevalue("k4_pair")[0]
    if name in _UNIFORM:
        return bergman_fan(Matroid.uniform(*_UNIFORM[name]))[0]
    return request.getfixturevalue(name)


class TestValidate:
    def test_p2_passes(self, p2):
        assert validate(p2, "geometric").ok

    def test_primitivity_violation(self):
        fan = Fan.from_max_cones(2, [(2, 0), (0, 1), (-1, -1)], [(0, 1), (0, 2), (1, 2)])
        diags = validate(fan)
        assert any(f.code == "primitivity" for f in diags.findings)

    def test_flagged_face_of_a_maximal_cone(self):
        # the maximal list names the cone (0, 1) and its face (0,), then also the origin
        rays = [(1, 0), (0, 1), (-1, -1)]
        fan = Fan.from_max_cones(2, rays, [(0, 1), (0,), (1, 2)])
        flags = [f.message for f in validate(fan).findings if f.code == "maximal-flag"]
        assert flags == ["cone (0,) flagged maximal but contained in (0, 1)"]
        fan = Fan.from_max_cones(2, rays, [(0, 1), ()])
        flags = [f.message for f in validate(fan).findings if f.code == "maximal-flag"]
        assert flags == [f"cone () flagged maximal but contained in {c}" for c in [(0,), (1,), (0, 1)]]

    def test_geometric_overlap(self):
        fan = Fan.from_max_cones(2, [(1, 0), (1, 2), (1, 1), (0, 1)], [(0, 1), (2, 3)])
        diags = validate(fan, "geometric")
        assert any(f.code == "overlap" for f in diags.findings)

    def test_shared_face_no_overlap(self, p2):
        # adjacent cones of a genuine fan share only boundary faces
        assert validate(p2, "geometric").ok

    def test_overlapping_maximal_cones_reported(self):
        # two 3-dim cones whose interiors meet around (1, 1, 1), sharing no ray
        rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 0, 1)]
        fan = Fan.from_max_cones(3, rays, [(0, 1, 2), (3, 4, 5)])
        diags = validate(fan, "geometric")
        assert diags.checked_geometric
        messages = [f.message for f in diags.findings if f.code == "overlap"]
        assert "relative interiors of (0, 1, 2) and (3, 4, 5) intersect" in messages

    @pytest.mark.parametrize("rays", [[(1, 0), (0, 1), (1, 1)], [(1, 0, 0), (0, 1, 0), (1, 1, 0)]])
    def test_overlapping_cones_sharing_a_ray_reported(self, rays):
        # the cone of rays 0 and 2 lies inside the cone of rays 0 and 1; in rank 3 all of it
        # lies in the plane z = 0, where the functional z is zero and separates nothing
        fan = Fan.from_max_cones(len(rays[0]), rays, [(0, 1), (0, 2)])
        messages = [f.message for f in validate(fan, "geometric").findings if f.code == "overlap"]
        assert "relative interiors of (0, 1) and (0, 2) intersect" in messages
        assert "relative interiors of (2,) and (0, 1) intersect" in messages

    @pytest.mark.parametrize("seed", [None, 13])
    @pytest.mark.parametrize("name", FIXTURES + ["k4", "u35", "u44", "u63"])
    def test_findings_match_every_pair(self, name, seed, request, reordered):
        # skipping faces of one cone and separated pairs leaves the findings of the all-pairs LP scan
        fan = _named_fan(name, request)
        if seed is not None:
            fan = reordered(fan, seed)
        assert [(f.code, f.message) for f in validate(fan, "geometric").findings] == _all_pairs_findings(fan)

    @pytest.mark.parametrize("name, lps", [("k4", 0), ("u35", 0), ("sigma3", 3)])
    def test_lp_only_for_unseparated_pairs(self, name, lps, request, monkeypatch):
        # sigma3's ray (1, 0) and cone of (1, -3), (-2, 3) are separated by (2, 1), no functional of the set
        calls = []
        monkeypatch.setattr(fan_module, "_interiors_meet", lambda *args: calls.append(args) or _interiors_meet(*args))
        assert validate(_named_fan(name, request), "geometric").ok
        assert len(calls) == lps

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_random_fans_match_every_pair(self, data):
        # small cones in rank <= 3 that may overlap, some inside a hyperplane of a functional
        rank = data.draw(st.integers(1, 3))
        ray = st.tuples(*[st.integers(-1, 1)] * rank).filter(any)
        rays = data.draw(st.lists(ray, min_size=1, max_size=6, unique=True))
        cone = st.lists(st.integers(0, len(rays) - 1), min_size=1, max_size=rank, unique=True)
        fan = Fan.from_max_cones(rank, rays, data.draw(st.lists(cone, min_size=1, max_size=3)))
        assert [(f.code, f.message) for f in validate(fan, "geometric").findings] == _all_pairs_findings(fan)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_simplicial_findings_match_rational_rank(self, data):
        # collinear, repeated and zero rays: integer ranks only where no independent cone covers a cone
        rank = data.draw(st.integers(1, 3))
        rays = data.draw(st.lists(st.tuples(*[st.integers(-2, 2)] * rank), min_size=1, max_size=6))
        cone = st.lists(st.integers(0, len(rays) - 1), min_size=1, max_size=rank + 1, unique=True)
        fan = Fan.from_max_cones(rank, rays, data.draw(st.lists(cone, min_size=1, max_size=4)))
        assert _simplicial_findings(fan) == _rational_rank_findings(fan)

    @pytest.mark.parametrize("cones", [
        [(), (0, 1, 2)],  # no faces listed below a dependent cone
        [(), (0, 1), (0, 1, 3)],  # an independent face listed, a dependent cone above it
        [(), (0, 3), (1, 2), (0, 1, 2)],
    ])
    def test_simplicial_findings_without_face_closure(self, cones):
        fan = Fan(2, [(1, 0), (0, 1), (1, 1), (2, 0)], cones, [len(cones) - 1])
        assert _simplicial_findings(fan) == _rational_rank_findings(fan)
        assert [f.code for f in validate(fan).findings].count("closure") > 0


def _simplicial_findings(fan):
    return [f.message for f in validate(fan).findings if f.code == "simplicial"]


def _rational_rank_findings(fan):
    return [
        f"cone {c} has dependent rays"
        for c in fan.cones
        if c and zlinalg.rank_frac([fan.rays[i] for i in c]) != len(c)
    ]


def _all_pairs_findings(fan):
    diags = validate(fan)
    if not diags.ok:
        return [(f.code, f.message) for f in diags.findings]
    out = Diagnostics()
    nonzero = [c for c in fan.cones if c]
    for a in range(len(nonzero)):
        for b in range(a + 1, len(nonzero)):
            if _interiors_meet(fan, nonzero[a], nonzero[b]):
                out.add("overlap", f"relative interiors of {nonzero[a]} and {nonzero[b]} intersect")
    return [(f.code, f.message) for f in out.findings]


def _fans_and_stars(request):
    fans = [request.getfixturevalue(name) for name in FIXTURES] + [request.getfixturevalue("k4_pair")[0]]
    return fans + [fan.star(i).fan for fan in fans for i in range(len(fan.cones))]


class TestIncidenceIndex:
    def test_matches_scans(self, request):
        for fan in _fans_and_stars(request):
            cones = [set(c) for c in fan.cones]
            n = len(cones)
            for i, c in enumerate(cones):
                assert fan.covered_by(i) == [j for j, d in enumerate(cones) if len(d) == len(c) + 1 and c <= d]
                assert fan.cones_containing(i) == [j for j, d in enumerate(cones) if c <= d]
            for i in range(n):
                for j in range(n):
                    above = [k for k, d in enumerate(cones) if cones[i] | cones[j] <= d]
                    smallest = min(above, key=lambda k: len(cones[k])) if above else None
                    assert fan.join(i, j) == smallest


class TestUnimodular:
    def test_p2(self, p2):
        assert is_unimodular(p2)[1]

    def test_sigma3_not(self, sigma3):
        per_cone, glob = is_unimodular(sigma3)
        assert not glob
        bad = sigma3.cone_index((0, 1))
        assert not per_cone[bad]

    def test_delta_is(self, delta):
        assert is_unimodular(delta)[1]

    def test_cube_is(self, cube):
        assert is_unimodular(cube)[1]

    def test_decided_once_per_fan(self, p2):
        assert is_unimodular(p2) is is_unimodular(p2)

    @pytest.mark.parametrize("name", ["k4", "u35", "dependent"])
    def test_one_smith_pass_per_cone(self, name, request, monkeypatch):
        # validate, then is_unimodular, on a fresh fan: each nonzero cone's rays are reduced at most once
        if name == "dependent":
            fan = Fan.from_max_cones(2, [(1, 0), (0, 1), (1, 1)], [(0, 1, 2)])
        else:
            base = _named_fan(name, request)
            fan = Fan(base.rank, base.rays, base.cones, base.maximal)

        def key(rows):
            return tuple(tuple(sorted(r.items())) for r in rows)

        calls = []
        snf_divisors = zlinalg.snf_divisors
        monkeypatch.setattr(zlinalg, "snf_divisors", lambda rows: calls.append(key(rows)) or snf_divisors(rows))
        findings = [f.message for f in validate(fan).findings]
        per_cone, verdict = is_unimodular(fan)
        cone_keys = {key({k: x for k, x in enumerate(fan.rays[i]) if x} for i in c) for c in fan.cones if c}
        assert len(calls) == len(set(calls)) and set(calls) <= cone_keys
        if name == "dependent":
            assert findings == ["cone (0, 1, 2) has dependent rays"]
            assert [c for i, c in enumerate(fan.cones) if not per_cone[i]] == [(0, 1, 2)] and not verdict
        else:
            assert not findings and verdict


class TestConeLattice:
    @pytest.mark.parametrize("name", FIXTURES + ["k4", "u35"])
    def test_matches_saturation_and_divisors(self, name, request):
        # the per-cone verdict against the Smith divisors, and N_sigma against saturating the ray span
        fan = _named_fan(name, request)
        per_cone, _ = is_unimodular(fan)
        for c, cone in enumerate(fan.cones):
            rays = [fan.rays[i] for i in cone]
            divisors = zlinalg.snf_divisors([{j: x for j, x in enumerate(r) if x} for r in rays])
            assert per_cone[c] == (divisors == (1,) * len(cone))
            want = zlinalg.saturate(Sublattice.from_rows(rays, fan.rank))[0]
            assert fan.cone_lattice(c).basis == want.basis
        if name == "sigma3":
            assert not all(per_cone.values())


def _saturated_in_the_star(fan, i):
    """Saturation at a cone as the star gives it: the projected maximal cone lattices have index 1 in its saturation."""
    star = fan.star(i)
    rows = [
        vecmat(r, star.proj)
        for c in fan.cones_containing(i) if c in fan.maximal
        for r in fan.cone_lattice(c).basis.row_tuples()
    ]
    return (zlinalg.saturate(Sublattice.from_rows(rows, star.quotient_rank))[1] if rows else 1) == 1


def _random_simplicial_fan(seed):
    """A seeded fan of a few maximal cones with independent primitive rays, in rank 2 to 4; its cones may overlap."""
    rng = random.Random(seed)
    rank = rng.randint(2, 4)
    rays = set()
    while len(rays) < rank + 3:
        r = tuple(rng.randint(-3, 3) for _ in range(rank))
        if math.gcd(*r) == 1:
            rays.add(r)
    rays = sorted(rays)
    cones = []
    while len(cones) < 4:
        c = rng.sample(range(len(rays)), rng.randint(1, rank))
        if len(zlinalg.snf_divisors([{j: x for j, x in enumerate(rays[i]) if x} for i in c])) == len(c):
            cones.append(c)
    return Fan.from_max_cones(rank, rays, cones)


class TestSaturated:
    def test_delta_not_at_origin(self, delta):
        assert not is_saturated_at(delta, delta.zero_cone)
        assert not is_saturated(delta)

    def test_p2_at_origin(self, p2):
        assert is_saturated_at(p2, p2.zero_cone)
        assert is_saturated(p2)

    def test_cube_everywhere(self, cube):
        for i in range(len(cube.cones)):
            assert is_saturated_at(cube, i)

    @pytest.mark.parametrize("name", FIXTURES + ["k4", "u35", "u44", "u63"])
    def test_matches_index_in_saturation(self, name, request):
        # the Smith divisors of the cone lattices in N against the index of the projected lattice in its saturation
        fan = _named_fan(name, request)
        for i in range(len(fan.cones)):
            assert is_saturated_at(fan, i) == _saturated_in_the_star(fan, i)

    def test_matches_index_in_saturation_on_random_fans(self):
        unsaturated = 0
        for seed in range(80):
            fan = _random_simplicial_fan(seed)
            for i, cone in enumerate(fan.cones):
                saturated = is_saturated_at(fan, i)
                assert saturated == _saturated_in_the_star(fan, i), (seed, cone)
                unsaturated += not saturated
        assert unsaturated

    @pytest.mark.parametrize("name", FIXTURES + ["k4", "u44", "u35"])
    def test_cone_lattice_is_the_saturation(self, name, request):
        # unimodular cones skip the saturation; one reduced HNF basis per lattice makes the bases equal
        fan = _named_fan(name, request)
        for c, cone in enumerate(fan.cones):
            L = Sublattice.from_rows([fan.rays[i] for i in cone], fan.rank)
            assert fan.cone_lattice(c).basis == zlinalg.saturate(L)[0].basis

    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=1, max_size=n),
            )
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_cone_lattice_is_the_saturation_on_random_cones(self, case):
        n, rows = case
        rays = [tuple(x // g for x in r) for r in rows if (g := math.gcd(*r))]
        assume(rays and len(zlinalg.snf_divisors([{j: x for j, x in enumerate(r) if x} for r in rays])) == len(rays))
        fan = Fan.from_max_cones(n, rays, [range(len(rays))])
        for c, cone in enumerate(fan.cones):
            L = Sublattice.from_rows([fan.rays[i] for i in cone], n)
            assert fan.cone_lattice(c).basis == zlinalg.saturate(L)[0].basis


class TestStarFan:
    def test_p2_star_of_ray(self, p2):
        star = p2.star(p2.cone_index((0,)))
        assert star.quotient_rank == 1
        assert sorted(star.fan.rays) == [(-1,), (1,)]
        assert len(star.fan.maximal) == 2

    def test_star_of_origin_is_identity(self, p2):
        star = p2.star(p2.zero_cone)
        assert star.fan is p2
        assert star.proj == tuple(
            tuple(1 if i == j else 0 for j in range(2)) for i in range(2)
        )

    def test_cone2_star_of_top(self, cone2):
        star = cone2.star(cone2.cone_index((0, 1)))
        assert star.quotient_rank == 0
        assert star.fan.cones == ((),)

    def test_star_of_star_poset(self, cube):
        # iterated stars agree with the star at the larger cone
        tau = cube.cone_index((0,))
        sigma = cube.cone_index((0, 1))
        star1 = cube.star(tau)
        inner = star1.fan.star(star1.cone_map[sigma])
        direct = cube.star(sigma)
        assert _poset_signature(inner.fan) == _poset_signature(direct.fan)

    def test_star_section_consistency(self, cube):
        for idx in range(len(cube.cones)):
            star = cube.star(idx)
            m = star.quotient_rank
            prod = [
                [sum(star.section[i][t] * star.proj[t][j] for t in range(cube.rank)) for j in range(m)]
                for i in range(m)
            ]
            assert prod == [[1 if i == j else 0 for j in range(m)] for i in range(m)]

    def test_unsaturated_cone_lattice_exits_3_under_optimize(self):
        # a cone lattice of index 2 breaks the star projection; the raise survives -O and names the cone
        code = (
            "import sys\n"
            "from tropfan import cli, fan, zlinalg\n"
            "original = fan.Fan.cone_lattice\n"
            "def doubled(self, cone_idx):\n"
            "    L = original(self, cone_idx)\n"
            "    if self.cones[cone_idx] != (0,):\n"
            "        return L\n"
            "    B = zlinalg.IntMatrix(L.rank, L.ambient_rank, [2 * e for e in L.basis.entries])\n"
            "    return zlinalg.Sublattice(L.ambient_rank, B)\n"
            "fan.Fan.cone_lattice = doubled\n"
            f"sys.exit(cli.run(['cohomology', '--fan', {str(SRC.parent / 'fans' / 'p2.json')!r}, '--space', 'comp']))\n"
        )
        res = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert res.returncode == 3
        assert "cone lattice of cone (0,) is not saturated: divisors (2,)" in res.stderr

    def test_dependent_rays_raise_under_optimize(self):
        # three rays in a plane: the star of the cone reports dependent rays,
        # and the star of a face names the ray that collapses there
        code = (
            "from tropfan.fan import Fan\n"
            "fan = Fan.from_max_cones(2, [(1, 0), (0, 1), (1, 1)], [(0, 1, 2)])\n"
            "for cone in ((0, 1, 2), (0, 1)):\n"
            "    try:\n"
            "        fan.star(fan.cone_index(cone))\n"
            "    except AssertionError as exc:\n"
            "        print('raised:', exc)\n"
        )
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        ).stdout.splitlines()
        assert out == [
            "raised: cone (0, 1, 2) has dependent rays",
            "raised: ray 2 of cone (0, 1, 2) collapses in the star of cone (0, 1): dependent rays",
        ]


def _poset_signature(fan):
    return sorted((len(c), tuple(sorted(map(len, (set(c) & set(d) for d in fan.cones))))) for c in fan.cones)


class TestBalanced:
    def test_delta_units(self, delta, delta_weights):
        assert is_balanced(delta, delta_weights)

    def test_cube_units(self, cube, cube_weights):
        assert is_balanced(cube, cube_weights)

    def test_delta_112(self, delta):
        w = TropicalWeights.from_list(delta, [1, 1, 2])
        assert not is_balanced(delta, w)

    def test_sign_flip_invariance(self, delta, delta_weights):
        flipped = TropicalWeights.from_list(delta, [-1, -1, -1])
        assert is_balanced(delta, flipped)

    @given(a=st.integers(-3, 3), b=st.integers(-3, 3))
    @settings(max_examples=30, deadline=None)
    def test_additivity(self, u23, a, b):
        # multiples of the unit weight stay balanced whenever nonzero
        c = a + b
        if a and b and c:
            wa = TropicalWeights.from_list(u23, [a] * 3)
            wb = TropicalWeights.from_list(u23, [b] * 3)
            wc = TropicalWeights.from_list(u23, [c] * 3)
            assert is_balanced(u23, wa) and is_balanced(u23, wb) and is_balanced(u23, wc)


class TestUnitNormal:
    def test_ray_normal_is_generator(self, p2):
        star = p2.star(p2.zero_cone)
        cls = star.normals[p2.cone_index((0,))]
        lift = vecmat(cls, star.section)
        assert lift == (1, 0)
        assert cls == (1, 0)

    def test_cone2_example(self, cone2):
        star = cone2.star(cone2.cone_index((0,)))
        cls = star.normals[cone2.cone_index((0, 1))]
        lift = vecmat(cls, star.section)
        assert cls == (1,)
        assert lift[1] == 1  # lies on the e2 side

    def test_sigma3_non_unimodular_cone(self, sigma3):
        tau = sigma3.cone_index((0,))
        sigma = sigma3.cone_index((0, 1))
        star = sigma3.star(tau)
        lift = vecmat(star.normals[sigma], star.section)
        # N_sigma = Z^2 here; the class generates N^tau and points to (1,-3)
        assert lift[1] == -1

    def test_lattice_property(self, cube):
        for sigma in range(len(cube.cones)):
            for tau in cube.covers_of(sigma):
                star = cube.star(tau)
                lift = vecmat(star.normals[sigma], star.section)
                rows = list(cube.cone_lattice(tau).basis.row_tuples()) + [lift]
                L = Sublattice.from_rows(rows, cube.rank)
                assert L.basis == cube.cone_lattice(sigma).basis

    @pytest.mark.parametrize("name", FIXTURES + ["k4", "u35"])
    def test_class_is_star_ray_and_lift_generates(self, name, request):
        # the class is the primitive ray of the star; the lift projects to it
        # and completes a basis of N_tau to one of N_sigma
        fan = _named_fan(name, request)
        for sigma in range(len(fan.cones)):
            for tau in fan.covers_of(sigma):
                star = fan.star(tau)
                cls = star.normals[sigma]
                lift = vecmat(cls, star.section)
                (ray,) = star.fan.cones[star.cone_map[sigma]]
                assert cls == star.fan.rays[ray]
                assert vecmat(lift, star.proj) == cls
                rows = list(fan.cone_lattice(tau).basis.row_tuples()) + [lift]
                assert Sublattice.from_rows(rows, fan.rank).basis == fan.cone_lattice(sigma).basis


class TestOrientation:
    def test_nu_of_rays(self, p2):
        for r in range(3):
            idx = p2.cone_index((r,))
            nu = p2.nu(idx)
            assert nu == tuple(p2.rays[r])

    def test_nu_zero_cone(self, p2):
        assert p2.nu(p2.zero_cone) == (1,)

    def test_unimodular_nu_is_ray_wedge(self, cube):
        from tropfan.exterior import wedge_rows

        for idx in range(len(cube.cones)):
            rays = [cube.rays[i] for i in cube.cones[idx]]
            assert cube.nu(idx) == wedge_rows(rays, cube.rank)

    def test_non_proportional_vectors_raise_under_optimisation(self):
        # the proportionality checks behind every orientation sign survive -O
        code = (
            "from tropfan.fan import Fan\n"
            "fan = Fan.from_max_cones(2, [(1, 0), (0, 1)], [(0, 1)])\n"
            "ray = fan.cone_index((0,))\n"
            "try:\n"
            "    fan.varpi_face(fan.zero_cone, ray, (1, 1))\n"
            "except AssertionError as exc:\n"
            "    print('raised:', exc)\n"
        )
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        ).stdout.splitlines()
        assert out == ["raised: vector not proportional to the face multivector of ((), (0,))"]

    @pytest.mark.parametrize("name", FIXTURES + ["k4", "u35"])
    def test_nu_face_is_the_induced_image_of_nu(self, name, request):
        # the wedge of the projected lattice basis against /\^p of the projection applied to nu
        fan = _named_fan(name, request)
        for t in range(len(fan.cones)):
            star = fan.star(t)
            for s in fan.cones_containing(t):
                rest = fan.cone_index(tuple(i for i in fan.cones[s] if i not in fan.cones[t]))
                p = len(fan.cones[rest])
                induced = exterior.induced_matrix(star.proj, p, fan.rank, star.quotient_rank)
                assert fan.nu_face(t, s) == vecmat(fan.nu(rest), induced, exterior.dim(star.quotient_rank, p))

    def test_non_unimodular_nu_divides_ray_wedge(self, sigma3):
        from tropfan.exterior import wedge_rows

        idx = sigma3.cone_index((0, 1))
        raw = wedge_rows([sigma3.rays[0], sigma3.rays[1]], 2)
        assert raw == tuple(3 * x for x in sigma3.nu(idx))  # cone of index three
