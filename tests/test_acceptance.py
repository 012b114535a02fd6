"""Acceptance suite: one test per criterion, each printing a PASS line.

Every assertion here is exact; the only tolerances are the stated
runtime budgets.
"""

import json
import random
import time
from fractions import Fraction

from tropfan import chow, zlinalg
from tropfan.chow import (
    chow_generator_cocycle,
    chow_group,
    chow_multiply,
    cocycle_to_chow,
    cycle_class,
    minkowski_weights,
)
from tropfan.cli import run
from tropfan.criteria import chow_pd_check, homology_manifold_check, is_ample, kleiman_check, verification_report
from tropfan.fan import ConewiseLinear
from tropfan.homology import ComplexGroups, build_complex, compactification, cubical_complex, cup, fine_double_complex
from tropfan.matroid import Matroid, bergman_fan
from tropfan.zlinalg import AbGroup, IntMatrix

TABLE_COMPACTIFICATION = {
    (0, 0): "Z",
    (0, 1): "0",
    (0, 2): "0",
    (1, 0): "0",
    (1, 1): "Z^5",
    (1, 2): "0",
    (2, 0): "0",
    (2, 1): "Z^2",
    (2, 2): "Z",
}
TABLE_COMPACT_SUPPORT = {
    (0, 0): "0",
    (0, 1): "0",
    (0, 2): "Z^5",
    (1, 0): "0",
    (1, 1): "0",
    (1, 2): "Z^3 x Z/2Z",
    (2, 0): "0",
    (2, 1): "Z^2",
    (2, 2): "Z",
}


def test_acceptance_1_cube_table(capsys, cube):
    start = time.time()
    assert run(["cohomology", "--fan", "fans/cube.json", "--space", "comp", "--coeff", "Z", "--json"]) == 0
    right = json.loads(capsys.readouterr().out)
    got_right = {(e["p"], e["q"]): e["group"] for e in right["entries"]}
    assert run(["cohomology", "--fan", "fans/cube.json", "--space", "fan", "--variant", "c", "--coeff", "Z", "--json"]) == 0
    left = json.loads(capsys.readouterr().out)
    got_left = {(e["p"], e["q"]): e["group"] for e in left["entries"]}
    elapsed = time.time() - start
    assert got_right == TABLE_COMPACTIFICATION
    assert got_left == TABLE_COMPACT_SUPPORT
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 1: PASS - all 18 table entries exact in {elapsed:.1f}s")


def test_acceptance_2_rank_two_lattice_example(delta):
    pres = chow_group(delta, 1)
    assert pres.group == AbGroup(1, (3,))
    comp = compactification(delta)
    h11 = ComplexGroups(build_complex(comp, 1, "cohomology")).group(1)
    assert h11 == AbGroup(1)
    report = verification_report(delta)
    assert report.psi_status[1] == "surjective-torsion-kernel"
    print("\nACCEPTANCE 2: PASS - A^1 = Z x Z/3Z, H^{1,1} = Z, comparison surjective with torsion kernel")


def test_acceptance_3_complete_non_unimodular_example(sigma3):
    comp = compactification(sigma3)
    h12 = ComplexGroups(build_complex(comp, 1, "cohomology")).group(2)
    assert h12 == AbGroup(0, (3,))
    pres = chow_group(sigma3, 1)
    assert pres.group.torsion == (3,)
    print("\nACCEPTANCE 3: PASS - H^{1,2} = Z/3Z and A^1 carries 3-torsion")


def test_acceptance_4_cubical_oracle(p2, delta, cone2, cube, u23, sigma3, u24_pair, k4_pair):
    checked = 0
    for fan in (p2, delta, cone2, cube, u23, u24_pair[0], k4_pair[0]):
        comp = compactification(fan)
        for p in range(fan.dim + 1):
            cell = ComplexGroups(build_complex(comp, p, "cohomology"))
            cub = ComplexGroups(cubical_complex(fan, p))
            for q in range(fan.dim + 1):
                assert cell.group(q) == cub.group(q), (fan.name, p, q)
                checked += 1
    comp = compactification(sigma3)
    for p in range(sigma3.dim + 1):
        cell = ComplexGroups(build_complex(comp, p, "cohomology", "Q"))
        cub = ComplexGroups(cubical_complex(sigma3, p, "Q"))
        for q in range(sigma3.dim + 1):
            assert cell.group(q) == cub.group(q)
            checked += 1
    print(f"\nACCEPTANCE 4: PASS - cubical model equals cellular cohomology ({checked} groups compared)")


def test_acceptance_5_isomorphism_suite(p2, cone2, cube, u23, u24_pair, k4_pair):
    fans = [p2, cone2, cube, u23, u24_pair[0], k4_pair[0]]
    pairs_checked = 0
    for fan in fans:
        comp = compactification(fan)
        tables = {p: ComplexGroups(build_complex(comp, p, "cohomology")) for p in range(fan.dim + 1)}
        for p in range(fan.dim + 1):
            for q in range(fan.dim + 1):
                if p < q or (p > 0 and q == 0):
                    assert tables[p].group(q).is_trivial, (fan.name, p, q)
            assert tables[p].group(p) == chow_group(fan, p).group, (fan.name, p)
        report = verification_report(fan)
        assert all(v == "iso" for v in report.psi_status.values()), fan.name
        # ring morphism on all products of generator preimages
        cocycles = {}
        for p in range(1, fan.dim + 1):
            for s in fan.cones_of_dim(p):
                cocycles[s] = chow_generator_cocycle(fan, s)
        for s1, a in cocycles.items():
            for s2, b in cocycles.items():
                deg = len(fan.cones[s1]) + len(fan.cones[s2])
                if deg > fan.dim:
                    continue
                lhs = cocycle_to_chow(fan, cup(a, b))
                pres1 = chow_group(fan, len(fan.cones[s1]))
                pres2 = chow_group(fan, len(fan.cones[s2]))
                rhs = chow_multiply(fan, pres1.generator(s1), pres2.generator(s2))
                pres = chow_group(fan, deg)
                assert pres.classes_equal(lhs, rhs), (fan.name, fan.cones[s1], fan.cones[s2])
                pairs_checked += 1
    print(f"\nACCEPTANCE 5: PASS - vanishing, A^p = H^(p,p) and ring morphism on {pairs_checked} products")


def test_acceptance_6_manifold_criteria(u23_weights, u23, u24_pair, k4_pair, cube, cube_weights):
    for fan, w in [(u23, u23_weights), u24_pair, k4_pair]:
        rep = homology_manifold_check(fan, w)
        assert rep.ok, fan.name
        pd = chow_pd_check(fan, w)
        assert pd.ok
        for k in range(fan.dim + 1):
            pres = chow_group(fan, k)
            assert not pres.group.torsion
        top = chow_group(fan, fan.dim).group
        assert top == AbGroup(1)
        assert all(abs(dt) == 1 for dt in pd.gram_determinants.values())
    cube_pd = chow_pd_check(cube, cube_weights)
    assert not cube_pd.ok
    assert abs(cube_pd.gram_determinants[1]) == 2
    print("\nACCEPTANCE 6: PASS - Bergman fans verify duality; the cube fails with the index-two pairing")


def test_acceptance_7_cycle_class_bijection(p2, delta, cone2, cube, u23):
    for fan in (p2, delta, cone2, cube, u23):
        for p in range(fan.dim + 1):
            basis = minkowski_weights(fan, p)
            comp = compactification(fan)
            hom = ComplexGroups(build_complex(comp, p, "homology"))
            if not basis:
                assert hom.group(p).is_trivial
                continue
            classes = [cycle_class(fan, w) for w in basis]
            assert hom.group(p) == AbGroup(len(basis)), (fan.name, p)
            mat = IntMatrix.from_rows([c.coords for c in classes])
            assert zlinalg.snf(mat).divisors == (1,) * len(basis), (fan.name, p)
    print("\nACCEPTANCE 7: PASS - cycle class maps Minkowski weight bases onto homology bases (SNF identity)")


def test_acceptance_8_positivity_equivalence(p2, delta, u23):
    start = time.time()
    rng = random.Random(20240809)
    total = 0
    for fan in (p2, delta, u23):
        for _ in range(200):
            f = ConewiseLinear([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in fan.rays])
            assert is_ample(fan, f) == kleiman_check(fan, f)
            total += 1
        boundary = 0
        while boundary < 20:
            m = [rng.randint(-4, 4) for _ in range(fan.rank)]
            f = ConewiseLinear([sum(a * b for a, b in zip(m, r)) for r in fan.rays])
            a, k = is_ample(fan, f), kleiman_check(fan, f)
            assert a == k
            assert not a  # linear functions are never strictly convex on these fans
            boundary += 1
            total += 1
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 8: PASS - {total} functions, exact agreement, {elapsed:.1f}s")


def test_acceptance_9_structural_invariants(p2, delta, sigma3, cone2, cube, u23):
    fans = (p2, delta, sigma3, cone2, cube, u23)
    for fan in fans:
        comp = compactification(fan)
        for p in range(fan.dim + 1):
            for variant in ("cohomology", "homology", "borel_moore", "compact_support"):
                gc = build_complex(comp, p, variant)
                assert gc.check_dd_zero()
            fine_double_complex(fan, p)
        for p in range(fan.dim + 1):
            hom = ComplexGroups(build_complex(comp, p, "homology"))
            coh = ComplexGroups(build_complex(comp, p, "cohomology"))
            for q in range(fan.dim + 1):
                assert hom.group(q).free_rank == coh.group(q).free_rank
                assert hom.group(q).torsion == coh.group(q + 1).torsion
    print("\nACCEPTANCE 9: PASS - dd = 0, double-complex reassembly, universal coefficients on all fixtures")


def test_acceptance_10_verify_at_scale():
    # U(5,4): a 3-dim Bergman fan with 25 rays and 60 maximal cones
    fan, _ = bergman_fan(Matroid.uniform(5, 4), name="u54")
    start = time.time()
    report = verification_report(fan)
    elapsed = time.time() - start
    assert [str(report.cohomology[(p, p)]) for p in range(4)] == ["Z", "Z^21", "Z^21", "Z"]
    assert [str(report.chow_groups[p]) for p in range(4)] == ["Z", "Z^21", "Z^21", "Z"]
    assert report.psi_status == {p: "iso" for p in range(4)}
    assert len(report.ring_checks) == 325 and all(ok for _, ok in report.ring_checks)
    assert report.ok
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 10: PASS - U(5,4) verify: H^(p,p) = A^p, 325/325 ring checks, {elapsed:.1f}s")
