"""Whole-fan verifiers: the cohomology/Chow comparison report,
Poincare duality of Chow rings, the homology-manifold criterion, the
explicit duality weight, and the two ampleness checks.

Every verdict here is computed in exact arithmetic.  Three-valued
answers (holds / fails / not applicable) appear where a degenerate
stratum makes a condition vacuous; callers that need a boolean collapse
``not applicable`` to ``True``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm, prod

from . import chow as chow_mod
from . import homology as homol
from . import sheaf, zlinalg
from .exterior import det
from .fan import TropicalWeights, is_balanced, is_saturated, is_unimodular
from .zlinalg import EQ, GE, GT, AbGroup, IntMatrix


@dataclass
class PDReport:
    """Outcome of the Chow-ring Poincare duality check."""

    ok: bool
    applicable: bool = True
    reasons: list = field(default_factory=list)
    gram_determinants: dict = field(default_factory=dict)


def chow_pd_check(fan, weights=None, coeff="Z"):
    """Does the Chow ring satisfy Poincare duality against the degree map?

    Requires every graded piece torsion-free, the top piece isomorphic
    to Z through the degree map, and unimodular Gram matrices for the
    pairing of complementary degrees (nondegenerate over Q).  On a fan
    that is not pure-dimensional, or with unbalanced weights, there is
    no degree map, and the report is not applicable.
    """
    d = fan.dim
    report = PDReport(ok=True)
    pres = {}
    for k in range(d + 1):
        try:
            pres[k] = chow_mod.chow_group(fan, k, coeff)
        except ValueError as exc:
            report.ok = False
            report.reasons.append(f"A^{k}: {exc}")
            return report
        if coeff == "Z" and pres[k].group.torsion:
            report.ok = False
            report.reasons.append(f"A^{k} has torsion {pres[k].group}")
    if not report.ok:
        return report
    top = pres[d].group
    if top.free_rank != 1 or top.torsion:
        report.ok = False
        report.reasons.append(f"A^{d} = {top} is not Z")
        return report
    if weights is None:
        weights = TropicalWeights.unit(fan)
    if not fan.is_pure() or not is_balanced(fan, weights):
        report.ok = False
        report.applicable = False
        what = "the fan is not pure-dimensional" if not fan.is_pure() else "weights are not balanced"
        report.reasons.append(f"{what}; duality against the degree map is vacuous")
        return report
    # the degree map on the top generators, with balancing checked once above
    degree = dict(zip(fan.cones_of_dim(d), chow_mod.fundamental_weight(fan, weights).values))
    g = 0
    for x in degree.values():
        g = gcd(g, abs(x))
    if g != 1:
        report.ok = False
        report.reasons.append(f"degree map image has index {g}")
        return report
    for k in range(d + 1):
        a, b = pres[k], pres[d - k]
        if a.group.free_rank != b.group.free_rank:
            report.ok = False
            report.reasons.append(f"rank A^{k} != rank A^{d - k}")
            continue
        ra, rb = ([{s: c for s, c in zip(p.generators, v) if c} for v in p.quotient.free_representatives()] for p in (a, b))
        gram = []
        for va in ra:
            row = []
            for vb in rb:
                prod = chow_mod.multiply_sparse(fan, va, vb, coeff)
                row.append(sum(c * degree[s] for s, c in prod.items()))
            gram.append(row)
        dt = det(gram) if gram else 1
        report.gram_determinants[k] = dt
        want_unit = coeff == "Z"
        if (want_unit and abs(dt) != 1) or (not want_unit and dt == 0):
            report.ok = False
            report.reasons.append(f"pairing A^{k} x A^{d - k} has Gram determinant {dt}")
    return report


@dataclass
class ManifoldReport:
    ok: bool
    per_face: dict


def homology_manifold_check(fan, weights=None, coeff="Z"):
    """The finite criterion for being a tropical homology manifold.

    For every cone tau, the Chow ring of its star fan must satisfy
    Poincare duality and the cohomology of the compactified star must
    vanish strictly below the diagonal (p > q).

    The vanishing check reads every star off the compactification of
    the fan itself.  Its closed stratum D_tau = {(t, s) : tau a face of t}
    is closed under taking faces and is the canonical compactification
    of star(tau), with (t, s) the face (t / tau, s / tau) there.  SF_p at
    (t, s) depends only on star(t) and the cones above s, and star(t) is
    the star of t / tau in star(tau), so the two lattices are isomorphic.
    The rows and columns of D_tau's cells in the complex of the fan
    therefore form a complex isomorphic to that of the compactified
    star, with the same groups.  The degree p is the outer loop: each
    degree-p complex of the fan is built, and checked for d^2 = 0, once,
    every star's slice of it is reduced in place, and it is freed before
    the next one is built.  The origin's stratum is the whole
    compactification, in the same cell order, so its slice is the
    complex itself: it comes last and is reduced on the complex's own
    rows.  The duality check then runs on each star fan, in cone order,
    and the reasons print its Gram determinants.
    """
    if weights is None:
        weights = TropicalWeights.unit(fan)
    comp = homol.compactification(fan)
    origin = fan.zero_cone
    # the dimension of each star fan, read off the largest cone above its cone
    star_dims = [max(len(fan.cones[c]) for c in fan.cones_containing(i)) - len(c) for i, c in enumerate(fan.cones)]
    bad_cells = [[] for _ in fan.cones]
    # H^{0,q} has no degree q < 0 to fail in
    for p in range(1, fan.dim + 1):
        gc = homol.build_complex(comp, p, "cohomology", coeff)
        for cone_idx in [i for i in range(len(fan.cones)) if i != origin] + [origin]:
            if star_dims[cone_idx] < p:
                continue
            # the origin's stratum, last, is the complex itself; the reduction consumes the
            # slice's own rows, each map's freed once the map into it is reduced
            sliced = gc if cone_idx == origin else gc.restrict(comp.closed_stratum(cone_idx))
            gs = homol._reduce(sliced, lambda q: sliced.maps.pop(q).data)[0]
            for q in range(p):
                g = gs.get(q, AbGroup(0))
                if not g.is_trivial:
                    bad_cells[cone_idx].append((p, q, str(g)))
        del gc, sliced  # frees this complex before the next one is built
    results = {}
    for cone_idx, bad in enumerate(bad_cells):
        star = fan.star(cone_idx)
        pd = chow_pd_check(star.fan, star.induced_weights(weights), coeff)
        results[fan.cones[cone_idx]] = {"pd": pd, "vanishing_failures": bad, "ok": pd.ok and not bad}
    return ManifoldReport(all(r["ok"] for r in results.values()), results)


def pd_weight(fan, weights, cochain):
    """The Minkowski weight pairing a (p,p)-cocycle with the strata at infinity.

    The value on a cone is the evaluation of the cocycle against the
    fundamental class of the stratum of that cone; balancing of the
    result is checked.
    """
    comp = cochain.comp
    p = cochain.q
    d = fan.dim
    values = []
    for s in fan.cones_of_dim(d - p):
        total = 0
        for eta in fan.cones_containing(s):
            if len(fan.cones[eta]) != d or eta not in fan.maximal:
                continue
            fid = comp.face_index[(s, eta)]
            av = cochain.value(fid)
            if not any(av):
                continue
            nu = fan.nu_face(s, eta)
            coords = sheaf.coords_in(comp, fid, p, nu)
            if coords is None:
                raise AssertionError(f"canonical multivector of face ({fan.cones[s]}, {fan.cones[eta]}) leaves SF_{p}")
            w = weights[fan.cones[eta]]
            total += w * sum(a * c for a, c in zip(av, coords))
        values.append(total)
    mw = chow_mod.MinkowskiWeight(fan, d - p, tuple(values))
    if not chow_mod.weight_is_balanced(mw):
        raise AssertionError(f"the duality weight of the degree-{p} cocycle fails balancing on the {d - p}-cones")
    return mw


# ampleness ---------------------------------------------------------------


def strict_convexity_system(fan, f, cone_idx):
    """The exact feasibility system for strict convexity at one cone."""
    n = fan.rank
    cone = fan.cones[cone_idx]
    cons = []
    for rho in cone:
        coeffs = tuple(-x for x in fan.rays[rho])
        cons.append((coeffs, f(rho), EQ))
    outside = set()
    for eta in fan.cones_containing(cone_idx):
        outside.update(r for r in fan.cones[eta] if r not in cone)
    for zeta in sorted(outside):
        coeffs = tuple(-x for x in fan.rays[zeta])
        cons.append((coeffs, f(zeta), GT))
    return cons


def _integer_values(fan, f):
    """The values of f on the rays, times the positive lcm of their denominators.

    Strict convexity and the sign of the pairing with every curve class
    do not change under a positive scale, so both ampleness checks run
    on these integers.
    """
    values = [f(r) for r in range(len(fan.rays))]
    d = lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values]


def is_ample(fan, f):
    """Strict convexity around every cone, decided by exact feasibility."""
    f = _integer_values(fan, f).__getitem__
    for cone_idx in range(len(fan.cones)):
        cons = strict_convexity_system(fan, f, cone_idx)
        cert = zlinalg.feasible(cons, fan.rank)
        if not cert.feasible:
            return False
    return True


def _stratum_pairing_values(fan, f, cone_idx):
    """Values of the induced function on the star rays of a cone.

    With lam linear and equal to f on the cone, f - lam is linear on each
    cover eta and vanishes on the cone; the extra ray of eta is g times
    the unit normal modulo the cone, g the star's multiple of eta, so the
    value at the unit normal is (f(extra) - lam . extra) / g.  lam . extra
    is taken in integers over the common denominator of lam.
    """
    cone = fan.cones[cone_idx]
    rows = [fan.rays[r] for r in cone]
    rhs = [f(r) for r in cone]
    if rows:
        lam = zlinalg.solve_frac([list(r) for r in rows], rhs)
        if lam is None:
            raise AssertionError(f"no linear function agrees with f on cone {cone}")
    else:
        lam = (0,) * fan.rank
    den = lcm(*(x.denominator for x in lam))
    lam = [x.numerator * (den // x.denominator) for x in lam]
    star = fan.star(cone_idx)
    cone_set = set(cone)
    covers = list(star.normals)
    values = []
    for eta in covers:
        extra = next(r for r in fan.cones[eta] if r not in cone_set)
        v = f(extra)
        num = v.numerator * den - v.denominator * sum(l * x for l, x in zip(lam, fan.rays[extra]))
        values.append(Fraction(num, v.denominator * den * star.multiples[eta]))
    return covers, values


def kleiman_check(fan, f):
    """Positivity of the pairing with every effective curve in every stratum.

    At each cone the normalized effective balanced weights of the star
    form a polytope; the verdict requires the pairing with the induced
    function to be strictly positive on it.  One LP per stratum asks for
    a point of the polytope with a non-positive pairing; a stratum with
    no nonzero effective balanced weight has none, so it is vacuous.
    The function is scaled to integers once, and each pairing row by one
    positive factor, which leaves every sign unchanged.
    """
    f = _integer_values(fan, f).__getitem__
    for cone_idx in range(len(fan.cones)):
        covers, values = _stratum_pairing_values(fan, f, cone_idx)
        if not covers:
            continue
        star = fan.star(cone_idx)
        nrays = len(covers)
        # a balanced weight on the star's rays: one row per coordinate of the unit normals
        cons = [(row, 0, EQ) for row in zip(*(star.normals[c] for c in covers))]
        cons.append(((1,) * nrays, -1, EQ))
        for i in range(nrays):
            unit = tuple(1 if j == i else 0 for j in range(nrays))
            cons.append((unit, 0, GE))
        scale = lcm(*(v.denominator for v in values))
        cons.append((tuple(-v.numerator * (scale // v.denominator) for v in values), 0, GE))
        if zlinalg.feasible(cons, nrays).feasible:
            return False
    return True


# the main comparison report ------------------------------------------------


@dataclass
class VerificationReport:
    fan_name: str
    dim: int
    unimodular: bool
    saturated: bool
    cohomology: dict
    cohomology_q_rank: dict
    chow_groups: dict
    chow_groups_q_rank: dict
    vanishing_observations: list
    vanishing_guaranteed_ok: bool
    psi_status: dict
    ring_checks: list
    ok: bool


def verification_report(fan):
    """Per-bidegree comparison of cohomology with the Chow ring.

    Collects the integral cohomology table of the compactification, the
    Chow groups, the status of the comparison map in each degree (an
    isomorphism for saturated unimodular fans, surjective with torsion
    kernel for merely unimodular ones, a rational isomorphism
    otherwise), vanishing verdicts, and ring-morphism spot checks.
    The integral status is decided by three checks, (i) the relations
    map to zero, (ii) the generator images generate H^{p,p}, (iii) the
    free ranks agree, and then by the orders of the torsion parts (see
    :func:`_psi_status`).

    The Chow presentations come first.  Then the degree p is the outer
    loop: the degree-p complex of the compactification is built, its
    groups and the status of the comparison map in degree p are read
    off it, and it is freed before the next one is built.
    """
    d = fan.dim
    unimod = is_unimodular(fan)[1]
    satur = is_saturated(fan)
    comp = homol.compactification(fan)

    # one integral presentation per degree where it exists; the rational
    # rank is its free rank, or else that of the cokernel of the relations
    pres = {}
    chow_groups = {}
    chow_q = {}
    for p in range(d + 1):
        if unimod or p <= 1:
            pres[p] = chow_mod.chow_group(fan, p, "Z")
            chow_groups[p] = pres[p].group
            chow_q[p] = pres[p].group.free_rank
        else:
            chow_groups[p] = None
            chow_q[p] = len(fan.cones_of_dim(p)) - len(zlinalg.snf_divisors(chow_mod.relation_matrix(fan, p)))

    cohom = {}
    cohom_q = {}
    psi_status = {}
    for p in range(d + 1):
        groups = homol.ComplexGroups(homol.build_complex(comp, p, "cohomology"))
        for q in range(d + 1):
            g = groups.group(q)
            cohom[(p, q)] = g
            cohom_q[(p, q)] = g.free_rank
        if unimod:
            psi_status[p] = _psi_status_unimodular(fan, groups, pres[p], satur)
        else:
            psi_status[p] = "Q-iso" if chow_q[p] == cohom_q[(p, p)] else "Q-mismatch"
        del groups  # frees this complex before the next one is built

    vanishing_obs = []
    guaranteed_ok = True
    for (p, q), g in sorted(cohom.items()):
        if p < q and not g.is_trivial:
            guaranteed = unimod
            vanishing_obs.append((p, q, str(g), "below-diagonal"))
            if guaranteed:
                guaranteed_ok = False
        if q == 0 and p > 0 and not g.is_trivial:
            vanishing_obs.append((p, q, str(g), "row-zero"))
            guaranteed_ok = False
        if p < q and cohom_q[(p, q)] != 0:
            guaranteed_ok = False

    ring_checks = _ring_spot_checks(fan, pres) if unimod else []

    expected = {True: "iso", False: "surjective-torsion-kernel"}[satur] if unimod else "Q-iso"
    ok = (
        guaranteed_ok
        and all(v == expected for v in psi_status.values())
        and all(flag for _, flag in ring_checks)
    )
    return VerificationReport(
        fan_name=fan.name,
        dim=d,
        unimodular=unimod,
        saturated=satur,
        cohomology=cohom,
        cohomology_q_rank=cohom_q,
        chow_groups=chow_groups,
        chow_groups_q_rank=chow_q,
        vanishing_observations=vanishing_obs,
        vanishing_guaranteed_ok=guaranteed_ok,
        psi_status=psi_status,
        ring_checks=ring_checks,
        ok=ok,
    )


def chow_to_cohomology_map(fan, p, groups):
    """Class vectors in H^{p,p} of the generator preimage cocycles.

    ``groups`` is the :class:`~tropfan.homology.ComplexGroups` of the
    degree-p cohomology complex of the compactification.
    """
    images = []
    for s in fan.cones_of_dim(p):
        a = chow_mod.chow_generator_cocycle(fan, s)
        images.append(groups.class_of(p, groups.gc.pairs(a)))
    return images


def _psi_status_unimodular(fan, groups, pres, saturated):
    """Verified status of the map from A^p to H^(p,p) for unimodular fans.

    ``pres`` is the integral :class:`~tropfan.chow.ChowPresentation` of
    A^p and ``groups`` the :class:`~tropfan.homology.ComplexGroups` of
    the degree-p cohomology complex of the compactification.
    """
    images = chow_to_cohomology_map(fan, pres.k, groups)
    return _psi_status(images, pres.relations, pres.group, groups.group(pres.k), saturated)


def _psi_status(images, relations, A, H, saturated):
    """Status of the map psi from A = Z^n / relations to H sending generator i to ``images[i]``.

    ``relations`` are dict rows (generator -> nonzero entry), as
    :func:`~tropfan.chow.relation_matrix` returns them, and ``images``
    canonical coordinates in H (free parts, then torsion parts).  Three
    checks: (i) every relation row maps to 0 in H, so psi is defined on
    A; (ii) the images generate H; (iii) A and H have the same free
    rank.  Then the kernel K of psi is finite, so it lies in Tors A, and
    Tors A / K is Tors H: a torsion class of H lifts to a class of A
    whose multiple lies in K, hence to a torsion class.  So psi is an
    isomorphism iff |Tors A| = |Tors H| (the saturated status), and
    K = Tors A iff H is torsion-free (the unsaturated one).
    """
    f, tor = H.free_rank, H.torsion
    cols = f + len(tor)
    for row in relations:
        total = [0] * cols
        for i, x in row.items():
            for j, y in enumerate(images[i]):
                total[j] += x * y
        if any(total[:f]) or any(v % d for v, d in zip(total[f:], tor)):
            return "psi-failure"
    rows = [list(img) for img in images]
    for i, dtor in enumerate(tor):
        row = [0] * cols
        row[f + i] = dtor
        rows.append(row)
    if cols and not zlinalg.cokernel_group(IntMatrix.from_rows(rows, cols)).is_trivial:
        return "psi-failure"
    if A.free_rank != f:
        return "psi-failure"
    if saturated:
        return "iso" if prod(A.torsion) == prod(H.torsion) else "psi-failure"
    return "surjective-torsion-kernel" if not tor else "psi-failure"


def _ring_spot_checks(fan, pres):
    """Cup products of degree-one generator cocycles against Chow products.

    ``pres[2]`` is the integral presentation of A^2.  A pair of rays
    r1 < r2 spanning a 2-cone has that cone's generator cocycle as its
    cup product, read from the generator cocycles; any other pair cups
    against r2's cocycle with the memo ``comp.ray_cups`` keeps for r2 as
    long as the compactification lives.  Each check is one class map,
    of lhs - rhs with rhs = x_r1 * x_r2: the map is additive with
    torsion parts reduced, so it is zero exactly when the classes agree.
    """
    if fan.dim < 2:
        return []
    checks = []
    comp, pres2 = homol.compactification(fan), pres[2]
    rays = fan.cones_of_dim(1)
    cocycles = {s: chow_mod.chow_generator_cocycle(fan, s) for s in rays}
    pairs = [(a, b) for a in rays for b in rays if a <= b]
    for s1, s2 in pairs:
        span = fan.join(s1, s2)
        if span is not None and fan.cones[span] == fan.cones[s1] + fan.cones[s2]:
            cupped = chow_mod.chow_generator_cocycle(fan, span)
        else:
            cupped = homol.cup(cocycles[s1], cocycles[s2], comp.ray_cups.setdefault(s2, {}))
        diff = list(chow_mod.cocycle_to_chow(fan, cupped).vector)
        for t, v in chow_mod.multiply_sparse(fan, {s1: 1}, {s2: 1}).items():
            diff[pres2.gen_pos[t]] -= v
        checks.append(((fan.cones[s1], fan.cones[s2]), pres2.is_zero(chow_mod.ChowClass(fan, 2, diff))))
    return checks
