"""Chow groups of simplicial fans, Minkowski weights, and the bridge
maps between Chow classes and tropical cohomology classes.

Chow groups are presented by one generator per cone of the given
dimension with one linear relation per integral functional on the
quotient lattice of each cone one dimension down.  Products are
computed by iterated ray multiplication in that presentation;
Minkowski weights are the integer kernel of the transposed relation
matrix and pair with Chow classes coordinatewise.

``cocycle_to_chow`` reads the sedentarity-zero components of a cocycle
of the compactification against the canonical multivectors;
``chow_generator_cocycle`` builds the explicit preimage cocycle of a
generator, correcting the naive ray cochain by a pushforward supported
at infinity and cupping ray cocycles for higher degrees.  Cups against a
ray's cocycle share its memo in ``comp.ray_cups``, which dies with the
compactification; ``verify``'s ring checks use it too, and compare two
classes by one class map of their difference.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import sheaf, zlinalg
from . import homology as homol
from .fan import Fan, is_balanced, is_unimodular
from .zlinalg import AbGroup, IntMatrix, LatticeQuotient


@dataclass(frozen=True)
class ChowClass:
    """A vector over the degree-k cone generators, compared modulo relations."""

    fan: Fan
    degree: int
    vector: tuple

    def __post_init__(self):
        object.__setattr__(self, "vector", tuple(self.vector))

    def __add__(self, other):
        if self.degree != other.degree:
            raise ValueError(f"cannot add Chow classes of degrees {self.degree} and {other.degree}")
        return ChowClass(self.fan, self.degree, tuple(a + b for a, b in zip(self.vector, other.vector)))

    def scale(self, c):
        return ChowClass(self.fan, self.degree, tuple(c * x for x in self.vector))


@dataclass(frozen=True)
class MinkowskiWeight:
    """An integer weight on p-cones satisfying the balancing condition."""

    fan: Fan
    dimension: int
    values: tuple

    def __getitem__(self, i):
        return self.values[i]


class ChowPresentation:
    """Localization presentation of A^k: generators x_sigma and linear relations.

    One :class:`~tropfan.zlinalg.LatticeQuotient` of the integral
    relations serves both coefficient rings: over Q the group and the
    class coordinates are its free part.
    """

    def __init__(self, fan, k, coeff="Z"):
        if coeff not in ("Z", "Q"):
            raise ValueError("coeff must be 'Z' or 'Q'")
        if coeff == "Z" and k >= 2 and not is_unimodular(fan)[1]:
            raise ValueError("integral Chow presentation beyond degree one requires a unimodular fan")
        self.fan = fan
        self.k = k
        self.coeff = coeff
        self.generators = fan.cones_of_dim(k) if 0 <= k else []
        self.gen_pos = {c: i for i, c in enumerate(self.generators)}
        self.relations = relation_matrix(fan, k)
        self.quotient = LatticeQuotient(len(self.generators), self.relations)
        group = self.quotient.group
        self.group = group if coeff == "Z" else AbGroup(group.free_rank)

    def class_of(self, cls):
        """Canonical coordinates of a Chow class in the quotient."""
        coords = self.quotient.class_of(cls.vector)
        return coords if self.coeff == "Z" else coords[: self.group.free_rank]

    def classes_equal(self, a, b):
        return self.class_of(a) == self.class_of(b)

    def is_zero(self, cls):
        return all(x == 0 for x in self.class_of(cls))

    def generator(self, cone_idx):
        v = [0] * len(self.generators)
        v[self.gen_pos[cone_idx]] = 1
        return ChowClass(self.fan, self.k, v)


def relation_matrix(fan, k):
    """Dict rows (generator position -> nonzero entry), one per (k-1)-cone and coordinate of its quotient lattice."""
    if k <= 0:
        return []
    pos = {c: i for i, c in enumerate(fan.cones_of_dim(k))}
    rows = []
    for tau in fan.cones_of_dim(k - 1):
        star = fan.star(tau)
        normals = [(pos[sigma], star.normals[sigma]) for sigma in fan.covered_by(tau)]
        rows.extend({i: cls[j] for i, cls in normals if cls[j]} for j in range(star.quotient_rank))
    return rows


def chow_group(fan, k, coeff="Z"):
    return ChowPresentation(fan, k, coeff)


# multiplication ----------------------------------------------------------


def _ray_times_generator(fan, ray, cone_idx, coeff):
    """x_ray * x_cone as a dict over the next-degree generators (cone -> nonzero coefficient).

    Memoised in the fan's table of ray products by (ray, cone, coeff);
    an expansion that raises is not stored.  Callers must not change
    the returned dict.
    """
    key = (ray, cone_idx, coeff)
    if key in fan._ray_products:
        return fan._ray_products[key]
    cone = fan.cones[cone_idx]
    out = {}
    if ray not in cone:
        join = fan.join(fan.cone_index((ray,)), cone_idx)
        if join is not None:
            out[join] = 1
    else:
        # self-intersection: pick a linear form that is one on the ray and
        # zero on the other rays of the cone, then expand by the relation
        rows = [fan.rays[i] for i in cone]
        rhs = [1 if i == ray else 0 for i in cone]
        if coeff == "Z":
            # want m with rays . m = rhs; as x . A = b with A the rank x |cone| matrix
            A = IntMatrix.from_rows([[rows[j][i] for j in range(len(rows))] for i in range(fan.rank)], len(rows))
            m = zlinalg.solve_int(A, rhs)
            if m is None:
                raise ValueError("integral separating form requires a unimodular cone")
        else:
            m = zlinalg.solve_frac([list(r) for r in rows], rhs)
            if m is None:
                raise ValueError("no linear form separates the ray inside its cone")
        # the joins of the cone with the rays outside it are the cones covering it
        for join in fan.covered_by(cone_idx):
            zeta = next(r for r in fan.cones[join] if r not in cone)
            coefficient = sum(mi * gi for mi, gi in zip(m, fan.rays[zeta]))
            if coefficient:
                out[join] = -coefficient
    fan._ray_products[key] = out
    return out


def multiply_sparse(fan, x, y, coeff="Z"):
    """Product of two Chow vectors given as dicts cone -> coefficient, as such a dict.

    Each cone of y multiplies x by its rays in turn.
    """
    out = {}
    for cone_idx, c in y.items():
        term = x
        for ray in fan.cones[cone_idx]:
            step = {}
            for s, v in term.items():
                for t, e in _ray_times_generator(fan, ray, s, coeff).items():
                    step[t] = step.get(t, 0) + v * e
            term = step
        for t, v in term.items():
            out[t] = out.get(t, 0) + c * v
    return {t: v for t, v in out.items() if v}


def chow_multiply(fan, xi, eta, coeff="Z"):
    """Product of Chow classes by iterated ray multiplication, on sparse vectors."""
    if xi.fan is not eta.fan:
        raise ValueError("classes on different fans")
    k = xi.degree + eta.degree
    if k > fan.dim:
        return ChowClass(fan, k, ())
    x, y = ({s: c for s, c in zip(fan.cones_of_dim(a.degree), a.vector) if c} for a in (xi, eta))
    prod = multiply_sparse(fan, x, y, coeff)
    return ChowClass(fan, k, tuple(prod.get(s, 0) for s in fan.cones_of_dim(k)))


def degree_map(fan, weights, cls):
    """Evaluation of a top-degree class against a balancing weight."""
    if cls.degree != fan.dim:
        raise ValueError("degree map needs a top-degree class")
    if not is_balanced(fan, weights):
        raise ValueError("weights are not balanced")
    total = 0
    for c, cone_idx in zip(cls.vector, fan.cones_of_dim(fan.dim)):
        if c:
            total += c * weights[fan.cones[cone_idx]]
    return total


# Minkowski weights --------------------------------------------------------


def minkowski_weights(fan, p, coeff="Z"):
    """Basis of the group of p-dimensional Minkowski weights."""
    n = len(fan.cones_of_dim(p))
    rows = [[r.get(j, 0) for j in range(n)] for r in relation_matrix(fan, p)]
    basis = zlinalg.kernel_basis(IntMatrix.from_rows(rows, n))
    return [MinkowskiWeight(fan, p, basis.row(i)) for i in range(basis.rows)]


def weight_is_balanced(w):
    rows = relation_matrix(w.fan, w.dimension)
    return all(sum(e * w.values[j] for j, e in row.items()) == 0 for row in rows)


def chow_mw_pairing(cls, w):
    """The coordinatewise pairing of a Chow class with a Minkowski weight."""
    if cls.degree != w.dimension:
        raise ValueError("degree mismatch")
    return sum(c * v for c, v in zip(cls.vector, w.values))


def fundamental_weight(fan, weights):
    vals = [weights[fan.cones[s]] for s in fan.cones_of_dim(fan.dim)]
    return MinkowskiWeight(fan, fan.dim, tuple(vals))


# cycle class and the cohomology bridge -----------------------------------


@dataclass
class HomologyClass:
    """A homology class: the complex groups object plus canonical coordinates."""

    groups: homol.ComplexGroups
    q: int
    coords: tuple


def cycle_class(fan, w):
    """Homology class of the compactified cycle carried by a Minkowski weight."""
    if not weight_is_balanced(w):
        raise ValueError("weight is not balanced")
    p = w.dimension
    comp = homol.compactification(fan)
    gc = homol.build_complex(comp, p, "homology")
    coords = _chow_coords(fan, comp, p)
    data = {fid: tuple(w.values[i] * c for c in cs) for fid, (i, cs) in coords.items() if w.values[i]}
    groups = homol.ComplexGroups(gc)
    return HomologyClass(groups, p, groups.class_of(p, gc.pairs(homol.Chain(comp, p, p, data))))


def cocycle_to_chow(fan, cochain):
    """Chow vector of a (p, p)-cocycle: sedentarity-zero values against
    the canonical multivectors.  Only the cochain's support is read."""
    comp = cochain.comp
    if not homol.coboundary(cochain).is_zero():
        raise ValueError("input cochain is not a cocycle")
    coords = _chow_coords(fan, comp, cochain.q)
    out = [0] * len(coords)
    for fid, values in cochain.data.items():
        hit = coords.get(fid)
        if hit is not None:
            out[hit[0]] = sum(v * c for v, c in zip(values, hit[1]))
    return ChowClass(fan, cochain.q, out)


def _chow_coords(fan, comp, p):
    """Per p-cone s, in index order: the face (0, s) -> (position of s, coordinates of nu(s) over SF_p there).

    Solved once per compactification and p.
    """
    cache = comp.chow_coords
    if p not in cache:
        cache[p] = {}
        for i, s in enumerate(fan.cones_of_dim(p)):
            fid = comp.face_index[(fan.zero_cone, s)]
            coords = sheaf.coords_in(comp, fid, p, fan.nu(s))
            if coords is None:
                raise AssertionError(f"the canonical multivector of cone {fan.cones[s]} leaves SF_{p} there")
            cache[p][fid] = (i, coords)
    return cache[p]


def ray_cocycle(fan, ray):
    """The corrected preimage cocycle of a degree-one generator: the generator
    cocycle of the ray's 1-cone, a new cochain over a copy of the memoised values."""
    return chow_generator_cocycle(fan, fan.cone_index((ray,)))


def _ray_cocycle_values(fan, comp, ray):
    """Values of a - b, where a has value one on the unit normal at each face joining a cone to its
    join with the ray and b pushes the coboundary of a to the ray's stratum at infinity; unchecked."""
    a = homol.Cochain(comp, 1, 1)
    # each cone sp without the ray whose join with it is a cone: the facet of that join opposite the ray
    for join in fan.cones_containing(fan.cone_index((ray,))):
        sp = fan.cone_index(tuple(r for r in fan.cones[join] if r != ray))
        fid = comp.face_index[(sp, join)]
        c = sheaf.coords_in(comp, fid, 1, fan.star(sp).normals[join])
        if c is None:
            raise AssertionError(
                f"the unit normal of cone {fan.cones[sp]} in {fan.cones[join]} leaves SF_1 there (ray {ray})"
            )
        phi = zlinalg.primitive_cosolution(c)
        a.set_value(fid, phi)
    ahat = homol.coboundary(a)
    b = homol.Cochain(comp, 1, 1)
    for did, values in ahat.data.items():
        t, eta = comp.faces[did]
        if ray in fan.cones[t] or ray not in fan.cones[eta]:
            continue
        t_up = fan.cone_index(tuple(sorted(fan.cones[t] + (ray,))))
        gid = comp.face_index[(t_up, eta)]
        sign = comp.face_sign(gid, did)
        # each SF_1 basis element at gid lifted along the star section N^t_up -> N -> N^t: the lift
        # stays in SF_1 at did, since the kernel of N^t -> N^t_up is Z e, e in every N_sigma / N_t
        # with sigma containing eta
        section, width = fan._transitions[fan.transition_id(t_up, t, 1)], fan.star(t).quotient_rank
        pushed = []
        for v in sheaf.basis(comp, gid, 1):
            lift = sheaf.coords_in(comp, did, 1, zlinalg.vecmat(v, section, width))
            if lift is None:
                raise AssertionError(
                    f"the lift of SF_1 at face {gid} along the star section leaves SF_1 at face {did} (ray {ray})"
                )
            pushed.append(sum(x * y for x, y in zip(lift, values)))
        cur = b.value(gid)
        b.set_value(gid, tuple(x + sign * y for x, y in zip(cur, pushed)))
    return (a - b).data


def chow_generator_cocycle(fan, cone_idx, coeff="Z"):
    """A cocycle representing the preimage of a Chow generator.

    For a ray this is the corrected ray cochain (see
    :func:`_ray_cocycle_values`); for higher-dimensional cones the cup
    product of the ray cocycles in ray order, taken as the cup of the
    leading face's cocycle with the last ray's.  The values of every
    cone, rays included, are built and checked once per
    compactification in one memo; every call returns a new cochain over
    a copy of them.  The values are integers for either ``coeff``, since
    cup products are.
    """
    comp = homol.compactification(fan)
    cone = fan.cones[cone_idx]
    if not cone:
        return homol.unit_cochain(comp)
    k = len(cone)
    return homol.Cochain(comp, k, k, dict(_generator_cocycle_values(fan, comp, cone_idx)))


def _generator_cocycle_values(fan, comp, cone_idx):
    memo = comp.generator_cocycles
    if cone_idx not in memo:
        cone = fan.cones[cone_idx]
        if len(cone) == 1:
            result = homol.Cochain(comp, 1, 1, _ray_cocycle_values(fan, comp, cone[0]))
        else:
            # the memo's values, not copies: cup does not change its inputs
            k = len(cone) - 1
            lead = homol.Cochain(comp, k, k, _generator_cocycle_values(fan, comp, fan.cone_index(cone[:-1])))
            ray = fan.cone_index(cone[-1:])
            last = homol.Cochain(comp, 1, 1, _generator_cocycle_values(fan, comp, ray))
            result = homol.cup(lead, last, comp.ray_cups.setdefault(ray, {}))
        if not homol.coboundary(result).is_zero():
            raise AssertionError(f"the generator cochain of cone {cone} is not a cocycle")
        memo[cone_idx] = result.data
    return memo[cone_idx]
