"""Rational simplicial fans: data model, predicates and orientations.

A :class:`Fan` stores primitive ray generators and all cones as sorted
ray-index tuples (the empty tuple is the zero cone).  Geometry is
derived on demand and cached: per-cone unimodularity, cone lattices
``N_sigma`` (saturations of ray spans), star fans with a deterministic
choice of quotient basis, and the canonical multivector orientation used
by the face complexes downstream.  The unit normal e_{sigma/tau} of a
cone sigma covering tau is the ray of the star fan of tau that sigma
maps to, kept as ``fan.star(tau).normals[sigma]``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from . import exterior, zlinalg
from .zlinalg import Sublattice, vecmat


def _primitive(vec):
    g = 0
    for v in vec:
        g = gcd(g, abs(v))
    if g == 0:
        return tuple(vec), 0
    return tuple(v // g for v in vec), g


@dataclass(frozen=True)
class ConewiseLinear:
    """A conewise linear function given by its rational values on rays."""

    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(Fraction(v) for v in self.values))

    def __call__(self, ray_index):
        return self.values[ray_index]


class TropicalWeights:
    """Nonzero integer weights on the facets of a fan."""

    def __init__(self, fan, by_cone):
        self.fan = fan
        facets = {fan.cones[i] for i in fan.maximal}
        data = {tuple(sorted(c)): int(w) for c, w in by_cone.items()}
        if set(data) != facets:
            raise ValueError("weights must be defined exactly on the maximal cones")
        if any(w == 0 for w in data.values()):
            raise ValueError("weights must be nonzero")
        self.by_cone = data

    @classmethod
    def from_list(cls, fan, values, maximal_cones=None):
        if maximal_cones is None:
            maximal_cones = [fan.cones[i] for i in sorted(fan.maximal)]
        if len(values) != len(maximal_cones):
            raise ValueError("one weight per maximal cone")
        return cls(fan, dict(zip(map(tuple, maximal_cones), values)))

    @classmethod
    def unit(cls, fan):
        return cls.from_list(fan, [1] * len(fan.maximal))

    def __getitem__(self, cone):
        return self.by_cone[tuple(sorted(cone))]

    def items(self):
        return self.by_cone.items()


@dataclass
class Finding:
    code: str
    message: str


@dataclass
class Diagnostics:
    findings: list = field(default_factory=list)
    checked_geometric: bool = False

    @property
    def ok(self):
        return not self.findings

    def add(self, code, message):
        self.findings.append(Finding(code, message))


class Fan:
    """A rational simplicial fan in Z^rank.

    Every fan built in this package is face-closed: :meth:`from_max_cones`
    adds every face, star fans inherit it, and the origin-only Bergman
    fan has the zero cone alone.  :meth:`join` relies on it, and
    :func:`validate` reports a missing face as ``closure``.
    """

    def __init__(self, rank, rays, cones, maximal, name=""):
        self.rank = rank
        self.rays = tuple(tuple(int(x) for x in r) for r in rays)
        self.cones = tuple(tuple(c) for c in cones)
        self.maximal = frozenset(maximal)
        self.name = name
        self._cone_index = {c: i for i, c in enumerate(self.cones)}
        self._by_dim = {}
        for i, c in enumerate(self.cones):
            self._by_dim.setdefault(len(c), []).append(i)
        self._facets = None  # facet tuples by cone, in ray order, filled by covers_of
        self._cofaces = None  # up-cover lists, the transpose of covers_of
        self._containing = {}
        self._lattice = {}
        self._star = {}
        self._nu = {}
        self._nu_face = {}
        self._divisors = {}  # cone index -> Smith divisors of its rays, filled by _ray_divisors
        self._unimodular = None  # (per-cone, verdict), filled by is_unimodular
        # the distinct /\^k transitions, their ids by (t_small, t_big, k) and by value,
        # and the projection rows of each (t_small, t_big) they are made from
        self._transitions, self._transition_ids, self._transition_by_value = [], {}, {}
        self._projections = {}
        self._compactification = None  # filled by homology.compactification
        self._ray_products = {}  # (ray, cone, coeff) -> x_ray * x_cone, filled by chow
        for r in self.rays:
            if len(r) != rank:
                raise ValueError("ray has wrong length")
        for c in self.cones:
            if any(i < 0 or i >= len(self.rays) for i in c):
                raise ValueError("ray index out of range")
            if tuple(sorted(c)) != c:
                raise ValueError("cones must be sorted index tuples")

    @classmethod
    def from_max_cones(cls, rank, rays, maximal_cones, name=""):
        """Build the face closure of a list of maximal cones.

        An empty list gives the fan whose only cone is the origin.
        """
        maxset = [tuple(sorted(c)) for c in maximal_cones] or [()]
        seen = set()
        for c in maxset:
            for k in range(len(c) + 1):
                seen.update(_subsets(c, k))
        cones = sorted(seen, key=lambda c: (len(c), c))
        idx = {c: i for i, c in enumerate(cones)}
        maximal = frozenset(idx[c] for c in maxset)
        return cls(rank, rays, cones, maximal, name=name)

    # basic structure -------------------------------------------------

    def cone_index(self, cone):
        return self._cone_index[tuple(sorted(cone))]

    @property
    def dim(self):
        return max(self._by_dim, default=0)

    def cones_of_dim(self, k):
        """Indices of the k-dimensional cones, in index order, as a new list."""
        return list(self._by_dim.get(k, ()))

    @property
    def zero_cone(self):
        return self._cone_index[()]

    def is_pure(self):
        return len({len(self.cones[i]) for i in self.maximal}) <= 1

    def covers_of(self, cone_idx):
        """Indices of cones covered by cone_idx, the k-th removing its k-th ray; built once per fan."""
        if self._facets is None:
            index = self._cone_index
            self._facets = [tuple(index[c[:k] + c[k + 1:]] for k in range(len(c))) for c in self.cones]
        return self._facets[cone_idx]

    def covered_by(self, cone_idx):
        """Indices of cones covering cone_idx (one ray added)."""
        if self._cofaces is None:
            cofaces = [[] for _ in self.cones]
            for j in range(len(self.cones)):
                for i in self.covers_of(j):
                    cofaces[i].append(j)
            self._cofaces = cofaces
        return self._cofaces[cone_idx]

    def cones_containing(self, cone_idx):
        """Indices of the cones having cone_idx as a face, in index order.

        Found by walking up-covers, which reach every such cone in a
        face-closed fan.
        """
        if cone_idx not in self._containing:
            seen = {cone_idx}
            stack = [cone_idx]
            while stack:
                for j in self.covered_by(stack.pop()):
                    if j not in seen:
                        seen.add(j)
                        stack.append(j)
            self._containing[cone_idx] = sorted(seen)
        return self._containing[cone_idx]

    def join(self, i, j):
        """Index of the smallest cone containing cones i and j, or None.

        In a face-closed fan that cone is the union of their rays, if
        the union is a cone at all.
        """
        return self._cone_index.get(tuple(sorted(set(self.cones[i]) | set(self.cones[j]))))

    # lattices and orientation ----------------------------------------

    def cone_lattice(self, cone_idx):
        """N_sigma: the saturation of the ray span, as an HNF sublattice."""
        if cone_idx not in self._lattice:
            L = Sublattice.from_rows([self.rays[i] for i in self.cones[cone_idx]], self.rank)
            # a unimodular cone's rays span a saturated lattice, and L is its one reduced HNF basis
            self._lattice[cone_idx] = L if is_unimodular(self)[0][cone_idx] else zlinalg.saturate(L)[0]
        return self._lattice[cone_idx]

    def nu(self, cone_idx):
        """Canonical multivector of a cone, in /\\^dim Z^rank coordinates.

        The generator of /\\^dim N_sigma signed so that the wedge of the
        ray generators (sorted by ray index) is a positive multiple.
        """
        return self._orientation(cone_idx)[0]

    def _orientation(self, cone_idx):
        """(nu, sign), where sign takes the wedge of the cone-lattice basis to nu."""
        if cone_idx not in self._nu:
            c = self.cones[cone_idx]
            basis = self.cone_lattice(cone_idx).basis.row_tuples()
            w = exterior.wedge_rows(basis, self.rank)
            raw = exterior.wedge_rows([self.rays[i] for i in c], self.rank)
            k = next(i for i, x in enumerate(w) if x)
            sign = 1 if (raw[k] > 0) == (w[k] > 0) else -1
            self._nu[cone_idx] = (tuple(sign * x for x in w), sign)
        return self._nu[cone_idx]

    def nu_face(self, tau_idx, sigma_idx):
        """Multivector of the compactified face (tau, sigma) in star(tau) coordinates.

        Image of the canonical multivector of the complementary face of
        tau inside sigma under the star projection: by functoriality of
        /\\^p, the wedge of the projected cone-lattice basis, signed as nu.
        """
        key = (tau_idx, sigma_idx)
        if key not in self._nu_face:
            tau = set(self.cones[tau_idx])
            sigma = self.cones[sigma_idx]
            comp = tuple(i for i in sigma if i not in tau)
            comp_idx = self._cone_index[comp]
            _, sign = self._orientation(comp_idx)
            basis = self.cone_lattice(comp_idx).basis.row_tuples()
            star = self.star(tau_idx)
            img = exterior.wedge_rows([vecmat(row, star.proj) for row in basis], star.quotient_rank)
            if sign < 0:
                img = tuple(-x for x in img)
            if not any(img):
                raise AssertionError(f"degenerate face multivector of ({self.cones[tau_idx]}, {sigma})")
            self._nu_face[key] = img
        return self._nu_face[key]

    def varpi_face(self, tau_idx, sigma_idx, x):
        """Coefficient c with x = c * nu_face(tau, sigma), an int when it is one; raises if x is not proportional."""
        nu = self.nu_face(tau_idx, sigma_idx)
        k = next(i for i, v in enumerate(nu) if v)
        if any(xi * nu[k] != x[k] * ni for xi, ni in zip(x, nu)):
            face = (self.cones[tau_idx], self.cones[sigma_idx])
            raise AssertionError(f"vector not proportional to the face multivector of {face}")
        c, r = divmod(x[k], nu[k])
        return Fraction(x[k], nu[k]) if r else c

    # star fans --------------------------------------------------------

    def star(self, cone_idx):
        if cone_idx not in self._star:
            self._star[cone_idx] = _build_star(self, cone_idx)
        return self._star[cone_idx]

    def drop_caches(self):
        """Forget the cached stars and compactification, and theirs.

        Both point back to this fan (every star keeps its base fan, and
        the star fan of the origin is the fan itself), so while it keeps
        them the fan is freed only by the cyclic garbage collector; after
        this, by reference counting.
        """
        stars, self._star = self._star, {}
        self._compactification = None
        for star in stars.values():
            # a star fan not built yet has no caches
            if star._fan is not None and star._fan is not self:
                star._fan.drop_caches()

    def transition_id(self, t_small, t_big, k):
        """Index in ``_transitions`` of /\\^k of the projection star(t_small) -> star(t_big), interned by value.

        Its rows are indexed by the k-monomials of star(t_small), its columns by those of star(t_big).
        Swapped, the arguments give /\\^k of the section N^t_big -> N -> N^t_small of that projection.
        """
        key = (t_small, t_big, k)
        if key not in self._transition_ids:
            small, big = self.star(t_small), self.star(t_big)
            rows = self._projections.get((t_small, t_big))
            if rows is None:
                rows = self._projections[t_small, t_big] = tuple(vecmat(row, big.proj) for row in small.section)
            value = (rows, big.quotient_rank, k)
            if value not in self._transition_by_value:
                self._transition_by_value[value] = len(self._transitions)
                self._transitions.append(exterior.induced_matrix(rows, k, small.quotient_rank, big.quotient_rank))
            self._transition_ids[key] = self._transition_by_value[value]
        return self._transition_ids[key]


class StarData:
    """The star fan of a cone with its projection bookkeeping.

    ``proj`` is the rank x quotient_rank matrix of the projection
    N -> N^sigma acting on row vectors; ``section`` is a right inverse.
    ``normals`` sends each cone covering sigma, in the order of their
    extra rays, to its unit normal in N^sigma: the primitive image of
    its extra ray, which is the star ray it maps to; ``multiples``
    sends it to the gcd of that image, so
    the projected extra ray is its multiple times the normal.  N_cover
    is saturated and contains N_sigma, so its image in N^sigma is
    saturated of rank one, and the normal's lift through ``section``
    lies in N_cover and generates it over N_sigma.

    The star fan itself is built on first read of ``fan``, ``cone_map``
    or ``cone_preimage``: the ampleness checks, saturation, the
    compactification and the comparison report read only the
    projection and the normals.  ``cone_map`` sends a cone of the base
    fan containing sigma to the corresponding cone index of the star
    fan, and ``cone_preimage`` is its inverse.
    """

    def __init__(self, base, base_cone, quotient_rank, proj, section, normals, multiples):
        self.base_cone = base_cone
        self.quotient_rank = quotient_rank
        self.proj = proj
        self.section = section
        self.normals = normals
        self.multiples = multiples
        self._base = base
        self._fan = None  # with _cone_map and _cone_preimage, filled by _build_fan

    @property
    def fan(self):
        if self._fan is None:
            self._build_fan()
        return self._fan

    @property
    def cone_map(self):
        if self._fan is None:
            self._build_fan()
        return self._cone_map

    @property
    def cone_preimage(self):
        if self._fan is None:
            self._build_fan()
        return self._cone_preimage

    def _build_fan(self):
        fan, cone_idx = self._base, self.base_cone
        if not fan.cones[cone_idx]:
            self._cone_map = {i: i for i in range(len(fan.cones))}
            self._cone_preimage = dict(self._cone_map)
            self._fan = fan
            return
        containing = fan.cones_containing(cone_idx)
        cone_set = set(fan.cones[cone_idx])
        # star rays are indexed by the covers of the cone, sorted by extra ray
        extra_to_star = {}
        for s, c in enumerate(self.normals):
            extra_to_star[next(i for i in fan.cones[c] if i not in cone_set)] = s
        star_cones = [tuple(sorted(extra_to_star[i] for i in fan.cones[c] if i not in cone_set)) for c in containing]
        order = sorted(range(len(containing)), key=lambda t: (len(star_cones[t]), star_cones[t]))
        maximal = frozenset(i for i, t in enumerate(order) if containing[t] in fan.maximal)
        name = f"{fan.name}^{fan.cones[cone_idx]}"
        self._fan = Fan(self.quotient_rank, list(self.normals.values()), [star_cones[t] for t in order], maximal, name=name)
        self._cone_map = {containing[t]: i for i, t in enumerate(order)}
        self._cone_preimage = {i: containing[t] for i, t in enumerate(order)}

    def induced_weights(self, weights):
        star = self.fan
        data = {}
        for star_max in star.maximal:
            eta = self.cone_preimage[star_max]
            data[star.cones[star_max]] = weights[weights.fan.cones[eta]]
        return TropicalWeights(star, data)


def _subsets(c, k):
    return itertools.combinations(c, k)


def _build_star(fan, cone_idx):
    n = fan.rank
    cone = fan.cones[cone_idx]
    k = len(cone)
    # normals and multiples are keyed by the covers of the cone, sorted by extra ray
    covers = sorted(fan.covered_by(cone_idx), key=lambda c: fan.cones[c])
    normals, multiples = {}, {}
    if k == 0:
        ident = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        for c in covers:
            normals[c], multiples[c] = _primitive(fan.rays[fan.cones[c][0]])
        return StarData(fan, cone_idx, n, ident, ident, normals, multiples)
    B = fan.cone_lattice(cone_idx).basis
    res = zlinalg._snf(B)
    # the checks the orientation rests on: compactify reads its signs off
    # the ray order, which orients only wedges of independent projected rays
    if len(res.divisors) < k:
        raise AssertionError(f"cone {cone} has dependent rays")
    if res.divisors != (1,) * k:
        raise AssertionError(f"cone lattice of cone {cone} is not saturated: divisors {res.divisors}")
    proj = tuple(row[k:] for row in res.V.row_tuples())
    section = tuple(res.Vinv.row_tuples()[k:])
    cone_set = set(cone)
    for c in covers:
        extra = next(i for i in fan.cones[c] if i not in cone_set)
        normals[c], multiples[c] = _primitive(vecmat(fan.rays[extra], proj))
        if multiples[c] == 0:
            raise AssertionError(f"ray {extra} of cone {fan.cones[c]} collapses in the star of cone {cone}: dependent rays")
    return StarData(fan, cone_idx, n - k, proj, section, normals, multiples)


# predicates ------------------------------------------------------------


def validate(fan, level="combinatorial"):
    """Structural diagnostics of a fan, as a :class:`Diagnostics` of findings.

    The combinatorial level checks rays (zero, primitivity, duplicates),
    simplicial cones, face closure and maximal flags.  If those pass, the
    geometric level also checks that no two cones have relative
    interiors that meet.  Faces of one cone are skipped, and so is any
    pair that an integer functional separates (:func:`_separated_partners`);
    the exact LP :func:`_interiors_meet` decides every other pair.
    """
    diags = Diagnostics()
    seen = {}
    for i, r in enumerate(fan.rays):
        prim, g = _primitive(r)
        if g == 0:
            diags.add("zero-ray", f"ray {i} is zero")
        elif g != 1:
            diags.add("primitivity", f"ray {i} = {r} has coordinate gcd {g}")
        if r in seen:
            diags.add("duplicate-ray", f"rays {seen[r]} and {i} coincide")
        seen[r] = i
    for c in _dependent_cones(fan):
        diags.add("simplicial", f"cone {c} has dependent rays")
    cone_set = set(fan.cones)
    for c in fan.cones:
        for j in range(len(c)):
            sub = c[:j] + c[j + 1 :]
            if sub not in cone_set:
                diags.add("closure", f"face {sub} of cone {c} is missing")
    # a cone containing a flagged cone contains its first ray
    with_ray = {}
    for j, d in enumerate(fan.cones):
        for r in d:
            with_ray.setdefault(r, []).append(j)
    for i in fan.maximal:
        c = fan.cones[i]
        for j in with_ray.get(c[0], ()) if c else range(len(fan.cones)):
            if j != i and set(c) < set(fan.cones[j]):
                diags.add("maximal-flag", f"cone {c} flagged maximal but contained in {fan.cones[j]}")
    if level == "geometric" and diags.ok:
        diags.checked_geometric = True
        # a separating functional proves a pair disjoint; so does a join, since
        # faces of one simplicial cone have disjoint relative interiors
        nonzero = [i for i, c in enumerate(fan.cones) if c]
        everyone = (1 << len(nonzero)) - 1
        for a, separated in enumerate(_separated_partners(fan, nonzero)):
            # the unseparated partners after a, lowest first
            rest = (everyone & ~separated) >> (a + 1)
            while rest:
                low = rest & -rest
                rest ^= low
                b = a + low.bit_length()
                if fan.join(nonzero[a], nonzero[b]) is not None:
                    continue
                ca, cb = fan.cones[nonzero[a]], fan.cones[nonzero[b]]
                if _interiors_meet(fan, ca, cb):
                    diags.add("overlap", f"relative interiors of {ca} and {cb} intersect")
    return diags


def _dependent_cones(fan):
    """The nonzero cones with dependent rays, in index order.

    A face of an independent cone is independent, so an integer rank is
    taken, largest cones first, only for cones no independent cone covers.
    """
    independent, dependent = set(), set()
    for i in sorted(range(len(fan.cones)), key=lambda i: len(fan.cones[i]), reverse=True):
        c = fan.cones[i]
        if c and c not in independent:
            if len(_ray_divisors(fan, i)) != len(c):
                dependent.add(c)
                continue
        independent.update(c[:j] + c[j + 1 :] for j in range(len(c)))
    return [c for c in fan.cones if c in dependent]


def _ray_divisors(fan, cone_idx):
    """The Smith divisors of a cone's rays, taken once per fan: their number is the rank."""
    divisors = fan._divisors.get(cone_idx)
    if divisors is None:
        rows = [{k: x for k, x in enumerate(fan.rays[i]) if x} for i in fan.cones[cone_idx]]
        divisors = fan._divisors[cone_idx] = zlinalg.snf_divisors(rows)
    return divisors


def _separated_partners(fan, cone_ids):
    """For each cone of ``cone_ids``, the partners an integer functional separates from it.

    The functionals are the coordinates e_k and the differences
    e_i - e_j (i < j).  A functional l separates cones a and b when it
    is >= 0 on every ray of one, <= 0 on every ray of the other, and
    nonzero on some ray of either.  The result has one bitset per cone,
    in order: bit b is set when some functional separates the cone from
    the b-th cone of ``cone_ids``.  It is a union over the functionals
    l of bitsets over the cones, chosen by the sign of l on the cone:
    where l is >= 0 and nonzero on it, the cones on which l is <= 0;
    where l is <= 0 and nonzero, those on which l is >= 0; where l
    vanishes on it, those on which l is >= 0 or <= 0 and nonzero
    somewhere.  A functional of both signs on the cone adds nothing.

    Separated cones have disjoint relative interiors.  Proof: say
    x = sum alpha_i r_i = sum beta_j s_j with every alpha_i and
    beta_j > 0, over the rays r_i of a and s_j of b.  If l >= 0 on the
    r_i and l <= 0 on the s_j, then 0 <= l(x) <= 0, so l(x) = 0, and as
    every coefficient is positive that forces l = 0 on every r_i and
    s_j.  A functional that is also nonzero on one of those rays leaves
    no such x.  The other sign pattern is the same argument for -l.

    By the separation form of Farkas' lemma (Schrijver, *Theory of
    Linear and Integer Programming*, 1986, section 7) some functional
    separates any two cones with disjoint relative interiors, but not
    always one of this set, so a pair it leaves unseparated still needs
    the LP.
    """
    n = fan.rank
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    nfun = n + len(pairs)
    pos, neg = [], []
    for r in fan.rays:
        values = list(r) + [r[i] - r[j] for i, j in pairs]
        pos.append(sum(1 << k for k, v in enumerate(values) if v > 0))
        neg.append(sum(1 << k for k, v in enumerate(values) if v < 0))
    # per functional, the bitsets over the cones of those it is >= 0 on, <= 0 on, and nonzero on
    ge, le, nz = [0] * nfun, [0] * nfun, [0] * nfun
    signs = []
    for a, idx in enumerate(cone_ids):
        p = m = 0
        for i in fan.cones[idx]:
            p |= pos[i]
            m |= neg[i]
        signs.append((p, m))
        bit = 1 << a
        for k in range(nfun):
            if not m >> k & 1:
                ge[k] |= bit
            if not p >> k & 1:
                le[k] |= bit
            if (p | m) >> k & 1:
                nz[k] |= bit
    either_nz = [(g | l) & z for g, l, z in zip(ge, le, nz)]
    out = []
    for p, m in signs:
        s = 0
        for k in range(nfun):
            if p >> k & 1:
                if not m >> k & 1:
                    s |= le[k]
            elif m >> k & 1:
                s |= ge[k]
            else:
                s |= either_nz[k]
        out.append(s)
    return out


def _interiors_meet(fan, ca, cb):
    n = fan.rank
    na, nb = len(ca), len(cb)
    eqs = []
    for coord in range(n):
        row = [fan.rays[i][coord] for i in ca] + [-fan.rays[j][coord] for j in cb]
        eqs.append(row)
    strict = []
    for t in range(na + nb):
        row = [0] * (na + nb)
        row[t] = 1
        strict.append(row)
    ok, _ = zlinalg.strict_lp_feasible(eqs, strict)
    return ok


def is_unimodular(fan):
    """Per-cone unimodularity against the ambient lattice, plus the global verdict.

    Decided once per fan: the answer is kept on the fan, and every call
    returns that same (per-cone dict, verdict) pair, which callers must
    not change.
    """
    if fan._unimodular is None:
        per_cone = {i: not c or _ray_divisors(fan, i) == (1,) * len(c) for i, c in enumerate(fan.cones)}
        fan._unimodular = (per_cone, all(per_cone.values()))
    return fan._unimodular


def is_saturated_at(fan, cone_idx):
    """Saturation of the lattice generated by the star fan support: every invariant factor is 1.

    That lattice is L / N_tau in N^tau = N / N_tau, for L the sum of the lattices of the maximal
    cones containing tau.  L contains N_tau, so N^tau / (L / N_tau) = N / L: L / N_tau is saturated
    exactly when L is, which the Smith divisors of the cone-lattice rows in N decide, with no star.
    """
    rows = [
        {j: x for j, x in enumerate(r) if x}
        for c in fan.cones_containing(cone_idx) if c in fan.maximal
        for r in fan.cone_lattice(c).basis.row_tuples()
    ]
    return all(d == 1 for d in zlinalg.snf_divisors(rows))


def is_saturated(fan):
    return all(is_saturated_at(fan, i) for i in range(len(fan.cones)))


def is_balanced(fan, weights):
    """The weighted sum of unit normals vanishes at every codimension-one cone."""
    if not fan.is_pure():
        raise ValueError("balancing requires a pure-dimensional fan")
    d = fan.dim
    for tau in fan.cones_of_dim(d - 1):
        star = fan.star(tau)
        total = [0] * star.quotient_rank
        for sigma in fan.covered_by(tau):
            if sigma not in fan.maximal:
                continue
            cls = star.normals[sigma]
            w = weights[fan.cones[sigma]]
            for j in range(star.quotient_rank):
                total[j] += w * cls[j]
        if any(total):
            return False
    return True
