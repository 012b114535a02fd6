"""Tropical (co)chain complexes, the cubical model, and products.

Four complex variants are built on the face complex of a fan or of its
canonical compactification: cohomology and homology over the compact
faces, tropical cohomology with compact support and Borel-Moore
homology over all faces.  A fan, viewed as a polyhedral space in its
own right, has a single compact face (the origin), so its standard
complexes are concentrated in degree zero.  Each boundary is the
transpose of the matching coboundary: both are read off the same
blocks, from every face up to its cofaces.

The cubical model rewrites the cohomology of the compactification as a
complex indexed by the cones themselves with coefficients at the points
at infinity, the E1 page of the filtration by sedentarity.  No statement
making it quasi-isomorphic to the cellular model is cited (arXiv
2405.05014, Amini-Piquerez "Homology of tropical fans"), so it computes
no output: its equality of cohomology with the cellular model, also on
each closed stratum, is the module's central consistency oracle,
together with the fine double complex whose total complex must
reproduce the cellular one on the nose.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import prod

from . import exterior, sheaf, zlinalg
from .compactify import Compactification, comp_faces
from .fan import Fan, _ray_divisors
from .zlinalg import AbGroup, IntMatrix, LatticeQuotient, SparseMatrix, replay, sparse_vecmat, vecmat

VARIANTS = ("cohomology", "homology", "borel_moore", "compact_support")
_DUAL_VARIANTS = {"cohomology": True, "compact_support": True, "homology": False, "borel_moore": False}
_COMPACT_ONLY = {"cohomology": True, "homology": True, "borel_moore": False, "compact_support": False}


def compactification(fan):
    """The cached face complex of the canonical compactification."""
    if fan._compactification is None:
        fan._compactification = comp_faces(fan)
    return fan._compactification


@dataclass
class GradedComplex:
    """A chain or cochain complex with labelled free modules.

    ``spaces[q]`` lists (face id, basis index) labels; ``maps[q]`` is
    the differential from degree q to degree q + step on row vectors, a
    :class:`~tropfan.zlinalg.SparseMatrix` whose dict rows are assembled,
    checked for d^2 = 0 and reduced as they are.  ``step`` is +1 for
    cochain complexes and -1 for chain complexes.
    """

    comp: Compactification
    p: int
    variant: str
    coeff: str
    step: int
    spaces: dict
    maps: dict

    def dim(self, q):
        return len(self.spaces.get(q, ()))

    def restrict(self, face_ids):
        """The complex of a set of faces closed under taking faces.

        Its cells are those of the given faces, in the order they have
        here, and each differential is the block of the rows and columns
        of those cells.  That block is the differential of the
        subcomplex: the set holds every face that one of its faces
        covers, so neither a boundary nor a coboundary evaluated on the
        set reaches a face outside it.  The points at infinity of an
        up-closed set of cones cut a subcomplex out of the cubical model
        too, whose differential runs from a cone to the cones covering it.
        """
        keep = {}
        for fid in sorted(face_ids):
            q, positions = self._cells.get(fid, (None, ()))
            if positions:
                keep.setdefault(q, []).extend(positions)
        keep = {q: sorted(olds) for q, olds in keep.items()}  # cubical cells follow the cones, not the face ids
        where = {q: {old: new for new, old in enumerate(olds)} for q, olds in keep.items()}
        spaces = {}
        maps = {}
        for q, olds in keep.items():
            labs, data = self.spaces[q], self.map_out(q).data
            target = where.get(q + self.step, {})
            spaces[q] = tuple(labs[old] for old in olds)
            # the renumbering keeps the column order the unit-pivot reductions read
            rows = tuple({target[c]: e for c, e in data[old].items() if c in target} for old in olds)
            maps[q] = SparseMatrix(len(olds), len(target), rows)
        return GradedComplex(self.comp, self.p, self.variant, self.coeff, self.step, spaces, maps)

    @cached_property
    def _cells(self):
        """Face id -> (degree, positions of its cells there)."""
        cells = {}
        for q, labs in self.spaces.items():
            for k, (fid, _) in enumerate(labs):
                cells.setdefault(fid, (q, []))[1].append(k)
        return cells

    def pairs(self, chain):
        """The (cell, value) pairs of a chain or cochain, as :meth:`ComplexGroups.class_of` takes them.

        Values on faces with no cells of the chain's degree here are left out.
        """
        out = []
        for fid, values in chain.data.items():
            q, positions = self._cells.get(fid, (None, ()))
            if q == chain.q:
                out.extend(zip(positions, values))
        return out

    def map_out(self, q):
        if q in self.maps:
            return self.maps[q]
        return SparseMatrix(self.dim(q), self.dim(q + self.step), tuple({} for _ in range(self.dim(q))))

    def check_dd_zero(self):
        """Whether every composite of two differentials vanishes, row by row."""
        for q, a in self.maps.items():
            b = self.maps.get(q + self.step)
            if b is not None and any(sparse_vecmat(row.items(), b.data) for row in a.data):
                return False
        return True


def _assemble(nrows, ncols, blocks):
    """One sparse matrix from signed dense blocks, each (row positions, column positions, sign, rows)."""
    data = [{} for _ in range(nrows)]
    for rpos, cpos, sign, block in blocks:
        for r, row in zip(rpos, block):
            out = data[r]
            for c, x in zip(cpos, row):
                if x:
                    out[c] = out.get(c, 0) + sign * x
    # columns in increasing order: the unit-pivot reductions break ties by it; row by row, so
    # the unsorted rows are freed as the sorted ones are made
    for i, r in enumerate(data):
        data[i] = {c: e for c, e in sorted(r.items()) if e}
    return SparseMatrix(nrows, ncols, tuple(data))


def build_complex(space, p, variant="cohomology", coeff="Z"):
    """Cellular complex of a fan or compactification in the given variant."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if coeff not in ("Z", "Q"):
        raise ValueError("coeff must be 'Z' or 'Q'")
    if isinstance(space, Fan):
        comp = compactification(space)
        zero = space.zero_cone
        # in index order: a fan's faces have sedentarity zero, and its origin is its one compact face
        faces = [comp.face_index[(zero, zero)]] if _COMPACT_ONLY[variant] else comp._by_sedentarity[zero]
    else:
        comp = space
        faces = range(len(comp.faces))
    dual = _DUAL_VARIANTS[variant]
    step = 1 if dual else -1

    spaces = {}
    offsets = {}
    ranks = {}
    for fid in faces:
        lab = spaces.setdefault(comp.dim(fid), [])
        rank = ranks[fid] = sheaf.rank(comp, fid, p)
        offsets[fid] = len(lab)
        lab.extend((fid, i) for i in range(rank))

    # one walk up the faces in increasing id, as their offsets are: a coboundary takes a face's
    # rows from its coface blocks, a boundary scatters each block's rows into the coface's cells.
    # No two blocks add up, and every row's columns come out increasing
    data = {q: [] if dual else [{} for _ in labs] for q, labs in spaces.items()}
    for gid in faces:
        pairs = [(did, sign) for did, sign in comp.cofaces_of(gid) if did in offsets]
        blocks = sheaf.transports(comp, p, gid, pairs)
        if dual:
            parts = [(offsets[did], sign, block) for did, sign, block in blocks]
            data[comp.dims[gid]].extend(
                {off + i: sign * x for off, sign, block in parts for i, x in block[j]} for j in range(ranks[gid])
            )
            continue
        for did, sign, block in blocks:
            off, upper = offsets[did], data[comp.dims[did]]
            for j, row in enumerate(block, offsets[gid]):
                for i, x in row:
                    upper[off + i][j] = sign * x

    maps = {q: SparseMatrix(len(out), len(spaces.get(q + step, ())), tuple(out)) for q, out in data.items()}
    gc = GradedComplex(comp, p, variant, coeff, step, {q: tuple(v) for q, v in spaces.items()}, maps)
    if not gc.check_dd_zero():
        raise AssertionError(f"the {variant} differential for p = {p} does not square to zero")
    return gc


class ComplexGroups:
    """Homology groups of a graded complex with a class map per degree.

    Both come from one reduction of the whole complex (Kaczynski, Mrozek
    and Slusarek, 1998), run by :func:`_reduce` on copies of the rows.
    Each map is eliminated once by its +-1 entries, in the order of
    :func:`~tropfan.zlinalg.snf_divisors`, the map out of degree
    q + step before the map out of q.  A unit at cell a of degree q and
    cell b of degree q + step pairs a with b, over all degrees at once.
    Clearing column b changes the basis of degree q only at a, a
    coordinate that every cocycle has zero, so a is dropped: column a
    leaves the map into q before that map is indexed.  In degree q + step
    the image of a, the pivot row r scaled to 1 at b, replaces b; as a
    coboundary its row in the map out of q + step, reduced already,
    vanishes by d^2 = 0, so row b leaves that map's residual, and a class
    x becomes x - x_b * r without coordinate b.  Each pair is recorded as
    steps for :func:`~tropfan.zlinalg.replay`: a drop at a, and at b a
    step with r.  A degree's drops come before its other steps, as the
    map out of it is reduced before the map into it.

    What is left is a residual complex, often with no differential at
    all.  With n cells in degree q, H_q = Z^(n - rk d_out - rk d_in)
    plus the torsion of d_in, each rank the map's units plus the rank of
    its residual: the kernel of d_out is saturated, so the torsion of
    Z^n / im d_in lies in it.  The class map of degree q is built on the
    first :meth:`class_of` for it, from the steps of q, one Smith form of
    the residual d_out, which gives both the cycle test and the
    coordinates over a kernel basis, and the quotient by the residual
    image, which is checked against the group.
    """

    def __init__(self, gc):
        self.gc = gc
        self._class_maps = {}
        self.groups, self._steps, self._residual = _reduce(gc, lambda q: [dict(r) for r in gc.maps[q].data], keep=True)

    def group(self, q):
        return self.groups.get(q, AbGroup(0))

    def class_of(self, q, pairs):
        """Canonical coordinates of the class of a cycle/cocycle given as distinct (cell, value) pairs."""
        if self.gc.coeff != "Z":
            raise ValueError("class map only available over Z")
        steps, test, coords, quot = self._class_map(q)
        x = {i: v for i, v in pairs if v}
        if sparse_vecmat(x.items(), self.gc.map_out(q).data):
            raise AssertionError(f"vector is not a cycle in degree {q}")
        replay(steps, x)
        if any(_dot(row, x) for row in test):
            raise AssertionError(f"reduced vector is not a cycle of the residual complex in degree {q}")
        return quot.class_of(tuple(_dot(row, x) for row in coords))

    def _class_map(self, q):
        """The steps, cycle test, kernel coordinates and residual quotient of degree q, built once.

        One Smith form U T V = D of the transposed residual d_out T gives
        both: with r its rank, a vector x on the surviving cells is a
        cycle exactly when the first r coordinates of Vinv x vanish, and
        the rest are its coordinates over the kernel basis, the columns of
        V past r.  Both are kept as sparse rows over the cells.
        """
        if q not in self._class_maps:
            gc = self.gc
            steps = self._steps.get(q, {})
            cells = [c for c in range(gc.dim(q)) if c not in steps]
            pos = {c: i for i, c in enumerate(cells)}
            # the residual d_out, transposed: one row per column it still has
            transposed = {}
            for c, r in self._residual.get(q, {}).items():
                for j, e in r.items():
                    transposed.setdefault(j, [0] * len(cells))[pos[c]] = e
            res = zlinalg._snf(IntMatrix._trusted_rows(list(transposed.values()), len(cells)))
            vinv = [[(cells[j], e) for j, e in enumerate(row) if e] for row in res.Vinv.row_tuples()]
            test, coords = vinv[: res.rank], vinv[res.rank :]
            rel_rows = []
            for r in self._residual.get(q - gc.step, {}).values():
                if any(_dot(row, r) for row in test):
                    raise AssertionError(f"image does not lie in the kernel in degree {q}")
                coeff = (_dot(row, r) for row in coords)
                rel_rows.append({j: e for j, e in enumerate(coeff) if e})
            quot = LatticeQuotient(len(coords), rel_rows)
            if quot.group != self.group(q):
                raise AssertionError(f"class map quotient {quot.group} differs from H_{q} = {self.group(q)}")
            self._class_maps[q] = (steps, test, coords, quot)
        return self._class_maps[q]


def _dot(row, x):
    """A sparse row of (cell, entry) pairs times a dict vector (cell -> value)."""
    return sum(e * x.get(c, 0) for c, e in row)


def _reduce(gc, rows_of, keep=False):
    """Groups by degree from one unit-pivot reduction of a complex, as :class:`ComplexGroups` describes it.

    ``rows_of(q)`` gives the dict rows of the map out of degree q, which
    are reduced in place.  Also returns the steps of each degree, recorded
    only with ``keep`` (they hold the pivot rows), and the residual rows
    of each map by cell; only copies of these reach the Smith forms.
    """
    step = gc.step
    steps = {q: {} for q in gc.spaces}
    units, dead, residual = {}, {}, {}
    for q in sorted(gc.spaces, key=lambda q: -step * q):
        rows = rows_of(q)
        gone = dead.pop(q + step, None)
        if gone:
            for r in rows:
                for c in gone.intersection(r):
                    del r[c]
        where, alive = zlinalg._sparse_index(rows)
        pivots = zlinalg._unit_pivots(rows, where, alive)
        units[q], dead[q] = len(pivots), {i for i, _ in pivots}
        for i, j in pivots:
            residual[q + step].pop(j, None)
            if keep:
                zlinalg.record_step(steps[q], i)
                zlinalg.record_step(steps[q + step], j, rows[i])
        residual[q] = {i: rows[i] for i in sorted(alive)}
    rk, tor = {}, {}
    for q, res in residual.items():
        divisors = zlinalg.snf_divisors([dict(r) for r in res.values()])
        rk[q] = units[q] + len(divisors)
        tor[q] = tuple(d for d in divisors if d >= 2) if gc.coeff == "Z" else ()
    groups = {q: AbGroup(gc.dim(q) - rk[q] - rk.get(q - step, 0), tor.get(q - step, ())) for q in sorted(gc.spaces)}
    return groups, steps, residual


def groups(gc):
    """List of homology groups of the complex, indexed by degree."""
    gs = _reduce(gc, lambda q: [dict(r) for r in gc.maps[q].data])[0]
    top = max(gc.spaces) if gc.spaces else 0
    return [gs.get(q, AbGroup(0)) for q in range(top + 1)]


def table(space, coeff="Z", variant="cohomology"):
    """All (p, q) groups of the chosen variant, as a dict."""
    if isinstance(space, Fan):
        d = space.dim
    else:
        d = space.fan.dim
    out = {}
    for p in range(d + 1):
        gc = build_complex(space, p, variant, coeff)
        # the reduction consumes the complex's own rows, each map's freed once the map into it is reduced
        gs = _reduce(gc, lambda q: gc.maps.pop(q).data)[0]
        out.update(((p, q), gs.get(q, AbGroup(0))) for q in range(d + 1))
        del gc  # frees this complex before the next one is built
    return out


# cochains, cup products -------------------------------------------------


@dataclass
class Cochain:
    """A tropical cochain on the compactification: values per face.

    ``data`` maps a face id of dimension q to the value row of an
    element of SF^p there; missing faces are zero.
    """

    comp: Compactification
    p: int
    q: int
    data: dict = field(default_factory=dict)

    def value(self, fid):
        r = sheaf.rank(self.comp, fid, self.p)
        return self.data.get(fid, (0,) * r)

    def set_value(self, fid, values):
        if any(values):
            self.data[fid] = tuple(values)
        else:
            self.data.pop(fid, None)

    def __add__(self, other):
        out = Cochain(self.comp, self.p, self.q, dict(self.data))
        for fid, v in other.data.items():
            cur = out.value(fid)
            out.set_value(fid, tuple(a + b for a, b in zip(cur, v)))
        return out

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return Cochain(self.comp, self.p, self.q, {f: tuple(c * x for x in v) for f, v in self.data.items()})

    def is_zero(self):
        return all(not any(v) for v in self.data.values())


def coboundary(a):
    """The cellular coboundary of a cochain."""
    comp = a.comp
    acc = {}
    for gid, v in a.data.items():
        _transport_dual(comp, a.p, gid, comp.cofaces_of(gid), v, acc)
    out = Cochain(comp, a.p, a.q + 1)
    for did, cur in acc.items():
        out.set_value(did, cur)
    return out


def cup(a, b, memo=None):
    """Cup product of cochains on the same compactification.

    The value on a face (tau, eta) sums, over intermediate cones sigma,
    the wedge of the restriction of a at (tau, sigma) with the pullback
    of b at (sigma, eta), weighted by the orientation coefficient of the
    multivector decomposition of the face, read off the ray order by
    :func:`_cup_coefficient`.  Only the pairs where both a and b are
    nonzero contribute, so the sum walks the supports: each nonzero
    value of a at (tau, sigma) meets each nonzero value of b at (sigma, eta).

    ``memo``, a dict a caller keeps for one b (empty at first), holds b's
    partner index (its nonzero values by sigma) and, by (b face, output
    face), b's value carried there and extended, for every cup against b.
    """
    if a.comp is not b.comp:
        raise ValueError("cochains live on different compactifications")
    comp = a.comp
    fan = comp.fan
    p = a.p + b.p
    memo = {} if memo is None else memo
    if not memo:
        memo["partners"], memo["extended"] = {}, {}
        for mid_b, bv in b.data.items():
            if comp.dims[mid_b] == b.q and any(bv):
                sigma, eta = comp.faces[mid_b]
                memo["partners"].setdefault(sigma, []).append((mid_b, eta, bv))
    b_from, extended = memo["partners"], memo["extended"]
    totals = {}
    for mid_a, av in a.data.items():
        if comp.dims[mid_a] != a.q or not any(av):
            continue
        t, sigma = comp.faces[mid_a]
        partners = b_from.get(sigma)
        if partners is None:
            continue
        for mid_b, eta, bv in partners:
            fid = comp.face_index[(t, eta)]
            rank_out = sheaf.rank(comp, fid, p)
            if rank_out == 0:
                continue
            coefficient = _cup_coefficient(fan, t, sigma, eta)
            a_here = _transport_dual(comp, a.p, mid_a, ((fid, 1),), av, {})[fid]
            b_ext = extended.get((mid_b, fid))
            if b_ext is None:
                b_here = _transport_dual(comp, b.p, mid_b, ((fid, 1),), bv, {})[fid]
                b_ext = extended[mid_b, fid] = sheaf.extend_dual(comp, fid, b.p, b_here)
            term = sheaf.wedge_duals(comp, fid, a.p, sheaf.extend_dual(comp, fid, a.p, a_here), b.p, b_ext)
            total = totals.get(fid)
            if total is None:
                total = totals[fid] = [0] * rank_out
            for i, x in enumerate(term):
                total[i] += coefficient * x
    out = Cochain(comp, p, a.q + b.q)
    for fid in sorted(totals):
        out.set_value(fid, totals[fid])
    return out


def _cup_coefficient(fan, t, sigma, eta):
    """The c with nu_face(t, sigma) ^ nu_face(t, t + (eta - sigma)) = c * nu_face(t, eta), for t < sigma < eta.

    ``Fan.nu(c)`` is the wedge of c's rays in index order over idx(c),
    the index of their span in N_c (the product of their Smith
    divisors), and nu_face(t, c) is its image in star(t), since the
    wedge is functorial.  So with outer the rays of sigma - t and inner
    those of eta - sigma, the left side is the projected outer rays
    wedged with the inner ones over idx(outer) * idx(inner), and sorting
    outer + inner costs the shuffle sign: c = shuffle_sign(outer, inner)
    * idx(outer + inner) / (idx(outer) * idx(inner)), an integer, the
    index of N_outer + N_inner in N_(outer + inner).
    """
    cones = fan.cones
    outer = tuple(r for r in cones[sigma] if r not in cones[t])
    inner = tuple(r for r in cones[eta] if r not in cones[sigma])
    union, a, b = (prod(_ray_divisors(fan, fan._cone_index[c])) for c in (tuple(sorted(outer + inner)), outer, inner))
    return exterior.shuffle_sign(outer, inner) * (union // (a * b))


def _transport_dual(comp, p, gid, pairs, values, acc):
    """Add sign times the SF^p values at gamma, carried to delta, to ``acc[delta]`` for each (delta, sign); returns acc."""
    for did, sign, transport in sheaf.transports(comp, p, gid, pairs):
        cur = acc.get(did)
        if cur is None:
            # transports has read delta's basis id
            cur = acc[did] = [0] * len(comp.sheaf_bases[comp.sheaf_ids[p][did]])
        for x, row in zip(values, transport):
            if x:
                x *= sign
                for j, y in row:
                    cur[j] += x * y
    return acc


def unit_cochain(comp):
    """The constant SF^0 cochain with value one on every vertex face."""
    out = Cochain(comp, 0, 0)
    for fid in comp.faces_of_dim(0):
        out.set_value(fid, (1,))
    return out


# cubical model ----------------------------------------------------------


def cubical_complex(fan, p, coeff="Z"):
    """The cube-diagonal complex computing the cohomology of the
    compactification from coefficients at the points at infinity.

    Degree q collects SF^(p-q) at the infinity point of each
    q-dimensional cone; the differential contracts by the unit normal
    and pushes forward along the star projection, on lifts along the star
    section (:func:`_cubical_block`), into rows sorted by column.
    """
    from .fan import is_unimodular

    if coeff == "Z" and not is_unimodular(fan)[1]:
        raise ValueError("integral cubical model requires a unimodular fan")
    comp = compactification(fan)
    spaces = {}
    offsets = {}
    for q in range(fan.dim + 1):
        lab = []
        for s in fan.cones_of_dim(q):
            fid = comp.face_index[(s, s)]
            offsets[s] = len(lab)
            lab.extend((fid, i) for i in range(sheaf.rank(comp, fid, p - q)))
        spaces[q] = tuple(lab)

    maps = {}
    for q in range(fan.dim + 1):
        rows = [{} for _ in spaces[q]]
        for s in fan.cones_of_dim(q + 1):
            for t in fan.covers_of(s):
                for j, col in enumerate(_cubical_block(fan, comp, p, t, s), offsets[s]):
                    for i, x in enumerate(col, offsets[t]):
                        if x:
                            rows[i][j] = x
        maps[q] = SparseMatrix(len(rows), len(spaces.get(q + 1, ())), tuple(rows))
    gc = GradedComplex(comp, p, "cubical", coeff, 1, spaces, maps)
    if not gc.check_dd_zero():
        raise AssertionError(f"the cubical differential for p = {p} does not square to zero")
    return gc


def _cubical_block(fan, comp, p, t, s):
    """Columns of the cubical differential from infinity of t to infinity of s.

    Column j holds the coordinates over the SF_(k+1) basis at infinity of
    t of e ^ v, for e the unit normal of t in s and v a lift to /\\^k N^t
    of basis element b_j of SF_k at infinity of s, k = p - |s|: the
    contraction by e followed by the pushforward along star(t) -> star(s).
    Any lift serves, since two differ by an element of the kernel of
    /\\^k N^t -> /\\^k N^s, which is e ^ /\\^(k-1) N^t (the kernel of N^t -> N^s
    is Z e, e primitive), and e ^ e = 0; so v is b_j under /\\^k of the
    star section N^s -> N -> N^t, the transition from s to t.
    """
    k = p - len(fan.cones[s])
    basis_s = sheaf.basis(comp, comp.face_index[(s, s)], k)
    if not basis_s:
        return []
    star_t, face_t = fan.star(t), comp.face_index[(t, t)]
    e, m_t = star_t.normals[s], star_t.quotient_rank
    lift, width = fan._transitions[fan.transition_id(s, t, k)], exterior.dim(m_t, k)
    wedges = (exterior.wedge_coords(e, 1, vecmat(b, lift, width), k, m_t) for b in basis_s)
    cols = [sheaf.coords_in(comp, face_t, k + 1, w) for w in wedges]
    if None in cols:
        raise AssertionError(f"contraction into infinity of cone {fan.cones[t]} leaves SF^{k + 1} there (p = {p})")
    return cols


# fine double complex ------------------------------------------------------


@dataclass
class DoubleComplex:
    """The unfolded cohomology double complex of the compactification.

    Entry (a, b) collects SF^p over faces (tau, sigma) with sigma of
    dimension a and tau of dimension -b.  Horizontal maps grow sigma,
    vertical maps shrink tau; both carry the cellular incidence signs,
    so rows and columns are complexes and squares anticommute.
    """

    comp: Compactification
    p: int
    entries: dict
    horizontal: dict
    vertical: dict

    def total_complex(self, coeff="Z"):
        comp = self.comp
        spaces = {}
        for (a, b), labs in sorted(self.entries.items()):
            spaces.setdefault(a + b, []).extend(labs)
        # order within a total degree must match the cellular complex
        ordered = {}
        for q, labs in spaces.items():
            ordered[q] = tuple(sorted(labs, key=lambda t: t[0]))
        pos = {lab: i for labs in ordered.values() for i, lab in enumerate(labs)}
        blocks = {q: [] for q in ordered}
        for dmaps, (da, db) in ((self.horizontal, (1, 0)), (self.vertical, (0, 1))):
            for (a, b), block in dmaps.items():
                rpos = [pos[lab] for lab in self.entries[(a, b)]]
                cpos = [pos[lab] for lab in self.entries.get((a + da, b + db), ())]
                blocks[a + b].append((rpos, cpos, 1, block))
        maps = {q: _assemble(len(labs), len(ordered.get(q + 1, ())), blocks[q]) for q, labs in ordered.items()}
        return GradedComplex(comp, self.p, "cohomology", coeff, 1, ordered, maps)


def fine_double_complex(fan, p):
    """Build the double complex and check it reassembles the cellular one."""
    comp = compactification(fan)
    entries = {}
    offsets = {}
    for fid in range(len(comp.faces)):
        t, s = comp.faces[fid]
        a = len(fan.cones[s])
        b = -len(fan.cones[t])
        labs = entries.setdefault((a, b), [])
        offsets[fid] = ((a, b), len(labs))
        labs.extend((fid, i) for i in range(sheaf.rank(comp, fid, p)))
    horizontal = {}
    vertical = {}
    for key, labs in entries.items():
        a, b = key
        h_dst = entries.get((a + 1, b), [])
        v_dst = entries.get((a, b + 1), [])
        horizontal[key] = [[0] * len(h_dst) for _ in labs]
        vertical[key] = [[0] * len(v_dst) for _ in labs]
    for gid in range(len(comp.faces)):
        key, off_src = offsets[gid]
        for did, sign, transport in sheaf.transports(comp, p, gid, comp.cofaces_of(gid)):
            _, off_dst = offsets[did]
            M = (horizontal if comp.faces[gid][0] == comp.faces[did][0] else vertical)[key]
            for i, row in enumerate(transport):
                for j, x in row:
                    M[off_src + i][off_dst + j] += sign * x

    dc = DoubleComplex(comp, p, {k: tuple(v) for k, v in entries.items()}, horizontal, vertical)
    # d^2 of the total complex splits into hh, hv + vh and vv, which land
    # in distinct bidegrees: rows, columns and squares are checked at once
    total = dc.total_complex()
    if not total.check_dd_zero():
        raise AssertionError(f"the double complex of SF^{p} does not square to zero")
    cellular = build_complex(comp, p, "cohomology")
    if total.spaces != cellular.spaces:
        raise AssertionError(f"basis mismatch between the total and cellular complexes of SF^{p}")
    for q in cellular.spaces:
        if total.maps[q] != cellular.maps[q]:
            raise AssertionError(f"the total complex of SF^{p} differs from the cellular one in degree {q}")
    return dc


# fundamental class and cap products --------------------------------------


@dataclass
class Chain:
    """A Borel-Moore chain: values per face in SF_p basis coordinates."""

    comp: Compactification
    p: int
    q: int
    data: dict = field(default_factory=dict)


def fundamental_cycle(fan, weights):
    """The canonical Borel-Moore cycle of a balanced weighted fan."""
    from .fan import is_balanced

    if not is_balanced(fan, weights):
        raise ValueError("weights are not balanced")
    comp = compactification(fan)
    d = fan.dim
    data = {}
    for s in fan.maximal:
        fid = comp.face_index[(fan.zero_cone, s)]
        nu = fan.nu(s)
        coords = sheaf.coords_in(comp, fid, d, nu)
        if coords is None or len(coords) != 1:
            raise AssertionError(f"the canonical multivector of cone {fan.cones[s]} does not span SF_{d} there")
        data[fid] = (weights[fan.cones[s]] * coords[0],)
    chain = Chain(comp, d, d, data)
    if not _boundary_vanishes(fan, comp, chain):
        raise AssertionError(f"the fundamental chain is not a cycle in degree {d}")
    return chain


def _boundary_vanishes(fan, comp, chain):
    gc = build_complex(fan, chain.p, "borel_moore")
    return not sparse_vecmat(gc.pairs(chain), gc.map_out(chain.q).data)


def cap(fan, weights, alpha_values, k):
    """Cap product of an SF^k class at the origin with the fundamental cycle.

    Returns the Borel-Moore chain of bidegree (d-k, d) whose facet
    coefficients are the contractions of the weighted canonical
    multivectors by alpha.
    """
    comp = compactification(fan)
    d = fan.dim
    origin = comp.face_index[(fan.zero_cone, fan.zero_cone)]
    alpha_hat, den = sheaf.extend_dual(comp, origin, k, alpha_values)
    n = fan.rank
    data = {}
    for s in fan.maximal:
        fid = comp.face_index[(fan.zero_cone, s)]
        nu = fan.nu(s)
        w = weights[fan.cones[s]]
        contracted = exterior.contract_vector(alpha_hat, k, tuple(w * x for x in nu), d, n)
        what = f"the contraction of SF^{k} values by the multivector of face {fid} in degree {d - k}"
        coords = sheaf.coords_in(comp, fid, d - k, sheaf.exact_quotient(contracted, den, what))
        if coords is None:
            raise AssertionError(f"the cap coefficient at cone {fan.cones[s]} leaves SF_{d - k} there")
        data[fid] = coords
    return Chain(comp, d - k, d, data)

