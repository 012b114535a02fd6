"""Multi-tangent coefficient lattices SF_p and their maps.

For a face (tau, sigma) of the compactification, the degree-p
coefficient lattice is the sublattice of the p-th exterior power of
N^tau spanned by the p-th exterior powers of the tangent lattices of
the cones containing sigma with the same sedentarity.  Bases are kept
in HNF over the fixed wedge-monomial ordering of the star basis of
N^tau, so every map in this module is exact over these bases.

Bases are built from the top of the face poset down.  When sigma is
maximal the generators are the p-fold wedges of the projected rows of
the cone lattice N_sigma, which span the tangent lattice N_sigma / N_tau
(a full-rank one gives all of /\\^p, with no wedge taken);
otherwise SF_p(tau, sigma) is the sum of SF_p(tau, sigma') over the
cones sigma' covering sigma, since every maximal cone above sigma lies
above one of them.  A lattice has one reduced HNF basis, so the HNF of
the distinct bases above is the HNF of all the wedges, and a face whose
covers share one basis has it too, with no HNF run.

Each compactification interns its bases: ``comp.sheaf_bases`` lists the
distinct ones and ``comp.sheaf_ids[p][face]`` is the face's basis id.
Solvers are kept per basis id, and restriction blocks per (id delta,
id gamma) or, for a sedentarity drop, per (id delta, id gamma,
:meth:`~tropfan.fan.Fan.transition_id`).  A block is stored once, as
the sparse (column, entry) rows of its dual transport from gamma up to
delta, their pairs interned in ``comp.sheaf_pairs`` (nearly all are
+-1 at a small column); :func:`transports` reads them face by face,
from the lower face, and :func:`restriction` transposes one on read.
Only dense kernels densify them.

SF^p, the dual, is represented by value vectors on the HNF basis of
SF_p; it is never materialized as a sublattice of an ambient dual
space.  Restrictions along face inclusions, their dual transports, and
contraction maps all reduce to exact integer solves against these
bases.

Wedges and contractions of dual elements need their values on every
wedge monomial.  The basis id's solver, the one that gives coordinates,
also gives them: its back substitution is scaled once by a common
denominator D, so an extension is an integer vector D * g.  The integer
result of a wedge or contraction is divided once by the product of the
denominators; the division is exact because the result is evaluated on
lattices spanned by wedges of tangent vectors, and an inexact one
raises, naming the face and degrees.
"""

from __future__ import annotations

import itertools

from . import exterior, zlinalg
from .zlinalg import IntMatrix


def star_rank(comp, fid):
    t, _ = comp.faces[fid]
    return comp.fan.star(t).quotient_rank


def basis_id(comp, fid, p):
    """Index of the SF_p basis at the face in ``comp.sheaf_bases``, built on first use."""
    ids = comp.sheaf_ids.get(p)
    if ids is None:
        ids = comp.sheaf_ids[p] = [None] * len(comp.faces)
    bid = ids[fid]
    if bid is None:
        bid = ids[fid] = _build_basis(comp, fid, p)
    return bid


def _build_basis(comp, fid, p):
    fan = comp.fan
    t, s = comp.faces[fid]
    star = fan.star(t)
    m = star.quotient_rank
    if p == 0:
        return _intern(comp, ((1,),))
    if p < 0 or p > m:
        return _intern(comp, ())
    above = fan.covered_by(s)
    if above:
        ids = {basis_id(comp, comp.face_index[(t, eta)], p) for eta in above}
        if len(ids) == 1:
            return ids.pop()
        gens = [row for i in ids for row in comp.sheaf_bases[i]]
    elif p > comp.dims[fid]:
        # the tangent lattice N_sigma / N_tau has rank |sigma| - |tau|, so /\\^p of it is zero
        return _intern(comp, ())
    elif comp.dims[fid] == m:
        # the tangent lattice N_sigma / N_tau is saturated in N^tau, so at full rank it is all of it
        return _intern(comp, tuple(IntMatrix.identity(exterior.dim(m, p)).row_tuples()))
    else:
        # the projected rows of N_sigma span N_sigma / N_tau, so their wedges span /\\^p of it
        projected = (zlinalg.vecmat(row, star.proj) for row in fan.cone_lattice(s).basis.row_tuples())
        spanning = [r for r in projected if any(r)]
        gens = [exterior.wedge_rows(list(subset), m) for subset in itertools.combinations(spanning, p)]
    # the generators are int rows computed here: no re-coercion on the way in
    H = zlinalg.hnf(IntMatrix._trusted_rows(gens, exterior.dim(m, p)))
    return _intern(comp, tuple(r for r in H.row_tuples() if any(r)))


def _intern(comp, rows):
    if rows not in comp.sheaf_interned:
        comp.sheaf_interned[rows] = len(comp.sheaf_bases)
        comp.sheaf_bases.append(rows)
    return comp.sheaf_interned[rows]


def basis(comp, fid, p):
    """HNF basis rows of SF_p at the face, in /\\^p star coordinates."""
    return comp.sheaf_bases[basis_id(comp, fid, p)]


def rank(comp, fid, p):
    return len(basis(comp, fid, p))


def basis_solver(comp, fid, p):
    """The :class:`~tropfan.zlinalg.RowSolver` over the SF_p basis, one per basis id, or None if it is empty."""
    bid = basis_id(comp, fid, p)
    solver = comp.sheaf_solvers.get(bid)
    if solver is None:
        b = comp.sheaf_bases[bid]
        if not b:
            return None
        solver = comp.sheaf_solvers[bid] = zlinalg.RowSolver(IntMatrix._trusted_rows(b, len(b[0])))
    return solver


def coords_in(comp, fid, p, vec):
    """Integer coordinates of a multivector over the SF_p basis, or None."""
    s = basis_solver(comp, fid, p)
    if s is None:
        return None if any(vec) else ()
    return s.solve(vec)


def restriction(comp, p, gid, did):
    """Sparse rows of i: SF_p(delta) -> SF_p(gamma) for a subface gamma of delta.

    Same-sedentarity inclusions embed, sedentarity drops project; the
    general case composes both.  Row i holds the (column, entry) pairs,
    over the basis of SF_p(gamma), of basis element i of SF_p(delta):
    the stored transport block, transposed on read.
    """
    transport = dual_transport(comp, p, gid, did)
    rows = [[] for _ in range(rank(comp, did, p))]
    for j, row in enumerate(transport):
        for i, x in row:
            rows[i].append((j, x))
    return tuple(map(tuple, rows))


def dual_transport(comp, p, gid, did):
    """Sparse rows of the dual map SF^p(gamma) -> SF^p(delta) on value rows, for a subface gamma of delta."""
    if not comp.is_subface(gid, did):
        raise ValueError("not an incident pair")
    ((_, _, block),) = transports(comp, p, gid, ((did, 1),))
    return block


def transports(comp, p, fid, pairs):
    """(face, sign, transport rows) for each (face, sign) pair, in order, each block solved once per key.

    The faces of ``pairs`` all contain the face; nothing checks that
    they do.  Row j of a block carries the face's j-th dual basis value
    up: its (column, entry) pairs hold, at each basis element i of the
    coface, the j-th coordinate of that element's restriction to the
    face.  A boundary reads the same rows transposed.  The face's basis
    id is read once.
    """
    faces, blocks, transition_id = comp.faces, comp.sheaf_blocks, comp.fan.transition_id
    bid = basis_id(comp, fid, p)
    ids = comp.sheaf_ids[p]
    t = faces[fid][0]
    for other, sign in pairs:
        oid = ids[other]
        if oid is None:
            oid = basis_id(comp, other, p)
        t_other = faces[other][0]
        key = (oid, bid) if t_other == t else (oid, bid, transition_id(t_other, t, p))
        block = blocks.get(key)
        if block is None:
            block = blocks[key] = _solve_block(comp, p, key, fid, other)
        yield other, sign, block


def _solve_block(comp, p, key, gid, did):
    """The transport rows of the key's block: the columns of its restriction, solved against the lower basis."""
    mapped = comp.sheaf_bases[key[0]]
    if len(key) == 3:
        A = comp.fan._transitions[key[2]]
        width = exterior.dim(star_rank(comp, gid), p)
        mapped = [zlinalg.vecmat(row, A, width) for row in mapped]
    rows = [coords_in(comp, gid, p, v) for v in mapped]
    if None in rows:
        what = "is not integral over the target basis" if comp.sheaf_bases[key[1]] else "leaves the target lattice"
        raise AssertionError(f"restriction of SF_{p} from face {did} to face {gid} {what}")
    columns = zip(*rows) if rows else [()] * len(comp.sheaf_bases[key[1]])
    intern = comp.sheaf_pairs.setdefault
    return tuple(tuple(intern(ix, ix) for ix in enumerate(column) if ix[1]) for column in columns)


def extend_dual(comp, fid, p, values):
    """An extension of a dual element to all wedge monomials, scaled to integers: (D * g, D).

    Deterministic: g holds the coordinates with B g = values that are
    zero off the pivot columns of the basis B, as Gaussian elimination
    gives them with free coordinates pinned to zero, from the basis id's
    :func:`basis_solver`, and D is that solver's denominator.  Two
    extensions differ by a form vanishing on SF_p, which is invisible
    to every use below.
    """
    solver = basis_solver(comp, fid, p)
    if solver is None:
        return (0,) * exterior.dim(star_rank(comp, fid), p), 1
    if solver.rank != solver.rows:
        raise AssertionError(f"SF_{p} basis rows at face {fid} are linearly dependent")
    return solver.solve_scaled(values), solver.denominator


def exact_quotient(values, d, what):
    """The values divided by d, as ints; raises, naming ``what`` they are, unless every division is exact."""
    out = []
    for v in values:
        x, r = divmod(v, d)
        if r:
            raise AssertionError(f"{what} is not integral: {v}/{d}")
        out.append(x)
    return tuple(out)


def wedge_duals(comp, fid, p, a_ext, q, b_ext):
    """Wedge of dual elements of SF^p and SF^q, given as their :func:`extend_dual` pairs (D * g, D), in SF^(p+q).

    The scaled extensions are wedged in integers, and each value on the
    SF_(p+q) basis is divided once by D_a * D_b.  The division is exact:
    SF_(p+q) is spanned by wedges of p and q tangent vectors of one
    cone, and both extensions are integral on such wedges.
    """
    (a_hat, da), (b_hat, db) = a_ext, b_ext
    prod = exterior.wedge_coords(a_hat, p, b_hat, q, star_rank(comp, fid))
    values = [sum(f * x for f, x in zip(prod, row) if x) for row in basis(comp, fid, p + q)]
    return exact_quotient(values, da * db, f"the wedge of SF^{p} and SF^{q} values at face {fid}")
