"""Multi-tangent coefficient lattices SF_p and their maps.

For a face (tau, sigma) of the compactification, the degree-p
coefficient lattice is the sublattice of the p-th exterior power of
N^tau spanned by the p-th exterior powers of the tangent lattices of
the cones containing sigma with the same sedentarity.  Bases are kept
in HNF over the fixed wedge-monomial ordering of the star basis of
N^tau, so every map in this module is an explicit integer matrix.

Bases are built from the top of the face poset down.  When sigma is
maximal the generators are the p-fold wedges of the face's tangent
basis; otherwise SF_p(tau, sigma) is the sum of SF_p(tau, sigma') over
the cones sigma' covering sigma, since every maximal cone above sigma
lies above one of them.  A lattice has one reduced HNF basis, so the
HNF of the concatenated bases above is the HNF of all the wedges, and
each wedge is taken once per maximal face.

SF^p, the dual, is represented by value vectors on the HNF basis of
SF_p; it is never materialized as a sublattice of an ambient dual
space.  Restrictions along face inclusions, their dual transports, and
contraction maps all reduce to exact integer solves against these
bases.
"""

from __future__ import annotations

import itertools

from . import exterior, zlinalg
from .zlinalg import IntMatrix


def star_rank(comp, fid):
    t, _ = comp.faces[fid]
    return comp.fan.star(t).quotient_rank


def basis(comp, fid, p):
    """HNF basis rows of SF_p at the face, in /\\^p star coordinates."""
    cache = comp.sheaf_basis
    key = (fid, p)
    if key in cache:
        return cache[key]
    fan = comp.fan
    t, s = comp.faces[fid]
    m = fan.star(t).quotient_rank
    if p == 0:
        rows = ((1,),)
    elif p < 0 or p > m:
        rows = ()
    else:
        above = fan.covered_by(s)
        if above:
            gens = [row for eta in above for row in basis(comp, comp.face_index[(t, eta)], p)]
        else:
            tangent = comp.tangent_lattice(fid).basis.row_tuples()
            gens = [exterior.wedge_rows(list(subset), m) for subset in itertools.combinations(tangent, p)]
        # the generators are int rows computed here: no re-coercion on the way in
        H = zlinalg.hnf(IntMatrix._trusted_rows(gens, exterior.dim(m, p)))
        rows = tuple(r for r in H.row_tuples() if any(r))
    cache[key] = rows
    return rows


def rank(comp, fid, p):
    return len(basis(comp, fid, p))


def basis_solver(comp, fid, p):
    """The :class:`~tropfan.zlinalg.RowSolver` over the SF_p basis, or None if it is empty.

    One solver per distinct basis: faces with equal bases share it.
    """
    b = basis(comp, fid, p)
    if not b:
        return None
    cache = comp.sheaf_solver
    if b not in cache:
        cache[b] = zlinalg.RowSolver(IntMatrix._trusted_rows(b, len(b[0])))
    return cache[b]


def coords_in(comp, fid, p, vec):
    """Integer coordinates of a multivector over the SF_p basis, or None."""
    s = basis_solver(comp, fid, p)
    if s is None:
        return None if any(vec) else ()
    return s.solve(vec)


def restriction(comp, p, gid, did):
    """Matrix of i: SF_p(delta) -> SF_p(gamma) for a subface gamma of delta.

    Same-sedentarity inclusions embed, sedentarity drops project; the
    general case composes both.  Rows are indexed by the basis of
    SF_p(delta), entries are coordinates over the basis of SF_p(gamma).
    The block depends only on the two bases, plus the transition
    (t_delta, t_gamma, p) for a sedentarity drop, so it is solved once
    per distinct such content.
    """
    cache = comp.sheaf_restriction
    key = (p, gid, did)
    if key in cache:
        return cache[key]
    if not comp.is_subface(gid, did):
        raise ValueError("not an incident pair")
    tg, _ = comp.faces[gid]
    td, _ = comp.faces[did]
    content = (basis(comp, did, p), basis(comp, gid, p))
    if td != tg:
        content += (td, tg, p)
    blocks = comp.sheaf_blocks
    M = blocks.get(content)
    if M is None:
        M = blocks[content] = _solve_restriction(comp, p, gid, did)
    cache[key] = M
    return M


def _solve_restriction(comp, p, gid, did):
    fan = comp.fan
    tg, _ = comp.faces[gid]
    td, _ = comp.faces[did]
    b_delta = basis(comp, did, p)
    if td == tg:
        mapped = b_delta
    else:
        A = fan.transition_wedge(td, tg, p)
        width = exterior.dim(fan.star(tg).quotient_rank, p)
        mapped = [zlinalg.vecmat(row, A, width) for row in b_delta]
    target = basis_solver(comp, gid, p)
    rows = []
    for v in mapped:
        if target is None:
            if any(v):
                raise AssertionError(f"restriction of SF_{p} from face {did} to face {gid} leaves the target lattice")
            rows.append(())
            continue
        c = target.solve(v)
        if c is None:
            raise AssertionError(
                f"restriction of SF_{p} from face {did} to face {gid} is not integral over the target basis"
            )
        rows.append(c)
    return IntMatrix._trusted_rows(rows, rank(comp, gid, p))


def dual_transport(comp, p, gid, did):
    """Matrix of the dual map SF^p(gamma) -> SF^p(delta) acting on value rows.

    The transpose of :func:`restriction`, taken once per distinct block.
    """
    cache = comp.sheaf_dual
    key = (p, gid, did)
    if key not in cache:
        R = restriction(comp, p, gid, did)
        duals = comp.sheaf_dual_blocks
        T = duals.get(R)
        if T is None:
            T = duals[R] = R.transpose()
        cache[key] = T
    return cache[key]


def extend_dual(comp, fid, p, values):
    """A rational extension of a dual element to all wedge monomials.

    Deterministic: the coordinates g with B g = values that Gaussian
    elimination on the basis B gives with free coordinates pinned to
    zero, from one :class:`~tropfan.zlinalg.FracSolver` per distinct
    basis.  Two extensions differ by a form vanishing on SF_p, which
    is invisible to every use below.
    """
    b = basis(comp, fid, p)
    width = exterior.dim(star_rank(comp, fid), p)
    key = (b, width)
    if key not in comp.sheaf_extension:
        solver = zlinalg.FracSolver(b, width)
        if solver.rank != len(b):
            raise AssertionError(f"SF_{p} basis rows at face {fid} are linearly dependent")
        comp.sheaf_extension[key] = solver
    return comp.sheaf_extension[key].solve(values)


def contract(comp, fid, p, alpha_values, nu_coords, k):
    """Contraction of alpha in SF^p by a k-multivector: values on SF_(p-k).

    ``nu_coords`` is a multivector in /\\^k of the star coordinates; for
    the well-definedness guaranteed by the coefficient lattices it
    should lie in the exterior power of the face tangent lattice (all
    callers in this package satisfy that).
    """
    if k > p:
        raise ValueError("contraction degree exceeds the form degree")
    alpha_hat = extend_dual(comp, fid, p, alpha_values)
    m = star_rank(comp, fid)
    out = []
    for row in basis(comp, fid, p - k):
        w = exterior.wedge_coords(nu_coords, k, row, p - k, m)
        out.append(sum(a * x for a, x in zip(alpha_hat, w)))
    return tuple(out)


def wedge_duals(comp, fid, p, a_values, q, b_values):
    """Wedge of dual elements of SF^p and SF^q as a dual element of SF^(p+q)."""
    m = star_rank(comp, fid)
    a_hat = extend_dual(comp, fid, p, a_values)
    b_hat = extend_dual(comp, fid, q, b_values)
    prod = exterior.wedge_forms(a_hat, p, b_hat, q, m)
    out = []
    for row in basis(comp, fid, p + q):
        out.append(sum(f * x for f, x in zip(prod, row)))
    return tuple(out)
