"""The face complex of the canonical compactification of a fan.

Faces are pairs (tau, sigma) of cones with tau a face of sigma; the
pair encodes the closure of the stratum of sigma sitting at infinity in
the direction of tau.  The face (tau, sigma) has dimension
|sigma| - |tau| and sedentarity tau.  No coordinates at infinity are
ever materialized: every geometric computation happens in the chosen
basis of the quotient lattice N^tau of the sedentarity.

Covering relations come in two kinds: same sedentarity
((tau, sigma') below (tau, sigma) for sigma' a facet of sigma) and
sedentarity drop ((tau, sigma) below (tau', sigma) for tau' a facet of
tau).  The incidence sign of a covering pair orients the cell complex.
"""

from __future__ import annotations

from . import exterior
from .zlinalg import Sublattice, vecmat


class Compactification:
    """Face poset of the canonical compactification with oriented covers."""

    def __init__(self, fan):
        self.fan = fan
        faces = []
        for s, sigma in enumerate(fan.cones):
            sset = set(sigma)
            for t, tau in enumerate(fan.cones):
                if set(tau) <= sset:
                    faces.append((t, s))
        faces.sort(key=lambda ts: (
            len(fan.cones[ts[1]]) - len(fan.cones[ts[0]]),
            fan.cones[ts[0]],
            fan.cones[ts[1]],
        ))
        self.faces = tuple(faces)
        self.face_index = {f: i for i, f in enumerate(faces)}
        self.dims = tuple(len(fan.cones[s]) - len(fan.cones[t]) for t, s in faces)
        self._by_dim = {}
        for fid, q in enumerate(self.dims):
            self._by_dim.setdefault(q, []).append(fid)
        self._covers = None
        self._cofaces = None
        self._sign_cache = {}
        self._tangent = {}
        # filled by tropfan.sheaf: coefficient-lattice bases by (face, p); their
        # integer and rational solvers by basis; restriction and dual
        # transport blocks by (p, gamma, delta), one object per distinct block
        self.sheaf_basis = {}
        self.sheaf_solver = {}
        self.sheaf_extension = {}
        self.sheaf_restriction = {}
        self.sheaf_dual = {}
        self.sheaf_blocks = {}
        # value dicts of the degree-one Chow cocycles by ray, filled by tropfan.chow
        self.ray_cocycles = {}

    def dim(self, fid):
        return self.dims[fid]

    def faces_of_dim(self, q):
        """Face ids of dimension q, in index order."""
        return self._by_dim.get(q, [])

    def is_subface(self, gid, did):
        """Face order: (tg, sg) below (td, sd) iff td < tg < sg < sd in the fan."""
        tg, sg = self.faces[gid]
        td, sd = self.faces[did]
        ctg, csg = set(self.fan.cones[tg]), set(self.fan.cones[sg])
        ctd, csd = set(self.fan.cones[td]), set(self.fan.cones[sd])
        return ctd <= ctg <= csg <= csd

    def covers_of(self, did):
        """List of (gamma, sign) over the faces gamma covered by delta."""
        if self._covers is None:
            self._build_covers()
        return self._covers[did]

    def cofaces_of(self, gid):
        """List of (delta, sign) over the faces delta covering gamma."""
        if self._covers is None:
            self._build_covers()
        return self._cofaces[gid]

    def all_cover_pairs(self):
        if self._covers is None:
            self._build_covers()
        for did, lst in enumerate(self._covers):
            for gid, sign in lst:
                yield gid, did, sign

    def _build_covers(self):
        fan = self.fan
        covers = [[] for _ in self.faces]
        for did, (t, s) in enumerate(self.faces):
            ct = fan.cones[t]
            cs = fan.cones[s]
            # same sedentarity: drop one ray of sigma outside tau
            for r in cs:
                if r not in ct:
                    sub = fan.cone_index(tuple(x for x in cs if x != r))
                    gid = self.face_index[(t, sub)]
                    covers[did].append((gid, self.face_sign(gid, did)))
            # sedentarity raise on the subface: tau grows inside sigma
            for r in cs:
                if r not in ct:
                    sup = fan.cone_index(tuple(sorted(ct + (r,))))
                    gid = self.face_index[(sup, s)]
                    covers[did].append((gid, self.face_sign(gid, did)))
        cofaces = [[] for _ in self.faces]
        for did, lst in enumerate(covers):
            for gid, sign in lst:
                cofaces[gid].append((did, sign))
        self._covers = covers
        self._cofaces = cofaces

    def face_sign(self, gid, did):
        """Incidence sign of a covering pair gamma below delta."""
        key = (gid, did)
        if key in self._sign_cache:
            return self._sign_cache[key]
        tg, sg = self.faces[gid]
        td, sd = self.faces[did]
        if self.dim(gid) + 1 != self.dim(did) or not self.is_subface(gid, did):
            raise ValueError("not a covering pair")
        if tg == td:
            sign = self._sign_same_sedentarity(tg, sg, sd)
        elif sg == sd:
            sign = self._sign_sedentarity_drop(td, tg, sg)
        else:
            raise ValueError("not a covering pair")
        self._sign_cache[key] = sign
        return sign

    def _sign_same_sedentarity(self, t, s_small, s_big):
        # modulo the tangent lattice of (t, s_small), which the wedge with
        # its multivector kills, the projected extra ray of s_big is a
        # positive multiple of the normal generator
        fan = self.fan
        star = fan.star(t)
        extra = next(i for i in fan.cones[s_big] if i not in fan.cones[s_small])
        normal = vecmat(fan.rays[extra], star.proj)
        k = len(fan.cones[s_small]) - len(fan.cones[t])
        w = exterior.wedge_coords(normal, 1, fan.nu_face(t, s_small), k, star.quotient_rank)
        return _sign(fan, fan.varpi_face(t, s_big, w), (t, s_small), (t, s_big))

    def _sign_sedentarity_drop(self, t_small, t_big, s):
        # gamma = (t_big, s) is covered by delta = (t_small, s), t_small below t_big.
        # The face multivector of (t_small, t_small + (s - t_big)) projects
        # onto that of gamma; any two lifts differ by a multivector
        # divisible by e_cls, which the wedge with e_cls kills.
        fan = self.fan
        _, e_cls = fan.unit_normal(t_small, t_big)
        k = len(fan.cones[s]) - len(fan.cones[t_big])
        rest = fan.cone_index(fan.cones[t_small] + tuple(i for i in fan.cones[s] if i not in fan.cones[t_big]))
        lift = fan.nu_face(t_small, rest)
        w = exterior.wedge_coords(e_cls, 1, lift, k, fan.star(t_small).quotient_rank)
        return -_sign(fan, fan.varpi_face(t_small, s, w), (t_big, s), (t_small, s))

    def tangent_lattice(self, fid):
        """Basis of the face tangent lattice in star(sedentarity) coordinates."""
        if fid not in self._tangent:
            t, s = self.faces[fid]
            star = self.fan.star(t)
            rows = [vecmat(r, star.proj) for r in self.fan.cone_lattice(s).basis.row_tuples()]
            self._tangent[fid] = Sublattice.from_rows(rows, star.quotient_rank)
        return self._tangent[fid]


def _sign(fan, c, gamma, delta):
    """Sign of an orientation coefficient of gamma in delta, both (tau, sigma) cone-index pairs."""
    if c == 0:
        names = [tuple(fan.cones[i] for i in face) for face in (gamma, delta)]
        raise AssertionError(f"degenerate incidence of face {names[0]} in face {names[1]}")
    return 1 if c > 0 else -1


def comp_faces(fan):
    """The indexed face complex of the canonical compactification."""
    return Compactification(fan)
