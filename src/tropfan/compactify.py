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
Incidence is kept in one direction, from a face up to its cofaces: a
chain differential is the transpose of a cochain one, so the faces a
face covers are never listed.

The signs are read off the ray order.  For a cover of gamma by
delta = (tau, sigma), let r be the ray in which the two differ (the ray
gamma drops from sigma, or adds to tau) and k the number of rays of
sigma minus tau with index below r.  A same-sedentarity cover has sign
(-1)^k and a sedentarity drop -(-1)^k.  k is read off positions in
the sorted cones: if sigma adds r at position j, k is j minus the rays
of tau below r; if tau drops its i-th ray r, k is the rays of sigma
below r minus i.  Reason: the face multivector of
(tau, sigma) is a positive multiple of the wedge of the projected rays
of sigma minus tau in index order (``Fan.nu`` is signed so on the rays,
and the star projection is linear), and moving the projected r to its
place in that wedge takes k transpositions.  No determinant is taken:
the rays being independent, which keeps these wedges nonzero, is
checked where the stars are built.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left


class Compactification:
    """Face poset of the canonical compactification with oriented covers."""

    def __init__(self, fan):
        self.fan = fan
        index = fan._cone_index
        faces = [
            (index[tau], s)
            for s, sigma in enumerate(fan.cones)
            for k in range(len(sigma) + 1)
            for tau in itertools.combinations(sigma, k)
        ]
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
        self._by_sedentarity = [[] for _ in fan.cones]
        for fid, (t, _) in enumerate(faces):
            self._by_sedentarity[t].append(fid)
        self._cone_sets = tuple(frozenset(c) for c in fan.cones)
        self._cofaces = [None] * len(faces)
        # filled by tropfan.sheaf, which says how: the distinct coefficient-lattice bases, their
        # ids by value, basis ids by p and face, one solver per basis id for coordinates and
        # extensions alike, blocks by id, and the blocks' pairs
        self.sheaf_bases = []
        self.sheaf_interned = {}
        self.sheaf_ids = {}
        self.sheaf_solvers = {}
        self.sheaf_blocks = {}
        self.sheaf_pairs = {}
        # value dicts of the Chow generator cocycles by cone, rays included, filled by tropfan.chow;
        # by ray cone, the memo of homology.cup for cups against that ray's generator cocycle
        self.generator_cocycles = {}
        self.ray_cups = {}
        # by p: face id of (0, s) -> (position of s, coordinates of nu(s) over SF_p there) for
        # the p-cones s in index order, filled by tropfan.chow's cocycle_to_chow and cycle_class
        self.chow_coords = {}

    def dim(self, fid):
        return self.dims[fid]

    def faces_of_dim(self, q):
        """Face ids of dimension q, in index order."""
        return self._by_dim.get(q, [])

    def closed_stratum(self, tau):
        """Face ids of D_tau = {(t, s) : tau a face of t}, in index order.

        D_tau is the closure of the stratum at infinity in the direction
        of tau.  It is closed under taking faces, and it is the canonical
        compactification of the star of tau: (t, s) is the face
        (t / tau, s / tau) there, of the same dimension.
        """
        by_sed = self._by_sedentarity
        return sorted(fid for t in self.fan.cones_containing(tau) for fid in by_sed[t])

    def is_subface(self, gid, did):
        """Face order: (tg, sg) below (td, sd) iff td < tg < sg < sd in the fan."""
        tg, sg = self.faces[gid]
        td, sd = self.faces[did]
        sets = self._cone_sets
        return sets[td] <= sets[tg] <= sets[sg] <= sets[sd]

    def cofaces_of(self, gid):
        """List of (delta, sign) over the faces delta covering gamma, in increasing id, built on first read."""
        if self._cofaces[gid] is None:
            fan, index, (t, s) = self.fan, self.face_index, self.faces[gid]
            tau, sigma = fan.cones[t], fan.cones[s]
            # (-1)^k, k as above, where sigma gains the ray at position j of a cover c (the ray the
            # j-th facet of c drops), and -(-1)^k where tau loses its i-th ray r
            gains = [(c, fan.covers_of(c).index(s)) for c in fan.covered_by(s)]
            uppers = [(index[(t, c)], -1 if (j - bisect_left(tau, fan.cones[c][j])) % 2 else 1) for c, j in gains]
            drops = enumerate(zip(tau, fan.covers_of(t)))
            uppers += [(index[(f, s)], 1 if (bisect_left(sigma, r) - i) % 2 else -1) for i, (r, f) in drops]
            self._cofaces[gid] = sorted(uppers)
        return self._cofaces[gid]

    def face_sign(self, gid, did):
        """Incidence sign of a covering pair gamma below delta."""
        for d, sign in self.cofaces_of(gid):
            if d == did:
                return sign
        raise ValueError("not a covering pair")


def comp_faces(fan):
    """The indexed face complex of the canonical compactification."""
    return Compactification(fan)
