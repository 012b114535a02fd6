"""Matroids and their Bergman fans.

Matroids are given by an explicit list of bases (with the exchange
axiom checked on load) or constructed as uniform or graphic matroids.
The Bergman fan lives in the quotient of Z^n by the all-ones vector,
coordinatized by dropping the last ground element: e_i maps to the
i-th standard basis vector for i < n-1 and e_{n-1} maps to minus the
sum of the others.  Rays are e_F = sum of e_i over a proper nonempty
flat F, and cones are chains of proper flats.
"""

from __future__ import annotations

import itertools

from .fan import Fan, TropicalWeights


class Matroid:
    """A matroid on ground set {0, ..., n-1} given by its bases."""

    def __init__(self, n, bases):
        self.n = n
        self.bases = frozenset(frozenset(b) for b in bases)
        if not self.bases:
            raise ValueError("a matroid has at least one basis")
        sizes = {len(b) for b in self.bases}
        if len(sizes) != 1:
            raise ValueError("all bases must have the same cardinality")
        (self.rank_value,) = sizes
        self._rank_cache = {}
        for b in self.bases:
            if any(e < 0 or e >= n for e in b):
                raise ValueError("basis element out of range")
        self._check_exchange()

    def _check_exchange(self):
        for a, b in itertools.product(self.bases, repeat=2):
            for x in a - b:
                if not any((a - {x}) | {y} in self.bases for y in b - a):
                    raise ValueError(f"basis exchange fails for {sorted(a)}, {sorted(b)} at {x}")

    @classmethod
    def uniform(cls, n, r):
        if not 0 <= r <= n:
            raise ValueError("need 0 <= r <= n")
        return cls(n, [frozenset(c) for c in itertools.combinations(range(n), r)])

    @classmethod
    def graphic(cls, vertices, edges):
        """Cycle matroid of a graph; ground set indexes the edge list."""
        n = len(edges)
        for u, v in edges:
            if not (0 <= u < vertices and 0 <= v < vertices):
                raise ValueError("edge endpoint out of range")
        spanning = []
        comp_count = _components(vertices, edges, range(n))
        tree_size = vertices - comp_count
        for subset in itertools.combinations(range(n), tree_size):
            # V - c edges leaving c components form a spanning forest: they cannot close a cycle
            if _components(vertices, edges, subset) == comp_count:
                spanning.append(frozenset(subset))
        return cls(n, spanning)

    def rank(self, subset=None):
        if subset is None:
            return self.rank_value
        return self._rk(frozenset(subset))

    def _rk(self, s):
        cache = self._rank_cache
        if s not in cache:
            cache[s] = max(len(s & b) for b in self.bases)
        return cache[s]

    def closure(self, subset):
        s = frozenset(subset)
        r = self._rk(s)
        return frozenset(e for e in range(self.n) if e in s or self._rk(s | {e}) == r)

    def loops(self):
        return self.closure(frozenset())

    def flats(self):
        """All flats grouped by rank, each flat a sorted tuple."""
        found = {self.closure(frozenset())}
        frontier = set(found)
        while frontier:
            new = set()
            for f in frontier:
                for e in range(self.n):
                    if e not in f:
                        g = self.closure(f | {e})
                        if g not in found:
                            new.add(g)
            found |= new
            frontier = new
        by_rank = {}
        for f in found:
            by_rank.setdefault(self._rk(f), []).append(tuple(sorted(f)))
        for v in by_rank.values():
            v.sort()
        return by_rank


def _components(vertices, edges, subset):
    parent = list(range(vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in subset:
        u, v = edges[i]
        parent[find(u)] = find(v)
    return len({find(v) for v in range(vertices)})


def bergman_fan(matroid, name=""):
    """The Bergman fan of a loopless matroid with its unit weights.

    Rays correspond to proper nonempty flats, cones to chains of such
    flats; the fan is pure of dimension rank - 1 and carries the weight
    one on every facet.  On the empty ground set it is the origin in
    Z^0, which Z^0 modulo the all-ones vector is.
    """
    if matroid.loops():
        raise ValueError("matroid has loops")
    n = matroid.n
    ambient = max(n - 1, 0)
    flats_by_rank = matroid.flats()
    proper = []
    for r in sorted(flats_by_rank):
        if r == 0 or r == matroid.rank_value:
            continue
        proper.extend(flats_by_rank[r])
    proper.sort()

    def coords(flat):
        v = [0] * ambient
        for e in flat:
            if e < ambient:
                v[e] += 1
            else:
                for j in range(ambient):
                    v[j] -= 1
        return tuple(v)

    rays = [coords(f) for f in proper]
    flat_index = {f: i for i, f in enumerate(proper)}
    flat_sets = [frozenset(f) for f in proper]

    maximal = []
    d = matroid.rank_value - 1
    if d <= 0:
        fan = Fan(ambient, rays, [()], {0}, name=name)
        return fan, TropicalWeights.unit(fan)
    for chain in _chains(flat_sets, d):
        maximal.append(tuple(sorted(flat_index[tuple(sorted(f))] for f in chain)))
    fan = Fan.from_max_cones(ambient, rays, maximal, name=name)
    weights = TropicalWeights.unit(fan)
    return fan, weights


def _chains(flat_sets, length):
    """Maximal chains of proper flats of the given length."""
    out = []

    def extend(chain, candidates):
        if len(chain) == length:
            out.append(list(chain))
            return
        for i in candidates:
            f = flat_sets[i]
            if not chain or chain[-1] < f:
                chain.append(f)
                extend(chain, [j for j in candidates if flat_sets[j] > f])
                chain.pop()

    extend([], list(range(len(flat_sets))))
    return out
