import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropfan.chow import chow_group
from tropfan.fan import is_balanced, is_saturated, is_unimodular, validate
from tropfan.matroid import Matroid, bergman_fan
from tropfan.zlinalg import AbGroup


def _fy_hilbert(matroid):
    """Ranks of the Chow ring A(M) by degree, from the Feichtner-Yuzvinsky basis.

    The basis monomials are x_{F1}^{a1} ... x_{Fk}^{ak} over chains
    cl(empty) < F1 < ... < Fk of flats, Fk = E allowed, with
    1 <= a_i < rk F_i - rk F_{i-1} (Feichtner-Yuzvinsky, Invent. Math.
    155, 2004).  Reads only the lattice of flats.
    """
    flats = matroid.flats()
    ranked = [(r, frozenset(f)) for r, fs in flats.items() if r for f in fs]
    counts = [0] * matroid.rank()

    def extend(prev_rank, prev, degree):
        counts[degree] += 1
        for r, f in ranked:
            if prev < f:
                for a in range(1, r - prev_rank):
                    extend(r, f, degree + a)

    extend(0, frozenset(flats[0][0]), 0)
    return counts


class TestMatroid:
    def test_uniform_flats(self):
        m = Matroid.uniform(3, 2)
        flats = m.flats()
        assert flats[0] == [()]
        assert flats[1] == [(0,), (1,), (2,)]
        assert flats[2] == [(0, 1, 2)]

    def test_u11_flats(self):
        flats = Matroid.uniform(1, 1).flats()
        assert flats == {0: [()], 1: [(0,)]}

    def test_triangle_graphic_is_u23(self):
        tri = Matroid.graphic(3, [(0, 1), (1, 2), (0, 2)])
        assert tri.bases == Matroid.uniform(3, 2).bases

    def test_exchange_rejected(self):
        # {0,1} and {2,3} with nothing else fails basis exchange
        with pytest.raises(ValueError):
            Matroid(4, [frozenset({0, 1}), frozenset({2, 3})])

    def test_rank_function(self):
        m = Matroid.uniform(4, 2)
        assert m.rank({0}) == 1
        assert m.rank({0, 1, 2}) == 2

    @given(st.integers(1, 5), st.data())
    @settings(max_examples=20, deadline=None)
    def test_uniform_flat_counts(self, n, data):
        r = data.draw(st.integers(1, n))
        m = Matroid.uniform(n, r)
        flats = m.flats()
        for k in range(r):
            assert len(flats.get(k, [])) == _binom(n, k)
        assert flats[r] == [tuple(range(n))]


def _binom(n, k):
    import math

    return math.comb(n, k)


class TestBergman:
    def test_u23_is_tropical_line(self, u23):
        fan, weights = bergman_fan(Matroid.uniform(3, 2))
        assert fan.rays == ((1, 0), (0, 1), (-1, -1))
        assert sorted(fan.cones[i] for i in fan.maximal) == [(0,), (1,), (2,)]
        assert fan.rays == u23.rays

    def test_u11_trivial(self):
        fan, weights = bergman_fan(Matroid.uniform(1, 1))
        assert fan.rank == 0
        assert fan.cones == ((),)
        assert weights[()] == 1

    def test_k4_counts(self, k4_pair):
        fan, _ = k4_pair
        assert len(fan.rays) == 13
        assert len(fan.maximal) == 18
        assert fan.dim == 2
        assert fan.rank == 5

    def test_loops_rejected(self):
        # a loop: element 2 in no basis
        m = Matroid(3, [frozenset({0, 1})])
        with pytest.raises(ValueError):
            bergman_fan(m)

    @pytest.mark.parametrize("name", ["u23", "u24", "k4"])
    def test_bergman_is_unimodular_saturated_balanced(self, name, request, u23):
        if name == "u23":
            fan, weights = bergman_fan(Matroid.uniform(3, 2))
        elif name == "u24":
            fan, weights = request.getfixturevalue("u24_pair")
        else:
            fan, weights = request.getfixturevalue("k4_pair")
        assert validate(fan).ok
        assert is_unimodular(fan)[1]
        assert is_saturated(fan)
        assert is_balanced(fan, weights)

    def test_facets_are_maximal_chains(self, k4_pair):
        fan, _ = k4_pair
        # pure of dimension rank - 1 and facets match chains of proper flats
        assert fan.is_pure()
        assert all(len(fan.cones[i]) == 2 for i in fan.maximal)


class TestFeichtnerYuzvinsky:
    K4 = Matroid.graphic(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])

    @staticmethod
    def _check(matroid):
        fan, _ = bergman_fan(matroid)
        want = [AbGroup(c) for c in _fy_hilbert(matroid)]
        assert [chow_group(fan, k).group for k in range(fan.dim + 1)] == want

    @pytest.mark.parametrize("n, r", [(n, r) for n in range(1, 7) for r in range(1, min(n, 5) + 1)])
    def test_uniform_chow_groups_free_of_the_monomial_ranks(self, n, r):
        self._check(Matroid.uniform(n, r))

    def test_k4_chow_groups_free_of_the_monomial_ranks(self):
        self._check(self.K4)

    def test_known_hilbert_functions(self):
        assert _fy_hilbert(self.K4) == [1, 8, 1]
        assert _fy_hilbert(Matroid.uniform(5, 5)) == [1, 26, 66, 26, 1]
        assert _fy_hilbert(Matroid.uniform(6, 5)) == [1, 51, 161, 51, 1]
