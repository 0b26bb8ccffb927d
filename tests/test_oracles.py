import math

import numpy as np
import pytest

from tropwfst import (NegativeCycleError, parse_text, push_weights,
                      remove_epsilons)
from tropwfst.oracles import (bellman_ford_shortest_from,
                              bellman_ford_to_final, enumerate_paths,
                              floyd_warshall, scalar_viterbi)

from generators import (path_multiset, random_acyclic_machine, random_edges,
                        split_epsilons)

INF = math.inf


class TestBellmanFordToFinal:
    def test_fig1(self, fig1):
        assert bellman_ford_to_final(fig1) == [5, 42, 3, 0, 0]

    def test_no_arcs(self):
        m = parse_text("I 0 0\nF 0 7\n")
        assert bellman_ford_to_final(m) == [7.0]

    def test_chain(self):
        m = parse_text("I 0 0\n0 1 a A 1\n1 2 b B 2\nF 2 0\n")
        assert bellman_ford_to_final(m) == [3, 2, 0]

    def test_negative_cycle_that_reaches_a_final_state(self):
        m = parse_text("I 0 0\n0 1 a A 1\n1 0 b B -2\nF 1 0\n")
        with pytest.raises(NegativeCycleError):
            bellman_ford_to_final(m)


class TestShortestPathOracles:
    def test_floyd_warshall_negative_cycle(self):
        with pytest.raises(NegativeCycleError):
            floyd_warshall(2, [(0, 1, 1.0), (1, 0, -2.0)])

    def test_bellman_ford_negative_cycle_from_the_source(self):
        edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 1, -2.0)]
        with pytest.raises(NegativeCycleError):
            bellman_ford_shortest_from(3, edges, 0)

    def test_two_oracles_agree(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 9))
            edges = random_edges(rng, n, negative=bool(seed % 2))
            fw = floyd_warshall(n, edges)
            for src in range(n):
                assert bellman_ford_shortest_from(n, edges, src) == fw[src]


class TestEnumeratePaths:
    def test_fig1(self, fig1):
        paths = enumerate_paths(fig1, 2)
        assert len(paths) == 2
        by_cost = {p.total_cost: p for p in paths}
        assert set(by_cost) == {43.0, 5.0}
        a, z = fig1.isyms.index("a"), fig1.isyms.index("z")
        assert by_cost[43.0].ilabels == (a, z)
        assert by_cost[43.0].states == (0, 1, 3)

    def test_single_state(self):
        m = parse_text("I 0 2\nF 0 3\n")
        paths = enumerate_paths(m, 4)
        assert len(paths) == 1
        assert paths[0].total_cost == 5.0
        assert paths[0].ilabels == ()

    def test_no_final(self):
        m = parse_text("I 0 0\n0 1 a A 1\nF 1 0\n")
        m.rho[:] = INF
        assert enumerate_paths(m, 3) == []

    @pytest.mark.parametrize("seed", range(15))
    def test_transform_multisets(self, seed):
        rng = np.random.default_rng(seed)
        m = split_epsilons(rng, random_acyclic_machine(rng),
                           int(rng.integers(1, 4)))
        base = path_multiset(m)
        assert path_multiset(push_weights(m)) == base
        assert path_multiset(remove_epsilons(m)) == base


class TestScalarViterbi:
    def test_all_probability_one(self):
        m = parse_text("I 0 0\n0 1 a A 0\nF 1 0\n")
        from tropwfst import ObservationModel
        obs = ObservationModel(2, {"u": np.zeros(2)})
        prob, path = scalar_viterbi(m, obs, ["u", "u"])
        assert prob == 1.0
        assert path == [0, 1]

    def test_unit_cost_chain(self):
        m = parse_text("I 0 0\n0 1 a A 1\nF 1 0\n")
        from tropwfst import ObservationModel
        obs = ObservationModel(2, {"u": np.zeros(2)})
        prob, _ = scalar_viterbi(m, obs, ["u", "u"])
        assert abs(prob - math.exp(-1)) <= 1e-15

    def test_empty_sequence_gives_the_cheapest_accepting_state(self):
        m = parse_text("I 0 0\nI 1 1\nI 2 0\n0 1 a A 1\nF 0 3\nF 1 0\n")
        from tropwfst import ObservationModel, viterbi_decode
        obs = ObservationModel(3, {"u": np.zeros(3)})
        prob, path = scalar_viterbi(m, obs, [])
        assert (prob, path) == (math.exp(-1), [1])
        assert viterbi_decode(m, obs, []) == (1.0, [1])

    def test_unknown_symbol(self):
        m = parse_text("I 0 0\n0 1 a A 1\nF 1 0\n")
        from tropwfst import ObservationModel, UnknownSymbolError
        obs = ObservationModel(2, {"u": np.zeros(2)})
        for seq in (["zzz"], ["u", "zzz"]):
            with pytest.raises(UnknownSymbolError, match="zzz"):
                scalar_viterbi(m, obs, seq)
