import math
import tracemalloc

import numpy as np
import pytest

from tropwfst import (Arc, NegativeCycleError, SymbolTable,
                      UnreachableFinalError, Wfst, build_matrices,
                      compute_potentials, gamma, is_pushed, parse_text,
                      push_weights, remove_epsilons, serialize_text, trim)
from tropwfst.oracles import bellman_ford_to_final
from tropwfst.wfst import _is_epsilon

from generators import (arc_list, path_multiset, random_acyclic_machine,
                        same_paths, split_epsilons)

INF = math.inf


class TestComputePotentials:
    def test_fig1(self, fig1):
        p = compute_potentials(fig1)
        assert np.array_equal(p.v, [5, 42, 3, 0, 0])

    def test_no_arcs(self):
        m = parse_text("I 0 0\nF 0 3\n")
        assert np.array_equal(compute_potentials(m).v, m.rho)
        assert compute_potentials(m).iterations_to_fixpoint == 0

    def test_chain(self):
        m = parse_text("I 0 0\n0 1 a A 1\n1 2 b B 2\nF 2 0\n")
        assert np.array_equal(compute_potentials(m).v, [3, 2, 0])

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_bellman_ford(self, seed):
        rng = np.random.default_rng(seed)
        m = split_epsilons(rng, random_acyclic_machine(rng),
                           int(rng.integers(0, 4)))
        assert np.array_equal(compute_potentials(m).v,
                              bellman_ford_to_final(m))

    def test_negative_cycle(self):
        m = Wfst(2, [Arc(0, 1, 1, 1, -2.0), Arc(1, 0, 1, 1, 1.0)],
                 np.array([0.0, INF]), np.array([INF, 0.0]),
                 SymbolTable(["a"]), SymbolTable(["a"]))
        with pytest.raises(NegativeCycleError):
            compute_potentials(m)

    def test_dead_negative_cycle_gets_infinite_potential(self):
        # the cycle 2 <-> 3 costs -1 but no final state is reachable from it
        m = parse_text("I 0 0\n0 1 a a 1\n0 2 b b 1\n2 3 c c -2\n"
                       "3 2 c c 1\nF 1 0\n")
        v = compute_potentials(m).v
        assert np.array_equal(v, [1, 0, INF, INF])
        assert np.array_equal(v, bellman_ford_to_final(m))
        out = push_weights(m)  # states 2 and 3 are dropped
        assert {(a.src, a.dst) for a in arc_list(out)} == {(0, 1)}
        assert np.array_equal(compute_potentials(out).v, [0, 0])

    def test_fixpoint_iteration_agrees(self, fig1):
        # one-step relaxation from rho converges to the closed form
        a = build_matrices(fig1).A
        v = fig1.rho.copy()
        for _ in range(fig1.n_states):
            v = np.minimum(v, np.min(a + v[None, :], axis=1))
        assert np.array_equal(v, compute_potentials(fig1).v)


class TestPushWeights:
    def test_fig1(self, fig1):
        out = push_weights(fig1)
        weights = {(a.src, a.dst): a.weight for a in arc_list(out)}
        assert weights == {(0, 1): 38, (0, 2): 0, (1, 3): 0, (2, 4): 0}
        assert out.lam[0] == 5
        assert out.rho[3] == 0 and out.rho[4] == 0

    def test_already_pushed_fixed_point(self, fig1):
        once = push_weights(fig1)
        twice = push_weights(once)
        assert serialize_text(twice) == serialize_text(once)

    def test_unreachable_final_error(self):
        # state 0 is initial but cut off from the final state
        m = Wfst(2, [], np.array([0.0, 0.0]), np.array([INF, 0.0]),
                 SymbolTable(["a"]), SymbolTable(["a"]))
        with pytest.raises(UnreachableFinalError):
            push_weights(m)

    def test_drops_dead_arcs(self):
        # arc 1->2 leads nowhere once state 2 cannot terminate
        m = parse_text("I 0 0\n0 1 a A 1\n1 2 b B 5\nF 1 0\n")
        out = push_weights(m)
        assert {(a.src, a.dst) for a in arc_list(out)} == {(0, 1)}

    @pytest.mark.parametrize("seed", range(40))
    def test_path_multiset_preserved(self, seed):
        rng = np.random.default_rng(2000 + seed)
        m = random_acyclic_machine(rng)
        out = push_weights(m)
        assert path_multiset(out) == path_multiset(m)

    @pytest.mark.parametrize("seed", range(40))
    def test_path_multiset_preserved_float_weights(self, seed):
        rng = np.random.default_rng(2000 + seed)
        m = random_acyclic_machine(rng, float_weights=True)
        assert same_paths(path_multiset(push_weights(m)), path_multiset(m))

    @pytest.mark.parametrize("seed", range(20))
    def test_normalization_invariant(self, seed):
        rng = np.random.default_rng(3000 + seed)
        m = random_acyclic_machine(rng)
        out = push_weights(m)
        v = compute_potentials(m).v
        a = build_matrices(out).A
        for i in range(out.n_states):
            if math.isfinite(v[i]):
                assert min(float(np.min(a[i])), float(out.rho[i])) == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_pushed_potentials_vanish(self, seed):
        rng = np.random.default_rng(4000 + seed)
        m = random_acyclic_machine(rng)
        v0 = compute_potentials(m).v
        v1 = compute_potentials(push_weights(m)).v
        assert np.array_equal(v1[np.isfinite(v0)], 0.0 * v1[np.isfinite(v0)])

    @pytest.mark.parametrize("seed", range(10))
    def test_ranking_preserved(self, seed):
        rng = np.random.default_rng(5000 + seed)
        m = random_acyclic_machine(rng)
        out = push_weights(m)
        before = sorted(path_multiset(m).elements())
        after = sorted(path_multiset(out).elements())
        assert before == after


class TestEpsilonRemoval:
    def test_closure_fig2(self, fig2):
        c = gamma(build_matrices(fig2).E)
        assert c[0, 1] == 1.0
        assert np.isinf(np.delete(c.ravel(), 1)).all()

    def test_closure_chain(self):
        m = parse_text(
            "I 0 0\n0 1 <eps> <eps> 1\n1 2 <eps> <eps> 2\n2 3 a A 1\nF 3 0\n")
        c = gamma(build_matrices(m).E)
        assert c[0, 2] == 3.0

    def test_closure_empty(self, fig1):
        assert np.isinf(gamma(build_matrices(fig1).E)).all()

    def test_fig2(self, fig2):
        out = remove_epsilons(fig2)
        assert not _is_epsilon(out.arcs).any()
        arcs = {(a.src, a.dst): a for a in arc_list(out)}
        assert arcs[(0, 2)].weight == 3.0
        assert out.isyms.sym_of(arcs[(0, 2)].ilabel) == "a"
        assert out.osyms.sym_of(arcs[(0, 2)].olabel) == "a-out"
        assert arcs[(1, 2)].weight == 2.0

    def test_no_eps_is_identity(self, fig1):
        assert serialize_text(remove_epsilons(fig1)) == serialize_text(fig1)

    def test_idempotent(self, fig2):
        once = remove_epsilons(fig2)
        assert serialize_text(remove_epsilons(once)) == serialize_text(once)

    def test_eps_into_final_updates_rho(self):
        m = parse_text("I 0 0\n0 1 <eps> <eps> 2\nF 1 1\n")
        out = remove_epsilons(m)
        assert out.rho[0] == 3.0
        assert len(out.arcs) == 0

    def test_label_tie_break(self):
        # two equal-cost closures into state 3; the smaller label-id pair
        # wins, and ids follow first appearance ('b' is id 1 here)
        text = ("I 0 0\n"
                "0 1 <eps> <eps> 1\n"
                "0 2 <eps> <eps> 1\n"
                "1 3 b B 2\n"
                "2 3 a A 2\n"
                "F 3 0\n")
        out = remove_epsilons(parse_text(text))
        arcs = {(a.src, a.dst): a for a in arc_list(out)}
        assert arcs[(0, 3)].weight == 3.0
        assert arcs[(0, 3)].ilabel == 1
        assert out.isyms.sym_of(arcs[(0, 3)].ilabel) == "b"

    @pytest.mark.parametrize("seed", range(40))
    def test_path_multiset_preserved(self, seed):
        rng = np.random.default_rng(6000 + seed)
        m = split_epsilons(rng, random_acyclic_machine(rng),
                           int(rng.integers(1, 5)))
        out = remove_epsilons(m)
        assert not _is_epsilon(out.arcs).any()
        assert path_multiset(out) == path_multiset(m)

    @pytest.mark.parametrize("seed", range(40))
    def test_path_multiset_preserved_float_weights(self, seed):
        rng = np.random.default_rng(6000 + seed)
        m = split_epsilons(rng, random_acyclic_machine(rng, float_weights=True),
                           int(rng.integers(1, 5)))
        out = remove_epsilons(m)
        assert not _is_epsilon(out.arcs).any()
        assert same_paths(path_multiset(out), path_multiset(m))

    @pytest.mark.xfail(strict=True, reason="one arc per state pair: the "
                       "label-preserving join of ROADMAP item 6 keeps both")
    def test_closures_into_one_state_pair_keep_both_paths(self):
        m = parse_text("I 0 0\n0 1 <eps> <eps> 0\n0 2 <eps> <eps> 0\n"
                       "1 3 a a 1\n2 3 b b 1\nF 3 0\n")
        assert sum(path_multiset(m).values()) == 2
        assert path_multiset(trim(remove_epsilons(m))) == path_multiset(m)


class TestTrim:
    def test_drops_disconnected(self):
        m = parse_text("I 0 0\n0 1 a A 1\n0 2 b B 1\nF 1 0\n")
        out = trim(m)
        assert out.n_states == 2
        assert {(a.src, a.dst) for a in arc_list(out)} == {(0, 1)}


# states 2 and 3 cannot reach the final state: pushing and trimming drop
# them, but their symbol b stays in the tables and is on no line of the text
UNLISTED = "I 0 0\n0 1 a a 1\n2 3 b b 1\nF 1 0\n"


class TestTextFixedPoint:
    """serialize_text's contract on transform outputs: its text is a fixed
    point of parse_text then serialize_text."""

    @pytest.mark.parametrize("op", [push_weights, remove_epsilons, trim])
    @pytest.mark.parametrize("seed", range(10))
    def test_generator_machines(self, op, seed):
        rng = np.random.default_rng(9000 + seed)
        m = split_epsilons(rng, random_acyclic_machine(rng),
                           int(rng.integers(0, 3)))
        text = serialize_text(op(m))
        assert serialize_text(parse_text(text)) == text

    @pytest.mark.parametrize("op", [push_weights, remove_epsilons, trim])
    def test_states_and_symbols_on_no_line(self, op):
        text = serialize_text(op(parse_text(UNLISTED)))
        assert serialize_text(parse_text(text)) == text

    def test_round_trip_drops_what_is_on_no_line(self):
        # states 2 and 3 and the symbol b are on no line of the text
        out = Wfst(4, [Arc(0, 1, 1, 1, 1.0)], [0, INF, INF, INF],
                   [INF, 0, INF, INF], SymbolTable("ab"), SymbolTable("ab"))
        again = parse_text(serialize_text(out))
        assert (again.n_states, again.isyms._syms) == (2, ["<eps>", "a"])

    def test_push_drops_and_renumbers_dead_states(self):
        m = parse_text("I 1 0\n0 0 c c 1\n1 2 a a 1\n1 3 b b 1\n3 0 c c 1\n"
                       "2 4 a a 2\nF 4 0\n")  # 0 and 3 reach no final state
        out = push_weights(m)
        assert serialize_text(out) == "I 0 3\n0 1 a a 0\n1 2 a a 0\nF 2 0\n"
        assert out.isyms._syms == m.isyms._syms


class TestMemory:
    # a 2000-state chain takes 1999 relaxation sweeps; one dense 2000 x 2000
    # float matrix is 32 MB, while the arc arrays hold 2000 arcs
    @pytest.mark.parametrize("op", [trim, compute_potentials, push_weights,
                                    is_pushed])
    def test_chain_peak_under_8mb_at_n2000(self, op):
        n = 2000
        lam, rho = np.full(n, INF), np.full(n, INF)
        lam[0] = rho[-1] = 0.0
        m = Wfst(n, [Arc(i, i + 1, 1, 1, 1.0) for i in range(n - 1)], lam, rho)
        tracemalloc.start()
        try:
            op(m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_remove_epsilons_chain_peak_at_n1000(self):
        # every other arc of the chain is epsilon; the dense closure and
        # product peak at 36.0 MB on it, the closure matrix alone is 8 MB
        # (the bound is half of the 89 MB they once took)
        n = 1000
        lam, rho = np.full(n, INF), np.full(n, INF)
        lam[0] = rho[-1] = 0.0
        m = Wfst(n, [Arc(i, i + 1, 0, 0, 1.0) if i % 2 else
                     Arc(i, i + 1, 1, 1, 1.0) for i in range(n - 1)], lam, rho)
        tracemalloc.start()
        try:
            out = remove_epsilons(m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 89e6 / 2
        assert not _is_epsilon(out.arcs).any() and len(out.arcs) == n - 1

    def test_remove_epsilons_dense_peak_at_n300(self):
        # 27k arcs, 30 % epsilon: an (arcs x n) product temporary would be
        # about 65 MB a float array; the dense closure and product peak at
        # 8.8 MB on this machine
        n, rng = 300, np.random.default_rng(0)
        src, dst = np.nonzero(rng.random((n, n)) < 0.3)
        eps = rng.random(src.size) < 0.3
        labels = np.where(eps, 0, 1 + np.arange(src.size) % 3)
        lam, rho = np.full(n, INF), np.full(n, INF)
        lam[0] = rho[-1] = 0.0
        m = Wfst(n, list(zip(src, dst, labels, labels,
                             rng.uniform(0.1, 10.0, src.size))), lam, rho)
        tracemalloc.start()
        try:
            out = remove_epsilons(m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 13.8e6
        assert not _is_epsilon(out.arcs).any() and len(out.arcs) == n * n
