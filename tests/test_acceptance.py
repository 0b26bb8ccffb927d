"""Acceptance suite: one test per criterion, printing a pass line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import time

import numpy as np
import pytest

from tropwfst import (approx_equal, build_matrices, compute_potentials,
                      decode_with_metrics, gamma, metric_entropy, metric_nu,
                      parse_text, prune_indicator, push_weights,
                      remove_epsilons, serialize_text, viterbi_decode)
from tropwfst.cli import main as cli_main
from tropwfst.oracles import (bellman_ford_shortest_from, floyd_warshall,
                              scalar_viterbi)
from tropwfst.wfst import _is_epsilon

from conftest import FIG1_TEXT, FIG2_TEXT
from generators import (arc_list, edges_matrix, exhaustive_viterbi_cost,
                        path_multiset, random_acyclic_machine, random_edges,
                        random_hmm, same_paths, split_epsilons)

INF = math.inf


def report(criterion, text):
    print(f"PASS criterion {criterion}: {text}")


def test_criterion_1_fig1_reproduction(fig1):
    start = time.perf_counter()
    v = compute_potentials(fig1).v
    assert v[1] == 42.0 and v[2] == 3.0 and v[0] == 5.0
    pushed = push_weights(fig1)
    weights = {(a.src, a.dst): a.weight for a in arc_list(pushed)}
    assert weights[(1, 3)] == 0.0 and weights[(2, 4)] == 0.0
    totals = sorted(c for _, _, c in path_multiset(pushed))
    assert totals == [5.0, 43.0]
    assert path_multiset(pushed) == path_multiset(fig1)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"Fig. 1 potentials (5, 42, 3, 0, 0), pushed arcs zeroed, "
              f"path totals 43 and 5 preserved ({elapsed:.3f}s)")


def test_criterion_2_fig2_behavior(fig2):
    start = time.perf_counter()
    out = remove_epsilons(fig2)
    assert not _is_epsilon(out.arcs).any()
    assert path_multiset(out) == path_multiset(fig2)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(2, f"Fig. 2 epsilon-free machine, identical label/cost map "
              f"({elapsed:.3f}s)")


def test_criterion_3_closure_oracle():
    checked = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 11))
        edges = random_edges(rng, n, negative=bool(seed % 2))
        a = edges_matrix(n, edges)
        assert np.array_equal(gamma(a), floyd_warshall(n, edges))
        # epsilon closure is gamma on the eps-only subgraph; cross-check
        # against per-source Bellman-Ford on the same edges
        eps_edges = [(u, v, w) for u, v, w in edges if (u + v) % 2 == 0]
        g = gamma(edges_matrix(n, eps_edges))
        for src in range(n):
            assert np.array_equal(
                g[src], bellman_ford_shortest_from(n, eps_edges, src))
        checked += 1
    assert checked >= 200
    report(3, f"gamma == Floyd-Warshall and closure == Bellman-Ford on "
              f"{checked} random graphs")


def test_criterion_4_path_preservation():
    checked = 0
    for seed in range(200):
        rng = np.random.default_rng(10_000 + seed)
        m = split_epsilons(rng, random_acyclic_machine(rng),
                           int(rng.integers(0, 4)))
        base = path_multiset(m)
        pushed = push_weights(m)
        assert path_multiset(pushed) == base
        assert path_multiset(remove_epsilons(m)) == base
        v = compute_potentials(m).v
        a = build_matrices(pushed).A
        for i in range(pushed.n_states):
            if math.isfinite(v[i]):
                assert min(float(np.min(a[i])), float(pushed.rho[i])) == 0.0
        checked += 1
    for seed in range(200):  # float weights, so sums round: costs up to TOL
        rng = np.random.default_rng(10_000 + seed)
        m = split_epsilons(rng, random_acyclic_machine(rng, float_weights=True),
                           int(rng.integers(0, 4)))
        base = path_multiset(m)
        pushed = push_weights(m)
        assert same_paths(path_multiset(pushed), base)
        assert same_paths(path_multiset(remove_epsilons(m)), base)
        v = compute_potentials(m).v
        a = build_matrices(pushed).A
        for i in range(pushed.n_states):
            if math.isfinite(v[i]):
                assert approx_equal(min(float(np.min(a[i])),
                                        float(pushed.rho[i])), 0.0)
        checked += 1
    assert checked >= 400
    report(4, f"pushing and epsilon removal preserve path multisets and "
              f"the normalization invariant on {checked} machines, half "
              f"with float weights")


def test_criterion_5_viterbi_equivalence():
    checked = 0
    for seed in range(100):
        rng = np.random.default_rng(20_000 + seed)
        m, obs = random_hmm(rng)
        seq = [f"s{int(rng.integers(0, 2))}"
               for _ in range(int(rng.integers(1, 7)))]
        cost, _ = viterbi_decode(m, obs, seq)
        assert cost == exhaustive_viterbi_cost(m, obs, seq)
        prob, _ = scalar_viterbi(m, obs, seq)
        assert abs(math.exp(-cost) - prob) <= 1e-9
        checked += 1
    assert checked >= 100
    report(5, f"matrix Viterbi == exhaustive enumeration == scalar "
              f"max-product on {checked} models")


def test_criterion_6_pruning_equivalence_monotonicity():
    checked = 0
    rng = np.random.default_rng(30_000)
    for _ in range(1000):
        n = int(rng.integers(1, 12))
        x = np.where(rng.random(n) < 0.15, INF,
                     rng.integers(-20, 50, n).astype(float))
        if not np.isfinite(x).any():
            x[int(rng.integers(0, n))] = 0.0
        t1, t2 = sorted(rng.random(2) * 30)
        s1 = prune_indicator(x, t1).support
        s2 = prune_indicator(x, t2).support
        expect1 = np.flatnonzero(x <= np.min(x[np.isfinite(x)]) + t1)
        assert np.array_equal(s1, expect1)
        assert set(s1.tolist()) <= set(s2.tolist())
        checked += 1
    assert checked >= 1000
    report(6, f"support == threshold set and grows with theta on "
              f"{checked} (x, theta) pairs")


def test_criterion_7_metric_values():
    nu, degenerate = metric_nu(7.0, np.array([3.0, 5.0]))
    assert abs(nu - (-0.75)) <= 1e-6 and not degenerate
    ent = metric_entropy(np.array([3.0, 5.0]))
    assert abs(ent - 0.0915248) <= 1e-6
    rng = np.random.default_rng(40_000)
    for _ in range(500):
        z = rng.random(int(rng.integers(1, 10))) * 50
        e = metric_entropy(z)
        assert 0.0 <= e <= math.exp(-1) + 1e-12
    report(7, "nu = -0.75 and entropy = 0.0915248 on the worked example; "
              "entropy within [0, 1/e] on 500 fuzzed states")


def test_criterion_8_cli_determinism(tmp_path, capsys):
    (tmp_path / "fig1.fst").write_text(FIG1_TEXT)
    (tmp_path / "fig2.fst").write_text(FIG2_TEXT)
    (tmp_path / "obs.txt").write_text("5 1\no 0 0 0 0 0\n")
    (tmp_path / "seq.txt").write_text("o o o\n")
    commands = [
        ["push", "fig1.fst", "pushed.fst"],
        ["rmepsilon", "fig2.fst", "noeps.fst", "--trim"],
        ["decode", "fig1.fst", "--obs", "obs.txt", "--seq", "seq.txt",
         "--theta", "0.5", "--metrics", "trace.csv"],
        ["metrics", "fig1.fst", "--obs", "obs.txt", "--seq", "seq.txt",
         "--theta", "2", "--metrics", "trace2.csv"],
        ["info", "fig1.fst"],
        ["validate", "fig1.fst"],
    ]
    outfiles = ["pushed.fst", "noeps.fst", "trace.csv", "trace2.csv"]
    snapshots = []
    for _ in range(2):
        run_log = []
        for argv in commands:
            argv = [str(tmp_path / a)
                    if a.endswith((".fst", ".txt", ".csv")) else a
                    for a in argv]
            code = cli_main(argv)
            captured = capsys.readouterr()
            assert code == 0
            run_log.append(captured.out.encode())
        run_log.append({f: (tmp_path / f).read_bytes() for f in outfiles})
        snapshots.append(run_log)
    assert snapshots[0] == snapshots[1]
    report(8, "all six CLI commands byte-identical across two runs")
