"""Seeded random fixtures shared by the property and acceptance tests."""

import math
from collections import Counter

import numpy as np

from tropwfst import EPSILON_SYM, Arc, ObservationModel, Wfst, approx_equal

ISYMS = (EPSILON_SYM, "a", "b", "c")
OSYMS = (EPSILON_SYM, "A", "B", "C")


def random_edges(rng, n, negative=False):
    """Random integer-weight edge list, free of negative cycles.

    Non-negative weights on arbitrary topology, or weights down to -3
    restricted to a DAG (i < j) so no cycle can be negative.
    """
    edges = []
    for i in range(n):
        for j in range(n):
            if rng.random() >= 0.35:
                continue
            if negative:
                if i < j:
                    edges.append((i, j, float(rng.integers(-3, 10))))
            else:
                edges.append((i, j, float(rng.integers(0, 10))))
    return edges


def edges_matrix(n, edges):
    m = np.full((n, n), math.inf)
    for u, v, w in edges:
        m[u, v] = min(m[u, v], w)
    return m


def random_acyclic_machine(rng, max_states=8, max_arcs=12,
                           float_weights=False):
    """Acyclic transducer with a guaranteed accepting chain 0 -> n-1.

    Weights are integers 0..9, so sums are exact, or with float_weights
    uniform draws in [0, 10) rounded to 4 decimals, whose sums round.
    """
    n = int(rng.integers(2, max_states + 1))

    def weight():
        if float_weights:
            return round(float(rng.uniform(0, 10)), 4)
        return float(rng.integers(0, 10))

    pairs = [(i, i + 1) for i in range(n - 1)]
    candidates = [(i, j) for i in range(n) for j in range(i + 2, n)]
    rng.shuffle(candidates)
    pairs += candidates[: max(0, int(rng.integers(0, max_arcs + 1)) - len(pairs))]
    arcs = [
        Arc(i, j, int(rng.integers(1, 4)), int(rng.integers(1, 4)), weight())
        for i, j in sorted(pairs)
    ]
    lam = np.full(n, math.inf)
    lam[0] = 0.0
    rho = np.full(n, math.inf)
    rho[n - 1] = weight()
    for i in range(1, n - 1):
        if rng.random() < 0.2:
            rho[i] = weight()
    return Wfst(n, arcs, lam, rho, ISYMS, OSYMS)


def arc_list(m):
    """A machine's arcs as Arc tuples, read by attribute."""
    return [Arc(*a) for a in m.arcs.tolist()]


def split_epsilons(rng, m, n_splits):
    """Introduce epsilon arcs by splitting non-epsilon arcs at fresh states.

    Each split replaces u ->(x:y/w) v with u ->(eps/w1) s ->(x:y/w2) v,
    w1 + w2 = w, which keeps the accepted-path multiset in bijection
    with the original (unique epsilon routes, no arc collisions).
    """
    arcs = arc_list(m)
    n = m.n_states
    for _ in range(n_splits):
        non_eps = [k for k, a in enumerate(arcs)
                   if (a.ilabel, a.olabel) != (0, 0)]
        if not non_eps:
            break
        k = non_eps[int(rng.integers(0, len(non_eps)))]
        a = arcs.pop(k)
        w1 = float(rng.integers(0, int(a.weight) + 1))
        arcs.append(Arc(a.src, n, 0, 0, w1))
        arcs.append(Arc(n, a.dst, a.ilabel, a.olabel, a.weight - w1))
        n += 1
    pad = n - m.n_states
    lam = np.concatenate([m.lam, np.full(pad, math.inf)])
    rho = np.concatenate([m.rho, np.full(pad, math.inf)])
    return Wfst(n, arcs, lam, rho, m.isyms, m.osyms)


def random_cyclic_machine(rng, max_states=8, float_weights=True):
    """Cyclic transducer with epsilon arcs and no negative-weight cycle.

    Each arc costs c + p[src] - p[dst] with c >= 0, so single arcs can be
    negative while every cycle costs its sum of c >= 0. Float weights are
    uniform draws (ties are measure-zero); integer weights make ties
    common and keep every comparison exact. lam and rho are sparse, so
    some states are usually inaccessible or not coaccessible.
    """
    n = int(rng.integers(2, max_states + 1))

    def draw(lo, hi, size=None):
        if float_weights:
            return rng.uniform(lo, hi, size)
        return rng.integers(lo, hi, size).astype(float)

    p = draw(0, 5, n)
    arcs = []
    for i in range(n):
        for j in range(n):
            if rng.random() >= 0.35:
                continue
            if rng.random() < 0.35:
                il = ol = 0
            else:
                il, ol = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            arcs.append(Arc(i, j, il, ol, float(draw(0, 10) + p[i] - p[j])))
    lam = np.where(rng.random(n) < 0.2, draw(0, 4, n), math.inf)
    lam[int(rng.integers(0, n))] = float(draw(0, 4))
    rho = np.where(rng.random(n) < 0.2, draw(0, 4, n), math.inf)
    rho[int(rng.integers(0, n))] = float(draw(0, 4))
    return Wfst(n, arcs, lam, rho, ISYMS, OSYMS)


def random_hmm(rng, max_states=5, n_symbols=2, float_costs=False):
    """Dense-ish random model plus an observation cost table.

    Integer costs by default (exact comparisons); float_costs jitters
    every weight so ties are measure-zero.
    """
    n = int(rng.integers(2, max_states + 1))

    def jitter(size=None):
        return rng.random(size) if float_costs else 0.0

    arcs = []
    for i in range(n):
        for j in range(n):
            if rng.random() < 0.7:
                arcs.append(Arc(i, j, 1, 1,
                                float(rng.integers(0, 10)) + float(jitter())))
    lam = np.where(rng.random(n) < 0.5,
                   rng.integers(0, 4, n) + jitter(n), math.inf)
    lam[int(rng.integers(0, n))] = float(rng.integers(0, 4)) + float(jitter())
    rho = np.where(rng.random(n) < 0.5,
                   rng.integers(0, 4, n) + jitter(n), math.inf)
    rho[int(rng.integers(0, n))] = float(rng.integers(0, 4)) + float(jitter())
    costs = {
        f"s{k}": rng.integers(0, 6, n) + jitter(n) for k in range(n_symbols)
    }
    return Wfst(n, arcs, lam, rho, ISYMS, OSYMS), ObservationModel(n, costs)


def strip_eps(labels):
    return tuple(l for l in labels if l != 0)


def path_multiset(m, max_len=None):
    """Counter of (input string, output string, cost) over accepted paths."""
    from tropwfst.oracles import enumerate_paths

    if max_len is None:
        max_len = m.n_states
    return Counter(
        (strip_eps(p.ilabels), strip_eps(p.olabels), p.total_cost)
        for p in enumerate_paths(m, max_len)
    )


def same_paths(got, want):
    """Whether two path multisets hold the same label strings, each with
    as many paths, whose costs pair up in sorted order within TOL."""
    def costs_by_labels(paths):
        costs = {}
        for (ilabels, olabels, cost), count in paths.items():
            costs.setdefault((ilabels, olabels), []).extend([cost] * count)
        return {labels: sorted(c) for labels, c in costs.items()}

    got, want = costs_by_labels(got), costs_by_labels(want)
    return got.keys() == want.keys() and all(
        len(got[k]) == len(want[k]) and all(map(approx_equal, got[k], want[k]))
        for k in got)


def exhaustive_viterbi_cost(m, obs, sequence):
    """Minimum over all state sequences of lam + emissions + arcs + rho."""
    import itertools

    n = m.n_states
    w = {(a.src, a.dst): a.weight for a in arc_list(m)}
    if not sequence:
        return float(np.min(m.lam + m.rho))
    best = math.inf
    emis = [obs.cost(s) for s in sequence]
    for states in itertools.product(range(n), repeat=len(sequence)):
        cost = m.lam[states[0]] + emis[0][states[0]]
        for t in range(1, len(states)):
            cost += w.get((states[t - 1], states[t]), math.inf) + emis[t][states[t]]
            if cost == math.inf:
                break
        cost += m.rho[states[-1]]
        best = min(best, cost)
    return float(best)
