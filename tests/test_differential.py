"""Differential tests of the closure, the potentials, epsilon removal,
trim, the trellis step and the relaxation on cyclic machines with epsilon
arcs and negative arcs, against the paper's closed forms and the
brute-force oracles.

Integer weights are compared exactly, ties included; float weights with
the one tolerance, semiring.approx_equal.
"""

import math

import numpy as np
import pytest

from tropwfst import (Arc, NegativeCycleError, Wfst, arc_arrays, arc_matrix,
                      build_matrices, compute_potentials, delta, gamma,
                      minplus_matvec, minplus_mul, remove_epsilons, trim,
                      trop_eye)
from tropwfst.decoder import _step
from tropwfst.oracles import bellman_ford_to_final, floyd_warshall
from tropwfst.semiring import approx_equal
from tropwfst.transforms import _relax

from generators import random_cyclic_machine

CASES = [(seed, fw) for fw in (False, True) for seed in range(40)]


def machine(seed, float_weights):
    return random_cyclic_machine(np.random.default_rng(7000 + seed),
                                 float_weights=float_weights)


def agree(x, y, exact):
    x, y = np.asarray(x, float), np.asarray(y, float)
    if exact:
        return np.array_equal(x, y)
    return x.shape == y.shape and all(
        approx_equal(float(u), float(v)) for u, v in zip(x.ravel(), y.ravel()))


def power_series_gamma(a):
    """The closed form of gamma: the min of the powers a^1 .. a^n."""
    power = acc = a
    for _ in range(a.shape[0] - 1):
        power = minplus_mul(power, a)
        acc = np.minimum(acc, power)
    return acc


def triple_loop_remove_epsilons(m):
    """Epsilon removal by the closed form, with each arc's labels found by
    a loop over every intermediate state k; returns ({(i, j): (ilabel,
    olabel, weight)}, rho)."""
    view = build_matrices(m)
    n = m.n_states
    d = np.minimum(trop_eye(n), power_series_gamma(view.E))
    weights = minplus_mul(d, view.A_eps)
    arcs = {}
    for i in range(n):
        for j in range(n):
            w = weights[i, j]
            if not math.isfinite(w):
                continue
            best = None
            for k in range(n):
                if (math.isfinite(view.A_eps[k, j])
                        and d[i, k] + view.A_eps[k, j] == w):
                    labels = (int(view.sigma_i[k, j]), int(view.sigma_o[k, j]))
                    if best is None or labels < best:
                        best = labels
            arcs[(i, j)] = (*best, float(w))
    return arcs, minplus_mul(d, m.rho[:, None])[:, 0]


@pytest.mark.parametrize("seed,float_weights", CASES)
def test_gamma_matches_power_series_and_floyd_warshall(seed, float_weights):
    m = machine(seed, float_weights)
    a = build_matrices(m).A
    edges = [(a_.src, a_.dst, a_.weight) for a_ in m.arcs]
    g = gamma(a)
    assert agree(g, power_series_gamma(a), not float_weights)
    assert agree(g, floyd_warshall(m.n_states, edges), not float_weights)


@pytest.mark.parametrize("seed,float_weights", CASES)
def test_potentials_match_closed_form_and_bellman_ford(seed, float_weights):
    m = machine(seed, float_weights)
    v = compute_potentials(m).v
    closed = minplus_mul(delta(build_matrices(m).A), m.rho[:, None])[:, 0]
    assert agree(v, closed, not float_weights)
    assert agree(v, bellman_ford_to_final(m), not float_weights)


@pytest.mark.parametrize("seed,float_weights", CASES)
def test_remove_epsilons_matches_triple_loop(seed, float_weights):
    m = machine(seed, float_weights)
    out = remove_epsilons(m)
    arcs, rho = triple_loop_remove_epsilons(m)
    got = {(a.src, a.dst): (a.ilabel, a.olabel, a.weight) for a in out.arcs}
    assert len(got) == len(out.arcs)
    assert got.keys() == arcs.keys()
    for pair, (il, ol, w) in arcs.items():
        assert got[pair][:2] == (il, ol)
        assert agree(got[pair][2], w, not float_weights)
    assert agree(out.rho, rho, not float_weights)
    assert np.array_equal(out.lam, m.lam)


@pytest.mark.parametrize("seed,float_weights", CASES)
def test_trim_matches_floyd_warshall_reachability(seed, float_weights):
    m = machine(seed, float_weights)
    n = m.n_states
    dist = floyd_warshall(n, [(a.src, a.dst, 0.0) for a in m.arcs])

    def reached_from(seeds):
        return {j for j in range(n)
                if any(i == j or dist[i][j] == 0.0 for i in seeds)}

    def reaching(seeds):
        return {i for i in range(n)
                if any(i == j or dist[i][j] == 0.0 for j in seeds)}

    keep = sorted(reached_from(np.flatnonzero(np.isfinite(m.lam)))
                  & reaching(np.flatnonzero(np.isfinite(m.rho))))
    index = {old: new for new, old in enumerate(keep)}
    out = trim(m)
    assert out.n_states == len(keep)
    assert np.array_equal(out.lam, m.lam[keep])
    assert np.array_equal(out.rho, m.rho[keep])
    assert sorted((a.src, a.dst, a.ilabel, a.olabel, a.weight)
                  for a in out.arcs) == sorted(
        (index[a.src], index[a.dst], a.ilabel, a.olabel, a.weight)
        for a in m.arcs if a.src in index and a.dst in index)


def dense_step(a, x, p):
    """The closed form of one trellis step, p + min_i (A[i, :] + x[i]), with
    the smallest i attaining a finite entry as its backpointer."""
    sums = a + x[:, None]
    nxt = p + sums.min(axis=0)
    return nxt, np.where(np.isfinite(nxt), sums.argmin(axis=0), -1)


def dense_relax(a, v):
    """The relaxation v <- v ^ (a (x) v) on the dense matrix; (v, sweeps)."""
    for sweeps in range(len(v)):
        nxt = np.minimum(v, minplus_mul(a, v[:, None])[:, 0])
        if np.array_equal(nxt, v):
            return nxt, sweeps
        v = nxt
    raise NegativeCycleError("negative-weight cycle detected")


def trellis_vectors(rng, n, float_weights):
    """Trellis and emission vectors with +inf entries; integer values make
    ties between predecessors common. The last x is all +inf."""
    def draw(size):
        vals = rng.uniform(0, 6, size) if float_weights else rng.integers(
            0, 3, size).astype(float)
        return np.where(rng.random(size) < 0.3, math.inf, vals)
    return [(draw(n), draw(n)) for _ in range(6)] + [
        (np.full(n, math.inf), draw(n))]


def no_arc_machine(n):
    lam, rho = np.full(n, math.inf), np.full(n, math.inf)
    lam[0] = rho[-1] = 0.0
    return Wfst(n, [], lam, rho)


def step_cases():
    for seed, float_weights in CASES:
        yield machine(seed, float_weights), float_weights
    yield no_arc_machine(4), True


@pytest.mark.parametrize("m,float_weights", step_cases())
def test_trellis_step_matches_dense_closed_form(m, float_weights):
    a = build_matrices(m).A
    src, dst, w = arc_arrays(m)
    trellis = arc_matrix(dst, src, w)  # as the decoder builds it
    rng = np.random.default_rng(m.n_states + len(m.arcs))
    for x, p in trellis_vectors(rng, m.n_states, float_weights):
        got, bp = _step(trellis, x, p)
        want, want_bp = dense_step(a, x, p)
        assert np.array_equal(got, want)  # bit for bit, no tolerance
        assert np.array_equal(bp, want_bp)
        # the kernel alone: -1 wherever the minimum is +inf
        best, arg = minplus_matvec(trellis, x)
        sums = a + x[:, None]
        assert np.array_equal(best, sums.min(axis=0))
        assert np.array_equal(
            arg, np.where(np.isfinite(best), sums.argmin(axis=0), -1))


def test_trellis_step_state_without_incoming_arc():
    # states 0 and 2 have no incoming arc, whatever the trellis holds
    m = Wfst(3, [Arc(0, 1, 1, 1, 2.0)], np.array([0.0, 1.0, math.inf]),
             np.zeros(3))
    src, dst, w = arc_arrays(m)
    x, bp = _step(arc_matrix(dst, src, w), np.array([0.0, 1.0, 5.0]),
                  np.zeros(3))
    assert np.array_equal(x, [math.inf, 2.0, math.inf])
    assert np.array_equal(bp, [-1, 0, -1])


@pytest.mark.parametrize("m,float_weights", step_cases())
def test_relax_matches_dense_fixpoint_and_sweeps(m, float_weights):
    a = build_matrices(m).A
    src, dst, w = arc_arrays(m)
    mask = np.where(np.isfinite(a), 0.0, math.inf)
    zero = np.zeros(src.size)
    lam0 = np.where(np.isfinite(m.lam), 0.0, math.inf)
    rho0 = np.where(np.isfinite(m.rho), 0.0, math.inf)
    for got, want in [
            (_relax(arc_matrix(src, dst, w), m.rho), dense_relax(a, m.rho)),
            (_relax(arc_matrix(dst, src, zero), lam0), dense_relax(mask.T, lam0)),
            (_relax(arc_matrix(src, dst, zero), rho0), dense_relax(mask, rho0))]:
        assert np.array_equal(got[0], want[0])
        assert got[1] == want[1]
