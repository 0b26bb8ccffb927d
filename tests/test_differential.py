"""Differential tests of the closure, the potentials, epsilon removal,
trim, the trellis step and the relaxation on cyclic machines with epsilon
arcs and negative arcs, against the paper's closed forms and the
brute-force oracles, and of pruned decoding against a scalar loop.

Integer weights are compared exactly, ties included; float weights with
the one tolerance, semiring.approx_equal.
"""

import math

import numpy as np
import pytest

from tropwfst import (Arc, NegativeCycleError, ObservationModel, Wfst,
                      arc_arrays, arc_matrix, build_matrices,
                      compute_potentials, decode_with_metrics, delta, gamma,
                      minplus_matvec, minplus_mul, parse_text, remove_epsilons,
                      trim, trop_eye, viterbi_decode)
from tropwfst.decoder import _step
from tropwfst.oracles import bellman_ford_to_final, floyd_warshall
from tropwfst.semiring import approx_equal
from tropwfst.transforms import _relax

from generators import arc_list, random_cyclic_machine, random_hmm

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
    edges = [(a_.src, a_.dst, a_.weight) for a_ in arc_list(m)]
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
    # the tie rule must not depend on the order of the arcs
    for m in (m, Wfst(m.n_states, m.arcs[::-1], m.lam, m.rho)):
        out = remove_epsilons(m)
        arcs, rho = triple_loop_remove_epsilons(m)
        got = {(a.src, a.dst): (a.ilabel, a.olabel, a.weight)
               for a in arc_list(out)}
        assert len(got) == len(out.arcs)
        assert got.keys() == arcs.keys()
        for pair, (il, ol, w) in arcs.items():
            assert got[pair][:2] == (il, ol)
            assert agree(got[pair][2], w, not float_weights)
        assert agree(out.rho, rho, not float_weights)
        assert np.array_equal(out.lam, m.lam)


@pytest.mark.parametrize("seed,float_weights", CASES)
def test_epsilon_closure_matches_delta(seed, float_weights):
    # remove_epsilons gives rho' = delta(E) (x) rho, so the final vector 0
    # at k and +inf elsewhere reads off column k of its closure
    m = machine(seed, float_weights)
    columns = [remove_epsilons(Wfst(m.n_states, m.arcs, m.lam, unit)).rho
               for unit in trop_eye(m.n_states)]
    assert agree(np.stack(columns, axis=1), delta(build_matrices(m).E),
                 not float_weights)


def test_unreached_negative_epsilon_cycle_raises():
    # no initial state reaches the epsilon cycle 2 <-> 3 of cost -1
    m = parse_text("I 0 0\n0 1 a A 1\n2 3 <eps> <eps> -2\n"
                   "3 2 <eps> <eps> 1\n3 1 b B 0\nF 1 0\n")
    with pytest.raises(NegativeCycleError):
        delta(build_matrices(m).E)
    with pytest.raises(NegativeCycleError):
        remove_epsilons(m)


@pytest.mark.parametrize("seed,float_weights", CASES)
def test_trim_matches_floyd_warshall_reachability(seed, float_weights):
    m = machine(seed, float_weights)
    n = m.n_states
    dist = floyd_warshall(n, [(a.src, a.dst, 0.0) for a in arc_list(m)])

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
    assert sorted(arc_list(out)) == sorted(
        (index[a.src], index[a.dst], a.ilabel, a.olabel, a.weight)
        for a in arc_list(m) if a.src in index and a.dst in index)


def dense_step(a, x, p):
    """The closed form of one trellis step, p + min_i (A[i, :] + x[i]), and
    its backpointers, the smallest i attaining each minimum."""
    sums = a + x[:, None]
    return p + sums.min(axis=0), sums.argmin(axis=0)


def dense_decode(a, m, obs, seq, theta):
    """Viterbi on the dense matrix a with a chain of argmin backpointers;
    unless theta is None, each frame is cut to x <= theta + min x as soon
    as it is formed. Returns (cost, path)."""
    x, backpointers = m.lam + obs.cost(seq[0]), []
    for t, sym in enumerate(seq):
        if t:
            x, bp = dense_step(a, x, obs.cost(sym))
            backpointers.append(bp)
        if theta is not None:
            if not np.isfinite(x).any():
                return math.inf, []
            x = np.where(x <= theta + x.min(), x, math.inf)
    terminal = x + m.rho
    if not np.isfinite(terminal).any():
        return math.inf, []
    path = [int(terminal.argmin())]
    for bp in reversed(backpointers):
        path.append(int(bp[path[-1]]))
    return float(terminal.min()), path[::-1]


def decode(m, obs, seq, theta):
    if theta is None:
        return viterbi_decode(m, obs, seq)
    return decode_with_metrics(m, obs, seq, theta)[:2]


@pytest.mark.parametrize("theta", [None, 0.0, 1.0, math.inf])
@pytest.mark.parametrize("seed", range(10))
def test_long_path_is_the_dense_argmin_chain(seed, theta):
    """Over 1200 frames of integer weights and costs, where predecessors
    tie often, the path is the chain of argmin backpointers."""
    m = machine(seed, False)
    m = Wfst(m.n_states, m.arcs, m.lam, np.where(m.rho < math.inf, m.rho, 4))
    rng = np.random.default_rng(400 + seed)
    obs = ObservationModel(m.n_states, {
        sym: rng.integers(0, 3, m.n_states).astype(float) for sym in "xy"})
    seq = [str(s) for s in rng.choice(["x", "y"], 1200)]
    want = dense_decode(build_matrices(m).A, m, obs, seq, theta)
    assert len(want[1]) == len(seq)  # every state is final: no dead end
    assert decode(m, obs, seq, theta) == want


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
    trellis = arc_matrix(dst, src, w)  # rows dst, cols src, as in the decoder
    rng = np.random.default_rng(m.n_states + len(m.arcs))
    vectors = trellis_vectors(rng, m.n_states, float_weights)
    for x, p in vectors:
        # bit for bit, no tolerance
        garbage = np.full(m.n_states, np.nan)  # _step writes every entry
        assert np.array_equal(_step(trellis, x, p, garbage),
                              dense_step(a, x, p)[0])
        # the kernel with keys, as ε-removal uses it: -1 where +inf
        best, arg = minplus_matvec(arc_matrix(dst, src, w, src), x)
        want, want_arg = dense_step(a, x, np.zeros(m.n_states))
        assert np.array_equal(best, want)
        assert np.array_equal(arg, np.where(np.isfinite(want), want_arg, -1))
    # the decoded path is the dense chain of argmin backpointers, ties and all
    obs = ObservationModel(m.n_states, {
        sym: np.where(np.isfinite(p), p, 1.0)
        for sym, (_, p) in zip("xy", vectors)})
    shuffled = Wfst(m.n_states, m.arcs[rng.permutation(len(m.arcs))],
                    m.lam, m.rho)  # ties go to the smallest src in any order
    for seq in ([str(s) for s in rng.choice(["x", "y"], size)]
                for size in (1, 2, 9)):
        for theta in (None, 0.0, 2.0, math.inf):
            want = dense_decode(a, m, obs, seq, theta)
            assert decode(m, obs, seq, theta) == want
            assert decode(shuffled, obs, seq, theta) == want


def test_trellis_step_state_without_incoming_arc():
    # states 0 and 2 have no incoming arc, whatever the trellis holds
    m = Wfst(3, [Arc(0, 1, 1, 1, 2.0)], np.array([0.0, 1.0, math.inf]),
             np.zeros(3))
    a = build_matrices(m).A
    src, dst, w = arc_arrays(m)
    x_prev = np.array([0.0, 1.0, 5.0])
    x = _step(arc_matrix(dst, src, w), x_prev, np.zeros(3), np.full(3, np.nan))
    assert np.array_equal(x, [math.inf, 2.0, math.inf])
    assert np.array_equal(x, dense_step(a, x_prev, np.zeros(3))[0])
    _, arg = minplus_matvec(arc_matrix(dst, src, w, src), x_prev)
    assert np.array_equal(arg, [-1, 0, -1])
    obs = ObservationModel(3, {"u": np.zeros(3)})
    for theta in (None, 0.0, math.inf):
        assert decode(m, obs, ["u", "u"], theta) == (2.0, [0, 1])
        assert dense_decode(a, m, obs, ["u", "u"], theta) == (2.0, [0, 1])


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


@pytest.mark.parametrize("m,float_weights", step_cases())
def test_matrix_product_matches_column_by_column(m, float_weights):
    src, dst, w = arc_arrays(m)
    rng = np.random.default_rng(len(m.arcs))
    keys = rng.permutation(src.size)  # any ints; the smallest attaining wins
    columns = [x for x, _ in trellis_vectors(rng, m.n_states, float_weights)]
    v = np.stack(columns, axis=1)
    for rows, cols in ((src, dst), (dst, src)):
        y, arg = minplus_matvec(arc_matrix(rows, cols, w, keys), v)
        plain, none = minplus_matvec(arc_matrix(rows, cols, w), v)
        assert np.array_equal(plain, y) and none is None
        for c, x in enumerate(columns):
            y1, arg1 = minplus_matvec(arc_matrix(rows, cols, w, keys), x)
            assert np.array_equal(y[:, c], y1)  # bit for bit, no tolerance
            assert np.array_equal(arg[:, c], arg1)


def scalar_pruned_viterbi(m, obs, seq, theta):
    """Pruned Viterbi with Python floats and loops: each frame's vector is
    cut to its finite entries x[j] <= theta + min x as soon as it is
    formed. Returns (cost, path, [(step, eta, support, survivor costs)])."""
    n = m.n_states
    arcs = sorted((a.src, a.dst, a.weight) for a in arc_list(m))
    x = [float(v) for v in m.lam]
    frames, backpointers = [], []
    for t, sym in enumerate(seq):
        p = [float(c) for c in obs.cost(sym)]
        if t == 0:
            x = [x[j] + p[j] for j in range(n)]
        else:
            best, bp = [math.inf] * n, [-1] * n
            for i, j, w in arcs:  # ascending i: a tie keeps the smallest
                if x[i] + w < best[j]:
                    best[j], bp[j] = x[i] + w, i
            x = [p[j] + best[j] for j in range(n)]
            backpointers.append(bp)
        finite = [v for v in x if v < math.inf]
        if not finite:
            return math.inf, [], frames
        eta = theta + min(finite)
        support = [j for j in range(n) if x[j] <= eta and x[j] < math.inf]
        frames.append((t, eta, support, [x[j] for j in support]))
        x = [x[j] if j in support else math.inf for j in range(n)]
    terminal = [x[j] + float(m.rho[j]) for j in range(n)]
    cost = min(terminal)
    if cost == math.inf:
        return cost, [], frames
    path = [terminal.index(cost)]
    for bp in reversed(backpointers):
        path.append(bp[path[-1]])
    return cost, path[::-1], frames


@pytest.mark.parametrize("theta", [0.0, 0.5, 2.0, 8.0, math.inf])
@pytest.mark.parametrize("seed,float_weights", CASES[::2])
def test_pruned_decode_matches_scalar_loop(seed, float_weights, theta):
    rng = np.random.default_rng(9000 + seed)
    m, obs = random_hmm(rng, max_states=6, float_costs=float_weights)
    seq = [f"s{int(rng.integers(0, 2))}"
           for _ in range(int(rng.integers(0, 9)))]
    cost, path, etas, xs = decode_with_metrics(m, obs, seq, theta)
    want_cost, want_path, frames = scalar_pruned_viterbi(m, obs, seq, theta)
    exact = not float_weights
    assert agree(cost, want_cost, exact)
    assert path == want_path
    assert len(etas) == len(xs) == len(frames)
    for t, (step, eta, support, z) in enumerate(frames):
        assert t == step
        assert agree(etas[t], eta, exact)
        assert np.flatnonzero(xs[t] < math.inf).tolist() == support
        assert agree(xs[t][xs[t] < math.inf], z, exact)
