"""Structure-preserving rewrites: weight pushing and epsilon removal.

Both are closed-form matrix computations: pushing conjugates the
transition matrix by the potential vector, epsilon removal multiplies
by the closure of the epsilon-only part.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnreachableFinalError
from .semiring import (approx_equal, delta, gamma, minplus_mul, pointwise_min,
                       trop_eye)
from .wfst import Arc, MatrixView, Wfst, build_matrices


@dataclass(frozen=True)
class Potentials:
    """Per-state shortest cost to termination, including the final weight."""

    v: np.ndarray
    iterations_to_fixpoint: int


def compute_potentials(m: Wfst) -> Potentials:
    """Closed form: v = delta(A) (x) rho.

    Also runs the one-step relaxation v <- v ^ (A (x) v) from v0 = rho
    to report how many sweeps the iterative scheme needs to stabilize.
    """
    view = build_matrices(m)
    v = minplus_mul(delta(view.A), m.rho[:, None])[:, 0]
    cur = m.rho.copy()
    iters = 0
    for _ in range(m.n_states):
        nxt = np.minimum(cur, minplus_mul(view.A, cur[:, None])[:, 0])
        if np.array_equal(nxt, cur):
            break
        cur = nxt
        iters += 1
    return Potentials(v=v, iterations_to_fixpoint=iters)


def is_pushed(m: Wfst) -> bool:
    """Normalization check: the outgoing minimum (arcs and rho) is 0, up
    to TOL, wherever a final state is reachable."""
    v = compute_potentials(m).v
    best = np.minimum(build_matrices(m).A.min(axis=1), m.rho)
    return all(approx_equal(float(b), 0.0) for b in best[np.isfinite(v)])


def push_weights(m: Wfst) -> Wfst:
    """Move weight toward earlier transitions without changing path costs.

    lam'[i] = lam[i] + v[i], rho'[i] = rho[i] - v[i], and each arc weight
    becomes -v[src] + w + v[dst]. Arcs touching a state with infinite
    potential lie on no accepting path and are dropped.
    """
    v = compute_potentials(m).v
    bad = np.isfinite(m.lam) & ~np.isfinite(v)
    if bad.any():
        states = ", ".join(str(i) for i in np.flatnonzero(bad))
        raise UnreachableFinalError(
            f"initial state(s) {states} cannot reach a final state")
    with np.errstate(invalid="ignore"):
        lam = np.where(np.isfinite(m.lam), m.lam + v, math.inf)
        rho = np.where(np.isfinite(m.rho), m.rho - v, math.inf)
    arcs = [
        Arc(a.src, a.dst, a.ilabel, a.olabel, -v[a.src] + a.weight + v[a.dst])
        for a in m.arcs
        if math.isfinite(v[a.src]) and math.isfinite(v[a.dst])
    ]
    return Wfst(m.n_states, arcs, lam, rho, m.isyms, m.osyms)


def epsilon_closure(view: MatrixView) -> np.ndarray:
    """Shortest epsilon-only path costs (at least one arc) between states."""
    return gamma(view.E)


def remove_epsilons(m: Wfst) -> Wfst:
    """Eliminate arcs labeled epsilon:epsilon.

    New weights are delta(E) (x) A_eps and the new final vector is
    delta(E) (x) rho. A rewritten arc i->j inherits the labels of the
    non-epsilon arc k->j that attains the minimum; ties pick the
    lexicographically smallest (ilabel, olabel).
    """
    view = build_matrices(m)
    n = m.n_states
    d = pointwise_min(trop_eye(n), epsilon_closure(view))
    weights = minplus_mul(d, view.A_eps)
    rho = minplus_mul(d, m.rho[:, None])[:, 0]
    arcs = []
    for i in range(n):
        for j in range(n):
            w = weights[i, j]
            if not math.isfinite(w):
                continue
            best = None
            for k in range(n):
                if math.isfinite(view.A_eps[k, j]) and d[i, k] + view.A_eps[k, j] == w:
                    labels = (int(view.sigma_i[k, j]), int(view.sigma_o[k, j]))
                    if best is None or labels < best:
                        best = labels
            arcs.append(Arc(i, j, best[0], best[1], w))
    return Wfst(n, arcs, m.lam.copy(), rho, m.isyms, m.osyms)


def trim(m: Wfst) -> Wfst:
    """Drop states on no initial-to-final path and renumber the rest."""
    fwd = {a.src: set() for a in m.arcs}
    bwd = {a.dst: set() for a in m.arcs}
    for a in m.arcs:
        fwd[a.src].add(a.dst)
        bwd[a.dst].add(a.src)

    def reach(seeds, adj):
        seen = set(seeds)
        stack = list(seeds)
        while stack:
            for nxt in adj.get(stack.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    accessible = reach(np.flatnonzero(np.isfinite(m.lam)).tolist(), fwd)
    coaccessible = reach(np.flatnonzero(np.isfinite(m.rho)).tolist(), bwd)
    keep = sorted(accessible & coaccessible)
    index = {old: new for new, old in enumerate(keep)}
    arcs = [
        Arc(index[a.src], index[a.dst], a.ilabel, a.olabel, a.weight)
        for a in m.arcs
        if a.src in index and a.dst in index
    ]
    return Wfst(len(keep), arcs, m.lam[keep], m.rho[keep], m.isyms, m.osyms)
