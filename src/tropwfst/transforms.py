"""Structure-preserving rewrites: weight pushing and epsilon removal.

Both are closed-form matrix computations: pushing conjugates the
transition matrix by the potential vector, epsilon removal multiplies
by the closure of the epsilon-only part.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NegativeCycleError, UnreachableFinalError
from .semiring import (approx_equal, arc_matrix, delta, gamma, minplus_matvec,
                       minplus_mul)
from .wfst import Arc, MatrixView, Wfst, arc_arrays, build_matrices


@dataclass(frozen=True)
class Potentials:
    """Per-state shortest cost to termination, including the final weight."""

    v: np.ndarray
    iterations_to_fixpoint: int


def _relax(a: tuple, v: np.ndarray) -> tuple[np.ndarray, int]:
    """Iterate v <- v ^ (a (x) v) to its fixpoint; return (v, sweeps), where
    sweeps counts the iterations that changed v. A sweep is O(arcs).

    Without negative-weight cycles the fixpoint is delta(a) (x) v0, reached
    in at most n - 1 changing sweeps and confirmed by the n-th. A negative
    cycle from which no state with finite v0 is reachable stays at +inf;
    any other one admits no fixpoint: NegativeCycleError after n sweeps.
    """
    for sweeps in range(len(v)):
        nxt = np.minimum(v, minplus_matvec(a, v)[0])
        if np.array_equal(nxt, v):
            return nxt, sweeps
        v = nxt
    raise NegativeCycleError("negative-weight cycle detected")


def compute_potentials(m: Wfst) -> Potentials:
    """Closed form: v = delta(A) (x) rho, reached as the fixpoint of the
    one-step relaxation v <- v ^ (A (x) v) from v0 = rho.

    States that cannot reach a final state get v = +inf, also on a
    negative-weight cycle; one that can reach a final state raises
    NegativeCycleError.
    """
    v, sweeps = _relax(arc_matrix(*arc_arrays(m)), m.rho)
    return Potentials(v=v, iterations_to_fixpoint=sweeps)


def is_pushed(m: Wfst) -> bool:
    """Normalization check: the outgoing minimum (arcs and rho) is 0, up
    to TOL, wherever a final state is reachable."""
    v = compute_potentials(m).v
    out, _ = minplus_matvec(arc_matrix(*arc_arrays(m)), np.zeros(m.n_states))
    best = np.minimum(out, m.rho)
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
    d = delta(view.E)
    weights = minplus_mul(d, view.A_eps)
    rho = minplus_mul(d, m.rho[:, None])[:, 0]
    # one integer key per (ilabel, olabel), ordered like the tuple
    base = int(view.sigma_o.max()) + 1
    keys = view.sigma_i * base + view.sigma_o
    best = np.full(weights.shape, np.iinfo(np.int64).max)
    for k, a_k in enumerate(view.A_eps):
        attains = np.isfinite(a_k) & (d[:, k, None] + a_k == weights)
        best = np.where(attains, np.minimum(best, keys[k]), best)
    arcs = [Arc(i, j, *divmod(int(best[i, j]), base), weights[i, j])
            for i, j in np.argwhere(np.isfinite(weights)).tolist()]
    return Wfst(m.n_states, arcs, m.lam.copy(), rho, m.isyms, m.osyms)


def trim(m: Wfst) -> Wfst:
    """Drop states on no initial-to-final path and renumber the rest.

    Reachability is the relaxation over the arcs with weight 0: forward
    from the initial states (rows dst), backward from the final states
    (rows src).
    """
    src, dst, _ = arc_arrays(m)
    zero = np.zeros(src.size)
    fwd, bwd = arc_matrix(dst, src, zero), arc_matrix(src, dst, zero)
    accessible, _ = _relax(fwd, np.where(np.isfinite(m.lam), 0.0, math.inf))
    coaccessible, _ = _relax(bwd, np.where(np.isfinite(m.rho), 0.0, math.inf))
    keep = np.flatnonzero(np.isfinite(accessible) & np.isfinite(coaccessible))
    index = {int(old): new for new, old in enumerate(keep)}
    arcs = [Arc(index[a.src], index[a.dst], a.ilabel, a.olabel, a.weight)
            for a in m.arcs if a.src in index and a.dst in index]
    return Wfst(len(keep), arcs, m.lam[keep], m.rho[keep], m.isyms, m.osyms)
