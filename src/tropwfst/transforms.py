"""Structure-preserving rewrites: weight pushing and epsilon removal.

Both are closed-form matrix computations: pushing conjugates the
transition matrix by the potential vector, epsilon removal multiplies
by the closure of the epsilon-only part.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NegativeCycleError, UnreachableFinalError
from .semiring import approx_equal, arc_matrix, minplus_matvec, trop_eye
from .wfst import Wfst, _is_epsilon, arc_arrays


@dataclass(frozen=True)
class Potentials:
    """Per-state shortest cost to termination, including the final weight."""

    v: np.ndarray
    iterations_to_fixpoint: int


def _relax(a: tuple, v: np.ndarray) -> tuple[np.ndarray, int]:
    """Iterate v <- v ^ (a (x) v) to its fixpoint; return (v, sweeps), where
    sweeps counts the iterations that changed v. A sweep is O(arcs) per
    column of v.

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
    a = arc_matrix(*arc_arrays(m))
    v, _ = _relax(a, m.rho)
    out, _ = minplus_matvec(a, np.zeros(m.n_states))
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
    src, dst = m.arcs["src"], m.arcs["dst"]
    arcs = m.arcs[np.isfinite(v[src]) & np.isfinite(v[dst])]
    arcs["weight"] = -v[arcs["src"]] + arcs["weight"] + v[arcs["dst"]]
    return Wfst(m.n_states, arcs, lam, rho, m.isyms, m.osyms)


def remove_epsilons(m: Wfst) -> Wfst:
    """Eliminate arcs labeled epsilon:epsilon.

    New weights are delta(E) (x) A_eps and the new final vector is
    delta(E) (x) rho: the closure d = delta(E) is the relaxation over the
    epsilon arcs from the identity, and one product over the other arcs,
    rows dst and cols src, with d^T gives the new weights transposed. A
    rewritten arc i->j inherits the labels of the non-epsilon arc k->j
    that attains the minimum; ties pick the smallest (ilabel, olabel).
    """
    src, dst, w = arc_arrays(m)
    eps = _is_epsilon(m.arcs)
    d, _ = _relax(arc_matrix(src[eps], dst[eps], w[eps]), trop_eye(m.n_states))
    rest = m.arcs[~eps]
    rest = rest[np.lexsort((rest["olabel"], rest["ilabel"]))]
    weights, best = minplus_matvec(arc_matrix(
        rest["dst"], rest["src"], rest["weight"], np.arange(len(rest))), d.T)
    i, j = np.nonzero(np.isfinite(weights.T))
    arcs = rest[best[j, i]]  # for the labels of the arc attaining each weight
    arcs["src"], arcs["dst"], arcs["weight"] = i, j, weights[j, i]
    return Wfst(m.n_states, arcs, m.lam.copy(), np.min(d + m.rho, axis=1),
                m.isyms, m.osyms)


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
    index = np.full(m.n_states, -1)
    index[keep] = np.arange(keep.size)
    arcs = m.arcs[(index[src] >= 0) & (index[dst] >= 0)]
    arcs["src"], arcs["dst"] = index[arcs["src"]], index[arcs["dst"]]
    return Wfst(len(keep), arcs, m.lam[keep], m.rho[keep], m.isyms, m.osyms)
