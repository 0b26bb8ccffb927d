"""Brute-force reference implementations used by tests.

Everything here is deliberately written with plain Python loops and
classical textbook algorithms, independent of the matrix-algebra code
it cross-checks. Desk scale only.
"""

import math
from dataclasses import dataclass

from .errors import NegativeCycleError, UnknownSymbolError
from .wfst import Wfst


def floyd_warshall(n: int, edges: list[tuple[int, int, float]]) -> list[list[float]]:
    """All-pairs shortest nonempty-path costs by classical relaxation."""
    dist = [[math.inf] * n for _ in range(n)]
    for u, v, w in edges:
        dist[u][v] = min(dist[u][v], w)
    for k in range(n):
        for i in range(n):
            dik = dist[i][k]
            if dik == math.inf:
                continue
            for j in range(n):
                cand = dik + dist[k][j]
                if cand < dist[i][j]:
                    dist[i][j] = cand
    for i in range(n):
        if dist[i][i] < 0:
            raise NegativeCycleError("negative-weight cycle detected")
    return dist


def bellman_ford_shortest_from(n: int, edges: list[tuple[int, int, float]],
                               source: int) -> list[float]:
    """Shortest nonempty-path costs from one source by edge relaxation."""
    dist = [math.inf] * n
    for u, v, w in edges:
        if u == source:
            dist[v] = min(dist[v], w)
    for _ in range(n - 1):
        for u, v, w in edges:
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
    for u, v, w in edges:
        if dist[u] + w < dist[v]:
            raise NegativeCycleError("negative-weight cycle detected")
    return dist


def bellman_ford_to_final(m: Wfst) -> list[float]:
    """Cheapest cost from each state to termination (arc costs plus rho)."""
    dist = [float(w) for w in m.rho]
    arcs = m.arcs.tolist()
    for _ in range(m.n_states - 1):
        for src, dst, _, _, w in arcs:
            cand = w + dist[dst]
            if cand < dist[src]:
                dist[src] = cand
    for src, dst, _, _, w in arcs:
        if w + dist[dst] < dist[src]:
            raise NegativeCycleError("negative-weight cycle detected")
    return dist


@dataclass(frozen=True)
class PathRecord:
    states: tuple[int, ...]
    ilabels: tuple[int, ...]
    olabels: tuple[int, ...]
    total_cost: float


def enumerate_paths(m: Wfst, max_len: int) -> list[PathRecord]:
    """Every accepting path with at most max_len arcs, by exhaustive walk."""
    out_arcs = [[] for _ in range(m.n_states)]
    for a in sorted(m.arcs.tolist(), key=lambda a: a[:2]):
        out_arcs[a[0]].append(a)
    records = []

    def walk(state, states, ilabels, olabels, cost):
        if math.isfinite(m.rho[state]):
            records.append(PathRecord(
                tuple(states), tuple(ilabels), tuple(olabels),
                cost + float(m.rho[state])))
        if len(states) - 1 >= max_len:
            return
        for _, dst, il, ol, w in out_arcs[state]:
            walk(dst, states + [dst], ilabels + [il], olabels + [ol], cost + w)

    for start in range(m.n_states):
        if math.isfinite(m.lam[start]):
            walk(start, [start], [], [], float(m.lam[start]))
    return records


def scalar_viterbi(m: Wfst, obs, sequence: list[str]):
    """Max-product Viterbi in the probability domain.

    Costs are mapped back to probabilities with exp(-cost); returns the
    best path probability and the state path, first-index tie-break.
    """
    n = m.n_states
    trans = [[0.0] * n for _ in range(n)]
    for src, dst, _, _, w in m.arcs.tolist():
        trans[src][dst] = max(trans[src][dst], math.exp(-w))
    start = [math.exp(-float(w)) if math.isfinite(w) else 0.0 for w in m.lam]
    fin = [math.exp(-float(w)) if math.isfinite(w) else 0.0 for w in m.rho]

    def emit(sym):
        if sym not in obs.costs:
            raise UnknownSymbolError(sym)
        return [math.exp(-float(c)) if math.isfinite(c) else 0.0
                for c in obs.costs[sym]]

    if not sequence:
        probs = [start[i] * fin[i] for i in range(n)]
        best = max(probs)
        return best, ([probs.index(best)] if best > 0 else [])
    b = emit(sequence[0])
    q = [start[i] * b[i] for i in range(n)]
    backpointers = []
    for sym in sequence[1:]:
        b = emit(sym)
        nq = [0.0] * n
        bp = [-1] * n
        for i in range(n):
            best, arg = 0.0, -1
            for j in range(n):
                cand = trans[j][i] * q[j]
                if cand > best:
                    best, arg = cand, j
            nq[i] = best * b[i]
            bp[i] = arg
        q = nq
        backpointers.append(bp)
    terminal = [q[i] * fin[i] for i in range(n)]
    best = max(terminal)
    if best == 0.0:
        return 0.0, []
    path = [terminal.index(best)]
    for bp in reversed(backpointers):
        path.append(bp[path[-1]])
    path.reverse()
    return best, path
