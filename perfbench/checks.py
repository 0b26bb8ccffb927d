"""Output checks for the benchmark, written apart from the code under test.

Machines, observation models and outputs are read by the small parsers
here, and every reference value (shortest accepting cost, exact Viterbi
cost, path cost) is computed here, never by the tropwfst function whose
output is being checked. Each check returns a list of problems; an empty
list means the output passed.
"""

import math
from dataclasses import dataclass

import numpy as np

# One tolerance for every comparison of two costs: relative to their size,
# absolute below 1. Float round-off in the program stays far below it.
TOL = 1e-9
EPS = "<eps>"


def close(a, b):
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


@dataclass
class Machine:
    n: int
    arcs: list  # (src, dst, ilabel, olabel, weight)
    lam: dict   # state -> initial weight
    rho: dict   # state -> final weight


def parse_machine(text):
    arcs, lam, rho, top = [], {}, {}, -1
    for line in text.splitlines():
        toks = line.split()
        if not toks:
            continue
        if toks[0] in ("I", "F"):
            s, w = int(toks[1]), float(toks[2])
            table = lam if toks[0] == "I" else rho
            table[s] = min(table.get(s, math.inf), w)
            top = max(top, s)
        else:
            s, d = int(toks[0]), int(toks[1])
            arcs.append((s, d, toks[2], toks[3], float(toks[4])))
            top = max(top, s, d)
    return Machine(top + 1, arcs, lam, rho)


class NegativeCycle(ValueError):
    pass


def cost_to_final(m):
    """Bellman-Ford: cheapest arc path plus final weight, per state."""
    dist = [m.rho.get(i, math.inf) for i in range(m.n)]
    for _ in range(m.n):
        changed = False
        for s, d, _il, _ol, w in m.arcs:
            if w + dist[d] < dist[s]:
                dist[s] = w + dist[d]
                changed = True
        if not changed:
            return dist
    raise NegativeCycle("negative cycle")


def best_accepting_cost(m):
    dist = cost_to_final(m)
    return min((w + dist[s] for s, w in m.lam.items()), default=math.inf)


def _reach(seeds, edges):
    seen, stack = set(seeds), list(seeds)
    while stack:
        for nxt in edges.get(stack.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def check_push(src_text, out_text):
    """The output is pushed and keeps the best accepting cost."""
    src, out = parse_machine(src_text), parse_machine(out_text)
    problems = []
    try:
        dist = cost_to_final(out)
    except NegativeCycle:
        return ["push: output has a negative cycle"]
    best_out = {s: w for s, w in out.rho.items()}
    for s, _d, _il, _ol, w in out.arcs:
        best_out[s] = min(best_out.get(s, math.inf), w)
    for s in range(out.n):
        if math.isfinite(dist[s]) and not close(best_out.get(s, math.inf), 0.0):
            problems.append(f"push: state {s} has outgoing minimum "
                            f"{best_out.get(s, math.inf)!r}, not 0")
    a, b = best_accepting_cost(src), best_accepting_cost(out)
    if not close(a, b):
        problems.append(f"push: best accepting cost {b!r}, expected {a!r}")
    return problems


def check_rmepsilon_trim(src_text, out_text):
    """No eps:eps arc, every state on an accepting path, same best cost."""
    src, out = parse_machine(src_text), parse_machine(out_text)
    problems = [f"rmepsilon: eps arc {s}->{d} left" for s, d, il, ol, _w in out.arcs
                if il == EPS and ol == EPS]
    fwd, bwd = {}, {}
    for s, d, *_ in out.arcs:
        fwd.setdefault(s, []).append(d)
        bwd.setdefault(d, []).append(s)
    useful = _reach(out.lam, fwd) & _reach(out.rho, bwd)
    if len(useful) != out.n:
        problems.append(f"rmepsilon --trim: {out.n - len(useful)} state(s) on no "
                        "accepting path")
    try:
        a, b = best_accepting_cost(src), best_accepting_cost(out)
    except NegativeCycle:
        return problems + ["rmepsilon: output has a negative cycle"]
    if not close(a, b):
        problems.append(f"rmepsilon: best accepting cost {b!r}, expected {a!r}")
    return problems


def check_info(src_text, stdout):
    m = parse_machine(src_text)
    eps = sum(1 for _s, _d, il, ol, _w in m.arcs if il == EPS and ol == EPS)
    want = {"states": str(m.n), "arcs": str(len(m.arcs)), "eps_arcs": str(eps)}
    got = dict(line.split(None, 1) for line in stdout.splitlines() if line.strip())
    problems = [f"info: {k} {got.get(k)!r}, expected {v!r}"
                for k, v in want.items() if got.get(k) != v]
    if got.get("pushed") not in ("yes", "no"):
        problems.append(f"info: pushed {got.get('pushed')!r}")
    return problems


def check_validate(stdout):
    return [f"validate: {line}" for line in stdout.splitlines() if line.strip()]


def parse_observations(text):
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    return {toks[0]: np.array([float(t) for t in toks[1:]]) for toks in lines[1:]}


def dense(m):
    a = np.full((m.n, m.n), math.inf)
    for s, d, _il, _ol, w in m.arcs:
        a[s, d] = min(a[s, d], w)
    lam = np.array([m.lam.get(i, math.inf) for i in range(m.n)])
    rho = np.array([m.rho.get(i, math.inf) for i in range(m.n)])
    return a, lam, rho


def reference_viterbi(m, obs, seq):
    """Exact best cost by the min-plus recursion x_t = b_t + min_j(a_j. + x_j)."""
    a, lam, rho = dense(m)
    x = lam + obs[seq[0]]
    for sym in seq[1:]:
        x = obs[sym] + np.min(a + x[:, None], axis=0)
    return float(np.min(x + rho))


def parse_decode(stdout):
    lines = dict(line.split(" ", 1) if " " in line else (line, "")
                 for line in stdout.splitlines())
    path = [int(t) for t in lines.get("path", "").split()]
    return float(lines["cost"]), path


def path_cost(m, obs, seq, path):
    a, lam, rho = dense(m)
    cost = lam[path[0]] + rho[path[-1]]
    for t, sym in enumerate(seq):
        cost += obs[sym][path[t]]
        if t:
            cost += a[path[t - 1], path[t]]
    return float(cost)


def check_decode(m, obs, seq, stdout, exact, pruned_trace=None):
    """An exact decode (pruned_trace None) must reach the reference cost;
    a pruned one may not beat it and must write one trace row per frame.
    Either way the path must be a real path with the printed cost."""
    kind = "decode" if pruned_trace is None else "decode --theta"
    problems = []
    try:
        cost, path = parse_decode(stdout)
    except (KeyError, ValueError):
        return [f"{kind}: unreadable output {stdout!r}"]
    if pruned_trace is None and not close(cost, exact):
        problems.append(f"{kind}: cost {cost!r}, reference {exact!r}")
    if pruned_trace is not None and cost < exact and not close(cost, exact):
        problems.append(f"{kind}: cost {cost!r} below the exact cost {exact!r}")
    if math.isinf(cost):
        if path:
            problems.append(f"{kind}: path given for an infinite cost")
    elif len(path) != len(seq) or not all(0 <= s < m.n for s in path):
        problems.append(f"{kind}: path of {len(path)} states for {len(seq)} frames")
    elif not close(path_cost(m, obs, seq, path), cost):
        problems.append(f"{kind}: path costs {path_cost(m, obs, seq, path)!r}, "
                        f"printed {cost!r}")
    if pruned_trace is not None:
        rows = [ln.split(",") for ln in pruned_trace.splitlines()[1:] if ln]
        if len(rows) != len(seq):
            problems.append(f"{kind}: {len(rows)} trace rows for {len(seq)} frames")
        for t, row in enumerate(rows):
            if int(row[0]) != t or not 1 <= int(row[1]) <= m.n:
                problems.append(f"{kind}: bad trace row {','.join(row)}")
                break
    return problems
