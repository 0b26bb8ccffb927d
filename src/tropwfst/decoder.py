"""Viterbi decoding in min-plus matrix form, beam pruning, and the
per-step polytope metrics (normalized volume and normalized entropy).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyTrellisError, ParseError, UnknownSymbolError
from .semiring import INF, _matvec_into, arc_matrix, as_trop
from .textio import parse_weight, token_lines
from .wfst import Wfst, arc_arrays


@dataclass
class ObservationModel:
    """Per-symbol emission cost vectors, one entry per machine state."""

    n_states: int
    costs: dict[str, np.ndarray]

    def __post_init__(self):
        if self.n_states < 0:
            raise ValueError(f"n_states {self.n_states} is negative")
        self.costs = {s: as_trop(c) for s, c in self.costs.items()}
        for sym, c in self.costs.items():
            if c.shape != (self.n_states,):
                raise ValueError(f"cost vector for {sym!r} has wrong dimension")
            if (c == -INF).any():
                raise ValueError(f"cost vector for {sym!r} has a -inf entry")

    def cost(self, sym: str) -> np.ndarray:
        try:
            return self.costs[sym]
        except KeyError:
            raise UnknownSymbolError(sym) from None


@dataclass
class PruneReport:
    """One pruned trellis step: eta = theta + min x, the surviving state
    indices (ascending) and their costs z = x[support]."""

    eta: float
    support: np.ndarray
    z: np.ndarray


def _step(trellis: tuple, x_prev: np.ndarray, p: np.ndarray,
          out: np.ndarray) -> np.ndarray:
    """out = p (x) (A^T (x) x_prev), dense form p + min_i (A[i, :] +
    x_prev[i]), on the arcs as rows dst, cols src."""
    _matvec_into(trellis, x_prev, out, None)
    out += p
    return out


def _backtrace(trellis: tuple, xs: np.ndarray, last: int) -> list[int]:
    """The best path to state last: j's predecessor is the first arc of j's
    row, by ascending src, with the least w + x_prev[src], the forward pass's
    sums; the path is the one argmin backpointers would give. A walk over
    Python floats, which add like the float64 arrays do."""
    rows, cols, w, _, _ = trellis
    bounds = np.searchsorted(rows, np.arange(xs.shape[1] + 1)).tolist()
    arcs = list(zip(cols.tolist(), w.tolist()))
    path = [last]
    for t in range(len(xs) - 2, -1, -1):
        row = arcs[bounds[path[-1]]:bounds[path[-1] + 1]]
        best, arg = INF, row[0][0]
        for src, weight in row:
            total = weight + xs.item(t, src)
            if total < best:  # the first strict minimum, as argmin takes
                best, arg = total, src
        path.append(arg)
    path.reverse()
    return path


def _decode(m: Wfst, obs: ObservationModel, sequence: list[str],
            theta: float | None = None):
    """The trellis loop behind the decoders; returns (cost, path, etas, xs):
    the stored trellis rows xs, each pruned to x <= etas[t] unless etas=None.

    theta=None decodes exactly and returns etas=None. Exact decoding is
    the theta=inf case, where pruning keeps every finite entry, so the
    prune site is skipped. A pruned frame or a final cost whose minimum is
    -inf or NaN (an overflow) raises what prune_indicator raises.
    """
    if theta is not None and not theta >= 0:
        raise ValueError("leniency parameter must be >= 0")
    if obs.n_states != m.n_states:
        raise ValueError(f"observation model has {obs.n_states} states, "
                         f"machine has {m.n_states}")
    src, dst, w = arc_arrays(m)
    by_src = np.argsort(src, kind="stable")  # so each row ascends in src
    trellis = arc_matrix(dst[by_src], src[by_src], w[by_src])
    costs = [obs.cost(sym) for sym in sequence]  # before the trellis can die
    xs = np.empty((len(sequence), m.n_states))  # for _backtrace
    etas = None if theta is None else np.empty(len(sequence))
    x = m.lam
    for t, p in enumerate(costs):
        x = _step(trellis, x, p, xs[t]) if t else np.add(x, p, out=xs[t])
        if etas is not None:
            low = x.min(initial=INF)
            if low == INF:  # structurally dead trellis, not a pruning artifact
                return INF, [], etas[:t], xs[:t]
            if not low > -INF:
                prune_indicator(x, theta)  # raises on -inf or NaN
            etas[t] = eta = theta + low
            x[x > eta] = INF
    terminal = x + m.rho
    cost = float(np.min(terminal))
    if not cost > -INF:
        prune_indicator(terminal, INF)  # raises on -inf or NaN
    if cost == INF:
        return cost, [], etas, xs
    return cost, _backtrace(trellis, xs, int(np.argmin(terminal))), etas, xs


def viterbi_decode(m: Wfst, obs: ObservationModel, sequence: list[str]):
    """Exact best-path decode; returns (cost, state path).

    The path minimizes lam + emissions + transitions + rho; ties are
    broken toward the smallest state index. An empty sequence yields
    the cheapest single accepting state.
    """
    return _decode(m, obs, sequence)[:2]


def prune_indicator(x: np.ndarray, theta: float) -> PruneReport:
    """Beam-pruning indicator: state i survives iff x[i] <= theta + min x.

    The closed form is the Cuninghame-Green conjugate: eta = theta plus
    half the min-plus inner product of x with itself, and ybar is the
    max-plus product of diag(-x) with eta, whose nonnegative entries mark
    the survivors. Both reduce to eta = theta + min x and ybar[i] = eta -
    x[i], so the support is the finite x[i] <= eta, which is what is
    computed.
    """
    x = as_trop(x)
    if not theta >= 0:
        raise ValueError("leniency parameter must be >= 0")
    low = float(np.min(x, initial=INF))
    if low == -INF:
        raise ValueError("trellis vector has a -inf entry")
    if low == INF:
        raise EmptyTrellisError("all trellis entries are +inf")
    eta = theta + low
    support = np.flatnonzero((x <= eta) & (x < INF))
    return PruneReport(eta=eta, support=support, z=x[support])


def metric_nu(eta: float, z: np.ndarray) -> tuple[float, bool]:
    """Normalized volume: -mean over survivors of log(r_i) / log(max r),
    with slack r_i = eta - z_i; returns (nu, degenerate).

    Survivors sitting exactly on the polytope boundary (r_i = 0) are
    excluded; if the normalization degenerates (max r <= 1 or nothing
    left) the metric is 0 and degenerate is True.
    """
    z = as_trop(z)
    r = eta - z
    r = r[r > 0]
    rmax = r.max() if r.size else 0.0
    if r.size == 0 or rmax <= 1.0 or math.isinf(rmax):
        return 0.0, True
    return float(-np.mean(np.log(r) / np.log(rmax))), False


def metric_entropy(z: np.ndarray) -> float:
    """Normalized entropy: mean over survivors of z_i * exp(-z_i);
    OverflowError if it overflows float64 (a cost below about -709)."""
    z = as_trop(z)
    if z.size == 0:
        raise ValueError("empty support")
    with np.errstate(over="ignore"):
        ent = float(np.mean(np.where(np.isfinite(z), z * np.exp(-z), 0.0)))
    if not math.isfinite(ent):
        raise OverflowError("entropy overflows float64")
    return ent


def decode_with_metrics(m: Wfst, obs: ObservationModel, sequence: list[str],
                        theta: float):
    """Pruned decode returning (cost, path, etas, xs), the trace's rows.

    Each trellis vector (the initial one included) is cut to x <= eta =
    theta + min x as soon as it is formed: etas[t] is that eta and xs[t]
    the pruned row, whose finite entries are the survivors prune_indicator
    gives and whose other entries are +inf. There are F rows, one per
    frame, or fewer when the trellis dies; format_metrics_csv evaluates
    the metrics on them.
    """
    return _decode(m, obs, sequence, theta)


_METRIC_BLOCK = 256  # frames whose metrics are evaluated at once


def _row_means(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """np.mean of each consecutive row of values, counts >= 1 long, bit for
    bit: np.mean sums 0.0 + pairwise(row), reduceat row[0] + pairwise(rest)."""
    at = np.cumsum(counts) - counts
    sums = np.add.reduceat(np.insert(values, at, 0.0), at + np.arange(at.size))
    return sums / counts


def _block_metrics(etas: np.ndarray, block: np.ndarray, first: int):
    """Lists of survivor count, nu, entropy and degenerate of a block of
    pruned rows, the first at step first: bit for bit what metric_nu and
    metric_entropy give on each row's finite entries."""
    finite = block < INF
    sizes = np.count_nonzero(finite, axis=1)
    if not sizes.all():
        raise ValueError("empty support")
    z = block[finite]  # row by row, each in ascending state order
    with np.errstate(over="ignore"):
        entropy = _row_means(np.exp(-z) * z, sizes)
    for i in np.flatnonzero(~np.isfinite(entropy))[:1]:
        raise OverflowError(f"entropy overflows float64 at step {first + i}")
    r = np.subtract(np.repeat(etas, sizes), z, out=z)
    starts = np.cumsum(sizes) - sizes
    rmax = np.maximum.reduceat(r, starts)
    keep = (rmax > 1.0) & (rmax < INF)  # rmax <= 0 if no r > 0
    positive = r > 0
    count = np.add.reduceat(positive, starts, dtype=np.intp)[keep]
    q = r[positive & np.repeat(keep, sizes)]
    np.log(q, out=q)
    q /= np.repeat(np.log(rmax[keep]), count)
    nu = np.zeros(len(block))
    nu[keep] = -_row_means(q, count)
    return sizes.tolist(), nu.tolist(), entropy.tolist(), (~keep).tolist()


def format_metrics_csv(etas: np.ndarray, xs: np.ndarray) -> str:
    """Per-step trace of the pruned rows xs and their etas, as
    decode_with_metrics returns them: step, survivor count, eta, nu,
    entropy, degenerate, evaluated _METRIC_BLOCK rows at a time."""
    lines = ["step,support,eta,nu,entropy,degenerate"]
    for k in range(0, len(etas), _METRIC_BLOCK):
        eta = etas[k:k + _METRIC_BLOCK]
        rows = zip(eta.tolist(), *_block_metrics(eta, xs[k:k + _METRIC_BLOCK], k))
        lines += [f"{k + i},{size},{e:.9g},{nu:.9g},{entropy:.9g},{degenerate:d}"
                  for i, (e, size, nu, entropy, degenerate) in enumerate(rows)]
    return "\n".join(lines) + "\n"


def _cost_matrix(body: list[str], symbols: list[str], n_states: int):
    """The costs of the body lines by symbol, from one np.loadtxt call (a C
    tokenizer and float parser); None where a row is the wrong width, a
    symbol repeats, an entry is not finite or loadtxt fails."""
    if not symbols or len(set(symbols)) < len(symbols):
        return None
    try:  # every column, so a row that is too long fails the shape test
        costs = np.loadtxt(body, comments=None, ndmin=2,
                           converters={0: lambda sym: 0.0})
    except ValueError:
        return None
    if (costs.shape != (len(symbols), n_states + 1)
            or not np.isfinite(costs[:, 1:]).all()):
        return None
    return dict(zip(symbols, costs[:, 1:]))


def parse_observation_model(text: str) -> ObservationModel:
    """Parse 'n_states n_symbols' then one 'symbol c_0 .. c_{n-1}' per line.

    The costs come from _cost_matrix. Where it gives None, a per-line loop
    reads them with float(), and with parse_weight on a line that holds a
    non-finite value; it reports the first bad line and accepts tokens
    such as 1_000 that loadtxt rejects.
    """
    lines = token_lines(text)
    lineno, header = next(lines, (None, None))
    if header is None:
        raise ParseError("empty observation model")
    try:
        n_states, n_symbols = (int(t) for t in header)
    except ValueError:
        raise ParseError("expected header 'n_states n_symbols'", lineno) from None
    if min(n_states, n_symbols) < 0:
        raise ParseError("header counts must not be negative", lineno)
    body = text.splitlines()[lineno:]
    symbols = [tok for line in body for tok in line.split(None, 1)[:1]]
    costs = _cost_matrix(body, symbols, n_states)
    if costs is None:
        costs = {}
        for lineno, toks in lines:
            if len(toks) != n_states + 1:
                raise ParseError(f"expected symbol plus {n_states} costs", lineno)
            if toks[0] in costs:
                raise ParseError(f"duplicate symbol {toks[0]!r}", lineno)
            try:
                c = np.fromiter(map(float, toks[1:]), float, n_states)
                if not np.isfinite(c).all():  # NaN, an overflow or inf
                    c = np.array([parse_weight(t) for t in toks[1:]])
                costs[toks[0]] = c
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from None
    if len(costs) != n_symbols:
        raise ParseError(f"expected {n_symbols} symbol lines, got {len(costs)}")
    return ObservationModel(n_states=n_states, costs=costs)


def parse_sequence(text: str) -> list[str]:
    """Whitespace-separated observation symbols."""
    return text.split()
