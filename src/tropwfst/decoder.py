"""Viterbi decoding in min-plus matrix form, beam pruning, and the
per-step polytope metrics (normalized volume and normalized entropy).
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import textio
from .errors import EmptyTrellisError, ParseError, UnknownSymbolError
from .semiring import INF, _matvec_into, arc_matrix, as_trop
from .wfst import Wfst, arc_arrays


@dataclass
class ObservationModel:
    """Per-symbol emission cost vectors, one entry per machine state."""

    n_states: int
    costs: dict[str, np.ndarray]

    def __post_init__(self):
        if self.n_states < 0:
            raise ValueError(f"n_states {self.n_states} is negative")
        costs, self.costs = self.costs, {}
        for sym, c in costs.items():
            c = self.costs[sym] = np.asarray(c, dtype=np.float64)
            if c.shape != (self.n_states,):
                raise ValueError(f"cost vector for {sym!r} has wrong dimension")
            if not c.min(initial=INF) > -INF:  # a NaN or a -inf entry
                as_trop(c)  # raises on NaN
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


def _backtrace(trellis: tuple, xs: np.ndarray, last: int) -> list[int]:
    """The best path to state last: j's predecessor is the first arc of j's
    row, by ascending src, with the least w + x_prev[src], the forward pass's
    sums; the path is the one argmin backpointers would give. A walk over
    Python floats, which add like the float64 arrays do, that converts
    only the rows the path visits."""
    rows, cols, w, _, _ = trellis
    bounds = np.searchsorted(rows, np.arange(xs.shape[1] + 1)).tolist()
    cols, w = memoryview(cols), memoryview(w)  # slices yield ints and floats
    visited = {}  # state: its row's (src, weight) pairs, in arc order
    path = [last]
    for t in range(len(xs) - 2, -1, -1):
        j = path[-1]
        row = visited.get(j)
        if row is None:
            b = slice(bounds[j], bounds[j + 1])
            row = visited[j] = list(zip(cols[b], w[b]))
        best, arg = INF, row[0][0]
        for src, weight in row:
            total = weight + xs.item(t, src)
            if total < best:  # the first strict minimum, as argmin takes
                best, arg = total, src
        path.append(arg)
    return path[::-1]


def decode_with_metrics(m: Wfst, obs: ObservationModel, sequence: list[str],
                        theta: float | None):
    """Decode, pruned unless theta=None; returns (cost, path, etas, xs).

    Each trellis vector (the initial one included) is cut to x <= eta =
    theta + min x as soon as it is formed: etas[t] is that eta and xs[t]
    the pruned row, whose finite entries are the survivors prune_indicator
    gives and whose other entries are +inf. There are F rows, one per
    frame, or fewer when the trellis dies; format_metrics_csv evaluates
    the metrics on them. theta=None decodes exactly, the theta=inf case
    with the prune site skipped, and returns etas=None. A pruned frame or
    a final cost whose minimum is -inf or NaN (an overflow) raises what
    prune_indicator raises.
    """
    if theta is not None and not theta >= 0:
        raise ValueError("leniency parameter must be >= 0")
    if obs.n_states != m.n_states:
        raise ValueError(f"observation model has {obs.n_states} states, "
                         f"machine has {m.n_states}")
    src, dst, w = arc_arrays(m)
    trellis = arc_matrix(dst, src, w)  # each row ascends in src, as m.arcs do
    costs = [obs.cost(sym) for sym in sequence]  # before the trellis can die
    xs = np.empty((len(sequence), m.n_states))  # for _backtrace
    etas = None if theta is None else np.empty(len(sequence))
    x = m.lam
    for t, (p, row) in enumerate(zip(costs, xs)):
        if t:  # x_t = p_t (x) (A^T (x) x_{t-1}): p + min_i (A[i, :] + x[i])
            _matvec_into(trellis, x, row, None)
        x = np.add(row if t else x, p, out=row)
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
    path = _backtrace(trellis, xs, int(np.argmin(terminal))) if cost < INF else []
    return cost, path, etas, xs


def viterbi_decode(m: Wfst, obs: ObservationModel, sequence: list[str]):
    """Exact best-path decode; returns (cost, state path).

    The path minimizes lam + emissions + transitions + rho; ties are
    broken toward the smallest state index. An empty sequence yields
    the cheapest single accepting state."""
    return decode_with_metrics(m, obs, sequence, None)[:2]


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
    r = eta - as_trop(z)
    r = r[r > 0]
    rmax = r.max(initial=0.0)
    if not 1.0 < rmax < INF:
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
    if len(etas) != len(xs):
        raise ValueError(f"{len(etas)} etas for {len(xs)} trellis rows")
    lines = ["step,support,eta,nu,entropy,degenerate"]
    for k in range(0, len(etas), _METRIC_BLOCK):
        eta = etas[k:k + _METRIC_BLOCK]
        rows = zip(eta.tolist(), *_block_metrics(eta, xs[k:k + _METRIC_BLOCK], k))
        lines += [f"{k + i},{size},{e:.9g},{nu:.9g},{entropy:.9g},{degenerate:d}"
                  for i, (e, size, nu, entropy, degenerate) in enumerate(rows)]
    return "\n".join(lines) + "\n"


def parse_observation_model(text: str) -> ObservationModel:
    """Parse 'n_states n_symbols' then one 'symbol c_0 .. c_{n-1}' per line.

    One np.loadtxt call reads the costs, its column-0 converter collecting
    the symbols, and ObservationModel is the row rule. Where either refuses
    the body, a symbol repeats or a cost is +inf (a spelled-out inf or an
    overflow such as 1e400), a per-line loop reads every line with
    textio.weights, names the first bad line and accepts tokens such as
    1_000 that loadtxt rejects."""
    rest, lines = textio.lines(text)
    lineno, header = next(lines, (None, ""))
    if lineno is None:
        raise ParseError("empty observation model")
    try:
        n_states, n_symbols = (int(t) for t in header.split())
    except ValueError:
        raise ParseError("expected header 'n_states n_symbols'", lineno) from None
    if min(n_states, n_symbols) < 0:
        raise ParseError("header counts must not be negative", lineno)
    first = next(lines, (0, None))[1]
    symbols, costs = [], np.empty((0, 0))  # n_states may not fit an array
    try:
        if first:  # loadtxt warns on a text of no rows
            costs = np.loadtxt(  # every column: the row rule checks the width
                itertools.chain([first], rest), comments=None, ndmin=2,
                converters={0: lambda sym: symbols.append(sym) or 0.0})[:, 1:]
        obs = ObservationModel(n_states, dict(zip(symbols, costs)))
    except ValueError:
        obs = None
    if obs is None or len(obs.costs) < len(symbols) or np.isinf(costs).any():
        obs = ObservationModel(n_states, {})
        for lineno, line in itertools.islice(textio.lines(text)[1], 1, None):
            toks = line.split()
            if len(toks) != n_states + 1:
                raise ParseError(f"expected symbol plus {n_states} costs", lineno)
            if toks[0] in obs.costs:
                raise ParseError(f"duplicate symbol {toks[0]!r}", lineno)
            try:  # the model's row rule too, to name the line
                obs.costs.update(ObservationModel(n_states, {
                    toks[0]: textio.weights(toks[1:])}).costs)
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from None
    if len(obs.costs) != n_symbols:
        raise ParseError(f"expected {n_symbols} symbol lines, got {len(obs.costs)}")
    return obs


def parse_sequence(text: str) -> list[str]:
    """Whitespace-separated observation symbols."""
    return text.split()
