"""Viterbi decoding in min-plus matrix form, beam pruning, and the
per-step polytope metrics (normalized volume and normalized entropy).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyTrellisError, ParseError, UnknownSymbolError
from .semiring import INF, arc_matrix, as_trop, minplus_matvec
from .textio import parse_weight
from .wfst import Wfst, arc_arrays


@dataclass
class ObservationModel:
    """Per-symbol emission cost vectors, one entry per machine state."""

    n_states: int
    costs: dict[str, np.ndarray]

    def __post_init__(self):
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
    """Pruning decision and polytope metrics for one trellis step."""

    eta: float
    ybar: np.ndarray
    support: np.ndarray  # surviving state indices, ascending
    r: np.ndarray        # slack eta - z_i over the support
    nu: float | None = None
    entropy: float | None = None
    degenerate: bool = False
    step: int = 0


def _step(trellis: tuple, x_prev: np.ndarray, p: np.ndarray):
    """x = p (x) (A^T (x) x_prev), dense form p + min_i (A[i, :] + x_prev[i]),
    on the arcs as rows dst, cols src; bp[j] is the smallest source state
    attaining a finite x[j], else -1."""
    best, bp = minplus_matvec(trellis, x_prev)
    x = p + best
    return x, np.where(np.isfinite(x), bp, -1)


def _backtrace(backpointers, last):
    path = [last]
    for bp in reversed(backpointers):
        path.append(int(bp[path[-1]]))
    path.reverse()
    return path


def _decode(m: Wfst, obs: ObservationModel, sequence: list[str],
            theta: float | None = None, metrics: bool = True):
    """The trellis loop behind the decoders; returns (cost, path, reports).

    theta=None decodes exactly and returns reports=None. Exact decoding
    is the theta=inf case, where pruning keeps every finite entry, so the
    prune site and its metrics are skipped. Otherwise each trellis
    vector, the initial one included, is pruned with leniency theta right
    after it is formed, and its PruneReport is recorded, with nu and
    entropy only if metrics is set.
    """
    if theta is not None and theta < 0:
        raise ValueError("leniency parameter must be >= 0")
    if obs.n_states != m.n_states:
        raise ValueError(f"observation model has {obs.n_states} states, "
                         f"machine has {m.n_states}")
    src, dst, w = arc_arrays(m)
    trellis = arc_matrix(dst, src, w, src)
    reports = None if theta is None else []
    x = m.lam + obs.cost(sequence[0]) if sequence else m.lam
    backpointers = []
    for t, sym in enumerate(sequence):
        if t:
            x, bp = _step(trellis, x, obs.cost(sym))
            backpointers.append(bp)
        if reports is not None:
            if not np.isfinite(x).any():
                # structurally dead trellis, not a pruning artifact
                return INF, [], reports
            report = prune_indicator(x, theta)
            report.step = t
            z = x[report.support]
            if metrics:
                metric_nu(report, z)
                metric_entropy(report, z)
            reports.append(report)
            x = np.full_like(x, INF)
            x[report.support] = z
    terminal = x + m.rho
    cost = float(np.min(terminal))
    if not math.isfinite(cost):
        return cost, [], reports
    return cost, _backtrace(backpointers, int(np.argmin(terminal))), reports


def viterbi_decode(m: Wfst, obs: ObservationModel, sequence: list[str]):
    """Exact best-path decode; returns (cost, state path).

    The path minimizes lam + emissions + transitions + rho; ties are
    broken toward the smallest state index. An empty sequence yields
    the cheapest single accepting state.
    """
    return _decode(m, obs, sequence)[:2]


def pruned_decode(m: Wfst, obs: ObservationModel, sequence: list[str],
                  theta: float):
    """decode_with_metrics without the metrics; returns (cost, path)."""
    return _decode(m, obs, sequence, theta, metrics=False)[:2]


def prune_indicator(x: np.ndarray, theta: float) -> PruneReport:
    """Beam-pruning indicator: state i survives iff x[i] <= theta + min x.

    The closed form is the Cuninghame-Green conjugate: eta = theta plus
    half the min-plus inner product of x with itself, and ybar is the
    max-plus product of diag(-x) with eta. Both reduce to eta = theta +
    min x and ybar[i] = eta - x[i], which is what is computed; negative
    entries of ybar mark pruned states.
    """
    x = as_trop(x)
    if theta < 0:
        raise ValueError("leniency parameter must be >= 0")
    finite = np.isfinite(x)
    if not finite.any():
        raise EmptyTrellisError("all trellis entries are +inf")
    if math.isinf(theta):
        ybar = np.where(finite, INF, -INF)
        support = np.flatnonzero(finite)
        return PruneReport(eta=INF, ybar=ybar, support=support,
                           r=ybar[support])
    eta = theta + float(np.min(x))
    with np.errstate(invalid="ignore"):
        ybar = eta - x
    if np.isnan(ybar).any():
        raise ValueError("inf + (-inf) encountered in pruning indicator")
    support = np.flatnonzero(ybar >= 0)
    return PruneReport(eta=eta, ybar=ybar, support=support, r=ybar[support])


def metric_nu(report: PruneReport, z: np.ndarray) -> float:
    """Normalized volume: -mean over survivors of log(r_i) / log(max r).

    Survivors sitting exactly on the polytope boundary (r_i = 0) are
    excluded; if the normalization degenerates (max r <= 1 or nothing
    left) the metric is 0 and the report is flagged degenerate.
    """
    z = as_trop(z)
    r = report.eta - z
    r = r[r > 0]
    rmax = r.max() if r.size else 0.0
    if r.size == 0 or rmax <= 1.0 or math.isinf(rmax):
        report.degenerate = True
        report.nu = 0.0
        return 0.0
    nu = float(-np.mean(np.log(r) / np.log(rmax)))
    report.nu = nu
    return nu


def metric_entropy(report: PruneReport, z: np.ndarray) -> float:
    """Normalized entropy: mean over survivors of z_i * exp(-z_i);
    OverflowError if it overflows float64 (a cost below about -709)."""
    z = as_trop(z)
    if z.size == 0:
        raise ValueError("empty support")
    with np.errstate(over="ignore"):
        ent = float(np.mean(np.where(np.isfinite(z), z * np.exp(-z), 0.0)))
    if not math.isfinite(ent):
        raise OverflowError(f"entropy overflows float64 at step {report.step}")
    report.entropy = ent
    return ent


def decode_with_metrics(m: Wfst, obs: ObservationModel, sequence: list[str],
                        theta: float):
    """Pruned decode returning (cost, path, per-step PruneReport list).

    Each trellis vector (the initial one included) is pruned with
    leniency theta right after it is formed, and the polytope metrics
    are evaluated on the surviving entries before pruning is applied.
    """
    return _decode(m, obs, sequence, theta)


def format_metrics_csv(reports: list[PruneReport]) -> str:
    """Per-step trace: step, survivor count, eta, nu, entropy, degenerate."""
    lines = ["step,support,eta,nu,entropy,degenerate"]
    for rep in reports:
        lines.append(
            f"{rep.step},{rep.support.size},{rep.eta:.9g},"
            f"{rep.nu:.9g},{rep.entropy:.9g},{int(rep.degenerate)}"
        )
    return "\n".join(lines) + "\n"


def parse_observation_model(text: str) -> ObservationModel:
    """Parse 'n_states n_symbols' then one 'symbol c_0 .. c_{n-1}' per line."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty observation model")
    try:
        n_states, n_symbols = (int(t) for t in lines[0].split())
    except ValueError:
        raise ParseError("expected header 'n_states n_symbols'", 1) from None
    if len(lines) - 1 != n_symbols:
        raise ParseError(f"expected {n_symbols} symbol lines, got {len(lines) - 1}")
    costs = {}
    for lineno, line in enumerate(lines[1:], start=2):
        toks = line.split()
        if len(toks) != n_states + 1:
            raise ParseError(f"expected symbol plus {n_states} costs", lineno)
        try:
            costs[toks[0]] = np.array([parse_weight(t) for t in toks[1:]])
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
    return ObservationModel(n_states=n_states, costs=costs)


def parse_sequence(text: str) -> list[str]:
    """Whitespace-separated observation symbols."""
    return text.split()
