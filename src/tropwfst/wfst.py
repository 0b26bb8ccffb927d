"""Weighted finite-state transducer model, validation, and text I/O.

Weights are costs (negated log probabilities) in the min-plus semiring.
Label id 0 is reserved for epsilon, written ``<eps>`` in text files.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError, UnknownSymbolError
from .semiring import as_trop, pointwise_min, trop_zeros
from .textio import format_weight, parse_weight

EPSILON = 0
EPSILON_SYM = "<eps>"


class SymbolTable:
    """Bidirectional label-id <-> string map; id 0 is always epsilon."""

    def __init__(self, symbols=None):
        self._syms: list[str] = [EPSILON_SYM]
        self._ids: dict[str, int] = {EPSILON_SYM: EPSILON}
        for sym in symbols or ():
            self.add(sym)

    def add(self, sym: str) -> int:
        if sym not in self._ids:
            self._ids[sym] = len(self._syms)
            self._syms.append(sym)
        return self._ids[sym]

    def id_of(self, sym: str) -> int:
        try:
            return self._ids[sym]
        except KeyError:
            raise UnknownSymbolError(sym) from None

    def sym_of(self, label: int) -> str:
        try:
            return self._syms[label]
        except IndexError:
            raise UnknownSymbolError(label) from None

    def __contains__(self, sym: str) -> bool:
        return sym in self._ids

    def __len__(self) -> int:
        return len(self._syms)

    def __iter__(self):
        return iter(self._syms)


@dataclass(frozen=True)
class Arc:
    src: int
    dst: int
    ilabel: int
    olabel: int
    weight: float

    @property
    def is_epsilon(self) -> bool:
        return self.ilabel == EPSILON and self.olabel == EPSILON


@dataclass
class Wfst:
    """States 0..n-1, arcs, initial-weight and final-weight vectors.

    lam[i] is the cost of starting in state i, rho[i] the cost of
    accepting there; +inf marks non-initial / non-final states. Entries
    are finite or +inf: validate reports -inf ones.
    Treat instances as immutable once constructed.
    """

    n_states: int
    arcs: list[Arc]
    lam: np.ndarray
    rho: np.ndarray
    isyms: SymbolTable = field(default_factory=SymbolTable)
    osyms: SymbolTable = field(default_factory=SymbolTable)

    def __post_init__(self):
        self.lam = as_trop(self.lam)
        self.rho = as_trop(self.rho)

    def epsilon_arcs(self) -> list[Arc]:
        return [a for a in self.arcs if a.is_epsilon]


@dataclass(frozen=True)
class MatrixView:
    """Dense matrix extraction of a machine.

    A is the full transition-cost matrix, E its epsilon-only part and
    A_eps the rest, so that A = A_eps ^ E entrywise. sigma_i / sigma_o
    hold label ids, -1 where no arc exists.
    """

    A: np.ndarray
    E: np.ndarray
    A_eps: np.ndarray
    sigma_i: np.ndarray
    sigma_o: np.ndarray


def validate(m: Wfst) -> list[str]:
    """Return a list of violation messages; empty means valid."""
    problems = []
    seen = set()
    for a in m.arcs:
        if not (0 <= a.src < m.n_states and 0 <= a.dst < m.n_states):
            problems.append(f"arc {a.src}->{a.dst}: state index out of range")
            continue
        if (a.src, a.dst) in seen:
            problems.append(f"arc {a.src}->{a.dst}: duplicate state pair")
        seen.add((a.src, a.dst))
        if not math.isfinite(a.weight):
            problems.append(f"arc {a.src}->{a.dst}: non-finite weight")
    for kind, vec in (("initial", m.lam), ("final", m.rho)):
        if vec.shape != (m.n_states,):
            problems.append(f"{kind}-weight vector has wrong dimension")
            continue
        problems.extend(f"{kind} weight of state {i} is -inf"
                        for i in np.flatnonzero(vec == -math.inf))
        if not np.isfinite(vec).any():
            problems.append(f"no {kind} state")
    return problems


def arc_arrays(m: Wfst) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The arcs of a valid machine as parallel src, dst, weight arrays."""
    problems = validate(m)
    if problems:
        raise ValueError("invalid machine: " + "; ".join(problems))
    src = np.array([a.src for a in m.arcs], dtype=np.int64)
    dst = np.array([a.dst for a in m.arcs], dtype=np.int64)
    return src, dst, np.array([a.weight for a in m.arcs], dtype=np.float64)


def build_matrices(m: Wfst) -> MatrixView:
    """Extract A, its epsilon/non-epsilon split, and the label matrices."""
    src, dst, w = arc_arrays(m)
    eps = np.array([a.is_epsilon for a in m.arcs], dtype=bool)
    n = m.n_states
    e, a_eps = trop_zeros((n, n)), trop_zeros((n, n))
    e[src[eps], dst[eps]] = w[eps]
    a_eps[src[~eps], dst[~eps]] = w[~eps]
    sigma_i = np.full((n, n), -1, dtype=np.int64)
    sigma_o = np.full((n, n), -1, dtype=np.int64)
    sigma_i[src, dst] = [a.ilabel for a in m.arcs]
    sigma_o[src, dst] = [a.olabel for a in m.arcs]
    return MatrixView(A=pointwise_min(a_eps, e), E=e, A_eps=a_eps,
                      sigma_i=sigma_i, sigma_o=sigma_o)


def parse_text(text: str, isyms: SymbolTable | None = None,
               osyms: SymbolTable | None = None) -> Wfst:
    """Parse the line-oriented machine format.

    Lines are ``I state weight``, ``src dst ilabel olabel weight`` or
    ``F state weight``. Symbols not in a caller-supplied table raise
    UnknownSymbolError; with the default fresh tables they are added.
    """
    grow = isyms is None and osyms is None
    isyms = isyms if isyms is not None else SymbolTable()
    osyms = osyms if osyms is not None else SymbolTable()
    initials: list[tuple[int, float]] = []
    finals: list[tuple[int, float]] = []
    arcs: list[tuple[int, int, str, str, float]] = []
    max_state = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        toks = line.split()
        try:
            if toks[0] in ("I", "F"):
                if len(toks) != 3:
                    raise ParseError("expected 'I/F state weight'", lineno)
                state, w = int(toks[1]), parse_weight(toks[2])
                if state < 0:
                    raise ParseError("negative state index", lineno)
                (initials if toks[0] == "I" else finals).append((state, w))
                max_state = max(max_state, state)
            else:
                if len(toks) != 5:
                    raise ParseError(
                        "expected 'src dst ilabel olabel weight'", lineno)
                src, dst = int(toks[0]), int(toks[1])
                if min(src, dst) < 0:
                    raise ParseError("negative state index", lineno)
                w = parse_weight(toks[4])
                arcs.append((src, dst, toks[2], toks[3], w))
                max_state = max(max_state, src, dst)
        except ParseError:
            raise
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
    n = max_state + 1
    if n == 0:
        raise ParseError("no states in input")
    lam = trop_zeros(n)
    rho = trop_zeros(n)
    for state, w in initials:
        lam[state] = min(lam[state], w)
    for state, w in finals:
        rho[state] = min(rho[state], w)
    resolved = []
    for src, dst, isym, osym, w in arcs:
        if grow:
            il, ol = isyms.add(isym), osyms.add(osym)
        else:
            il, ol = isyms.id_of(isym), osyms.id_of(osym)
        resolved.append(Arc(src, dst, il, ol, w))
    return Wfst(n, resolved, lam, rho, isyms, osyms)


def serialize_text(m: Wfst) -> str:
    """Canonical text form: I lines, arcs sorted by (src, dst), F lines.

    Infinite lam/rho entries produce no line; parse_text of the result
    reproduces the machine, and serializing a parsed canonical file is
    byte-identical.
    """
    lines = []
    for i in range(m.n_states):
        if math.isfinite(m.lam[i]):
            lines.append(f"I {i} {format_weight(m.lam[i])}")
    for a in sorted(m.arcs, key=lambda a: (a.src, a.dst)):
        lines.append(
            f"{a.src} {a.dst} {m.isyms.sym_of(a.ilabel)} "
            f"{m.osyms.sym_of(a.olabel)} {format_weight(a.weight)}"
        )
    for i in range(m.n_states):
        if math.isfinite(m.rho[i]):
            lines.append(f"F {i} {format_weight(m.rho[i])}")
    return "\n".join(lines) + "\n"
