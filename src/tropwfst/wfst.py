"""Weighted finite-state transducer model, validation, and text I/O.

Weights are costs (negated log probabilities) in the min-plus semiring.
Label id 0 is reserved for epsilon, written ``<eps>`` in text files.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ParseError, UnknownSymbolError
from .semiring import as_trop, pointwise_min, trop_zeros
from .textio import format_weight, parse_weight, token_chunks

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
        """The id of sym, added if new. A new symbol must be one token of
        the text format: ValueError if it is empty or holds whitespace."""
        if sym not in self._ids:
            if sym.split() != [sym]:
                raise ValueError(f"symbol {sym!r} is not one text token")
            self._ids[sym] = len(self._syms)
            self._syms.append(sym)
        return self._ids[sym]

    def id_of(self, sym: str) -> int:
        try:
            return self._ids[sym]
        except KeyError:
            raise UnknownSymbolError(sym) from None

    def sym_of(self, label: int) -> str:
        if not 0 <= label < len(self._syms):
            raise UnknownSymbolError(label)
        return self._syms[label]


ARC = np.dtype([("src", np.int64), ("dst", np.int64), ("ilabel", np.int64),
                ("olabel", np.int64), ("weight", np.float64)])


class Arc(NamedTuple):
    """One record of the ARC dtype, for building a machine's arcs."""

    src: int
    dst: int
    ilabel: int
    olabel: int
    weight: float


@dataclass
class Wfst:
    """States 0..n-1, arcs, initial-weight and final-weight vectors.

    arcs is one plain ARC array in insertion order, the finite entries of
    the transition matrices, read by field name: m.arcs["src"]. The
    constructor takes any ARC array or any list of Arcs or 5-tuples, and
    raises ValueError for NaN in lam or rho, a lam or rho not of shape
    (n_states,), or the first arc with a state outside [0, n_states).
    lam[i] is the cost of starting in state i and rho[i] of accepting
    there, +inf for none. Treat instances as immutable.
    """

    n_states: int
    arcs: np.ndarray
    lam: np.ndarray
    rho: np.ndarray
    isyms: SymbolTable = field(default_factory=SymbolTable)
    osyms: SymbolTable = field(default_factory=SymbolTable)

    def __post_init__(self):
        # the view makes a record array's np.record items plain np.void
        self.arcs = np.asarray(self.arcs, dtype=ARC).view(ARC)
        n, src, dst = self.n_states, self.arcs["src"], self.arcs["dst"]
        self.lam, self.rho = as_trop(self.lam), as_trop(self.rho)
        for name, vec in (("lam", self.lam), ("rho", self.rho)):
            if vec.shape != (n,):
                raise ValueError(f"{name} has shape {vec.shape}, not ({n},)")
        if min(src.min(initial=0), dst.min(initial=0)) < 0 or max(
                src.max(initial=-1), dst.max(initial=-1)) >= n:
            k = ((src < 0) | (src >= n) | (dst < 0) | (dst >= n)).argmax()
            raise ValueError(f"arc {src[k]}->{dst[k]}: state outside [0, {n})")


def _is_epsilon(arcs: np.ndarray) -> np.ndarray:
    return (arcs["ilabel"] == EPSILON) & (arcs["olabel"] == EPSILON)


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
    """Violation messages, none for a valid machine: the rules a text can
    break, i.e. two arcs on one state pair, a non-finite arc weight, a -inf
    initial or final weight, no initial or no final state."""
    src, dst = m.arcs["src"], m.arcs["dst"]
    key = src * m.n_states + dst  # exact: src, dst < n_states = len(lam)
    order = np.argsort(key, kind="stable")
    dup = np.zeros(len(key), bool)  # not the first arc of its state pair
    dup[order[1:]] = key[order[1:]] == key[order[:-1]]
    bad = ~np.isfinite(m.arcs["weight"])
    flags = ((dup, "duplicate state pair"), (bad, "non-finite weight"))
    problems = [f"arc {src[k]}->{dst[k]}: {text}"
                for k in np.flatnonzero(dup | bad)
                for mask, text in flags if mask[k]]
    for kind, vec in (("initial", m.lam), ("final", m.rho)):
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
    return m.arcs["src"], m.arcs["dst"], m.arcs["weight"]


def build_matrices(m: Wfst) -> MatrixView:
    """Extract A, its epsilon/non-epsilon split, and the label matrices."""
    src, dst, w = arc_arrays(m)
    eps = _is_epsilon(m.arcs)
    n = m.n_states
    e, a_eps = trop_zeros((n, n)), trop_zeros((n, n))
    e[src[eps], dst[eps]] = w[eps]
    a_eps[src[~eps], dst[~eps]] = w[~eps]
    sigma_i = np.full((n, n), -1, dtype=np.int64)
    sigma_o = np.full((n, n), -1, dtype=np.int64)
    sigma_i[src, dst] = m.arcs["ilabel"]
    sigma_o[src, dst] = m.arcs["olabel"]
    return MatrixView(A=pointwise_min(a_eps, e), E=e, A_eps=a_eps,
                      sigma_i=sigma_i, sigma_o=sigma_o)


_ENDS = ("I", "F")


def _line_error(first: int, rows: list, limit: int) -> ParseError:
    """The per-line rules, in the order they apply: the ParseError of the
    first bad line of a chunk, for a failed column check."""
    for lineno, toks in enumerate(rows, first):
        if not toks:
            continue
        try:
            if toks[0] in _ENDS:
                if len(toks) != 3:
                    raise ValueError("expected 'I/F state weight'")
                states = [int(toks[1])]
                parse_weight(toks[2])  # before the range checks, unlike arcs
            else:
                if len(toks) != 5:
                    raise ValueError("expected 'src dst ilabel olabel weight'")
                states = [int(toks[0]), int(toks[1])]
            if min(states) < 0:
                raise ValueError("negative state index")
            top = max(states)
            if top >= 2**63:
                raise ValueError(f"state index {top} does not fit int64")
            if top >= limit:
                raise ValueError(f"state index {top} is not below "
                                 f"max(2**16, text length) = {limit}")
            parse_weight(toks[-1])
        except ValueError as exc:
            return ParseError(str(exc), lineno)


def parse_text(text: str) -> Wfst:
    """Parse the line-oriented machine format; fresh symbol tables hold
    the labels in first-seen order.

    Lines are ``I state weight``, ``src dst ilabel olabel weight`` or
    ``F state weight``. A state index must be below max(2**16, len(text)),
    so the weight vectors are bounded by the text.

    Each chunk of lines is split once and converted a column at a time
    (int(), float(), the symbol tables). If a column check fails, the
    per-line rules find the first bad line and its ParseError is raised.
    """
    isyms, osyms = SymbolTable(), SymbolTable()
    limit = max(2**16, len(text))
    chunks, best, max_state = [], {"I": {}, "F": {}}, -1
    for first, rows in token_chunks(text):
        arc_rows = [toks for toks in rows if toks and toks[0] not in _ENDS]
        end_rows = [toks for toks in rows if toks and toks[0] in _ENDS]
        try:
            if set(map(len, arc_rows)) - {5} or set(map(len, end_rows)) - {3}:
                raise ValueError("wrong token count")
            cols = list(zip(*arc_rows)) or [()] * 5
            kinds, states, weights = list(zip(*end_rows)) or [()] * 3
            k = len(arc_rows)  # the arcs' numbers, then the I/F lines'
            ints = np.fromiter(map(int, cols[0] + cols[1] + states), np.int64)
            top = int(ints.max(initial=-1))
            if ints.min(initial=0) < 0 or top >= limit:
                raise ValueError("state index out of range")
            weights = cols[4] + weights
            floats = np.fromiter(map(float, weights), np.float64)
            for j in np.flatnonzero(~np.isfinite(floats)).tolist():
                parse_weight(weights[j])  # passes a spelled-out inf
        except (ValueError, OverflowError):
            raise _line_error(first, rows, limit) from None
        arcs = np.empty(k, ARC)
        arcs["src"], arcs["dst"] = ints[:k], ints[k:2 * k]
        arcs["weight"] = floats[:k]
        max_state = max(max_state, top)
        for kind, state, w in zip(kinds, ints[2 * k:].tolist(),
                                  floats[k:].tolist()):
            if w < best[kind].get(state, math.inf):
                best[kind][state] = w
        for name, table, col in (("ilabel", isyms, cols[2]),
                                 ("olabel", osyms, cols[3])):
            for sym in dict.fromkeys(col):  # the new ones in first-seen order
                table.add(sym)
            ids = map(table._ids.__getitem__, col)
            arcs[name] = np.fromiter(ids, np.int64, len(col))
        chunks.append(arcs)
    n = max_state + 1
    if n == 0:
        raise ParseError("no states in input")
    lam, rho = trop_zeros(n), trop_zeros(n)
    for vec, kind in ((lam, "I"), (rho, "F")):
        vec[list(best[kind])] = list(best[kind].values())
    arcs = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
    return Wfst(n, arcs, lam, rho, isyms, osyms)


def serialize_text(m: Wfst) -> str:
    """Canonical form: I lines, arcs stably by src * n_states + dst, F lines.

    Infinite lam/rho entries produce no line, so a state on no line and a
    symbol on no arc do not survive parse_text of the result. The text is
    a fixed point, serialize_text(parse_text(text)) == text, whenever
    parse_text accepts it (its state indices are within parse_text's bound).
    """
    lines = []
    for i in range(m.n_states):
        if math.isfinite(m.lam[i]):
            lines.append(f"I {i} {format_weight(m.lam[i])}")
    key = m.arcs["src"] * m.n_states + m.arcs["dst"]
    arcs = m.arcs[np.argsort(key, kind="stable")]
    for s, d, i, o, w in zip(*(arcs[f].tolist() for f in ARC.names)):
        lines.append(f"{s} {d} {m.isyms.sym_of(i)} "
                     f"{m.osyms.sym_of(o)} {format_weight(w)}")
    for i in range(m.n_states):
        if math.isfinite(m.rho[i]):
            lines.append(f"F {i} {format_weight(m.rho[i])}")
    return "\n".join(lines) + "\n"
