"""Weighted finite-state transducer model, validation, and text I/O.

Weights are costs (negated log probabilities) in the min-plus semiring.
Label id 0 is reserved for epsilon, written ``<eps>`` in text files.
"""

import math
from collections import Counter, namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, UnknownSymbolError
from .semiring import as_trop, pointwise_min, trop_zeros
from .textio import CHUNK, columns, format_weight, line_lists, token_chunks

EPSILON = 0
EPSILON_SYM = "<eps>"
ARC = np.dtype([("src", np.int64), ("dst", np.int64), ("ilabel", np.int64),
                ("olabel", np.int64), ("weight", np.float64)])


Arc = namedtuple("Arc", ARC.names)
Arc.__doc__ = """One record of the ARC dtype, for building a machine's arcs."""


@dataclass
class Wfst:
    """States 0..n-1, arcs, initial-weight and final-weight vectors.

    arcs is one plain ARC array, the finite entries of the transition
    matrices, read by field name: m.arcs["src"]. The constructor takes any
    ARC array or any list of Arcs, 5-tuples or ARC records and keeps them
    stably sorted by (src, dst). It raises ValueError for arcs that are not
    ARC records (a flat list of numbers, a list of 5-lists, a 2-D array,
    other field names), NaN in lam or rho, a lam or rho not of shape
    (n_states,), or the first arc with a state outside [0, n_states). lam[i]
    is the cost of starting in state i and rho[i] of accepting there, +inf
    for none. isyms and osyms are tuples of symbols, a label's id its index.
    Treat instances as immutable.
    """

    n_states: int
    arcs: np.ndarray
    lam: np.ndarray
    rho: np.ndarray
    isyms: tuple = (EPSILON_SYM,)
    osyms: tuple = (EPSILON_SYM,)

    def __post_init__(self):
        names = getattr(self.arcs, "dtype", ARC).names
        # numpy would fill a whole record from each number of a flat list
        # and cast a record of other field names by position
        records = isinstance(self.arcs, np.ndarray) or all(
            a.dtype.names == ARC.names if isinstance(a, np.void)
            else isinstance(a, tuple) for a in self.arcs)
        # the view makes a record array's np.record items plain np.void
        self.arcs = np.asarray(self.arcs, dtype=ARC).view(ARC)
        if not records or names != ARC.names or self.arcs.ndim != 1:
            raise ValueError("arcs must be a list or 1-D array of ARC records")
        n, src, dst = self.n_states, self.arcs["src"], self.arcs["dst"]
        self.lam, self.rho = as_trop(self.lam), as_trop(self.rho)
        for name, vec in (("lam", self.lam), ("rho", self.rho)):
            if vec.shape != (n,):
                raise ValueError(f"{name} has shape {vec.shape}, not ({n},)")
        if min(src.min(initial=0), dst.min(initial=0)) < 0 or max(
                src.max(initial=-1), dst.max(initial=-1)) >= n:
            k = ((src < 0) | (src >= n) | (dst < 0) | (dst >= n)).argmax()
            raise ValueError(f"arc {src[k]}->{dst[k]}: state outside [0, {n})")
        key = src * n + dst  # exact: 0 <= src, dst < n
        if (key[1:] < key[:-1]).any():
            self.arcs = self.arcs[np.argsort(key, kind="stable")]


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
    dup = np.zeros(len(src), bool)  # the same state pair as the arc before
    dup[1:] = (src[1:] == src[:-1]) & (dst[1:] == dst[:-1])
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


def parse_text(text: str) -> Wfst:
    """Parse the line-oriented machine format; fresh symbol tables hold
    the labels in first-seen order.

    Lines are ``I state weight``, ``src dst ilabel olabel weight`` or
    ``F state weight``. A state index must be below max(2**16, len(text)),
    so the weight vectors are bounded by the text. Each chunk of lines goes
    once through textio.columns, which holds the line rules; if it fails,
    each line goes alone, to name the first bad one in a ParseError. The
    arcs fill one ARC array of a row per line, or per 10 characters if fewer
    (an arc line has 9 and a line end): at most 4 bytes a character.
    """
    isyms, osyms = {EPSILON_SYM: EPSILON}, {EPSILON_SYM: EPSILON}
    limit = max(2**16, len(text))
    size = min(sum(map(len, line_lists(text))), (len(text) + 1) // 10)
    arcs, k, best, max_state = np.empty(size, ARC), 0, {"I": {}, "F": {}}, -1
    for first, rows in token_chunks(text):
        try:
            top, (src, dst, ilabels, olabels, w), ends = columns(rows, limit)
        except ValueError:
            for lineno, row in enumerate(rows, first):
                try:
                    columns([row], limit)
                except ValueError as exc:
                    raise ParseError(str(exc), lineno) from None
            raise
        block, k = arcs[k:k + len(w)], k + len(w)
        block["src"], block["dst"], block["weight"] = src, dst, w
        max_state = max(max_state, top)
        for kind, state, weight in ends:  # min keeps the first of equals
            best[kind][state] = min(best[kind].get(state, math.inf), weight)
        for name, table, col in (("ilabel", isyms, ilabels),
                                 ("olabel", osyms, olabels)):
            for sym in dict.fromkeys(col):  # the new ones in first-seen order
                table.setdefault(sym, len(table))
            block[name] = list(map(table.__getitem__, col))
    n = max_state + 1
    if n == 0:
        raise ParseError("no states in input")
    lam, rho = trop_zeros(n), trop_zeros(n)
    for vec, kind in ((lam, "I"), (rho, "F")):
        vec[list(best[kind])] = list(best[kind].values())
    return Wfst(n, arcs[:k], lam, rho, tuple(isyms), tuple(osyms))


def _end_lines(kind: str, vec: np.ndarray) -> list[str]:
    """The 'kind state weight' line of each finite entry of vec, by state."""
    states = np.flatnonzero(np.isfinite(vec))
    return [f"{kind} {i} {format_weight(w)}"
            for i, w in zip(states.tolist(), vec[states].tolist())]


def serialize_text(m: Wfst) -> str:
    """Canonical form: I lines, the arcs in their (src, dst) order, F lines.

    The I and F lines are the finite lam and rho entries, so a state on no
    line and a symbol on no arc do not survive parse_text of the result. The
    text is a fixed point, serialize_text(parse_text(text)) == text, whenever
    parse_text accepts it (its state indices are within parse_text's bound).

    A text needs each table to start with <eps> and hold each symbol once,
    as one token: ValueError names the symbol that breaks a rule. A label
    outside its table, a negative one too, raises the UnknownSymbolError of
    the first such arc, ilabel before olabel. Arcs go CHUNK at a time.
    """
    isyms, osyms = list(m.isyms), list(m.osyms)  # list indexing is fastest
    for syms in (isyms, osyms):
        if syms[:1] != [EPSILON_SYM]:
            raise ValueError(f"symbols start {syms[:1]}, not {[EPSILON_SYM]}")
        if " ".join(syms).split() != syms or len(set(syms)) < len(syms):
            count = Counter(syms)
            sym = next(s for s in syms if count[s] > 1 or s.split() != [s])
            why = "repeats" if count[sym] > 1 else "is not one text token"
            raise ValueError(f"symbol {sym!r} {why}")
    il, ol = m.arcs["ilabel"], m.arcs["olabel"]
    bad_i = il.view(np.uint64) >= len(isyms)  # a negative label is >= 2**63
    bad = bad_i | (ol.view(np.uint64) >= len(osyms))
    if bad.any():
        k = bad.argmax()
        raise UnknownSymbolError(int(il[k] if bad_i[k] else ol[k]))
    blocks = _end_lines("I", m.lam)
    for start in range(0, len(m.arcs), CHUNK):
        arcs = m.arcs[start:start + CHUNK]
        src, dst, ilab, olab, w = (arcs[f].tolist() for f in ARC.names)
        state = {s: str(s) for s in {*src, *dst}}.__getitem__
        ws = list(map(repr, w))
        for j in np.flatnonzero(arcs["weight"] == np.trunc(arcs["weight"])):
            ws[j] = format_weight(w[j])  # integers, -0.0 and +-inf
        blocks.append("\n".join(map(" ".join, zip(
            map(state, src), map(state, dst), map(isyms.__getitem__, ilab),
            map(osyms.__getitem__, olab), ws))))
    return "\n".join(blocks + _end_lines("F", m.rho) + [""]) or "\n"
