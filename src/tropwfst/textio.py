"""Both text formats' line reader and weight rule; the machine line rules."""

import itertools
import math
import re

import numpy as np

CHUNK = 512  # lines whose tokens token_chunks holds at once
SLICE = 2**16  # characters that line_lists splits into lines at once
ENDS = ("I", "F")  # the first token of an initial or a final weight line
_END = re.compile(r"[\n\r\v\f\x1c-\x1e\x85\u2028\u2029]\n?")  # as splitlines


def line_lists(text: str):
    """text.splitlines() a slice at a time. A slice ends after the first line
    end of any kind at or after SLICE characters, and a LF right after it, so
    no CRLF pair is split: one regex search, linear however long a line is."""
    start = 0
    while start < len(text):
        end = _END.search(text, start + SLICE - 1)
        end = end.end() if end else len(text)
        yield text[start:end].splitlines()
        start = end


def lines(text: str) -> tuple:
    """The lines, and (number, line) of each with a token, numbered from 1
    and drawn from the first, so a caller can pass on the rest of the lines."""
    every = itertools.chain.from_iterable(line_lists(text))
    return every, ((i, s) for i, s in enumerate(every, 1) if s.strip())


def token_chunks(text: str):
    """Yield (number of the first file line, tokens of each line) for each
    CHUNK lines, a blank line's tokens [], numbered as text.splitlines()
    numbers them; no parser holds every line, or its tokens, at once."""
    lines = itertools.chain.from_iterable(line_lists(text))
    chunks = iter(lambda: [line.split()
                           for line in itertools.islice(lines, CHUNK)], [])
    return zip(itertools.count(1, CHUNK), chunks)


def weights(toks) -> list[float]:
    """float() of each token, or parse_weight's error: both formats' rule."""
    w = list(map(float, toks))
    if not math.isfinite(sum(w)):  # a NaN, an inf or a sum that overflows
        for tok in itertools.compress(toks, [not math.isfinite(x) for x in w]):
            parse_weight(tok)  # passes a spelled-out inf
    return w


def columns(rows: list, limit: int) -> tuple:
    """A chunk's lines, a column at a time: (the largest state or -1, the
    arcs' (src, dst, ilabel, olabel, weight) columns, an iterator of the I/F
    lines' (kind, state, weight)). On one line the ValueError is that of the
    first rule broken: the token count, int() of each state in turn, an I/F
    weight, a negative state, one beyond int64, then limit, an arc weight."""
    arcs = [toks for toks in rows if toks and toks[0] not in ENDS]
    ends = [toks for toks in rows if toks and toks[0] in ENDS]
    if set(map(len, arcs)) - {5}:
        raise ValueError("expected 'src dst ilabel olabel weight'")
    if set(map(len, ends)) - {3}:
        raise ValueError("expected 'I/F state weight'")
    src, dst, ilabels, olabels, arc_w = list(zip(*arcs)) or [()] * 5
    kinds, states, end_w = list(zip(*ends)) or [()] * 3
    toks = src + dst + states
    as_int = {tok: int(tok) for tok in dict.fromkeys(toks)}  # once per token
    end_weights = weights(end_w)
    if min(as_int.values(), default=0) < 0:
        raise ValueError("negative state index")
    top = max(as_int.values(), default=-1)
    if top >= 2**63:
        raise ValueError(f"state index {top} does not fit int64")
    if top >= limit:
        raise ValueError(f"state index {top} is not below "
                         f"max(2**16, text length) = {limit}")
    ints = np.fromiter(map(as_int.__getitem__, toks), np.int64, len(toks))
    k = len(src)
    arcs = ints[:k], ints[k:2 * k], ilabels, olabels, weights(arc_w)
    return top, arcs, zip(kinds, ints[2 * k:].tolist(), end_weights)


def format_weight(w: float) -> str:
    """repr(w), except that an integral w prints as an integer (1e22 as
    all 23 digits)."""
    w = float(w)  # repr(w) of an infinity is inf or -inf
    return str(int(w)) if w.is_integer() else repr(w)


def parse_weight(tok: str) -> float:
    w = float(tok)
    if not math.isfinite(w):  # one test on the common path
        if math.isnan(w):
            raise ValueError("NaN is not a valid weight")
        if tok.lstrip("+-").lower() not in ("inf", "infinity"):
            raise ValueError(f"weight {tok!r} overflows float64")
    return w
