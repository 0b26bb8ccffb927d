"""The machine text's line reader and line rules, and the weight format."""

import itertools
import math

import numpy as np

CHUNK = 512  # lines whose tokens token_chunks holds at once
SLICE = 2**16  # characters that token_chunks splits into lines at once
ENDS = ("I", "F")  # the first token of an initial or a final weight line


def _line_lists(text: str):
    """text.splitlines() in parts, a slice of about SLICE characters at a
    time; a slice ends at a newline, so no CRLF pair is split."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + SLICE - 1) + 1 or len(text)
        yield text[start:end].splitlines()
        start = end


def token_chunks(text: str):
    """Yield (number of the first file line, tokens of each line) for each
    CHUNK lines, a blank line's tokens [], numbered as text.splitlines()
    numbers them; no parser holds every line, or its tokens, at once."""
    lines = itertools.chain.from_iterable(_line_lists(text))
    chunks = iter(lambda: [line.split()
                           for line in itertools.islice(lines, CHUNK)], [])
    return zip(itertools.count(1, CHUNK), chunks)


def _weights(toks: tuple) -> list[float]:
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
    end_weights = _weights(end_w)
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
    arcs = ints[:k], ints[k:2 * k], ilabels, olabels, _weights(arc_w)
    return top, arcs, zip(kinds, ints[2 * k:].tolist(), end_weights)


def format_weight(w: float) -> str:
    """Shortest round-trip decimal form; integers print without a dot."""
    w = float(w)
    if math.isinf(w):
        return "inf" if w > 0 else "-inf"
    if w.is_integer():
        return str(int(w))
    return repr(w)


def parse_weight(tok: str) -> float:
    w = float(tok)
    if not math.isfinite(w):  # one test on the common path
        if math.isnan(w):
            raise ValueError("NaN is not a valid weight")
        if tok.lstrip("+-").lower() not in ("inf", "infinity"):
            raise ValueError(f"weight {tok!r} overflows float64")
    return w
