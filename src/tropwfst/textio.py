"""The line reader of the machine text format, its per-line rules, and the
weight format shared by the machine and observation-model text formats.
parse_text reads its lines through token_chunks and finds a bad one through
line_error, so a parse error can name the file line.
"""

import math

from .errors import ParseError

CHUNK = 512  # lines whose tokens token_chunks holds at once
ENDS = ("I", "F")  # the first token of an initial or a final weight line


def token_chunks(text: str):
    """Yield (number of the first file line, tokens of each line) for each
    CHUNK lines, a blank line's tokens [], so no parser holds every line's
    tokens at once."""
    lines = text.splitlines()
    for start in range(0, len(lines), CHUNK):
        yield start + 1, [line.split() for line in lines[start:start + CHUNK]]


def line_error(first: int, rows: list, limit: int) -> ParseError:
    """The per-line rules, in the order they apply: the ParseError of the
    first bad line of a chunk, for a failed column check."""
    for lineno, toks in enumerate(rows, first):
        if not toks:
            continue
        try:
            if toks[0] in ENDS:
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
