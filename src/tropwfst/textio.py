"""The line reader and the weight format shared by the machine,
observation-model and matrix text formats. The parsers read their lines
through token_lines and token_chunks, so a parse error can name the file
line; parse_observation_model also hands its body lines to np.loadtxt.
"""

import math

CHUNK = 512  # lines whose tokens token_chunks holds at once


def token_lines(text: str):
    """Yield (file line number, tokens) for each non-blank line, one line
    at a time, so no parser holds every line's tokens at once."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        toks = line.split()
        if toks:
            yield lineno, toks


def token_chunks(text: str):
    """Yield (number of the first file line, tokens of each line) for each
    CHUNK lines, a blank line's tokens []: the lines of token_lines, a
    chunk at a time."""
    lines = text.splitlines()
    for start in range(0, len(lines), CHUNK):
        yield start + 1, [line.split() for line in lines[start:start + CHUNK]]


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
