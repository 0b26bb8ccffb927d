"""The line reader and the weight format shared by the machine,
observation-model and matrix text formats. token_lines is the one place
text is split into lines, so a parse error can name the file line.
"""

import math


def token_lines(text: str):
    """Yield (file line number, tokens) for each non-blank line, one line
    at a time, so no parser holds every line's tokens at once."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        toks = line.split()
        if toks:
            yield lineno, toks


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
