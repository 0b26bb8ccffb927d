"""Exception types shared across the package."""


class NegativeCycleError(Exception):
    """A cycle of negative total weight makes the requested closure diverge."""


class UnreachableFinalError(Exception):
    """An initial state cannot reach any final state, so pushing is undefined."""


class EmptyTrellisError(Exception):
    """Every entry of a trellis state vector is +inf."""


class UnknownSymbolError(KeyError):
    """A symbol is absent from the relevant symbol table or observation model."""

    def __str__(self) -> str:
        return f"unknown symbol {self.args[0]!r}"


class ParseError(ValueError):
    """Malformed input text."""

    def __init__(self, message: str, lineno: int | None = None):
        self.lineno = lineno
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
