"""Exception types shared across the package, and the one deadline check."""

import time


class GraphError(ValueError):
    """Misuse of the graph API: dead or out-of-range vertex, stale rollback mark."""


class ParseError(ValueError):
    """Malformed graph or solution file.  Carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class OracleSizeError(ValueError):
    """The brute-force oracle refuses graphs above its hard size cap."""


class CertificateError(ValueError):
    """A claimed solution failed verification (not independent, or wrong weight)."""


class InternalError(AssertionError):
    """An internal self-check failed; indicates a bug, not bad input."""


class DeadlinePassed(Exception):
    """A call's ``time.monotonic()`` deadline has passed; only
    :func:`mwis.solve` catches it.  Not a ``TimeoutError``: that is an
    ``OSError``, which :func:`mwis.cli.main` reports as an error."""


def check_deadline(deadline: float | None) -> None:
    """Raise :class:`DeadlinePassed` when ``deadline`` is set and has passed."""
    if deadline is not None and time.monotonic() >= deadline:
        raise DeadlinePassed
