"""Exception types shared across the package, and the helpers that raise and name them."""

import operator


class DegenerateInputError(ValueError):
    """Input carries no usable information (all-zero, constant, zero variance)."""


class NumericalFailureError(RuntimeError):
    """A linear solve or iteration failed numerically (e.g. singular normal equations)."""


class SignalParseError(ValueError):
    """A delimited signal file could not be parsed.

    ``line`` is the 1-based line number of the first offending row, when known.
    """

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class naming:
    """Prefix a ``ValueError`` or ``NumericalFailureError`` raised inside with ``name: ``.

    The error is re-raised as it is, only its message changed, so its type
    and any other attribute (a ``SignalParseError``'s ``line``) stay.
    """

    def __init__(self, name):
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, traceback):
        if isinstance(exc, (ValueError, NumericalFailureError)):
            exc.args = (f"{self.name}: {exc}",)


def _require_whole(**values):
    """Raise ``ValueError`` naming the first of ``values`` (counts, seeds) that is not a whole number.

    A whole number is what ``operator.index`` takes and is not negative: an
    int or a numpy integer, not a float, however integral.
    """
    for name, value in values.items():
        try:
            if operator.index(value) >= 0:
                continue
        except TypeError:
            pass
        raise ValueError(f"{name} must be a non-negative whole number, got {value!r}")
