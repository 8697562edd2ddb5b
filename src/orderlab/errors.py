"""Exception families shared across the toolkit.

Each family maps to a distinct CLI exit code (see harness.cli).
"""
import contextlib
import struct


class OrderlabError(Exception):
    """Base class for all toolkit errors."""


class InvalidArgument(OrderlabError):
    """A precondition on an operation's inputs was violated."""


class NumericalFailure(OrderlabError):
    """An iterative or floating-point computation failed (NaN, non-convergence)."""


class DegenerateVector(OrderlabError):
    """A vector operation received a zero-norm argument."""


class DivergenceError(NumericalFailure):
    """An iterative solver left its stability region."""


class FormatError(OrderlabError):
    """An input file does not follow its documented format."""


class EmptyCorpus(OrderlabError):
    """Filtering removed every user or item."""


class EmptyCleanSet(OrderlabError):
    """No clean validation/training samples remain."""


@contextlib.contextmanager
def reading(path: str):
    """Report what goes wrong while a file's contents are parsed as a
    FormatError naming `path`: truncation, a parse failure, a missing key
    or a mistyped value."""
    try:
        yield
    except FormatError as exc:
        if str(exc).startswith(f"{path}: "):  # a nested reading of the same file named it
            raise
        raise FormatError(f"{path}: {exc}") from exc
    except (KeyError, IndexError, TypeError, ValueError, AttributeError, struct.error) as exc:
        raise FormatError(f"{path}: {type(exc).__name__}: {exc}") from exc
