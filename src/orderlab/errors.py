"""Exception families shared across the toolkit, and the file access around them.

Each family maps to a distinct CLI exit code (see harness.cli). `reading`
names the file a parse failure came from; `writing` replaces a file only
once its new contents are complete.
"""
import contextlib
import os
import struct


class OrderlabError(Exception):
    """Base class for all toolkit errors."""


class InvalidArgument(OrderlabError):
    """A precondition on an operation's inputs was violated."""


class NumericalFailure(OrderlabError):
    """An iterative or floating-point computation failed (NaN, non-convergence)."""


class DegenerateVector(NumericalFailure):
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


@contextlib.contextmanager
def writing(path: str, mode: str = "w", newline: str | None = None):
    """Yield a file open on `path`.tmp; once the block ends without an error,
    move it onto `path` in one step, else remove it and re-raise. Text is
    UTF-8; `mode` "wb" writes bytes."""
    tmp = f"{path}.tmp"
    fh = open(tmp, mode, encoding=None if "b" in mode else "utf-8", newline=newline)
    try:
        with fh:
            yield fh
    except BaseException:
        os.remove(tmp)
        raise
    os.replace(tmp, path)
