"""The package's errors: a base, one class per CLI exit status, and the rule that locates them.

``InputError`` covers configuration, file and validation problems (exit status 2),
``DomainError`` computations that are undefined for otherwise valid data (exit 1);
the message, not a subclass, says which case it is.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Iterator


class EngineError(Exception):
    """Base class for all errors raised by this package."""


class InputError(EngineError):
    """Invalid configuration, file content or argument combination."""


class DomainError(EngineError):
    """A quantity is mathematically undefined for the given data."""


@contextmanager
def located(where: str | Path) -> Iterator[None]:
    """The one rule that names an input in an error: an EngineError is re-raised as the
    same class with ``"{where}: "`` in front, undecodable text as an InputError naming it."""
    try:
        yield
    except EngineError as exc:
        raise type(exc)(f"{where}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{where}: not valid {exc.encoding} text: {exc.reason}") from None
