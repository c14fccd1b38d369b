"""Exception hierarchy shared by all modules.

Two families matter for the CLI exit-status contract: ``InputError`` covers
configuration, file and validation problems (exit status 2), ``DomainError``
covers computations that are undefined for otherwise valid data (exit 1).
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


class TenorOutOfRangeError(InputError):
    """A tenor outside the curve horizon was requested (no extrapolation)."""


class HorizonMismatchError(InputError):
    """Cash-flow horizon and curve horizon (or file shape) disagree."""


class ScenarioParseError(InputError):
    """A CSV input (scenarios or curve) could not be parsed; message carries row/column."""


class ZeroOutlayError(DomainError):
    """Total outlay is zero, so returns and profitability are undefined."""


class ReturnUndefinedError(DomainError):
    """Annualized return undefined (1 + npv/outlay is not positive)."""


class NonCanonicalFlowError(DomainError):
    """An operation restricted to canonical flows met a negative flow."""


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
