"""Error types shared across the package, the readers of scalar and array arguments and the type check.

Every integer argument goes through _integer, every real one through _real
and every array of reals through _reals, so each kind has one rule:
integers are any non-bool numbers.Integral (Python or numpy) stored as int,
reals any non-bool numbers.Real stored as float, and real arrays any input
numpy reads with an int, unsigned or float dtype, stored as float64.  A
tensor or element argument of the wrong type raises through _expect, which
names the type it got.
"""

import math
import numbers

import numpy as np


class WienerChaosError(Exception):
    """Base class for all package errors."""


class InvalidKernelError(WienerChaosError):
    """A kernel file or entry table violates the storage format."""


class ValidationError(WienerChaosError):
    """An argument violates an operation's contract (orders, spaces, ranges)."""


class ResourceLimitError(WienerChaosError):
    """An input exceeds a documented size guard."""


class DegenerateInputError(WienerChaosError):
    """An input is structurally valid but degenerate for the requested operation."""


def _integer(value, what: str, low: int = 0, high: int | None = None, error: type = ValidationError) -> int:
    """value as an int if it is a non-bool numbers.Integral in low..high (no upper end when high is None).

    Anything else raises `error` (a loader passes InvalidKernelError and a `what` led by its location).
    """
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        number = int(value)
        if low <= number and (high is None or number <= high):
            return number
    span = f">= {low}" if high is None else f"in {low}..{high}"
    raise error(f"{what} must be an integer {span}, got {value!r}")


def _expect(kind: type, what: str, *values) -> None:
    """Raise ValidationError "expected {what}, got {type}" for the first value that is not a `kind`."""
    for value in values:
        if not isinstance(value, kind):
            raise ValidationError(f"expected {what}, got {type(value).__name__}")


def _real(value) -> float:
    """value as a float; nan for a bool, a non-real, or a real too large for a float."""
    try:
        return float(value) if isinstance(value, numbers.Real) and not isinstance(value, bool) else math.nan
    except OverflowError:
        return math.nan


def _reals(values, what: str) -> np.ndarray:
    """values as a float64 array if numpy reads them with an int, unsigned or float dtype.

    Any other dtype raises ValidationError: bool, complex, string, or object (None, an int beyond 64 bits).
    """
    array = np.asarray(values)
    if array.dtype.kind not in "iuf":
        raise ValidationError(f"{what} must be real, non-bool numbers, got dtype {array.dtype}")
    return array.astype(np.float64, copy=False)
