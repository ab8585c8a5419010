"""The package's two exception types, for bad input and for numerical
failure, and the shared integer and real setting checks."""

import math
import numbers

import numpy as np


class DataError(ValueError):
    """Malformed or inconsistent input data."""


class NumericError(RuntimeError):
    """Numerical failure: non-convergence, NaN loss, undefined statistic."""


def check_int(what: str, value, minimum: int) -> None:
    """Raise ``DataError`` unless ``value`` is an integer (not a bool) >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise DataError(f"{what} must be an integer >= {minimum}, not {value!r}")


def check_real(what: str, value, minimum: float, maximum: float = math.inf) -> None:
    """Raise ``DataError`` unless ``value`` is a finite real number (not a bool)
    in [``minimum``, ``maximum``]."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (math.isfinite(value) and minimum <= value <= maximum)):
        raise DataError(f"{what} must be a finite real number in [{minimum}, {maximum}], "
                        f"not {value!r}")
