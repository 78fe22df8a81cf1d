"""Exception types shared across the package, and the argument checks.

The CLI maps these onto process exit codes: validation and usage problems
exit with 2, numerical failures (degenerate spectra, singular systems,
overflow) exit with 1.

This module is the one place that decides what a valid integer, number,
array or object argument is. Each check raises a ``DataValidationError``
naming the argument, in one form: "<name> must be an integer / a finite
number / at least k / in a..b / an array of numbers / a <class>, got ...".
"""

import numbers
import reprlib
import sys

import numpy as np


class GhiveError(Exception):
    """Base class for errors raised by this package."""


class DataValidationError(GhiveError):
    """Bad input data or inconsistent dimensions (CLI exit code 2)."""


class NumericalError(GhiveError):
    """A computation could not be completed reliably (CLI exit code 1)."""


def _require_bounds(name: str, value, low, high) -> None:
    """Refuse ``value`` below ``low`` or above ``high``, each inclusive and
    open if None; ``high`` is given only with ``low``."""
    if (low is not None and value < low) or (high is not None and value > high):
        bound = f"at least {low}" if high is None else f"in {low}..{high}"
        raise DataValidationError(f"{name} must be {bound}, got {value}")


def require_integer(name: str, value, low=None, high=None) -> None:
    """Refuse ``value`` for the argument ``name`` unless it is an integer (a
    bool is not) of at least ``low``, or in ``low..high``, where given."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DataValidationError(f"{name} must be an integer, got {reprlib.repr(value)}")
    _require_bounds(name, value, low, high)


def require_number(name: str, value, low=None) -> None:
    """Refuse ``value`` for the argument ``name`` unless it is a finite real
    number (a bool is not) of at least ``low``, if given."""
    finite = isinstance(value, numbers.Real) and abs(value) <= sys.float_info.max
    if isinstance(value, bool) or not finite:
        raise DataValidationError(f"{name} must be a finite number, got {reprlib.repr(value)}")
    _require_bounds(name, value, low, None)


def require_instance(name: str, value, cls) -> None:
    """Refuse ``value`` for the argument ``name`` unless it is a ``cls``, or
    one of a tuple of classes."""
    if not isinstance(value, cls):
        want = " or ".join(c.__name__ for c in (cls if isinstance(cls, tuple) else (cls,)))
        raise DataValidationError(f"{name} must be a {want}, got {type(value).__name__}")


def require_finite_array(name: str, value) -> np.ndarray:
    """``np.asarray(value, dtype=float)``, refused for the argument ``name``
    unless ``value`` is an array of bools, integers or floats (text, a ragged
    nesting or other objects are not) whose entries are all finite."""
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.dtype.kind not in "biuf":
        raise DataValidationError(f"{name} must be an array of numbers, got {reprlib.repr(value)}")
    arr = arr.astype(float, copy=False)
    if not np.isfinite(arr).all():
        where = tuple(int(i) for i in np.argwhere(~np.isfinite(arr))[0])
        msg = f"{name} must be an array of finite numbers, got {arr[where]} at position {where}"
        raise DataValidationError(msg)
    return arr
