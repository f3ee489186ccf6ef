"""Argument-validation helpers.

The public API of the library validates user-facing arguments eagerly and
raises a typed :mod:`repro.errors` exception with an actionable message
(:class:`~repro.errors.ConfigurationError` unless the caller names another).
Booleans are rejected everywhere: ``True`` is an ``int`` to Python, never a
count or a duration to a caller.  Flags, in turn, take only booleans: a
string such as ``"no"`` is truthy, never a switched-off option.
"""

from __future__ import annotations

import math
import numbers
from typing import Any

import numpy as np

from repro.errors import ConfigurationError, ReproError


def require_bool(
    name: str,
    value: Any,
    error: type[ReproError] = ConfigurationError,
) -> None:
    """Raise ``error`` unless ``value`` is a ``bool`` or a NumPy ``bool_``."""
    if not isinstance(value, (bool, np.bool_)):
        raise error(f"{name} must be a bool, got {value!r}")


def require_int(
    name: str,
    value: Any,
    minimum: int,
    error: type[ReproError] = ConfigurationError,
) -> None:
    """Raise ``error`` unless ``value`` is an integral number >= ``minimum``."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Integral)
        or value < minimum
    ):
        raise error(f"{name} must be an int >= {minimum}, got {value!r}")


def require_real(
    name: str,
    value: Any,
    allow_zero: bool,
    error: type[ReproError] = ConfigurationError,
) -> None:
    """Raise ``error`` unless ``value`` is a finite real number > 0 (or
    >= 0 when ``allow_zero``)."""
    ok = (
        not isinstance(value, bool)
        and isinstance(value, numbers.Real)
        and math.isfinite(value)
    )
    if not ok or value < 0.0 or (value == 0.0 and not allow_zero):
        bound = ">= 0" if allow_zero else "> 0"
        raise error(f"{name} must be finite and {bound}, got {value!r}")
