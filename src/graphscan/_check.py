"""The input rules, written once for every module: scalar arguments and config values, and observations.

A value is of kind ``bool`` when it is a bool; of kind ``int`` when it is an integer that is not a
bool, numpy integers included; of kind ``float`` when it is a real number that is not a bool, integers
included. An integer may have a minimum and a maximum (``integer``); a real argument is finite and may
have to be positive, nonnegative or in (0, 1) (``real``). A refusal names the argument: "{name} must
be {rule}, got {value}". An observation is a vector, or a block of rows, of finite numbers.
"""
from __future__ import annotations

import math
import numbers

import numpy as np

_EXPECTED = {bool: "a bool", int: "an integer", float: "a number"}
_ABCS = {int: numbers.Integral, float: numbers.Real}
# range -> (the rule a refusal states, the test a value passes); NaN passes none
_RANGES = {
    None: ("finite", math.isfinite),
    "positive": ("positive and finite", lambda value: 0.0 < value < math.inf),
    "nonnegative": ("nonnegative and finite", lambda value: 0.0 <= value < math.inf),
    "(0, 1)": ("in (0, 1)", lambda value: 0.0 < value < 1.0),
}


def require(name: str, value, kind: type):
    """``value``, once it is of ``kind``; raises a ValueError naming ``name`` otherwise."""
    if type(value) is kind:  # the common case, before the slower checks against the numbers ABCs
        return value
    if kind is bool or isinstance(value, bool) or not isinstance(value, _ABCS[kind]):
        raise ValueError(f"{name} must be {_EXPECTED[kind]}, got {value!r}")
    return value


def integer(name: str, value, minimum: int | None = None, maximum: int | None = None) -> int:
    """``value`` as a Python int, once it is an integer that is not a bool, at least ``minimum``
    and at most ``maximum`` (each if given; a maximum with a minimum); raises naming ``name`` otherwise."""
    value = int(require(name, value, int))
    if (minimum is not None and value < minimum) or (maximum is not None and value > maximum):
        rule = f">= {minimum}" if maximum is None else f"in {minimum}..{maximum}"
        raise ValueError(f"{name} must be {rule}, got {value}")
    return value


def real(name: str, value, within: str | None = None) -> float:
    """``value`` as a float, once it is a finite number that is not a bool and in the range ``within``
    (see ``_RANGES``); raises naming ``name`` otherwise. An integer beyond the doubles counts as infinite."""
    try:
        value = float(require(name, value, float))
    except OverflowError:
        value = math.inf if value > 0 else -math.inf
    rule, test = _RANGES[within]
    if not test(value):
        raise ValueError(f"{name} must be {rule}, got {value}")
    return value


def observation(y, n: int | None = None, rows: bool = False) -> np.ndarray:
    """``y`` as a float array, once it is an observation vector (with ``rows``, a 2-D block of them) of
    length ``n`` (if None, any positive length) with finite entries; raises a ValueError otherwise."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 + rows:
        what = "a block of observation rows" if rows else "an observation vector"
        raise ValueError(f"expected {what}, got shape {y.shape}")
    length = y.shape[-1]
    if (length != n) if n is not None else length == 0:
        raise ValueError(f"observation has length {length}, expected {'at least 1' if n is None else n}")
    if not np.isfinite(y).all():
        raise ValueError("observation contains NaN or infinite values")
    return y
