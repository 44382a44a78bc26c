"""The type and range rules for scalar arguments and config values, written once for every module.

A value is of kind ``bool`` when it is a bool; of kind ``int`` when it is an
integer that is not a bool, numpy integers included; of kind ``float`` when
it is a real number that is not a bool, integers included. An integer may
have a minimum (``integer``); a real argument is finite and, where its sign
matters, positive or nonnegative (``real``). A refusal is a ValueError that
names the argument and gives the value.
"""
from __future__ import annotations

import math
import numbers

_EXPECTED = {bool: "a bool", int: "an integer", float: "a number"}
_ABCS = {int: numbers.Integral, float: numbers.Real}
_SIGNS = {None: lambda value: True, "positive": lambda value: value > 0.0, "nonnegative": lambda value: value >= 0.0}


def require(name: str, value, kind: type):
    """``value``, once it is of ``kind``; raises a ValueError naming ``name`` otherwise."""
    if type(value) is kind:  # the common case, before the slower checks against the numbers ABCs
        return value
    if kind is bool or isinstance(value, bool) or not isinstance(value, _ABCS[kind]):
        raise ValueError(f"{name} must be {_EXPECTED[kind]}, got {value!r}")
    return value


def integer(name: str, value, minimum: int | None = None) -> int:
    """``value`` as a Python int, once it is an integer that is not a bool and at least
    ``minimum`` (if given); raises naming ``name`` otherwise."""
    value = int(require(name, value, int))
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def real(name: str, value, sign: str | None = None) -> float:
    """``value`` as a float, once it is a finite number that is not a bool and, if ``sign``
    is "positive" or "nonnegative", of that sign; raises naming ``name`` otherwise."""
    value = float(require(name, value, float))
    if not (math.isfinite(value) and _SIGNS[sign](value)):
        raise ValueError(f"{name} must be {sign + ' and ' if sign else ''}finite, got {value}")
    return value
