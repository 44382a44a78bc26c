"""The type rule for scalar arguments and config values, written once for every module.

A value is of kind ``bool`` when it is a bool; of kind ``int`` when it is an
integer that is not a bool, numpy integers included; of kind ``float`` when
it is a real number that is not a bool, integers included. Ranges, such as
finiteness or a minimum, are each caller's own check.
"""
from __future__ import annotations

import numbers

_EXPECTED = {bool: "a bool", int: "an integer", float: "a number"}
_ABCS = {int: numbers.Integral, float: numbers.Real}


def require(name: str, value, kind: type):
    """``value``, once it is of ``kind``; raises a ValueError naming ``name`` otherwise."""
    if type(value) is kind:  # the common case, before the slower checks against the numbers ABCs
        return value
    if kind is bool or isinstance(value, bool) or not isinstance(value, _ABCS[kind]):
        raise ValueError(f"{name} must be {_EXPECTED[kind]}, got {value!r}")
    return value


def integer(name: str, value) -> int:
    """``value`` as a Python int, once it is an integer that is not a bool; raises naming ``name`` otherwise."""
    return int(require(name, value, int))
