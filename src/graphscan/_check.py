"""The input rules, written once for every module: scalar arguments and config values, arrays, and observations.

A value is of kind ``bool`` when it is a bool; of kind ``int`` when it is an integer that is not a
bool, numpy integers included; of kind ``float`` when it is a real number that is not a bool, integers
included. An integer may have a minimum and a maximum (``integer``); a real argument is finite and may
have to be positive, nonnegative or in (0, 1) (``real``). A refusal names the argument: "{name} must
be {rule}, got {value}". Every array a caller passes is read by one rule (``numbers``): its entries
are ids, or reals by the rule of kind ``float``, finite where the array is an argument that names
itself in refusals. An observation is a vector, or a block of rows, of finite reals.
"""
from __future__ import annotations

import math
import numbers as abc

import numpy as np

_EXPECTED = {bool: "a bool", int: "an integer", float: "a number"}
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
    if kind is bool or number(value, float) is None or (kind is int and not isinstance(value, abc.Integral)):
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


def number(value, kind: type):
    """``value`` as a Python number of ``kind``, or None when it is not one.

    Of kind ``float``, any real number but a bool reads as a float, an integer beyond the doubles as
    infinite. Of kind ``int`` (an id), an integer that is not a bool reads as an int, and so does a
    whole float; no other value does.
    """
    if isinstance(value, bool) or not isinstance(value, abc.Real):  # numpy bools are not numbers.Real
        return None
    if kind is int and isinstance(value, abc.Integral):
        return int(value)
    try:
        parsed = float(value)
    except OverflowError:
        parsed = math.inf if value > 0 else -math.inf
    return parsed if kind is float else int(parsed) if parsed.is_integer() else None


def real(name: str, value, within: str | None = None) -> float:
    """``value`` as a float, once it is a finite number that is not a bool and in the range ``within``
    (see ``_RANGES``); raises naming ``name`` otherwise. An integer beyond the doubles counts as infinite."""
    value = number(require(name, value, float), float)
    rule, test = _RANGES[within]
    if not test(value):
        raise ValueError(f"{name} must be {rule}, got {value}")
    return value


def numbers(values, kind: type, name: str | None = None) -> np.ndarray:
    """``values`` read by :func:`number` of ``kind``, as an array of int64 ids or of float64 reals.

    An id that is not one, or that int64 cannot hold, reads -1. A real array keeps every bit of a
    numeric one, and may be ``values`` itself. Given a ``name``, the array must hold finite real
    numbers, and is refused naming it otherwise; without one, an entry that is not a real reads NaN.
    An array of an integer or float dtype is read at once: an unsigned id that int64 cannot hold
    reads negative, and a float id that is not whole, or not below 2**63 in magnitude, -1. Any
    other array (bool, text, complex, objects), and a list or tuple holding a bool, which numpy
    would store as a number, is read one entry at a time.
    """
    given = np.asarray(values)
    # a list or tuple is checked for bools at any depth, one pass over its entries
    if given.dtype.kind not in "iuf" or isinstance(values, (list, tuple)) and not {bool, np.bool_}.isdisjoint(
            map(type, values if given.ndim == 1 else np.array(values, dtype=object).flat)):
        given = np.array(values, dtype=object)
        parsed = [number(x, kind) for x in given.ravel().tolist()]
        if kind is int:
            parsed = [x if x is not None and -(2**63) <= x < 2**63 else -1 for x in parsed]
        elif name is not None and None in parsed:
            raise ValueError(f"{name} must hold only numbers, got {given.ravel()[parsed.index(None)]!r}")
        # numpy reads None as NaN in a float array
        parsed = np.array(parsed, dtype=np.int64 if kind is int else float).reshape(given.shape)
    elif kind is int and given.dtype.kind == "f":
        integral = np.isfinite(given) & (given == np.round(given)) & (np.abs(given) < 2.0**63)
        parsed = np.where(integral, given, -1.0).astype(np.int64)
    else:
        parsed = given.astype(np.int64 if kind is int else float, copy=False)
    if name is not None and not np.isfinite(parsed).all():
        raise ValueError(f"{name} contains NaN or infinite values")
    return parsed


def observation(y, n: int | None = None, rows: bool = False) -> np.ndarray:
    """``y`` as a float array, once it holds finite real numbers (:func:`numbers`) and is an observation
    vector (with ``rows``, a 2-D block of them) of length ``n`` (if None, any positive length); raises a
    ValueError otherwise."""
    y = numbers(y, float, "observation")
    if y.ndim != 1 + rows:
        what = "a block of observation rows" if rows else "an observation vector"
        raise ValueError(f"expected {what}, got shape {y.shape}")
    length = y.shape[-1]
    if (length != n) if n is not None else length == 0:
        raise ValueError(f"observation has length {length}, expected {'at least 1' if n is None else n}")
    return y
