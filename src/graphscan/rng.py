"""Deterministic per-replicate random streams.

Every Monte Carlo replicate draws from its own counter-based generator so that
results depend only on (seed, replicate index), never on how replicates are
scheduled across workers. The stream for a pair is a Philox4x64 bit generator
keyed with ``(seed mod 2**64) * 2**64 + index``, for an index in [0, 2**64)
only; normal variates come from ``numpy.random.Generator.standard_normal``.
"""
from __future__ import annotations

import numpy as np

from ._check import integer

__all__ = ["replicate_rng"]

_MASK64 = (1 << 64) - 1


def _philox_keys(seed: int, indices) -> np.ndarray:
    """The Philox key of each replicate in ``indices``, a range or a list of ints, as a row of two words, low first."""
    # numpy gives ints an integer dtype only when int64 or uint64 holds them all
    array = np.asarray(indices)
    if array.size and (array.dtype.kind not in "iu" or array.min() < 0):
        bad = min(indices) if min(indices) < 0 else max(indices)
        raise ValueError(f"replicate index must be nonnegative and below 2**64, got {bad}")
    keys = np.empty((array.size, 2), dtype=np.uint64)
    keys[:, 0], keys[:, 1] = array, int(seed) & _MASK64
    return keys


def replicate_rng(seed: int, index: int) -> np.random.Generator:
    """Independent generator for one replicate of a seeded experiment; both arguments must be integers."""
    key = _philox_keys(integer("seed", seed), [integer("replicate index", index)])[0]
    return np.random.Generator(np.random.Philox(key=key))


def _replicate_streams(seed: int, indices):
    """For each index in turn, one shared generator set to the stream of ``replicate_rng(seed, index)``.

    Re-keying one Philox (counter 0, empty buffer) gives the same bits as
    building a new generator, at about a quarter of the cost; the keys of all
    the indices are built, and checked, at once. Each generator yielded must
    be used before the next is drawn.
    """
    keys = _philox_keys(seed, indices)
    generator = np.random.Generator(np.random.Philox(key=0))
    state = generator.bit_generator.state  # a fresh stream: counter 0 and an empty buffer
    for key in keys:
        state["state"]["key"] = key
        generator.bit_generator.state = state
        yield generator
