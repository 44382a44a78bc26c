"""Deterministic per-replicate random streams.

Every Monte Carlo replicate draws from its own counter-based generator so that
results depend only on (seed, replicate index), never on how replicates are
scheduled across workers. The stream for a pair is a Philox4x64 bit generator
keyed with the 128-bit value ``seed * 2**64 + index``; normal variates come
from ``numpy.random.Generator.standard_normal`` on that stream.
"""
from __future__ import annotations

import numpy as np

from ._check import integer

__all__ = ["replicate_rng"]

_MASK64 = (1 << 64) - 1


def _replicate_key(seed: int, index: int) -> np.ndarray:
    """The Philox key of replicate ``index``: seed * 2**64 + index as two 64-bit words, low word first."""
    if index < 0:
        raise ValueError(f"replicate index must be nonnegative, got {index}")
    return np.array([int(index) & _MASK64, int(seed) & _MASK64], dtype=np.uint64)


def replicate_rng(seed: int, index: int) -> np.random.Generator:
    """Independent generator for one replicate of a seeded experiment; both arguments must be integers."""
    key = _replicate_key(integer("seed", seed), integer("replicate index", index))
    return np.random.Generator(np.random.Philox(key=key))


def _replicate_streams(seed: int, indices):
    """For each index in turn, one shared generator set to the stream of ``replicate_rng(seed, index)``.

    Re-keying one Philox (counter 0, empty buffer) gives the same bits as
    building a new generator, at about a quarter of the cost; the keys of all
    the indices (nonnegative and below 2**63) are built at once. Each
    generator yielded must be used before the next is drawn.
    """
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size and indices.min() < 0:
        raise ValueError(f"replicate index must be nonnegative, got {indices.min()}")
    keys = np.empty((indices.size, 2), dtype=np.uint64)
    keys[:, 0], keys[:, 1] = indices, int(seed) & _MASK64
    generator = np.random.Generator(np.random.Philox(key=0))
    state = generator.bit_generator.state  # a fresh stream: counter 0 and an empty buffer
    for key in keys:
        state["state"]["key"] = key
        generator.bit_generator.state = state
        yield generator
