"""Seed plumbing.

Every stochastic operation takes an explicit seed. Seeds are normalized to
:class:`numpy.random.SeedSequence` so nested components (bootstrap replicate
k, permutation j inside it, ...) can be derived deterministically with
``spawn`` and the same master seed always yields the same tree, regardless
of execution order or process boundaries.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from .errors import ArgumentError

SeedLike = Union[int, Sequence[int], np.random.SeedSequence]


def as_seed_sequence(seed: SeedLike) -> np.random.SeedSequence:
    """Normalize an int, tuple of ints, or SeedSequence to a SeedSequence."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, (int, np.integer)):
        if seed < 0:
            raise ArgumentError(f"seed must be nonnegative, got {seed}")
        return np.random.SeedSequence(int(seed))
    if isinstance(seed, (tuple, list)) and all(
        isinstance(s, (int, np.integer)) for s in seed
    ):
        return np.random.SeedSequence([int(s) for s in seed])
    raise ArgumentError(f"cannot interpret {seed!r} as a random seed")


def rng_from(seed: SeedLike) -> np.random.Generator:
    """Build a PCG64 generator from any accepted seed form."""
    return np.random.Generator(np.random.PCG64(as_seed_sequence(seed)))
