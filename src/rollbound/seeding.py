"""Deterministic RNG derivation.

All randomness in the package flows from a single integer seed. Sub-streams
are derived from (seed, purpose-label, index): the label is hashed with
crc32 so the derivation is stable across platforms and Python versions.
Identical (seed, label, index) always yields an identical generator.
"""

from __future__ import annotations

import zlib

import numpy as np


def derive_seed_sequence(seed: int, label: str, index: int = 0) -> np.random.SeedSequence:
    return np.random.SeedSequence([int(seed), zlib.crc32(label.encode("utf-8")), int(index)])


def derive_rng(seed: int, label: str, index: int = 0) -> np.random.Generator:
    """Child generator for one purpose/index pair under a master seed."""
    return np.random.Generator(np.random.PCG64(derive_seed_sequence(seed, label, index)))


def child_seed(seed: int, label: str, index: int = 0) -> int:
    """An integer seed for one purpose/index pair under a master seed."""
    return int(derive_seed_sequence(seed, label, index).generate_state(1)[0])


def as_rng(rng_or_seed) -> np.random.Generator:
    """Accept a Generator, an int seed, or None (fresh entropy)."""
    if isinstance(rng_or_seed, np.random.Generator):
        return rng_or_seed
    return np.random.default_rng(rng_or_seed)
