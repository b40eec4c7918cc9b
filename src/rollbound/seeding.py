"""Deterministic RNG derivation.

All randomness in the package flows from a single integer seed: every
generator is made by derive_rng, none from OS entropy. Each stream is named
by (seed, purpose-label, index): the label is hashed with crc32 so the
derivation is stable across platforms and Python versions. The stream is
PCG64 seeded by numpy's SeedSequence([seed, crc32(label), index]), so
identical (seed, label, index) always yields an identical generator.

A Monte-Carlo trial derives one stream per purpose, so a run derives a few
streams per trial. numpy.random itself is imported on first use only: a CLI
run that draws nothing does not pay for its import.
"""

from __future__ import annotations

import zlib

import numpy as np

from .core import _as_int
from .errors import InvalidInput


def _seed_sequence(seed: int, label: str, index: int):
    from numpy.random import SeedSequence

    seed, index = _as_int(seed, "seed"), _as_int(index, "index")
    if seed < 0 or index < 0:
        raise InvalidInput(f"seeds and stream indices must be non-negative, "
                           f"got seed {seed}, index {index}")
    return SeedSequence([seed, zlib.crc32(label.encode("utf-8")), index])


def derive_rng(seed: int, label: str, index: int = 0) -> np.random.Generator:
    """Child generator for one purpose/index pair under a master seed."""
    from numpy.random import PCG64, Generator

    return Generator(PCG64(_seed_sequence(seed, label, index)))


def child_seed(seed: int, label: str, index: int = 0) -> int:
    """An integer seed for one purpose/index pair under a master seed: the
    first uint32 word of its stream's state."""
    return int(_seed_sequence(seed, label, index).generate_state(1)[0])
