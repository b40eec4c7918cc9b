"""Deterministic RNG derivation.

All randomness in the package flows from a single integer seed. Each stream
is named by (seed, purpose-label, index): the label is hashed with crc32 so
the derivation is stable across platforms and Python versions. The stream is
PCG64 seeded by numpy's SeedSequence([seed, crc32(label), index]), so
identical (seed, label, index) always yields an identical generator.

The SeedSequence hash is fixed 32-bit integer arithmetic, so it runs here on
a whole batch of streams at once (`stream_words`), bit for bit the words
numpy's SeedSequence hands PCG64. numpy.random itself is imported on first
use only: a CLI run that draws nothing does not pay for its import.
"""

from __future__ import annotations

import functools
import operator
import zlib

import numpy as np

from .errors import InvalidInput

# numpy's SeedSequence: a pool of 4 32-bit words, its hash constants, and
# the shift of its xorshift steps (numpy/random/bit_generator.pyx)
_MASK = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_SHIFT = 16


def _state_words(entropy: list) -> list:
    """SeedSequence(entropy).generate_state(4, np.uint64) from the entropy's
    uint32 words, step for step as numpy computes it. Each word is an int,
    or a uint64 array holding that word of every stream of a batch (arrays
    broadcast together): every product of two 32-bit values fits 64 bits, so
    masking after each step reproduces numpy's uint32 arithmetic on both.
    The in-place steps act only on values made here, and spare a batch its
    temporaries."""
    hash_a = _INIT_A

    def hashmix(value):
        nonlocal hash_a
        value = value ^ hash_a
        hash_a = hash_a * _MULT_A & _MASK
        value *= hash_a
        value &= _MASK
        value ^= value >> _SHIFT
        return value

    def mix(x, y):
        r = _MIX_L * x - _MIX_R * y
        r &= _MASK
        r ^= r >> _SHIFT
        return r

    # an entropy shorter than the pool hashes as if padded with 0s
    padded = list(entropy) + [0] * (_POOL - len(entropy))
    pool = [hashmix(w) for w in padded[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in padded[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(w))
    hash_b = _INIT_B
    state = []
    for i in range(2 * _POOL):  # PCG64's 4 uint64 words as 8 uint32 words
        v = pool[i % _POOL] ^ hash_b
        hash_b = hash_b * _MULT_B & _MASK
        v *= hash_b
        v &= _MASK
        v ^= v >> _SHIFT
        state.append(v)
    # little-endian: uint64 word k is uint32 words 2k and 2k+1
    return [lo | hi << 32 for lo, hi in zip(state[::2], state[1::2])]


def _words(value) -> list[int]:
    """Little-endian uint32 words of a non-negative int, 0 as [0]."""
    value = operator.index(value)
    if value < 0:
        raise InvalidInput(f"seeds and stream indices must be non-negative, got {value}")
    words = [value & _MASK]
    while value := value >> 32:
        words.append(value & _MASK)
    return words


def _entropy(seed: int, label: str, index: int) -> list[int]:
    return [*_words(seed), zlib.crc32(label.encode("utf-8")), *_words(index)]


def _by_length(word_lists):
    """(positions, (len(positions), k) uint64 words) for each word count k."""
    groups: dict[int, list[int]] = {}
    for pos, words in enumerate(word_lists):
        groups.setdefault(len(words), []).append(pos)
    for positions in groups.values():
        yield positions, np.array([word_lists[p] for p in positions], dtype=np.uint64)


#: indices hashed together: a chunk's words and the hash's temporaries stay
#: small, whatever the number of streams (a 2e5-frame simulate with bridge
#: noise peaked 0.8 MiB higher at 4096 indices a chunk)
INDEX_CHUNK = 512


def stream_words(seeds, label: str, indices) -> np.ndarray:
    """(len(seeds), len(indices), 4) uint64 PCG64 seed words of the stream
    (seed, label, index) of every seed and index, hashed in one pass per
    chunk of indices and pair of seed and index word counts."""
    crc = zlib.crc32(label.encode("utf-8"))
    seed_groups = list(_by_length([_words(s) for s in seeds]))
    out = np.empty((len(seeds), len(indices), 4), dtype=np.uint64)
    for first in range(0, len(indices), INDEX_CHUNK):
        chunk = indices[first:first + INDEX_CHUNK]
        for cols, iw in _by_length([_words(i) for i in chunk]):
            for rows, sw in seed_groups:
                entropy = [*sw.T[:, :, None], crc, *iw.T[:, None, :]]
                out[np.ix_(rows, np.add(cols, first))] = np.stack(_state_words(entropy),
                                                                  axis=-1)
    return out


class _StateWords:
    """A seed sequence that hands PCG64 precomputed state words."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise NotImplementedError("only PCG64's 4 uint64 state words are stored")
        return self.words


@functools.cache
def _pcg64():
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_StateWords)
    return np.random.PCG64, np.random.Generator


def generators(words: np.ndarray) -> list:
    """One PCG64 Generator per (4,) row of stream words."""
    pcg64, generator = _pcg64()
    return [generator(pcg64(_StateWords(w))) for w in words]


def derive_rng(seed: int, label: str, index: int = 0) -> np.random.Generator:
    """Child generator for one purpose/index pair under a master seed."""
    words = np.array(_state_words(_entropy(seed, label, index)), dtype=np.uint64)
    return generators([words])[0]


def derive_rngs(seed: int, label: str, indices) -> list:
    """derive_rng of each index, hashed in one pass."""
    return generators(stream_words([seed], label, indices)[0])


def child_seed(seed: int, label: str, index: int = 0) -> int:
    """An integer seed for one purpose/index pair under a master seed: the
    first uint32 word of its stream's state."""
    return _state_words(_entropy(seed, label, index))[0] & _MASK


def child_seeds(seed: int, label: str, indices) -> np.ndarray:
    """child_seed of each index, hashed in one pass."""
    return stream_words([seed], label, indices)[0, :, 0] & _MASK


def as_rng(rng_or_seed) -> np.random.Generator:
    """Accept a Generator, an int seed, or None (fresh entropy)."""
    if isinstance(rng_or_seed, np.random.Generator):
        return rng_or_seed
    return np.random.default_rng(rng_or_seed)
