"""The batched stream deriver against numpy's SeedSequence, its reference
implementation: every word, child seed and draw must match bit for bit."""

import zlib

import numpy as np
import pytest

from rollbound import seeding
from rollbound.errors import InvalidInput
from rollbound.seeding import child_seed, child_seeds, derive_rng, derive_rngs, stream_words

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**70 + 12345]
LABELS = ["", "interp-noise", "trial-ar", "trial-kf-global"]
INDICES = [0, 1, 2**32 - 1, 2**32, 7]


def _reference(seed, label, index):
    return np.random.SeedSequence([seed, zlib.crc32(label.encode("utf-8")), index])


@pytest.mark.parametrize("label", LABELS)
def test_stream_words_match_seed_sequence(label):
    words = stream_words(SEEDS, label, INDICES)
    assert words.shape == (len(SEEDS), len(INDICES), 4) and words.dtype == np.uint64
    for a, seed in enumerate(SEEDS):
        for b, index in enumerate(INDICES):
            ref = _reference(seed, label, index).generate_state(4, np.uint64)
            assert np.array_equal(words[a, b], ref), (seed, label, index)


@pytest.mark.parametrize("label", LABELS)
def test_child_seeds_match_first_state_word(label):
    batch = child_seeds(SEEDS[3], label, INDICES)
    for index, batched in zip(INDICES, batch.tolist()):
        ref = int(_reference(SEEDS[3], label, index).generate_state(1)[0])
        assert child_seed(SEEDS[3], label, index) == batched == ref
    for seed in SEEDS:
        assert child_seed(seed, label) == int(_reference(seed, label, 0).generate_state(1)[0])


@pytest.mark.parametrize("seed", SEEDS)
def test_generators_draw_as_pcg64_of_seed_sequence(seed):
    label = "interp-noise"
    rngs = derive_rngs(seed, label, INDICES)
    for index, g in zip(INDICES, rngs):
        ref = np.random.Generator(np.random.PCG64(_reference(seed, label, index)))
        assert np.array_equal(g.standard_normal(5), ref.standard_normal(5))
        single = derive_rng(seed, label, index)
        ref = np.random.Generator(np.random.PCG64(_reference(seed, label, index)))
        assert np.array_equal(single.uniform(size=5), ref.uniform(size=5))


def test_index_chunks_and_mixed_word_counts(monkeypatch):
    # chunk boundaries fall between indices of different word counts
    monkeypatch.setattr(seeding, "INDEX_CHUNK", 3)
    indices = [2**32, 0, 2**70, 5, 2**32 - 1, 1, 2**40]
    words = stream_words([3, 2**64 + 5], "plan", indices)
    for a, seed in enumerate([3, 2**64 + 5]):
        for b, index in enumerate(indices):
            ref = _reference(seed, "plan", index).generate_state(4, np.uint64)
            assert np.array_equal(words[a, b], ref)


@pytest.mark.parametrize("seed, index", [(-1, 0), (0, -1)])
def test_negative_seed_or_index_is_invalid_input(seed, index):
    with pytest.raises(InvalidInput, match="non-negative"):
        derive_rng(seed, "plan", index)
    with pytest.raises(InvalidInput, match="non-negative"):
        stream_words([seed], "plan", [index])
