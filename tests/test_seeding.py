"""The stream deriver against numpy's SeedSequence, its reference
implementation: every child seed and draw must match bit for bit."""

import zlib

import numpy as np
import pytest

from rollbound.errors import InvalidInput
from rollbound.seeding import child_seed, derive_rng

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**70 + 12345]
LABELS = ["", "interp-noise", "trial-ar", "trial-kf-global"]
INDICES = [0, 1, 2**32 - 1, 2**32, 7]


def _reference(seed, label, index):
    return np.random.SeedSequence([seed, zlib.crc32(label.encode("utf-8")), index])


@pytest.mark.parametrize("label", LABELS)
def test_state_words_match_seed_sequence(label):
    for seed in SEEDS:
        for index in INDICES:
            ref = np.random.PCG64(_reference(seed, label, index)).state
            assert derive_rng(seed, label, index).bit_generator.state == ref, (seed, label, index)


@pytest.mark.parametrize("label", LABELS)
def test_child_seeds_match_first_state_word(label):
    for seed in SEEDS:
        for index in INDICES:
            ref = int(_reference(seed, label, index).generate_state(1)[0])
            assert child_seed(seed, label, index) == ref, (seed, label, index)
        assert child_seed(seed, label) == int(_reference(seed, label, 0).generate_state(1)[0])


@pytest.mark.parametrize("seed", SEEDS)
def test_generators_draw_as_pcg64_of_seed_sequence(seed):
    for label in LABELS:
        for index in INDICES:
            ref = np.random.Generator(np.random.PCG64(_reference(seed, label, index)))
            g = derive_rng(seed, label, index)
            assert np.array_equal(g.standard_normal(5), ref.standard_normal(5))
            assert np.array_equal(g.uniform(size=5), ref.uniform(size=5))


def test_child_seeds_are_pinned():
    # the derivation is part of every digest: these values must not drift
    seeds = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**70 + 12345, 10**25]
    pinned = [984984855, 3302949626, 3844670746, 3647700269, 1197735203, 2013804369,
              1323441988]
    assert [child_seed(s, "trial-ar", 2**32 + 3) for s in seeds] == pinned


@pytest.mark.parametrize("seed, index", [(-1, 0), (0, -1), (2.5, 0), (0, 2.5)])
def test_negative_seed_or_index_is_invalid_input(seed, index):
    # a float is rejected naming its argument, not truncated or left to numpy
    message = "non-negative|(seed|index) must be an integer, got 2.5"
    with pytest.raises(InvalidInput, match=message):
        derive_rng(seed, "plan", index)
    with pytest.raises(InvalidInput, match=message):
        child_seed(seed, "plan", index)
