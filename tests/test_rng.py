import numpy as np
import pytest

from swarmlab.rng import uniform_rows
from swarmlab.swarmsim import _JITTER_TAG, _LEVEL_TAG, _entropy_words

SEEDS = (0, 2**32 - 1, 2**32, 2**64 + 3, 3**50)
WORKER_INDICES = (0, 7, 2**33 + 1)
ITERATIONS = (0, 1, 2**32, 2**40 + 11)


def _words(entropy):
    return [word for value in entropy for word in _entropy_words(value)]


def _hex(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("width", [0.0, 1e-9, 0.025, 1.0])
def test_jitter_rows_match_default_rng_bit_for_bit(width):
    entropy = [[seed, worker, iteration, _JITTER_TAG]
               for seed in SEEDS for worker in WORKER_INDICES for iteration in ITERATIONS]
    # One call with rows of 4 to 9 words: the kernel groups them by length.
    assert len({len(_words(e)) for e in entropy}) > 3
    low, high = np.full((len(entropy), 4), -width), np.full((len(entropy), 4), width)
    got = uniform_rows([_words(e) for e in entropy], low, high)
    for row, e in zip(got, entropy):
        expected = np.random.default_rng(e).uniform(-width, width, size=4)
        assert _hex(row) == _hex(expected), e  # signed zeros count


def test_level_rows_with_per_value_bounds_match_default_rng_bit_for_bit():
    center = np.array([0.0, 0.3, 0.97, 1.0])
    entropy, low, high = [], [], []
    for seed in SEEDS:
        for worker in WORKER_INDICES:
            for half_width in (0.0, 0.1, 1.0):
                entropy.append([seed, worker, _LEVEL_TAG])
                low.append(center - half_width)
                high.append(center + half_width)
    got = uniform_rows([_words(e) for e in entropy], np.array(low), np.array(high))
    for row, e, lo, hi in zip(got, entropy, low, high):
        assert _hex(row) == _hex(np.random.default_rng(e).uniform(lo, hi)), e


def test_short_rows_hash_like_their_zero_padded_form():
    # SeedSequence's pool holds four words, so rows of up to four words share one group.
    got = uniform_rows([[5], [5, 0, 0, 0], [1, 2, 3]], np.zeros((3, 2)), np.ones((3, 2)))
    assert _hex(got[0]) == _hex(got[1])
    assert _hex(got[2]) == _hex(np.random.default_rng([1, 2, 3]).uniform(size=2))


def test_draw_count_follows_the_bounds_shape():
    got = uniform_rows([[9, 9]], np.zeros((1, 7)), np.ones((1, 7)))
    assert _hex(got[0]) == _hex(np.random.default_rng([9, 9]).uniform(size=7))
    assert uniform_rows([], np.zeros((0, 4)), np.zeros((0, 4))).shape == (0, 4)
