import numpy as np
import pytest

from swarmlab.rng import uniform_rows
from swarmlab.swarmsim import _JITTER_TAG, _LEVEL_TAG

SEEDS = (0, 2**32 - 1, 2**32, 2**64 + 3, 3**50)
WORKER_INDICES = (0, 7, 2**33 + 1)
ITERATIONS = (0, 1, 2**32, 2**40 + 11)


def _words(entropy):
    """The 32-bit words SeedSequence makes of a list of non-negative ints: each little-endian, 0 as [0]."""
    words = []
    for value in entropy:
        words.append(value & 0xFFFFFFFF)
        while value >> 32:
            value >>= 32
            words.append(value & 0xFFFFFFFF)
    return words


def _matrix(rows):
    """``rows`` of words as ``uniform_rows`` takes them: one zero-padded uint32 matrix, and the lengths."""
    words = np.zeros((len(rows), max(map(len, rows), default=0)), np.uint32)
    for r, row in enumerate(rows):
        words[r, :len(row)] = row
    return words, np.array([len(row) for row in rows], np.intp)


def _generator(entropy):
    """The generator that defines the stream: PCG64, named, not ``default_rng``'s choice."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def _hex(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("width", [0.0, 1e-9, 0.025, 1.0])
def test_jitter_rows_match_default_rng_bit_for_bit(width):
    entropy = [[seed, worker, iteration, _JITTER_TAG]
               for seed in SEEDS for worker in WORKER_INDICES for iteration in ITERATIONS]
    # One call with rows of 4 to 9 words: the kernel groups them by length.
    assert len({len(_words(e)) for e in entropy}) > 3
    low, high = np.full((len(entropy), 4), -width), np.full((len(entropy), 4), width)
    got = uniform_rows(*_matrix([_words(e) for e in entropy]), low, high)
    for row, e in zip(got, entropy):
        expected = _generator(e).uniform(-width, width, size=4)
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
    got = uniform_rows(*_matrix([_words(e) for e in entropy]), np.array(low), np.array(high))
    for row, e, lo, hi in zip(got, entropy, low, high):
        assert _hex(row) == _hex(_generator(e).uniform(lo, hi)), e


def test_short_rows_hash_like_their_zero_padded_form():
    # SeedSequence's pool holds four words, so rows of up to four words share one group.
    got = uniform_rows(*_matrix([[5], [5, 0, 0, 0], [1, 2, 3]]), np.zeros((3, 2)), np.ones((3, 2)))
    assert _hex(got[0]) == _hex(got[1])
    assert _hex(got[2]) == _hex(_generator([1, 2, 3]).uniform(size=2))


def test_draw_count_follows_the_bounds_shape():
    got = uniform_rows(*_matrix([[9, 9]]), np.zeros((1, 7)), np.ones((1, 7)))
    assert _hex(got[0]) == _hex(_generator([9, 9]).uniform(size=7))
    assert uniform_rows(*_matrix([]), np.zeros((0, 4)), np.zeros((0, 4))).shape == (0, 4)


def test_word_matrix_of_one_to_six_word_rows_matches_default_rng_bit_for_bit():
    # One block whose iterations cross 2**32, as a simulated block can, beside rows of one
    # to six words: each row's words end at its length, and zeros pad it in the matrix.
    entropy = [[seed, worker, iteration, _JITTER_TAG]
               for seed in (0, 2**32 + 1) for worker in (0, 3)
               for iteration in (2**32 - 2, 2**32 - 1, 2**32, 2**32 + 1)]
    entropy += [[1], [2**32 - 1], [2**32], [7, 2**32], [2**64], [1, 2, 3, 4, 5, 6], [0, 0, 0, 0, 0, 9]]
    rows = [_words(e) for e in entropy]
    assert {len(row) for row in rows} == {1, 2, 3, 4, 5, 6}
    words, lengths = _matrix(rows)
    low = np.linspace(-1.0, 0.0, 4 * len(rows)).reshape(-1, 4)
    got = uniform_rows(words, lengths, low, low + 0.5)
    for row, e, lo in zip(got, entropy, low):
        assert _hex(row) == _hex(_generator(e).uniform(lo, lo + 0.5)), e
