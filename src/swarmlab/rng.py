"""Batched ``np.random.default_rng(entropy).uniform(low, high)``, bit for bit.

``uniform_rows`` computes the draws of many seeded generators at once with
whole-array numpy operations, where building one ``default_rng`` per row
costs about 20 us. The generators' entropy comes as one ``uint32`` word
matrix, a row per generator, zero-padded past each row's length, so no
per-row Python list is read. It reproduces numpy's definitions exactly:

- ``SeedSequence``: the entropy words are hashed into a pool of four
  ``uint32`` words and the pool into eight state words. The hash constants
  depend only on the entropy length, so every step is a column operation.
- ``PCG64`` (O'Neill 2014): the state words seed a 128-bit LCG; each output
  steps it and applies XSL-RR. Each output's state is written in closed
  form as ``initstate * M**(j+1) + inc * (1 + M + ... + M**(j+1))`` and
  computed on 64-bit halves in ``uint64`` arrays, the high half of a
  64 x 64-bit product on 32-bit quarters.
- ``uniform``: each double is ``(x >> 11) * 2**-53``, scaled as
  ``low + (high - low) * d``.
"""

from __future__ import annotations

from functools import cache

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MOD128 = 1 << 128
_M32 = np.uint64(_MASK32)
_32 = np.uint64(32)

# SeedSequence (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_STATE_WORDS = 8  # generate_state(4, np.uint64)

# PCG64's default 128-bit multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


@cache
def _hash_constants(start: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiplier) constant pairs of ``count`` consecutive hash steps."""
    before, after = [], []
    value = start
    for _ in range(count):
        before.append(value)
        value = value * mult & _MASK32
        after.append(value)
    return np.array(before, np.uint32)[:, None], np.array(after, np.uint32)[:, None]


def _hash(words: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    words = (words ^ xor) * mult
    return words ^ (words >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> 16)


def _state_words(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(8)`` for each column of ``entropy`` (words x rows)."""
    length = entropy.shape[0]
    steps = _POOL_SIZE * _POOL_SIZE + _POOL_SIZE * (length - _POOL_SIZE)
    xor, mult = _hash_constants(_INIT_A, _MULT_A, steps)
    pool = _hash(entropy[:_POOL_SIZE], xor[:_POOL_SIZE], mult[:_POOL_SIZE])
    step = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [i for i in range(_POOL_SIZE) if i != src]
        hashed = _hash(pool[src], xor[step:step + len(dst)], mult[step:step + len(dst)])
        pool[dst] = _mix(pool[dst], hashed)
        step += len(dst)
    for src in range(_POOL_SIZE, length):
        hashed = _hash(entropy[src], xor[step:step + _POOL_SIZE], mult[step:step + _POOL_SIZE])
        pool = _mix(pool, hashed)
        step += _POOL_SIZE
    xor, mult = _hash_constants(_INIT_B, _MULT_B, _STATE_WORDS)
    return _hash(np.tile(pool, (_STATE_WORDS // _POOL_SIZE, 1)), xor, mult)


@cache
def _output_multipliers(count: int) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64 bits, ``(2, count, 1)``, of ``M**(j+1)`` and ``1 + M + ... + M**(j+1)``."""
    powers = [pow(_PCG_MULT, t, _MOD128) for t in range(count + 2)]
    factors = [[powers[j + 1] for j in range(1, count + 1)],
               [sum(powers[:j + 2]) % _MOD128 for j in range(1, count + 1)]]
    high = np.array([[v >> 64 for v in row] for row in factors], np.uint64)
    low = np.array([[v & _MASK64 for v in row] for row in factors], np.uint64)
    return high[..., None], low[..., None]


def _mul_high(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The high 64 bits of the 128-bit products ``a * b``, on 32-bit halves."""
    a0, a1, b0, b1 = a & _M32, a >> _32, b & _M32, b >> _32
    low, mid0, mid1 = a0 * b0, a0 * b1, a1 * b0
    carry = ((low >> _32) + (mid0 & _M32) + (mid1 & _M32)) >> _32
    return a1 * b1 + (mid0 >> _32) + (mid1 >> _32) + carry


def _pcg64_outputs(state: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` PCG64 outputs, ``(count, rows)`` ``uint64``, from the seed words."""
    w = state.astype(np.uint64)
    seed = w[0::2] | (w[1::2] << _32)  # generate_state(4, np.uint64)
    initstate_high, initstate_low, initseq_high, initseq_low = seed[:, None]
    inc_high = (initseq_high << np.uint64(1)) | (initseq_low >> np.uint64(63))
    inc_low = (initseq_low << np.uint64(1)) | np.uint64(1)

    # Output j's state is initstate * M**(j+1) + inc * (1 + M + ... + M**(j+1)) mod 2**128.
    x_high, x_low = np.stack([initstate_high, inc_high]), np.stack([initstate_low, inc_low])
    m_high, m_low = _output_multipliers(count)
    low = x_low * m_low  # (operand, output, rows), mod 2**64
    high = _mul_high(x_low, m_low) + x_high * m_low + x_low * m_high
    state_low = low[0] + low[1]
    state_high = high[0] + high[1] + (state_low < low[0])

    # XSL-RR: rotate (high 64 bits ^ low 64 bits) right by the top six bits.
    xored = state_high ^ state_low
    rot = state_high >> np.uint64(58)
    return (xored >> rot) | (xored << ((np.uint64(64) - rot) & np.uint64(63)))


def uniform_rows(words: np.ndarray, lengths: np.ndarray, low: np.ndarray, high: np.ndarray
                 ) -> np.ndarray:
    """``default_rng(words[r, :lengths[r]]).uniform(low[r], high[r])`` for every row r, bit for bit.

    ``words`` is a ``(rows, width)`` ``uint32`` matrix: row r holds its
    generator's 32-bit seed words (as ``np.random.SeedSequence`` makes them
    of an int or a list of ints) in its first ``lengths[r]`` columns, and
    zeros past them. ``low`` and ``high`` are ``(rows, k)`` float arrays
    and each row draws ``k`` values. Rows of up to four words hash like
    their zero-padded four-word form, so they are one group; longer rows
    are grouped by length.
    """
    low = np.asarray(low, dtype=np.float64)
    high = np.asarray(high, dtype=np.float64)
    padded = np.maximum(lengths, _POOL_SIZE)
    if words.shape[1] < _POOL_SIZE:
        words = np.concatenate([words, np.zeros((len(words), _POOL_SIZE - words.shape[1]), np.uint32)],
                               axis=1)
    out = np.empty(low.shape)
    groups = np.flatnonzero(np.bincount(padded)).tolist()  # np.unique would import numpy.ma
    for length in groups:
        rows = np.flatnonzero(padded == length) if len(groups) > 1 else slice(None)
        bits = _pcg64_outputs(_state_words(np.ascontiguousarray(words[rows, :length].T)),
                              low.shape[1]).T
        doubles = (bits >> np.uint64(11)) * (1.0 / 9007199254740992.0)
        out[rows] = low[rows] + (high[rows] - low[rows]) * doubles
    return out
