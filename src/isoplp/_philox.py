"""Seeded uniform doubles from Philox4x64-10, without numpy.random.

numpy 2 imports numpy.random lazily, and that import alone lifts a fresh
process's resident memory by about 5 MB.  `uniform(seed, shape)` returns
np.random.Generator(np.random.Philox(key=seed)).random(shape) bit for bit
from uint64 array arithmetic, so every seeded report keeps numpy's stream.

Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
SC 2011) maps a 256-bit counter and a 128-bit key to four 64-bit words in
10 rounds.  numpy keys it with (seed mod 2^64, seed >> 64), starts the
counter at 0 and bumps it before each block of four words, so the first
block is counter 1; each word w becomes the double (w >> 11) * 2^-53.
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = ["SEED_LIMIT", "uniform"]

SEED_LIMIT = 1 << 128  # seeds are the keys 0 <= seed < 2^128
_MASK64 = (1 << 64) - 1
_MUL = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_BUMP = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_ROUNDS = 10
_BLOCK = 4096  # counters per block, four words each


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products m * x, from 32-bit halves."""
    low, shift = np.uint64(0xFFFFFFFF), np.uint64(32)
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & low, x >> shift
    lh, hl = x_hi * m_lo, x_lo * m_hi
    mid = (x_lo * m_lo >> shift) + (lh & low) + (hl & low)
    return x_hi * m_hi + (lh >> shift) + (hl >> shift) + (mid >> shift), x * np.uint64(m)


def _words(counters: np.ndarray, key: tuple[int, int]) -> np.ndarray:
    """The four output words of each counter (its high words 0), as an (n, 4) array."""
    zero = np.zeros_like(counters)
    v = [counters, zero, zero, zero]
    for r in range(_ROUNDS):
        k0, k1 = (np.uint64((k + r * b) & _MASK64) for k, b in zip(key, _BUMP))
        hi0, lo0 = _mulhilo(_MUL[0], v[0])
        hi1, lo1 = _mulhilo(_MUL[1], v[2])
        v = [hi1 ^ v[1] ^ k0, lo1, hi0 ^ v[3] ^ k1, lo0]
    return np.stack(v, axis=1)


def uniform(seed: int, shape) -> np.ndarray:
    """Doubles in [0, 1) of the given shape: np.random.Generator(np.random.Philox(key=seed)).random(shape).

    The seed is an integer with 0 <= seed < 2^128, else ValueError.  The
    words are made and converted _BLOCK counters at a time into one float
    array, so no temporary grows with the shape.
    """
    try:
        seed = operator.index(seed)
    except TypeError:
        raise ValueError(f"seed must be an integer, got {seed!r}") from None
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed must satisfy 0 <= seed < 2**128, got {seed}")
    key = (seed & _MASK64, seed >> 64)
    out = np.empty(shape)
    flat = out.reshape(-1)
    for first in range(0, flat.size, 4 * _BLOCK):
        dst = flat[first : first + 4 * _BLOCK]
        start = first // 4 + 1
        counters = np.arange(start, start + (dst.size + 3) // 4, dtype=np.uint64)
        dst[:] = _words(counters, key).reshape(-1)[: dst.size] >> np.uint64(11)
        dst *= 2.0 ** -53
    return out
