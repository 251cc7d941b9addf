"""Philox4x64-10 uniforms: numpy's stream bit for bit, without numpy.random."""

import numpy as np
import pytest

from isoplp._philox import _BLOCK, SEED_LIMIT, uniform

SEEDS = [0, 1, 7, 2 ** 64 + 3, 2 ** 128 - 1]
SHAPES = [0, 1, 3, 4, 5, 1000, 4 * _BLOCK - 1, 4 * _BLOCK, 4 * _BLOCK + 1, 100000, (10000, 2), (250, 3), (1001, 3)]


@pytest.mark.parametrize("shape", SHAPES, ids=str)
@pytest.mark.parametrize("seed", SEEDS)
def test_stream_is_numpys_philox(seed, shape):
    # pins every seeded report to numpy's Generator(Philox(key=seed)).random
    ours = uniform(seed, shape)
    ref = np.random.Generator(np.random.Philox(key=seed)).random(shape)
    assert ours.shape == ref.shape
    assert ours.dtype == np.float64
    assert np.array_equal(ours.view(np.uint64), ref.view(np.uint64))


def test_stream_accepts_numpy_integers():
    assert np.array_equal(uniform(np.int64(7), 10), uniform(7, 10))


@pytest.mark.parametrize("seed", [-1, SEED_LIMIT, 2 ** 200])
def test_seed_outside_the_key_range_raises(seed):
    with pytest.raises(ValueError, match="0 <= seed < 2\\*\\*128"):
        uniform(seed, 4)


@pytest.mark.parametrize("seed", [1.0, 0.5, "1", None])
def test_non_integer_seed_raises(seed):
    with pytest.raises(ValueError, match="seed must be an integer"):
        uniform(seed, 4)
