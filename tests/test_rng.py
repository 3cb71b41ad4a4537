import math
from pathlib import Path

import numpy as np
import pytest

import tarry2d
from tarry2d.rng import philox_stream, summarize, uniform32
from tarry2d.theta import _shell_bounds

# every theta radius of the tests, the README and the benchmark's jobs
RADII = [0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 9.0, 10.0, 20.0, 40.0, 1e12]


def _key(seed, *tags):
    key = philox_stream(seed, *tags).state["state"]["key"]
    return int(key[0]), int(key[1])


class TestPhiloxStream:
    @pytest.mark.parametrize("seed", [-1, 2**64, -(2**64)])
    def test_rejects_seed_outside_64_bits(self, seed):
        with pytest.raises(ValueError, match="seed must be in"):
            philox_stream(seed, 3, 0, 0)

    def test_rejects_negative_tag(self):
        with pytest.raises(ValueError, match="tags must be nonnegative"):
            philox_stream(7, 3, -1)

    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_seed_is_the_high_key_word(self, seed):
        assert _key(seed, 4, 8)[1] == seed
        assert _key(seed, 4, 8)[0] == _key(0, 4, 8)[0]

    def test_package_tags_get_distinct_keys(self):
        # every tag tuple the package draws from, over ranges it reaches:
        # 2^28 thin-shell draws, every shell of every radius in RADII with
        # 2^22 main draws per shell; plus the retired box tags (4, P), P up
        # to lowerbound._MAX_SCALE, which no new stream may take
        tags = [(0,), (5,)]
        tags += [(1, b) for b in range(1 << 12)]
        for R in RADII:
            bits = int(np.float64(R).view(np.uint64))
            shells = range(len(_shell_bounds(R, 3)))
            tags += [(2, bits, l) for l in shells]
            tags += [(3, bits, l, blk) for l in shells for blk in range(512)]
        tags += [(4, P) for P in range(1, 257)]
        assert len({_key(0, *t)[0] for t in tags}) == len(tags)

    def test_np_random_only_in_rng(self):
        src = Path(tarry2d.__file__).parent
        users = sorted(p.name for p in src.glob("*.py") if "np.random" in p.read_text())
        assert users == ["rng.py"]

    def test_variance_only_in_rng(self):
        # every estimator takes its mean, variance and ESS from rng.summarize
        src = Path(tarry2d.__file__).parent
        assert [p.name for p in src.glob("*.py") if "mean * mean" in p.read_text()] == ["rng.py"]


class TestUniform32:
    @pytest.mark.parametrize("rows, size", [(6, 5), (3, 5), (1, 1)])
    def test_interleaves_word_halves_low_first(self, rows, size):
        count = rows * size
        raw = philox_stream(7, 1, 0).random_raw((count + 1) // 2)
        want = np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=1).ravel()[:count]
        got = uniform32(philox_stream(7, 1, 0), rows, size)
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert np.array_equal(got, (want * 2.0**-32).reshape(rows, size))

    def test_values_on_the_2_32_grid_in_unit_interval(self):
        u = uniform32(philox_stream(8, 1, 0), 4, 1 << 16)
        assert u.min() >= 0.0 and u.max() < 1.0
        scaled = u * 2.0**32
        assert np.array_equal(scaled, np.floor(scaled))

    def test_uniform_at_fixed_seed(self):
        u = uniform32(philox_stream(9, 1, 0), 16, 1 << 16)  # 2^20 values
        se = math.sqrt(1.0 / 12.0 / u.shape[1])
        assert np.all(np.abs(u.mean(axis=1) - 0.5) <= 5 * se)
        flat = u.ravel()
        for half in (flat[0::2], flat[1::2]):  # low and high word halves
            bits = (half * 2.0**32).astype(np.uint64)
            # leading and trailing byte of each 32-bit value, 256 bins each
            for byte in (bits >> 24, bits & 0xFF):
                counts = np.bincount(byte.astype(np.intp), minlength=256)
                expected = half.size / 256
                chi2 = float(((counts - expected) ** 2 / expected).sum())
                # chi-square with 255 degrees of freedom: upper 1e-4 point 347.7
                assert chi2 < 347.7


class TestSummarize:
    def test_sums_blocks_in_the_order_given(self):
        blocks = [np.array([1.0, 0.0, 3.0]), np.array([2.0])]
        s = summarize(blocks, 5)  # one draw of the 5 is in no block
        assert (s.total, s.total_sq, s.nonzero) == (6.0, 14.0, 3)
        assert s.mean == 6.0 / 5
        assert s.var == (14.0 / 5 - 6.0 / 5 * (6.0 / 5)) / 5
        assert s.ess == 36.0 / 14.0
        # block by block: 1e16 + 1 + 1 loses both ones, 1e16 + 2 keeps them
        parts = [np.array([1e16]), np.array([1.0]), np.array([1.0])]
        assert summarize(parts, 3).total == 1e16
        assert summarize([parts[0], np.array([1.0, 1.0])], 3).total == 1e16 + 2

    def test_zeros_and_indicators(self):
        assert summarize([], 4) == (0.0, 0.0, 0, 0.0, 0.0, 0.0)
        assert summarize([np.zeros(3)], 3).ess == 0.0
        s = summarize([np.array([True, False, True, True])], 4)
        assert (s.total, s.nonzero, s.mean, s.ess) == (3.0, 3, 0.75, 3.0)
        assert s.var == pytest.approx(0.75 * 0.25 / 4, rel=1e-15)
