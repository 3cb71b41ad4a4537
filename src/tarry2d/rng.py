"""Counter-based random streams, and the Monte Carlo summary of their draws.

philox_stream is the one place a seed, any integer in [0, 2^64), becomes a
bit generator: Philox keyed by the seed and tags led by a purpose tag, a
stream independent of the others (Salmon et al., SC 2011) and of the worker
count.  R is the IEEE-754 bit pattern of theta's float64 radius:

    0 ellipsoid (0,)         2 theta pilot (2, R, shell)    4 retired (boxes draws)
    1 thin shell (1, block)  3 retired (theta main draws)   5 gram (5,)
    6 theta lattice shifts (6, R, shell)

A retired tag is not reused.  uniform32 maps raw words to floats, two 2^-32
uniforms per word; a draw on [lo, hi) is lo + (hi - lo) u.  numpy fixes raw
streams across versions, so outputs rest on the raw stream alone.  summarize
gives every estimator its strata's means, SEs and ESS; each estimator applies
its own weights (shell volume, normaliser, box volume).
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

_MASK64 = (1 << 64) - 1


def check_seed(seed: int) -> None:
    """ValueError for a seed outside [0, 2^64)."""
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")


def philox_stream(seed: int, *tags: int) -> np.random.Philox:
    """Bit generator of the (seed, tags...) stream; ValueError for a seed
    outside [0, 2^64) or a negative tag."""
    check_seed(seed)
    mix = 0
    for t in tags:
        if t < 0:
            raise ValueError("stream tags must be nonnegative")
        mix = ((mix * 0x9E3779B97F4A7C15) + t + 1) & _MASK64
    return np.random.Philox(key=(seed << 64) | mix)


def uniform32(bitgen: np.random.Philox, rows: int, size: int) -> np.ndarray:
    """(rows, size) C-ordered float64 uniforms on [0, 1), multiples of 2^-32.

    Value t comes from half t % 2 of raw word t // 2, the low half first; an
    odd count leaves the high half of the last word unused.
    """
    count = rows * size
    raw = bitgen.random_raw((count + 1) // 2)
    # the "<u8" view orders the halves low first on any host; free on little-endian
    halves = raw.astype("<u8", copy=False).view("<u4")[:count]
    return np.multiply(halves, 2.0**-32).reshape(rows, size)


Summary = namedtuple("Summary", "total total_sq nonzero mean var ess")


def summarize(blocks, n: int) -> Summary:
    """Summary of one stratum of n draws whose values f come as an iterable of
    array blocks, summed block by block in the order given; a draw in no block
    counts as f = 0.  Fields: sum f, sum f^2, the count of f != 0, the mean
    sum f / n, the variance of the mean max(E f^2 - mean^2, 0) / n, and the
    effective sample size (sum f)^2 / sum f^2, 0 when sum f^2 is 0."""
    total, total_sq, nonzero = 0.0, 0.0, 0
    for f in blocks:
        total += float(f.sum())
        total_sq += float((f * f).sum())
        nonzero += int(np.count_nonzero(f))
    mean = total / n
    return Summary(total, total_sq, nonzero, mean, max(total_sq / n - mean * mean, 0.0) / n,
                   total * total / total_sq if total_sq > 0 else 0.0)
