"""Counter-based random streams.

Every Monte Carlo loop draws from a Philox generator keyed by the user seed
plus a structured stream tag, so any (shell, block) pair owns an independent
stream and results are bitwise reproducible for any worker count.

Theta draws through `Generator.random`, one 64-bit word per double at 2^-53
resolution.  The thin shell draws through `uniform32`: each raw Philox word
gives two uniforms at 2^-32 resolution, low half first, which halves the
generator work per coordinate.  numpy fixes the raw bit-generator stream
across versions, but not `Generator.random`'s mapping, so thin-shell bytes
rest only on the former.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def philox_stream(seed: int, *tags: int) -> np.random.Generator:
    """Independent generator for a (seed, tags...) stream.

    Tags are small nonnegative integers (phase, shell, block, ...); they are
    packed into the low word of the 128-bit Philox key.
    """
    mix = 0
    for t in tags:
        if t < 0:
            raise ValueError("stream tags must be nonnegative")
        mix = ((mix * 0x9E3779B97F4A7C15) + t + 1) & _MASK64
    key = ((seed & _MASK64) << 64) | mix
    return np.random.Generator(np.random.Philox(key=key))


def uniform32(rng: np.random.Generator, rows: int, size: int) -> np.ndarray:
    """(rows, size) C-ordered float64 uniforms on [0, 1), multiples of 2^-32.

    Value t comes from half t % 2 of raw word t // 2, the low half first; an
    odd count leaves the high half of the last word unused.
    """
    count = rows * size
    raw = rng.bit_generator.random_raw((count + 1) // 2)
    # the "<u8" view orders the halves low first on any host; free on little-endian
    halves = raw.astype("<u8", copy=False).view("<u4")[:count]
    return np.multiply(halves, 2.0**-32).reshape(rows, size)
