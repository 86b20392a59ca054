"""Deterministic random stream derivation.

Every source of randomness in a run is a named child of the single run seed,
so two runs with the same config are bit-for-bit identical while the streams
for model init, noise sampling, data shuffling, etc. stay independent.
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import shown


def spawn_rng(seed: int, *tags: object) -> np.random.Generator:
    """Return a PCG64 generator derived from ``seed`` and a role path.

    ``seed`` must lie in [0, 2**32), so that no two seeds give the same
    streams.  Tags are stringified and hashed with crc32, which is stable
    across platforms and Python versions (unlike the builtin ``hash``).
    """
    if not 0 <= seed < 2**32:
        raise ValueError(f"seed must be in [0, 2**32), got {shown(seed)}")
    entropy = [seed] + [zlib.crc32(str(t).encode("utf-8")) for t in tags]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
