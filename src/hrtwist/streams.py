"""Counter-based uniform streams with random access.

Each stream is identified by (seed, stream_id) and exposes the uniforms
as an indexed sequence: `uniforms_at(offset, count)` returns words
[offset, offset + count) regardless of what was drawn before.  Workers
partitioning a sample range therefore reproduce exactly the same numbers
as a single sequential pass, which makes every estimate independent of
the parallel execution order.

The convention used by the estimators: the uniform for component i of
sample j in an N-component problem is word j*N + i of the run's stream.
"""
from __future__ import annotations

import numpy as np

_TINY_UNIFORM = 2.0 ** -53  # substituted for an exact 0.0 draw


class RandomStream:
    """Deterministic stream of uniforms in (0, 1) over a Philox counter."""

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self.stream_id = int(stream_id) & 0xFFFFFFFFFFFFFFFF

    def uniforms_at(self, offset: int, count: int) -> np.ndarray:
        """Words [offset, offset+count) of this stream."""
        offset, count = int(offset), int(count)
        if offset < 0 or count < 0:
            raise ValueError("offset and count must be nonnegative")
        bits = np.random.Philox(key=[self.seed, self.stream_id])
        # Philox advances in blocks of 4 output words; burn the remainder
        blocks, rem = divmod(offset, 4)
        if blocks:
            bits.advance(blocks)
        u = np.random.Generator(bits).random(rem + count)[rem:]
        u[u == 0.0] = _TINY_UNIFORM
        return u

    def __repr__(self):
        return f"RandomStream(seed={self.seed}, stream_id={self.stream_id})"
