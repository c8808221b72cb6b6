"""Counter-based uniform streams with random access.

Each stream is identified by (seed, stream_id) and exposes its raw 64-bit
Philox words as an indexed sequence: `words_at(offset, count)` returns
words [offset, offset + count) regardless of what was drawn before.
Workers partitioning a sample range therefore reproduce exactly the same
numbers as a single sequential pass, which makes every estimate
independent of the parallel execution order.

The uniform of word w is `uniforms_from_words`: (w >> 11) * 2^-53, the
value numpy's `Generator.random` makes of it, with 0 replaced by 2^-53 so
every uniform lies in (0, 1); `least_word` inverts it.  `uniforms_at` is
the float view of `words_at`.  The core tests raw words as integers and
converts only the ones it keeps.

The convention used by the estimators: the uniform for component i of
sample j in an N-component problem is word j*N + i of the run's stream.
"""
from __future__ import annotations

import numpy as np

_MANTISSA_SHIFT = np.uint64(11)  # a word keeps its top 53 bits as a uniform
_ULP = 2.0 ** -53                # also substituted for an exact 0.0 draw


def uniforms_from_words(words: np.ndarray) -> np.ndarray:
    """Uniforms in (0, 1) of raw words, bit for bit `Generator.random`'s."""
    return np.maximum(words >> _MANTISSA_SHIFT, 1) * _ULP


def least_word(u: np.ndarray) -> np.ndarray:
    """Least word whose uniform is at least u, for u up to 1 - 2^-53."""
    k = np.clip(np.ceil(u / _ULP), 0.0, 2.0 ** 53 - 1.0)
    # words 0 .. 2^11 - 1 all map to 2^-53, the uniform of index 1
    return np.where(k > 1.0, k, 0.0).astype(np.uint64) << _MANTISSA_SHIFT


class RandomStream:
    """Deterministic stream of 64-bit words over a Philox counter."""

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self.stream_id = int(stream_id) & 0xFFFFFFFFFFFFFFFF

    def words_at(self, offset: int, count: int) -> np.ndarray:
        """Raw words [offset, offset+count) of this stream, as uint64."""
        offset, count = int(offset), int(count)
        if offset < 0 or count < 0:
            raise ValueError("offset and count must be nonnegative")
        bits = np.random.Philox(key=[self.seed, self.stream_id])
        # Philox advances in blocks of 4 output words; burn the remainder
        blocks, rem = divmod(offset, 4)
        if blocks:
            bits.advance(blocks)
        return bits.random_raw(rem + count)[rem:]

    def uniforms_at(self, offset: int, count: int) -> np.ndarray:
        """Uniforms of words [offset, offset+count) of this stream."""
        return uniforms_from_words(self.words_at(offset, count))

    def __repr__(self):
        return f"RandomStream(seed={self.seed}, stream_id={self.stream_id})"
