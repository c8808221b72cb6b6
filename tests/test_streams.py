import numpy as np
import pytest

from hrtwist import RandomStream


def test_partition_independence():
    full = RandomStream(99).uniforms_at(0, 1000)
    for n_parts in (2, 3, 7):
        edges = np.linspace(0, 1000, n_parts + 1).astype(int)
        parts = [RandomStream(99).uniforms_at(a, b - a)
                 for a, b in zip(edges[:-1], edges[1:])]
        assert np.array_equal(np.concatenate(parts), full)


def test_unaligned_offsets():
    full = RandomStream(7, 1).uniforms_at(0, 64)
    for off in (1, 2, 3, 5, 17):
        assert np.array_equal(RandomStream(7, 1).uniforms_at(off, 10),
                              full[off:off + 10])


def test_streams_are_distinct():
    a = RandomStream(1, 0).uniforms_at(0, 16)
    b = RandomStream(1, 1).uniforms_at(0, 16)
    c = RandomStream(2, 0).uniforms_at(0, 16)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_open_interval():
    u = RandomStream(0).uniforms_at(0, 200_000)
    assert np.all(u > 0.0)
    assert np.all(u < 1.0)


def test_determinism_across_instances():
    assert np.array_equal(RandomStream(123, 4).uniforms_at(5, 3),
                          RandomStream(123, 4).uniforms_at(5, 3))


def test_negative_offset_rejected():
    with pytest.raises(ValueError):
        RandomStream(0).uniforms_at(-1, 4)
