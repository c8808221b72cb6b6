import warnings

import numpy as np
import pytest

from hrtwist import ParameterError, RandomStream
from hrtwist.streams import uniforms_from_words


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


def test_negative_seeds_are_distinct():
    # a seed masks to 2^64 + seed, past int64: no float rounding may merge two
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a = RandomStream(-1).words_at(0, 16)
        b = RandomStream(-5).words_at(0, 16)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("seed, stream_id", [(-1, 3), (2 ** 63 - 1, 2 ** 64 - 1),
                                             (-2 ** 63, 0)])
def test_keys_are_the_64_bit_values(seed, stream_id):
    key = np.array([seed % 2 ** 64, stream_id], dtype=np.uint64)
    assert np.array_equal(RandomStream(seed, stream_id).words_at(0, 8),
                          np.random.Philox(key=key).random_raw(8))


# a wider value would key Philox as some value in range does
@pytest.mark.parametrize("seed, stream_id", [
    (2 ** 64 + 7, 0), (2 ** 63, 0), (-2 ** 63 - 1, 0), (1.5, 0), ("7", 0),
    (7, -1), (7, 2 ** 64), (7, 1.0)])
def test_wide_or_fractional_keys_raise(seed, stream_id):
    with pytest.raises(ParameterError):
        RandomStream(seed, stream_id)


def test_open_interval():
    u = RandomStream(0).uniforms_at(0, 200_000)
    assert np.all(u > 0.0)
    assert np.all(u < 1.0)


def test_determinism_across_instances():
    assert np.array_equal(RandomStream(123, 4).uniforms_at(5, 3),
                          RandomStream(123, 4).uniforms_at(5, 3))


def test_negative_offset_rejected():
    stream = RandomStream(0)
    for offset, count in ((-1, 4), (0, -1), (np.int64(-4), 4)):
        with pytest.raises(ParameterError):
            stream.words_at(offset, count)
    with pytest.raises(ParameterError):
        stream.uniforms_at(-1, 4)


# int() would truncate these and draw the words of a whole value
@pytest.mark.parametrize("offset, count", [
    (0.5, 3), (1.9, 2.7), (0, 3.0), (np.float64(2.0), 4), ("1", 4), (None, 4)])
def test_fractional_ranges_raise(offset, count):
    with pytest.raises(ParameterError):
        RandomStream(0).words_at(offset, count)


@pytest.mark.parametrize("offset, count", [
    (np.int64(5), np.int64(3)), (np.uint64(5), np.uint64(3)),
    (np.int32(5), 3)])
def test_numpy_integer_ranges_accepted(offset, count):
    full = RandomStream(7).words_at(0, 16)
    words = RandomStream(7).words_at(offset, count)
    assert np.array_equal(words, full[int(offset):int(offset) + int(count)])


def test_words_partition_independence():
    full = RandomStream(99).words_at(0, 1000)
    assert full.dtype == np.uint64
    for n_parts in (2, 3, 7):
        edges = np.linspace(0, 1000, n_parts + 1).astype(int)
        parts = [RandomStream(99).words_at(a, b - a)
                 for a, b in zip(edges[:-1], edges[1:])]
        assert np.array_equal(np.concatenate(parts), full)


def test_words_unaligned_offsets():
    full = RandomStream(7, 1).words_at(0, 64)
    for off in (1, 2, 3, 5, 17):
        assert np.array_equal(RandomStream(7, 1).words_at(off, 10),
                              full[off:off + 10])


@pytest.mark.parametrize("offset", [0, 1, 2, 3, 4097])
def test_float_view_is_generator_random(offset):
    # uniforms_at is the float view of words_at, and both are numpy's
    # Generator.random over the same Philox key, bit for bit
    stream = RandomStream(2024, 3)
    u = stream.uniforms_at(offset, 5000)
    assert np.array_equal(uniforms_from_words(stream.words_at(offset, 5000)), u)
    bits = np.random.Philox(key=[2024, 3])
    expect = np.random.Generator(bits).random(offset + 5000)[offset:]
    assert np.array_equal(u.view(np.uint64), expect.view(np.uint64))


def test_zero_word_maps_to_smallest_uniform():
    words = np.array([0, 1, 2047, 2048, 4096, 2 ** 64 - 1], dtype=np.uint64)
    assert list(uniforms_from_words(words) * 2.0 ** 53) == [
        1.0, 1.0, 1.0, 1.0, 2.0, 2.0 ** 53 - 1.0]
