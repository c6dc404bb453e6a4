import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgmlab.rng import IndexStream, _map_in_place, substream


def bounded_indices(raw, n):
    """The index mapping of ``IndexStream``, on a uint64 copy of ``raw``."""
    return _map_in_place(np.array(raw, dtype=np.uint64), n)


def test_substream_reproducible():
    a = substream(123, 0).random(8)
    b = substream(123, 0).random(8)
    assert np.array_equal(a, b)


def test_substreams_differ_across_replications():
    a = substream(123, 0).random(8)
    b = substream(123, 1).random(8)
    assert not np.array_equal(a, b)


def test_substreams_differ_across_seeds():
    a = substream(123, 5).random(8)
    b = substream(124, 5).random(8)
    assert not np.array_equal(a, b)


@given(st.integers(0, 2**63 - 1), st.integers(0, 2**31 - 1),
       st.integers(1, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_bounded_indices_matches_bigint_oracle(raw, n_offset, n):
    # the mapping is floor(raw * n / 2^64) computed in 32-bit halves;
    # verify against exact integer arithmetic
    raw_arr = np.array([raw], dtype=np.uint64)
    got = bounded_indices(raw_arr, n)
    assert got[0] == (raw * n) >> 64
    assert 0 <= got[0] < n


def test_bounded_indices_covers_small_range():
    raw = substream(7, 0).integers(0, 2**64, size=4000, dtype=np.uint64)
    idx = bounded_indices(raw, 5)
    assert set(np.unique(idx)) == {0, 1, 2, 3, 4}


def test_bounded_indices_roughly_uniform():
    raw = substream(11, 3).integers(0, 2**64, size=20000, dtype=np.uint64)
    counts = np.bincount(bounded_indices(raw, 4), minlength=4)
    # 4 sigma for a binomial(20000, 1/4)
    assert np.all(np.abs(counts - 5000) < 4 * np.sqrt(20000 * 0.25 * 0.75))


def test_index_stream_blocks_partition_the_stream():
    a = IndexStream(99, 2, 13, np.random.Philox())
    first = np.concatenate([a.next_block(5), a.next_block(3), a.next_block(8)])
    b = IndexStream(99, 2, 13, np.random.Philox())
    assert np.array_equal(first, b.next_block(16))


def test_index_stream_range_and_dtype():
    s = IndexStream(5, 0, 7, np.random.Philox())
    idx = s.next_block(1000)
    assert idx.dtype == np.int64
    assert idx.min() >= 0 and idx.max() < 7


def test_index_stream_distinct_replications():
    a = IndexStream(5, 0, 10, np.random.Philox()).next_block(64)
    b = IndexStream(5, 1, 10, np.random.Philox()).next_block(64)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("n", [1, 2, 3, 2**20])
def test_index_stream_parametrized_range(n):
    idx = IndexStream(17, 4, n, np.random.Philox()).next_block(256)
    assert idx.min() >= 0 and idx.max() < n


def test_map_in_place_overwrites_its_words():
    # the stream maps its words in place: the result is a view of them
    raw = substream(3, 1).integers(0, 2**64, size=64, dtype=np.uint64)
    before = [int(w) for w in raw]
    idx = _map_in_place(raw, 1000)
    assert idx.dtype == np.int64 and np.shares_memory(idx, raw)
    assert [int(i) for i in idx] == [(w * 1000) >> 64 for w in before]


@pytest.mark.parametrize("n", [1, 7, 2**32 - 1])
def test_index_stream_maps_its_words_as_bounded_indices_does(n):
    raw = np.random.Philox(key=np.array([21, 6], dtype=np.uint64)).random_raw(
        300)
    s = IndexStream(21, 6, n, np.random.Philox())
    got = np.concatenate([s.next_block(100), s.next_block(200)])
    assert [int(i) for i in got] == [(int(w) * n) >> 64 for w in raw]


@pytest.mark.parametrize("n", [2, 256, 257, 65_537])
def test_streams_sharing_one_generator_draw_their_own_words(n):
    # streams re-key one generator before every draw; stream j draws blocks
    # of k + j, so word positions such as 1, 3, 6 and 10 fall inside a
    # Philox block of four words and differ from stream to stream
    reps = (0, 1, 6, 2**40)
    bitgen = np.random.Philox()
    streams = [IndexStream(31, r, n, bitgen) for r in reps]
    got = [[] for _ in reps]
    for k in (1, 2, 3, 4, 5, 1, 7):
        for j, s in enumerate(streams):
            got[j].append(s.next_block(k + j))
    for j, r in enumerate(reps):
        drawn = np.concatenate(got[j])
        raw = np.random.Philox(key=np.array([31, r], dtype=np.uint64)
                               ).random_raw(len(drawn))
        assert np.array_equal(drawn, bounded_indices(raw, n))


# Philox4x64-10 as published (Salmon, Moraes, Dror and Shaw, "Parallel random
# numbers: as easy as 1, 2, 3", SC 2011): the round multipliers and the
# Weyl key increments of the 4x64 variant
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_U64 = 2**64 - 1


def _philox4x64_10(counter, key):
    c0, c1, c2, c3 = counter
    k0, k1 = key
    for _ in range(10):
        p0, p1 = _PHILOX_M[0] * c0, _PHILOX_M[1] * c2
        c0, c1, c2, c3 = ((p1 >> 64) ^ c1 ^ k0, p1 & _U64,
                          (p0 >> 64) ^ c3 ^ k1, p0 & _U64)
        k0, k1 = (k0 + _PHILOX_W[0]) & _U64, (k1 + _PHILOX_W[1]) & _U64
    return [c0, c1, c2, c3]


def _philox_words(seed, replication, count):
    """The first ``count`` words of the stream keyed (seed, replication):
    the counter starts at 0 and is incremented before each block."""
    words = []
    for block in range(1, (count + 3) // 4 + 1):
        words += _philox4x64_10((block, 0, 0, 0), (seed, replication))
    return words[:count]


@pytest.mark.parametrize("key", [(20250814, 0), (20250814, 199), (0, 0),
                                 (2**64 - 1, 2**64 - 1)])
def test_numpy_philox_is_the_published_philox4x64_10(key):
    raw = np.random.Philox(key=np.array(key, dtype=np.uint64)).random_raw(11)
    assert [int(w) for w in raw] == _philox_words(*key, 11)


@pytest.mark.parametrize("n", [2, 20, 257, 2**32 - 1])
def test_index_stream_maps_published_philox_words(n):
    # ragged blocks cross the four-word Philox blocks at every offset
    s = IndexStream(20250814, 199, n, np.random.Philox())
    got = [int(i) for k in (3, 1, 5, 7) for i in s.next_block(k)]
    assert got == [(w * n) >> 64 for w in _philox_words(20250814, 199, 16)]
