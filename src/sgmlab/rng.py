"""Counter-based random streams with per-replication substreams.

Every replication of an experiment draws from an independent Philox stream
keyed by ``(master_seed, replication_index)``.  Component indices come from
raw 64-bit draws mapped into ``range(n)`` without rejection, so the number
of raw words consumed per step is fixed and the stream for replication ``r``
is identical whether it runs alone or inside an ensemble.  A Philox word is
a pure function of its key and position, so the streams of an ensemble can
share one generator: each stream re-keys it to its own key and word
position before it draws.
"""

from __future__ import annotations

import numpy as np

__all__ = ["substream", "IndexStream"]

_MAX_COMPONENTS = 2**32 - 1
_EXHAUSTED = np.zeros(4, dtype=np.uint64)  # a Philox buffer with nothing left


def substream(master_seed: int, replication: int) -> np.random.Generator:
    """Independent Generator for one replication of one experiment."""
    key = np.array([master_seed, replication], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _map_in_place(raw: np.ndarray, n: int) -> np.ndarray:
    """Overwrite the uint64 words ``raw`` with ``(raw * n) >> 64`` and return
    them viewed as int64 (every value is below n < 2**32, with a bias below
    2**-32, and each index consumes exactly one word).

    The product is taken in 32-bit halves, hi = (raw >> 32)·n and
    lo = (raw & 0xFFFFFFFF)·n, and (hi + (lo >> 32)) >> 32 cannot wrap, so the
    only buffer beyond ``raw`` is lo.
    """
    n64 = np.uint64(n)
    lo = raw & np.uint64(0xFFFFFFFF)
    lo *= n64
    lo >>= np.uint64(32)
    raw >>= np.uint64(32)
    raw *= n64
    raw += lo
    raw >>= np.uint64(32)
    return raw.view(np.int64)


class IndexStream:
    """Uniform component indices for one replication, drawn block-wise.

    ``next_block(k)`` returns the next ``k`` indices of the stream.  Blocks
    of any size partition the same underlying sequence: consuming 1000
    indices in ten blocks of 100 yields exactly the indices of a single
    block of 1000.  A block of k indices is mapped in place over its k raw
    words, so it costs two uint64 buffers of k words: the words and one
    temporary.

    The stream keeps only its key and how many words it has drawn.  Before
    each draw it sets ``bitgen``, a ``np.random.Philox``, through its
    documented ``state`` to the key (master_seed, replication), the counter
    words // 4 and an exhausted buffer, then drops the first words % 4
    words of that counter's block: Philox yields word w as entry w % 4 of
    the block at counter w // 4 + 1.  The words are therefore those of a
    fresh ``np.random.Philox(key=[master_seed, replication])`` whatever
    else draws from ``bitgen`` between blocks, so one generator serves
    every stream of an ensemble.
    """

    __slots__ = ("_bitgen", "_seed", "_replication", "_words", "n_components")

    def __init__(self, master_seed: int, replication: int, n_components: int,
                 bitgen: np.random.Philox):
        if not 0 < n_components <= _MAX_COMPONENTS:
            raise ValueError("component count must be in [1, 2**32 - 1]")
        self._seed, self._replication = master_seed, replication
        self._bitgen = bitgen
        self._words = 0
        self.n_components = int(n_components)

    def next_block(self, k: int) -> np.ndarray:
        if k < 0:
            raise ValueError("block size must be nonnegative")
        if k == 0:
            return np.empty(0, dtype=np.int64)
        words, bitgen = self._words, self._bitgen
        bitgen.state = {
            "bit_generator": "Philox",
            "state": {
                "counter": np.array([words // 4, 0, 0, 0], dtype=np.uint64),
                "key": np.array([self._seed, self._replication],
                                dtype=np.uint64)},
            "buffer": _EXHAUSTED, "buffer_pos": 4,
            "has_uint32": 0, "uinteger": 0}
        if words % 4:
            bitgen.random_raw(words % 4)
        self._words = words + k
        return _map_in_place(bitgen.random_raw(k), self.n_components)
