"""Differential tests of the RRR batch paths and the block-decode primitive.

``RRRBitVector.access_many``/``rank_many`` must answer exactly what the
scalar ``access``/``rank`` calls answer, in input order, for unsorted and
duplicated positions, the empty batch, ``pos == len``, a partial last block
and all-0/all-1 blocks -- under every available kernel backend.  The
kernel's ``decode_rrr_blocks`` must rebuild the blocks
``combinatorial_unrank`` rebuilds, and the python and numpy backends must
agree on it.
"""

import contextlib
import random
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from repro.bits import kernel
from repro.bits.codes import combinatorial_unrank
from repro.bits.kernel import npkernel, pykernel
from repro.bitvector.rrr import RRRBitVector
from repro.exceptions import OutOfBoundsError

BACKENDS = kernel.available_backends()


@contextlib.contextmanager
def active_backend(name):
    previous = kernel.use_backend(name)
    try:
        yield
    finally:
        kernel.use_backend(previous)


def blocky_bits(draw, block_size):
    """Bits built from whole blocks of mixed density, plus a partial tail."""
    pieces = draw(
        st.lists(
            st.sampled_from(["zeros", "ones", "sparse", "dense", "random"]),
            max_size=12,
        )
    )
    rng = random.Random(draw(st.integers(0, 2**32)))
    density = {"zeros": 0.0, "ones": 1.0, "sparse": 0.05, "dense": 0.95, "random": 0.5}
    bits = []
    for piece in pieces:
        bits.extend(int(rng.random() < density[piece]) for _ in range(block_size))
    bits.extend(rng.randint(0, 1) for _ in range(draw(st.integers(0, block_size - 1))))
    return bits


@st.composite
def vectors_and_positions(draw):
    block_size = draw(st.sampled_from([63, 63, 15, 7, 1]))
    sample_rate = draw(st.sampled_from([8, 1, 3]))
    bits = blocky_bits(draw, block_size)
    length = len(bits)
    access = draw(st.lists(st.integers(0, max(length - 1, 0)), max_size=60)) if length else []
    ranks = draw(st.lists(st.integers(0, length), max_size=60))
    # pos == len and the block starts are the boundary cases of rank.
    ranks += [length, 0] + list(range(0, length + 1, block_size))[:4]
    draw(st.randoms()).shuffle(ranks)
    return bits, block_size, sample_rate, access, ranks


class TestRRRBatchMatchesScalar:
    @pytest.mark.parametrize("backend", BACKENDS)
    @given(case=vectors_and_positions())
    @settings(max_examples=60, deadline=None)
    def test_access_and_rank_many(self, backend, case):
        bits, block_size, sample_rate, access, ranks = case
        with active_backend(backend):
            vector = RRRBitVector(bits, block_size=block_size, sample_rate=sample_rate)
            assert vector.access_many(access) == [vector.access(p) for p in access]
            assert vector.access_many(access) == [bits[p] for p in access]
            for bit in (0, 1):
                expected = [vector.rank(bit, p) for p in ranks]
                assert vector.rank_many(bit, ranks) == expected
                assert expected == [bits[:p].count(bit) for p in ranks]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_batches_and_empty_vector(self, backend):
        with active_backend(backend):
            empty = RRRBitVector([])
            assert empty.access_many([]) == []
            assert empty.rank_many(1, []) == []
            assert empty.rank_many(1, [0, 0]) == [0, 0]
            vector = RRRBitVector([1, 0] * 100)
            assert vector.access_many([]) == []
            assert vector.rank_many(0, []) == []

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_all_zero_and_all_one_blocks(self, backend):
        bits = [0] * 63 + [1] * 63 + [0] * 20
        with active_backend(backend):
            vector = RRRBitVector(bits)
            positions = list(range(len(bits)))
            assert vector.access_many(positions[::-1]) == bits[::-1]
            rank_positions = list(range(len(bits) + 1))
            assert vector.rank_many(1, rank_positions) == [
                bits[:p].count(1) for p in rank_positions
            ]

    def test_backend_arrays_are_accepted(self):
        if "numpy" not in BACKENDS:
            pytest.skip("numpy not installed")
        import numpy as np

        bits = [1, 0, 0, 1, 1] * 40
        vector = RRRBitVector(bits)
        positions = np.asarray([5, 0, 199, 5], dtype=np.int64)
        assert vector.access_many(positions) == [bits[p] for p in positions.tolist()]
        assert vector.rank_many(1, positions) == [
            bits[:p].count(1) for p in positions.tolist()
        ]

    def test_validation_is_all_or_nothing(self):
        vector = RRRBitVector([1, 0, 1] * 50)
        for bad in ([0, 150], [-1, 3], [150]):
            with pytest.raises(OutOfBoundsError):
                vector.access_many(bad)
        for bad in ([0, 151], [-1, 3], [151]):
            with pytest.raises(OutOfBoundsError):
                vector.rank_many(1, bad)
        with pytest.raises(ValueError):
            vector.rank_many(2, [0, 1])

    def test_rank_of_the_whole_vector_decodes_no_block(self, monkeypatch):
        """``rank(bit, len)`` (every node ``count``) is answered from the
        stored total, so no offset is ever read."""
        import repro.bitvector.rrr as rrr_module

        vector = RRRBitVector([1, 0, 0] * 70)  # 210 bits: a partial last block
        reads = []
        original = rrr_module.extract_bits_value
        monkeypatch.setattr(
            rrr_module,
            "extract_bits_value",
            lambda *args: reads.append(args) or original(*args),
        )
        assert vector.rank(1, len(vector)) == 70
        assert vector.rank(0, len(vector)) == 140
        assert vector.count(1) == 70
        assert reads == []


class TestDecodeRRRBlocks:
    @pytest.mark.parametrize("width", [1, 2, 7, 31, 62, 63])
    def test_every_class_matches_combinatorial_unrank(self, width):
        rng = random.Random(width)
        classes, offsets = [], []
        for cls in range(width + 1):
            total = comb(width, cls)
            for offset in {0, total - 1, rng.randrange(total), rng.randrange(total)}:
                classes.append(cls)
                offsets.append(offset)
        expected = [
            combinatorial_unrank(offset, width, cls)
            for cls, offset in zip(classes, offsets)
        ]
        assert pykernel.decode_rrr_blocks(width, classes, offsets) == expected
        assert kernel.decode_rrr_blocks(width, classes, offsets) == expected

    def test_empty_batch(self):
        assert pykernel.decode_rrr_blocks(63, [], []) == []

    @pytest.mark.skipif(not npkernel.HAVE_NUMPY, reason="numpy not installed")
    @given(
        width=st.integers(1, 63),
        seed=st.integers(0, 2**32),
        count=st.integers(0, 80),
    )
    @settings(max_examples=60, deadline=None)
    def test_python_and_numpy_backends_agree(self, width, seed, count):
        import numpy as np

        rng = random.Random(seed)
        classes = [rng.randint(0, width) for _ in range(count)]
        offsets = [rng.randrange(comb(width, cls)) for cls in classes]
        expected = pykernel.decode_rrr_blocks(width, classes, offsets)
        assert npkernel.decode_rrr_blocks(width, classes, offsets) == expected
        assert (
            npkernel.decode_rrr_blocks(
                width,
                np.asarray(classes, dtype=np.int64),
                np.asarray(offsets, dtype=np.uint64),
            )
            == expected
        )
