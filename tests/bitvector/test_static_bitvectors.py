"""Tests for the static bitvectors: plain, RRR, RLE, sparse/Elias-Fano.

All implementations are checked against the same Python-list oracle on random,
bursty and degenerate inputs, plus encoding-specific checks (RRR compression
against B(m, n), RLE run recovery, Elias-Fano monotone access).
"""

import contextlib
import math
import random
from bisect import bisect_left

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.entropy import binomial_lower_bound
from repro.bits.bitstring import Bits
from repro.bitvector import (
    EliasFanoSequence,
    PlainBitVector,
    RLEBitVector,
    RRRBitVector,
    SparseBitVector,
)
from repro.bits import kernel
from repro.bitvector.rle import runs_of
from repro.exceptions import OutOfBoundsError

from tests.conftest import reference_rank, reference_select

BACKENDS = kernel.available_backends()


@contextlib.contextmanager
def active_backend(name):
    previous = kernel.use_backend(name)
    try:
        yield
    finally:
        kernel.use_backend(previous)


STATIC_CLASSES = [PlainBitVector, RRRBitVector, RLEBitVector, SparseBitVector.from_bits]
STATIC_IDS = ["plain", "rrr", "rle", "sparse"]


def build(factory, bits):
    return factory(bits)


@pytest.fixture(params=list(zip(STATIC_CLASSES, STATIC_IDS)), ids=STATIC_IDS)
def factory(request):
    return request.param[0]


class TestAgainstOracle:
    def test_random_bits(self, factory, random_bits):
        vector = build(factory, random_bits)
        assert len(vector) == len(random_bits)
        assert vector.ones == sum(random_bits)
        positions = [0, 1, 62, 63, 64, 65, 127, 500, 1234, len(random_bits) - 1]
        for pos in positions:
            assert vector.access(pos) == random_bits[pos]
        for pos in positions + [len(random_bits)]:
            assert vector.rank(1, pos) == reference_rank(random_bits, 1, pos)
            assert vector.rank(0, pos) == reference_rank(random_bits, 0, pos)
        ones_total = sum(random_bits)
        for idx in [0, 1, ones_total // 2, ones_total - 1]:
            assert vector.select(1, idx) == reference_select(random_bits, 1, idx)
        zeros_total = len(random_bits) - ones_total
        for idx in [0, zeros_total // 3, zeros_total - 1]:
            assert vector.select(0, idx) == reference_select(random_bits, 0, idx)

    def test_bursty_bits(self, factory, bursty_bits):
        vector = build(factory, bursty_bits)
        for pos in range(0, len(bursty_bits) + 1, 173):
            assert vector.rank(1, pos) == reference_rank(bursty_bits, 1, pos)
        assert vector.to_list() == bursty_bits

    def test_all_zeros(self, factory):
        vector = build(factory, [0] * 300)
        assert vector.ones == 0
        assert vector.rank(0, 300) == 300
        assert vector.select(0, 299) == 299
        with pytest.raises(OutOfBoundsError):
            vector.select(1, 0)

    def test_all_ones(self, factory):
        vector = build(factory, [1] * 300)
        assert vector.ones == 300
        assert vector.rank(1, 123) == 123
        assert vector.select(1, 0) == 0
        with pytest.raises(OutOfBoundsError):
            vector.select(0, 0)

    def test_single_bit(self, factory):
        vector = build(factory, [1])
        assert len(vector) == 1
        assert vector.access(0) == 1
        assert vector.rank(1, 1) == 1

    def test_empty(self, factory):
        vector = build(factory, [])
        assert len(vector) == 0
        assert vector.rank(1, 0) == 0
        with pytest.raises(OutOfBoundsError):
            vector.access(0)

    def test_bounds_checking(self, factory, random_bits):
        vector = build(factory, random_bits[:100])
        with pytest.raises(OutOfBoundsError):
            vector.access(100)
        with pytest.raises(OutOfBoundsError):
            vector.rank(1, 101)
        with pytest.raises(OutOfBoundsError):
            vector.select(1, 10**6)
        with pytest.raises(ValueError):
            vector.rank(2, 10)

    def test_iter_range(self, factory, random_bits):
        vector = build(factory, random_bits[:700])
        assert list(vector.iter_range(13, 660)) == random_bits[13:660]
        assert list(vector.iter_range(5, 5)) == []

    def test_rank_range(self, factory, random_bits):
        vector = build(factory, random_bits[:500])
        assert vector.rank_range(1, 100, 400) == sum(random_bits[100:400])

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=1), max_size=300))
    def test_property_rank_select_consistency(self, bits):
        for factory in (PlainBitVector, RRRBitVector, RLEBitVector):
            vector = factory(bits)
            assert vector.to_list() == bits
            for idx in range(sum(bits)):
                position = vector.select(1, idx)
                assert bits[position] == 1
                assert vector.rank(1, position) == idx


class TestRRRSpecifics:
    def test_block_size_validation(self):
        with pytest.raises(ValueError):
            RRRBitVector([1, 0], block_size=0)
        with pytest.raises(ValueError):
            RRRBitVector([1, 0], block_size=64)
        with pytest.raises(ValueError):
            RRRBitVector([1, 0], sample_rate=0)

    def test_compression_of_sparse_input(self):
        n = 4096
        bits = [0] * n
        for position in range(0, n, 97):
            bits[position] = 1
        vector = RRRBitVector(bits)
        lower = binomial_lower_bound(sum(bits), n)
        # The offset payload must be within a small factor of B(m, n) and far
        # below the raw n bits.
        assert vector.compressed_payload_bits() <= 4 * lower + 64
        assert vector.payload_bits() < n

    def test_incompressible_input_stays_close_to_raw(self):
        rng = random.Random(1)
        bits = [rng.randint(0, 1) for _ in range(4096)]
        vector = RRRBitVector(bits)
        assert vector.payload_bits() <= 1.6 * len(bits)

    def test_different_block_sizes_agree(self, random_bits):
        reference = RRRBitVector(random_bits, block_size=63)
        for block_size in (15, 31, 48):
            other = RRRBitVector(random_bits, block_size=block_size)
            for pos in range(0, len(random_bits), 311):
                assert other.rank(1, pos) == reference.rank(1, pos)


class TestRLESpecifics:
    def test_runs_of(self):
        assert runs_of([1, 1, 0, 0, 0, 1]) == [(1, 2), (0, 3), (1, 1)]
        assert runs_of([]) == []
        assert runs_of(Bits.from_string("0001")) == [(0, 3), (1, 1)]

    def test_run_count_and_runs_roundtrip(self, bursty_bits):
        vector = RLEBitVector(bursty_bits)
        expected = runs_of(bursty_bits)
        assert vector.run_count == len(expected)
        assert list(vector.runs()) == expected

    def test_from_runs(self):
        vector = RLEBitVector.from_runs([(0, 5), (1, 3), (0, 2)])
        assert vector.to_list() == [0] * 5 + [1] * 3 + [0] * 2

    def test_rle_compresses_runs(self, bursty_bits):
        rle = RLEBitVector(bursty_bits)
        plain = PlainBitVector(bursty_bits)
        assert rle.payload_bits() < plain.payload_bits()


class TestEliasFano:
    def test_select_and_rank(self):
        values = [3, 4, 7, 7, 20, 50, 51]
        sequence = EliasFanoSequence(values)
        assert sequence.to_list() == values
        assert sequence.rank(7) == 2      # values strictly below 7
        assert sequence.rank(8) == 4
        assert sequence.rank(1000) == 7
        assert sequence.predecessor(21) == 4
        with pytest.raises(OutOfBoundsError):
            sequence.predecessor(2)

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            EliasFanoSequence([5, 3])

    def test_empty(self):
        sequence = EliasFanoSequence([])
        assert len(sequence) == 0
        assert sequence.rank(10) == 0

    @given(st.lists(st.integers(min_value=0, max_value=10**6), max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_random_monotone_sequences(self, raw):
        values = sorted(raw)
        sequence = EliasFanoSequence(values)
        assert sequence.to_list() == values
        if values:
            probe = values[len(values) // 2]
            assert sequence.rank(probe) == sum(1 for v in values if v < probe)

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(
        raw=st.lists(st.integers(min_value=0, max_value=5000), max_size=120),
        spread=st.sampled_from([None, 1, 64, 10**6]),
        probes=st.lists(st.integers(min_value=-3, max_value=10**6 + 100), max_size=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_rank_and_rank_many_match_bisect(self, backend, raw, spread, probes):
        """Scalar and batched rank against ``bisect_left``: duplicates,
        empty buckets (sparse values in a large universe), ``low_width ==
        0`` (a universe no larger than the count) and probes at or beyond
        the universe."""
        values = sorted(raw)
        universe = None if spread is None or not values else values[-1] + spread
        with active_backend(backend):
            sequence = EliasFanoSequence(values, universe=universe)
            probes = probes + values + [v + 1 for v in values] + [sequence.universe]
            expected = [bisect_left(values, probe) for probe in probes]
            assert [sequence.rank(probe) for probe in probes] == expected
            assert sequence.rank_many(probes) == expected
            assert sequence.rank_many([]) == []

    def test_rank_with_zero_low_width(self):
        values = [0, 1, 1, 2, 5, 5, 5, 6]
        sequence = EliasFanoSequence(values)
        assert sequence._low_width == 0
        probes = list(range(-1, 10))
        expected = [bisect_left(values, probe) for probe in probes]
        assert [sequence.rank(probe) for probe in probes] == expected
        assert sequence.rank_many(probes) == expected

    def test_space_close_to_theory(self):
        rng = random.Random(3)
        values = sorted(rng.sample(range(1_000_000), 2000))
        sequence = EliasFanoSequence(values, universe=1_000_000)
        per_element = sequence.size_in_bits() / len(values)
        # Theory: 2 + log2(u/n) ~ 11 bits/element; allow generous slack for
        # the plain-bitvector directory overhead of the high part.
        assert per_element < 2 * (2 + math.log2(1_000_000 / 2000)) + 4


class TestSparseBitVector:
    def test_duplicate_positions_rejected(self):
        with pytest.raises(ValueError):
            SparseBitVector(10, [3, 3])

    def test_position_out_of_range(self):
        with pytest.raises(OutOfBoundsError):
            SparseBitVector(10, [10])

    def test_empty_vector_rank(self):
        vector = SparseBitVector(0, [])
        assert vector.rank(1, 0) == vector.rank(0, 0) == 0
        assert vector.rank_many(1, [0, 0]) == [0, 0]
        assert vector.rank_many(0, []) == []
        with pytest.raises(OutOfBoundsError):
            vector.rank_many(1, [0, 1])

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(
        length=st.integers(1, 3000),
        seed=st.integers(0, 2**32),
        density=st.sampled_from([0.0, 0.002, 0.05, 0.5, 1.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_rank_many_matches_scalar(self, backend, length, seed, density):
        rng = random.Random(seed)
        ones = [pos for pos in range(length) if rng.random() < density]
        positions = [rng.randint(0, length) for _ in range(30)] + [0, length]
        with active_backend(backend):
            vector = SparseBitVector(length, ones)
            for bit in (0, 1):
                expected = [vector.rank(bit, pos) for pos in positions]
                assert vector.rank_many(bit, positions) == expected
                assert expected == [
                    bisect_left(ones, pos) if bit else pos - bisect_left(ones, pos)
                    for pos in positions
                ]

    def test_select0(self, random_bits):
        bits = random_bits[:800]
        vector = SparseBitVector.from_bits(bits)
        zeros = [i for i, b in enumerate(bits) if b == 0]
        for idx in (0, 10, len(zeros) - 1):
            assert vector.select(0, idx) == zeros[idx]
