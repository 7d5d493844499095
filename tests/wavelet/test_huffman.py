"""Tests for Huffman codes and the Huffman-shaped Wavelet Tree."""

import contextlib
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.entropy import empirical_entropy
from repro.bits import kernel
from repro.bitvector.plain import PlainBitVector
from repro.bitvector.rrr import RRRBitVector
from repro.exceptions import OutOfBoundsError, ValueNotFoundError
from repro.wavelet import HuffmanWaveletTree, huffman_codes


@contextlib.contextmanager
def active_backend(name):
    previous = kernel.use_backend(name)
    try:
        yield
    finally:
        kernel.use_backend(previous)


class TestHuffmanCodes:
    def test_empty_and_singleton(self):
        assert huffman_codes({}) == {}
        codes = huffman_codes({"a": 10})
        assert len(codes) == 1 and len(codes["a"]) == 1

    def test_codes_are_prefix_free(self):
        frequencies = {"a": 45, "b": 13, "c": 12, "d": 16, "e": 9, "f": 5}
        codes = huffman_codes(frequencies)
        assert len(codes) == 6
        for x in codes:
            for y in codes:
                if x != y:
                    assert not codes[x].startswith(codes[y])

    def test_frequent_symbols_get_shorter_codes(self):
        frequencies = {"rare": 1, "common": 1000, "mid": 50}
        codes = huffman_codes(frequencies)
        assert len(codes["common"]) <= len(codes["mid"]) <= len(codes["rare"])

    def test_average_length_close_to_entropy(self):
        rng = random.Random(1)
        data = [rng.choice("aaaaabbbccd") for _ in range(2000)]
        counts = Counter(data)
        codes = huffman_codes(counts)
        average = sum(counts[s] * len(codes[s]) for s in counts) / len(data)
        entropy = empirical_entropy(data)
        assert entropy <= average < entropy + 1

    @given(st.dictionaries(st.text(min_size=1, max_size=3), st.integers(min_value=1, max_value=1000), min_size=1, max_size=15))
    @settings(max_examples=50, deadline=None)
    def test_property_prefix_free_and_complete(self, frequencies):
        codes = huffman_codes(frequencies)
        assert set(codes) == set(frequencies)
        items = list(codes.values())
        for i, x in enumerate(items):
            for y in items[i + 1:]:
                assert not x.startswith(y) and not y.startswith(x)


class TestHuffmanWaveletTree:
    def test_known_sequence(self):
        data = list("abracadabra")
        tree = HuffmanWaveletTree(data)
        assert tree.to_list() == data
        assert tree.count("a") == 5
        assert tree.rank("b", 9) == 2
        assert tree.select("r", 1) == 9
        assert tree.rank("z", 5) == 0
        with pytest.raises(ValueNotFoundError):
            tree.select("z", 0)
        with pytest.raises(OutOfBoundsError):
            tree.select("a", 5)

    def test_single_distinct_symbol(self):
        tree = HuffmanWaveletTree(["x"] * 10)
        assert tree.access(7) == "x"
        assert tree.rank("x", 10) == 10
        assert tree.select("x", 9) == 9

    def test_skewed_tree_is_shallower_than_balanced_for_skewed_data(self):
        rng = random.Random(6)
        data = [rng.choice("a" * 90 + "bcdefgh") for _ in range(1500)]
        tree = HuffmanWaveletTree(data)
        codes = tree.codes
        weighted_depth = sum(len(codes[s]) for s in data) / len(data)
        assert weighted_depth < 3  # balanced over 8 symbols would be 3

    @given(st.lists(st.sampled_from("abcde"), max_size=150))
    @settings(max_examples=40, deadline=None)
    def test_property_against_list(self, data):
        if not data:
            return
        tree = HuffmanWaveletTree(data)
        assert tree.to_list() == data
        for symbol in set(data):
            occurrences = [i for i, x in enumerate(data) if x == symbol]
            assert tree.count(symbol) == len(occurrences)
            assert tree.select(symbol, len(occurrences) - 1) == occurrences[-1]
            for pos in (0, len(data) // 2, len(data)):
                assert tree.rank(symbol, pos) == data[:pos].count(symbol)


class TestHuffmanBatchAPIs:
    """The batch methods (docs/API.md convention) vs their scalar twins.

    ``access_many``/``rank_many``/``select_many`` must return exactly what
    the scalar loop returns, preserve input order, and validate the whole
    batch before touching the tree (all-or-nothing).
    """

    DATA = list("abracadabra simsalabim abracadabra")

    def test_access_many_matches_scalar(self):
        tree = HuffmanWaveletTree(self.DATA)
        positions = [0, 5, 3, len(self.DATA) - 1, 5, 12]
        assert tree.access_many(positions) == [tree.access(p) for p in positions]
        assert tree.access_many([]) == []
        assert tree.access_many(range(3)) == [tree.access(p) for p in range(3)]

    def test_rank_many_matches_scalar(self):
        tree = HuffmanWaveletTree(self.DATA)
        positions = [0, len(self.DATA), 7, 7, 3]
        for symbol in ["a", "b", " ", "z"]:  # incl. an absent symbol
            assert tree.rank_many(symbol, positions) == [
                tree.rank(symbol, p) for p in positions
            ]
        assert tree.rank_many("a", []) == []

    def test_select_many_matches_scalar(self):
        tree = HuffmanWaveletTree(self.DATA)
        indexes = [0, tree.count("a") - 1, 1, 1]
        assert tree.select_many("a", indexes) == [
            tree.select("a", i) for i in indexes
        ]
        assert tree.select_many("a", []) == []

    def test_batch_validation_is_all_or_nothing(self):
        tree = HuffmanWaveletTree(self.DATA)
        size = len(self.DATA)
        with pytest.raises(OutOfBoundsError):
            tree.access_many([0, size])  # access: pos < size
        with pytest.raises(OutOfBoundsError):
            tree.rank_many("a", [0, size + 1])  # rank: pos <= size
        with pytest.raises(OutOfBoundsError):
            tree.select_many("a", [0, tree.count("a")])
        with pytest.raises(ValueNotFoundError):
            tree.select_many("z", [0])

    def test_single_symbol_tree_batches(self):
        tree = HuffmanWaveletTree(["x"] * 6)
        assert tree.access_many([0, 5, 2]) == ["x", "x", "x"]
        assert tree.rank_many("x", [0, 3, 6]) == [0, 3, 6]
        assert tree.rank_many("y", [2, 4]) == [0, 0]
        assert tree.select_many("x", [5, 0]) == [5, 0]

    def test_leaf_ranks_edge_cases(self):
        assert HuffmanWaveletTree(self.DATA).access_many([], ranks=True) == ([], [])
        single = HuffmanWaveletTree(["x"] * 6)
        assert single.access_many([4, 0, 4], ranks=True) == (["x"] * 3, [4, 0, 4])

    @pytest.mark.parametrize("backend", kernel.available_backends())
    @pytest.mark.parametrize("factory", [RRRBitVector, PlainBitVector])
    @given(
        data=st.lists(st.sampled_from("abcde "), min_size=1, max_size=300),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_leaf_ranks_match_scalar_rank(self, backend, factory, data, seed):
        """``access_many(..., ranks=True)`` pairs each symbol with its
        scalar ``rank`` at the queried position (unsorted, duplicated)."""
        rng = random.Random(seed)
        positions = [rng.randrange(len(data)) for _ in range(rng.randint(0, 40))]
        with active_backend(backend):
            tree = HuffmanWaveletTree(data, bitvector_factory=factory)
            symbols, ranks = tree.access_many(positions, ranks=True)
            assert symbols == tree.access_many(positions)
            assert symbols == [data[p] for p in positions]
            assert ranks == [tree.rank(s, p) for s, p in zip(symbols, positions)]

    @given(
        data=st.lists(st.sampled_from("abcde "), min_size=1, max_size=120),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_batches_match_scalar(self, data, seed):
        rng = random.Random(seed)
        tree = HuffmanWaveletTree(data)
        positions = [rng.randrange(len(data)) for _ in range(10)]
        assert tree.access_many(positions) == [tree.access(p) for p in positions]
        rank_positions = [rng.randint(0, len(data)) for _ in range(10)]
        for symbol in "abcde z":
            assert tree.rank_many(symbol, rank_positions) == [
                tree.rank(symbol, p) for p in rank_positions
            ]
        for symbol in set(data):
            total = tree.count(symbol)
            indexes = [rng.randrange(total) for _ in range(min(6, total))]
            assert tree.select_many(symbol, indexes) == [
                tree.select(symbol, i) for i in indexes
            ]
