"""Tests for the naive list-scan oracle and its agreement with the Wavelet Trie."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import NaiveIndexedSequence
from repro.core.static import WaveletTrie
from repro.exceptions import OutOfBoundsError


class TestNaiveOracle:
    """The oracle itself deserves tests: everything else is compared to it."""

    def test_basic_operations(self):
        values = ["a", "b", "a", "c", "a"]
        naive = NaiveIndexedSequence(values)
        assert len(naive) == 5
        assert naive.access(2) == "a"
        assert naive.rank("a", 4) == 2
        assert naive.select("a", 2) == 4
        assert naive.rank_prefix("a", 5) == 3
        assert naive.select_prefix("a", 1) == 2
        assert naive.count("c") == 1
        with pytest.raises(OutOfBoundsError):
            naive.select("a", 3)
        with pytest.raises(OutOfBoundsError):
            naive.access(5)

    def test_updates(self):
        naive = NaiveIndexedSequence(["x"])
        naive.append("y")
        naive.insert("z", 1)
        assert naive.to_list() == ["x", "z", "y"]
        assert naive.delete(0) == "x"
        assert naive.to_list() == ["z", "y"]

    def test_range_helpers(self):
        values = ["a", "b", "a", "b", "b"]
        naive = NaiveIndexedSequence(values)
        assert naive.range_majority(0, 5) == ("b", 3)
        assert naive.range_majority(0, 4) is None
        assert dict(naive.distinct_in_range(1, 4)) == {"a": 1, "b": 2}
        assert naive.top_k_in_range(0, 5, 1) == [("b", 3)]
        assert naive.frequent_in_range(0, 5, 2) == [("a", 2), ("b", 3)]


class TestCrossImplementationAgreement:
    @given(st.lists(st.sampled_from(["a", "ab", "b", "ba", "abc"]), min_size=1, max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_all_implementations_agree(self, values):
        trie = WaveletTrie(values)
        naive = NaiveIndexedSequence(values)
        assert len(trie) == len(values)
        for pos in range(len(values)):
            assert trie.access(pos) == naive.access(pos)
        for value in set(values):
            assert trie.rank(value, len(values)) == naive.count(value)
