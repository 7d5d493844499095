"""Property tests of the trie-layer batch paths against the naive oracle.

``select_many`` and ``insert_many`` on the growable Wavelet Tries must agree
with
:class:`~repro.baselines.naive.NaiveIndexedSequence` under sustained churn --
interleaved bulk inserts, scalar deletes (which shrink the Patricia topology)
and batch queries, with previously unseen keys arriving mid-stream.
"""

import random

import pytest

from repro.baselines.naive import NaiveIndexedSequence
from repro.core.append_only import AppendOnlyWaveletTrie
from repro.core.dynamic import DynamicWaveletTrie
from repro.exceptions import InvalidOperationError, OutOfBoundsError


def check_against_oracle(trie, oracle, rng, probes=4):
    values = oracle.to_list()
    assert trie.to_list() == values
    for value in rng.sample(values, min(probes, len(values))):
        total = oracle.count(value)
        indexes = [rng.randrange(total) for _ in range(rng.randint(1, 12))]
        expected = [oracle.select(value, idx) for idx in indexes]
        assert trie.select_many(value, indexes) == expected


class TestDynamicTrieChurn:
    def test_insert_many_select_many_vs_naive(self):
        rng = random.Random(2026)
        keys = [f"/svc{i % 5}/route/{i}" for i in range(14)]
        trie = DynamicWaveletTrie()
        oracle = NaiveIndexedSequence()
        for round_number in range(25):
            position = rng.randint(0, len(oracle))
            # Bursts favour repeated keys; fresh keys force topology splits
            # mid-batch-stream.
            chunk = [rng.choice(keys) for _ in range(rng.randint(0, 9))]
            if round_number % 4 == 0:
                chunk.append(f"/fresh/{round_number}")
            trie.insert_many(chunk, position)
            for offset, value in enumerate(chunk):
                oracle.insert(value, position + offset)
            while len(oracle) and rng.random() < 0.35:
                victim = rng.randrange(len(oracle))
                assert trie.delete(victim) == oracle.delete(victim)
            if len(oracle):
                check_against_oracle(trie, oracle, rng)
        assert trie.to_list() == oracle.to_list()

    def test_insert_many_empty_and_bounds(self):
        trie = DynamicWaveletTrie(["/a", "/b"])
        trie.insert_many([], 1)
        assert trie.to_list() == ["/a", "/b"]
        with pytest.raises(OutOfBoundsError):
            trie.insert_many(["/c"], 3)

    def test_insert_many_matches_scalar_inserts(self):
        rng = random.Random(7)
        base = [f"/k{i % 6}" for i in range(40)]
        bulk = DynamicWaveletTrie(base)
        scalar = DynamicWaveletTrie(base)
        chunk = [rng.choice(base) for _ in range(15)] + ["/new-key"]
        position = 11
        bulk.insert_many(chunk, position)
        for offset, value in enumerate(chunk):
            scalar.insert(value, position + offset)
        assert bulk.to_list() == scalar.to_list()
        assert bulk.node_count() == scalar.node_count()


class TestAppendOnlyTrieBatch:
    def test_insert_many_end_only(self):
        trie = AppendOnlyWaveletTrie(["/a", "/b"])
        trie.insert_many(["/c", "/a"], 2)
        assert trie.to_list() == ["/a", "/b", "/c", "/a"]
        with pytest.raises(InvalidOperationError):
            trie.insert_many(["/x"], 0)

    def test_select_many_after_growth(self):
        rng = random.Random(55)
        values = [f"/page/{i % 7}" for i in range(300)]
        trie = AppendOnlyWaveletTrie()
        trie.extend(values)
        oracle = NaiveIndexedSequence(values)
        check_against_oracle(trie, oracle, rng, probes=5)
