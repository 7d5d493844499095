"""End-to-end integration tests across packages.

These scenarios mirror the paper's motivating applications and chain every
layer together: workload generation -> binarisation -> Wavelet Trie ->
analytics / db layer -> space accounting.
"""

import random
from collections import Counter

import pytest

from repro.analysis import compute_bounds, wavelet_trie_space_report
from repro.baselines import NaiveIndexedSequence
from repro.core.append_only import AppendOnlyWaveletTrie
from repro.core.dynamic import DynamicWaveletTrie
from repro.core.static import WaveletTrie
from repro.db import AccessLogStore
from repro.wavelet import BalancedDynamicWaveletTree
from repro.workloads import EdgeStreamGenerator, IntegerSequenceGenerator, UrlLogGenerator


class TestLogIngestionScenario:
    """The intro scenario: compress and index a sequential log on the fly."""

    def test_streaming_ingestion_and_analytics(self):
        generator = UrlLogGenerator(domains=15, depth=2, branching=3, seed=77)
        store = AccessLogStore()
        mirror = []
        for tick, url in enumerate(generator.stream(1200)):
            store.append(url, timestamp=tick)
            mirror.append(url)
        # Windowed analytics agree with a plain recomputation.
        window = (300, 900)
        window_values = mirror[window[0]:window[1]]
        top = store.top_urls(5, *window)
        counter = Counter(window_values)
        assert [count for _, count in top] == [
            count for _, count in counter.most_common(5)
        ]
        domain = generator.domains()[0]
        prefix = f"http://{domain}/"
        assert store.count_prefix(prefix, *window) == sum(
            1 for value in window_values if value.startswith(prefix)
        )
        # Compression: the index must be smaller than the raw log.
        raw_bits = sum(len(value.encode()) * 8 for value in mirror)
        assert store.size_in_bits() < raw_bits

    def test_append_only_matches_static_rebuild_at_checkpoints(self):
        generator = UrlLogGenerator(domains=8, seed=31)
        values = generator.generate(600)
        append_only = AppendOnlyWaveletTrie(block_size=256)
        for index, value in enumerate(values, start=1):
            append_only.append(value)
            if index in (1, 50, 313, 600):
                static = WaveletTrie(values[:index])
                assert append_only.node_count() == static.node_count()
                assert append_only.average_height() == pytest.approx(static.average_height())


class TestDatabaseScenario:
    def test_alphabet_growth_is_the_differentiator(self):
        """The paper's issue (a): the Wavelet Trie's alphabet grows on append."""
        initial = ["red", "green", "blue"] * 20
        trie = AppendOnlyWaveletTrie(initial)
        trie.append("magenta")
        assert trie.count("magenta") == 1

    def test_space_ranking_of_approaches(self):
        # The regime the paper targets: many repetitions per distinct string
        # (60 distinct URLs over 1500 log entries).
        values = UrlLogGenerator(domains=10, depth=2, branching=2, seed=3).generate(1500)
        wavelet_trie = WaveletTrie(values)
        naive = NaiveIndexedSequence(values)
        assert wavelet_trie.size_in_bits() < naive.size_in_bits()
        # And the Wavelet Trie's bitvector payload tracks the entropy bound.
        bounds = compute_bounds(values)
        assert wavelet_trie.bitvector_bits() < 3 * bounds.entropy_bits + 8192


class TestGraphScenario:
    def test_snapshot_reconstruction_with_deletions(self):
        generator = EdgeStreamGenerator(initial_vertices=5, seed=13)
        edges = generator.generate(500)
        history = DynamicWaveletTrie(edges)
        # Retract 50 random events and verify against a list replay.
        rng = random.Random(5)
        mirror = list(edges)
        for _ in range(50):
            position = rng.randrange(len(mirror))
            assert history.delete(position) == mirror.pop(position)
        vertex = generator.vertex_uri(1)
        prefix = f"{vertex} ->"
        snapshot = dict(history.distinct_in_range(0, len(mirror), prefix=prefix))
        expected = Counter(value for value in mirror if value.startswith(prefix))
        assert snapshot == dict(expected)


class TestNumericScenario:
    def test_balanced_tree_over_large_universe(self):
        generator = IntegerSequenceGenerator(
            universe=2 ** 48, alphabet_size=100, clustered=True, seed=9
        )
        values = generator.generate(800)
        tree = BalancedDynamicWaveletTree(universe=2 ** 48, values=values, seed=21)
        assert tree.to_list() == values
        assert tree.max_height() <= tree.theoretical_height_bound(alpha=2.0)
        # Interleave updates and queries.
        tree.insert(42, 100)
        assert tree.access(100) == 42
        assert tree.delete(100) == 42
        counter = Counter(values)
        for value, count in list(counter.items())[:10]:
            assert tree.count(value) == count


class TestSpaceReportsIntegration:
    def test_reports_are_consistent_across_variants(self):
        values = UrlLogGenerator(domains=6, seed=55).generate(300)
        static = WaveletTrie(values)
        append_only = AppendOnlyWaveletTrie(values)
        dynamic = DynamicWaveletTrie(values)
        reports = {
            "static": wavelet_trie_space_report(static),
            "append_only": wavelet_trie_space_report(append_only),
            "dynamic": wavelet_trie_space_report(dynamic),
        }
        labels = {name: report.components["node_labels"] for name, report in reports.items()}
        # All variants store the same Patricia trie, hence identical label bits.
        assert len(set(labels.values())) == 1
        for report in reports.values():
            assert report.total_bits > 0
