"""Tests for the space-vs-bounds measurement."""

import math

import pytest

from repro.analysis.report import space_vs_bounds


class TestSpaceVsBounds:
    @pytest.fixture(scope="class")
    def workload(self, url_log):
        return url_log[:300]

    def test_reports_for_all_variants(self, workload):
        bounds, reports = space_vs_bounds(workload)
        assert set(reports) == {"static", "append-only", "dynamic"}
        assert bounds.length == len(workload)
        for report in reports.values():
            assert report.total_bits > 0

    def test_measured_exceeds_entropy(self, workload):
        """No lossless structure can beat nH0 + LT on this alphabet."""
        bounds, reports = space_vs_bounds(workload, variants=("static",))
        assert reports["static"].total_bits >= bounds.entropy_bits

    def test_static_is_smallest(self, workload):
        _, reports = space_vs_bounds(workload)
        assert reports["static"].total_bits <= reports["append-only"].total_bits
        assert reports["static"].total_bits <= reports["dynamic"].total_bits

    def test_unknown_variant(self, workload):
        with pytest.raises(ValueError):
            space_vs_bounds(workload, variants=("huffman",))

    def test_empty_sequence(self):
        bounds, reports = space_vs_bounds([], variants=("static",))
        assert bounds.length == 0
        assert reports["static"].total_bits == 0
        assert not math.isnan(bounds.lt_bits)
