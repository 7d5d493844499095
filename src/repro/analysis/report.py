"""Measured space against the paper's bounds.

``benchmarks/bench_paper.py`` takes its Table 1 space rows from
:func:`space_vs_bounds`: it evaluates the Table 1 space quantities (``LT``,
``nH0``, ``LB``, ``PT``, ``h̃ n``) for a workload and measures the three
Wavelet Trie variants built on it.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

from repro.analysis.bounds import SequenceBounds, compute_bounds
from repro.analysis.space import SpaceReport, wavelet_trie_space_report
from repro.core.append_only import AppendOnlyWaveletTrie
from repro.core.dynamic import DynamicWaveletTrie
from repro.core.static import WaveletTrie
from repro.tries.binarize import StringCodec

__all__ = ["space_vs_bounds"]


def space_vs_bounds(
    values: Sequence[Any],
    codec: Optional[StringCodec] = None,
    variants: Sequence[str] = ("static", "append-only", "dynamic"),
) -> Tuple[SequenceBounds, Dict[str, SpaceReport]]:
    """Build the requested Wavelet Trie variants and measure them against the bounds.

    Returns the :class:`SequenceBounds` of the workload and one
    :class:`SpaceReport` per variant.
    """
    bounds = compute_bounds(values, codec=codec)
    reports: Dict[str, SpaceReport] = {}
    builders = {
        "static": lambda: WaveletTrie(values, codec=codec),
        "append-only": lambda: AppendOnlyWaveletTrie(values, codec=codec),
        "dynamic": lambda: DynamicWaveletTrie(values, codec=codec),
    }
    for variant in variants:
        if variant not in builders:
            raise ValueError(f"unknown variant {variant!r}; expected one of {sorted(builders)}")
        trie = builders[variant]()
        reports[variant] = wavelet_trie_space_report(trie, name=variant)
    return bounds, reports
