"""Markdown/report helpers that compare measured space against the paper's bounds.

``benchmarks/bench_paper.py`` takes its Table 1 space rows from
:func:`space_vs_bounds`: it evaluates the Table 1 space quantities (``LT``,
``nH0``, ``LB``, ``PT``, ``h̃ n``) for a workload and measures the three
Wavelet Trie variants built on it.  The table helpers render the same
comparison as aligned text or Markdown tables.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.bounds import SequenceBounds, compute_bounds
from repro.analysis.space import SpaceReport, wavelet_trie_space_report
from repro.core.append_only import AppendOnlyWaveletTrie
from repro.core.dynamic import DynamicWaveletTrie
from repro.core.static import WaveletTrie
from repro.tries.binarize import StringCodec

__all__ = [
    "format_table",
    "space_vs_bounds",
    "space_vs_bounds_table",
    "variant_space_sweep",
]


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]], markdown: bool = True) -> str:
    """Render ``rows`` as a Markdown (default) or aligned plain-text table."""
    rendered = [[_render_cell(cell) for cell in row] for row in rows]
    widths = [
        max(len(str(header)), *(len(row[index]) for row in rendered)) if rendered else len(str(header))
        for index, header in enumerate(headers)
    ]
    if markdown:
        lines = [
            "| " + " | ".join(str(h).ljust(w) for h, w in zip(headers, widths)) + " |",
            "|" + "|".join("-" * (w + 2) for w in widths) + "|",
        ]
        for row in rendered:
            lines.append("| " + " | ".join(cell.ljust(w) for cell, w in zip(row, widths)) + " |")
    else:
        lines = ["  ".join(str(h).ljust(w) for h, w in zip(headers, widths))]
        for row in rendered:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def _render_cell(cell: Any) -> str:
    if isinstance(cell, float):
        return f"{cell:,.1f}"
    if isinstance(cell, int):
        return f"{cell:,}"
    return str(cell)


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


def space_vs_bounds_table(
    values: Sequence[Any],
    codec: Optional[StringCodec] = None,
    variants: Sequence[str] = ("static", "append-only", "dynamic"),
    markdown: bool = True,
) -> str:
    """One table row per variant: measured bits vs the Table 1 decomposition."""
    bounds, reports = space_vs_bounds(values, codec=codec, variants=variants)
    headers = [
        "variant",
        "measured bits",
        "bits/elem",
        "nH0(S)",
        "LT",
        "LB = LT+nH0",
        "PT",
        "measured / LB",
    ]
    rows: List[List[Any]] = []
    for variant, report in reports.items():
        ratio = report.total_bits / bounds.lb_bits if bounds.lb_bits else float("nan")
        rows.append(
            [
                variant,
                report.total_bits,
                round(report.bits_per_element(bounds.length), 1),
                round(bounds.entropy_bits, 1),
                round(bounds.lt_bits, 1),
                round(bounds.lb_bits, 1),
                bounds.pt_bits,
                f"{ratio:.2f}x",
            ]
        )
    table = format_table(headers, rows, markdown=markdown)
    summary = (
        f"n = {bounds.length:,}, |Sset| = {bounds.distinct:,}, "
        f"H0(S) = {bounds.entropy_per_symbol:.2f} bits/elem, "
        f"avg height h̃ = {bounds.average_height:.1f}, "
        f"raw input = {bounds.total_input_bits:,} bits"
    )
    return f"{summary}\n\n{table}"


def variant_space_sweep(
    workloads: Dict[str, Sequence[Any]],
    codec: Optional[StringCodec] = None,
    markdown: bool = True,
) -> str:
    """The T1-SPACE experiment table: one block per named workload."""
    blocks = []
    for name, values in workloads.items():
        blocks.append(f"### {name}\n\n" + space_vs_bounds_table(values, codec=codec, markdown=markdown))
    return "\n\n".join(blocks)
