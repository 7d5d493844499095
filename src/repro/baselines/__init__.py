"""The uncompressed reference for indexed sequences of strings.

:class:`~repro.baselines.naive.NaiveIndexedSequence` stores the sequence as a
plain list and answers every query by scanning it.  The tests use it as the
oracle every other implementation is cross-checked against, and
``benchmarks/bench_paper.py`` uses its size as the uncompressed reference of
the Table 1 space comparison.
"""

from repro.baselines.naive import NaiveIndexedSequence

__all__ = ["NaiveIndexedSequence"]
