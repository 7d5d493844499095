"""Column-store and log-analytics layer built on the Wavelet Trie.

The paper motivates the compressed indexed sequence of strings with
column-oriented databases and log processing.  This package provides the thin
application layer that turns the Wavelet Trie primitives into those use
cases:

* :class:`~repro.db.column.CompressedColumn` -- one column, static or
  append-only, with equality/prefix filters and per-range statistics;
* :class:`~repro.db.table.ColumnStore` -- a table of named columns with
  row-level append and multi-column filters;
* :class:`~repro.db.query.Query` / :class:`~repro.db.query.Predicate` -- a
  fluent conjunctive query layer (selectivity-ordered plans, limit pushdown,
  EXPLAIN) over a :class:`ColumnStore`;
* :class:`~repro.db.log_store.AccessLogStore` -- an append-only access log
  with time-window analytics (top domains, counts per prefix, majority);
* :mod:`repro.db.partition` -- position-range partitioning of columns for
  the multi-process serving cluster (balanced ranges, shard slicing);
* :class:`~repro.db.doc_store.DocumentStore` -- FM-index-backed full-text
  substring search (count/locate/extract) over a collection of documents.
"""

from repro.db.column import ColumnSnapshot, CompressedColumn
from repro.db.doc_store import DocumentStore
from repro.db.log_store import AccessLogStore
from repro.db.partition import as_column_dict, partition_ranges, slice_column
from repro.db.query import Predicate, Query
from repro.db.table import ColumnStore

__all__ = [
    "AccessLogStore",
    "ColumnSnapshot",
    "ColumnStore",
    "CompressedColumn",
    "DocumentStore",
    "Predicate",
    "Query",
    "as_column_dict",
    "partition_ranges",
    "slice_column",
]
