"""The abstract interface of an indexed sequence of strings.

This is the problem statement of the paper's introduction: a sequence
``S = <s_0, ..., s_{n-1}>`` supporting random access, counting and searching,
both exact and by prefix, and optionally updates.  Every implementation in
this package -- the Wavelet Trie variants and the naive list-scan oracle --
implements this interface, which is what lets the tests compare them
uniformly.

Positions, ranks and indices are 0-based throughout:

* ``access(pos)`` returns ``s_pos``;
* ``rank(s, pos)`` counts occurrences of ``s`` in ``s_0 .. s_{pos-1}``;
* ``select(s, idx)`` returns the position of the ``idx``-th occurrence
  (``idx = 0`` is the first one);
* ``rank_prefix`` / ``select_prefix`` are the same over all strings starting
  with the given prefix.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Iterator, List

from repro.bitvector.base import normalize_batch, validate_delete_positions
from repro.exceptions import InvalidOperationError, OutOfBoundsError

__all__ = [
    "IndexedStringSequence",
    "check_select_prefix_index",
    "validate_select_prefix_indexes",
]


def check_select_prefix_index(prefix: Any, idx: int, matches: int) -> None:
    """Range-check a ``select_prefix`` index against the match count.

    Raises the **canonical** out-of-range error -- one exception type
    (:class:`OutOfBoundsError`) and one message format, shared by every
    implementation (Wavelet Tries, succinct layout, naive oracle) so the
    differential tests can assert them byte-for-byte.
    """
    if not 0 <= idx < matches:
        raise OutOfBoundsError(
            f"select_prefix({prefix!r}, {idx}) out of range: "
            f"only {matches} matches"
        )


def validate_select_prefix_indexes(indexes, matches: int, prefix: Any) -> List[int]:
    """Normalise and range-check a ``select_prefix_many`` index batch.

    All-or-nothing: every index must be in ``[0, matches)`` before any work
    happens, and the first offender is reported with the canonical
    :func:`check_select_prefix_index` error.
    """
    out = [int(idx) for idx in normalize_batch(indexes)]
    for idx in out:
        check_select_prefix_index(prefix, idx, matches)
    return out


class IndexedStringSequence(ABC):
    """Abstract indexed sequence of strings (paper Section 1 primitives)."""

    # ------------------------------------------------------------------
    # Core queries
    # ------------------------------------------------------------------
    @abstractmethod
    def __len__(self) -> int:
        """Number of elements currently in the sequence."""

    @abstractmethod
    def access(self, pos: int) -> Any:
        """Return the element at position ``pos``."""

    @abstractmethod
    def rank(self, value: Any, pos: int) -> int:
        """Occurrences of ``value`` among the first ``pos`` elements."""

    @abstractmethod
    def select(self, value: Any, idx: int) -> int:
        """Position of the ``idx``-th (0-based) occurrence of ``value``."""

    @abstractmethod
    def rank_prefix(self, prefix: Any, pos: int) -> int:
        """Elements among the first ``pos`` whose value starts with ``prefix``."""

    @abstractmethod
    def select_prefix(self, prefix: Any, idx: int) -> int:
        """Position of the ``idx``-th element whose value starts with ``prefix``."""

    # ------------------------------------------------------------------
    # Batch queries (overridden with amortised paths where they exist)
    # ------------------------------------------------------------------
    def access_many(self, positions) -> List[Any]:
        """Elements at each of ``positions``, in input order.

        The default loops (q scalar calls, no amortisation); structures with
        a shared-descent batch path (the Wavelet Trie variants, the Wavelet
        Trees) override it with an amortised implementation.
        """
        return [self.access(pos) for pos in positions]

    def rank_many(self, value: Any, positions) -> List[int]:
        """``rank(value, pos)`` for each of ``positions``.

        Default: q scalar calls, no amortisation; overridden where a shared
        descent exists.
        """
        return [self.rank(value, pos) for pos in positions]

    def select_many(self, value: Any, indexes) -> List[int]:
        """``select(value, idx)`` for each of ``indexes``, in input order.

        Default: q scalar calls, no amortisation; overridden where a shared
        path unwind exists.
        """
        return [self.select(value, idx) for idx in indexes]

    def rank_prefix_many(self, prefix: Any, positions) -> List[int]:
        """``rank_prefix(prefix, pos)`` for each of ``positions``.

        Default: q scalar calls, no amortisation; the Wavelet Trie variants
        override it with one shared root-to-prefix-node walk.
        """
        return [self.rank_prefix(prefix, pos) for pos in positions]

    def select_prefix_many(self, prefix: Any, indexes) -> List[int]:
        """``select_prefix(prefix, idx)`` for each of ``indexes``, in input order.

        Default: q scalar calls, no amortisation; the Wavelet Trie variants
        override it with one prefix-node locate plus a batched path unwind.
        """
        return [self.select_prefix(prefix, idx) for idx in indexes]

    # ------------------------------------------------------------------
    # Updates (optional; static structures raise)
    # ------------------------------------------------------------------
    def append(self, value: Any) -> None:
        """Append ``value`` at the end of the sequence."""
        raise InvalidOperationError(
            f"{type(self).__name__} does not support append"
        )

    def insert(self, value: Any, pos: int) -> None:
        """Insert ``value`` immediately before position ``pos``."""
        raise InvalidOperationError(
            f"{type(self).__name__} does not support insert"
        )

    def delete(self, pos: int) -> Any:
        """Delete and return the element at position ``pos``."""
        raise InvalidOperationError(
            f"{type(self).__name__} does not support delete"
        )

    def delete_many(self, positions) -> List[Any]:
        """Delete the elements at ``positions``; values come back in input order.

        ``positions`` refer to the sequence *before* any deletion (the batch
        deletes them as if simultaneously), must be distinct and are
        validated all-or-nothing.  Default: k scalar ``delete`` calls in
        descending position order, no amortisation; the dynamic structures
        override it with one shared-descent batch deletion.
        """
        positions = validate_delete_positions(positions, len(self))
        order = sorted(
            range(len(positions)), key=positions.__getitem__, reverse=True
        )
        out: List[Any] = [None] * len(positions)
        for index in order:
            out[index] = self.delete(positions[index])
        return out

    # ------------------------------------------------------------------
    # Derived operations
    # ------------------------------------------------------------------
    def count(self, value: Any) -> int:
        """Total occurrences of ``value``."""
        return self.rank(value, len(self))

    def count_prefix(self, prefix: Any) -> int:
        """Total elements whose value starts with ``prefix``."""
        return self.rank_prefix(prefix, len(self))

    def contains(self, value: Any) -> bool:
        """True if ``value`` occurs at least once."""
        return self.count(value) > 0

    def __contains__(self, value: Any) -> bool:
        return self.contains(value)

    def __getitem__(self, pos: int) -> Any:
        if pos < 0:
            pos += len(self)
        return self.access(pos)

    def __iter__(self) -> Iterator[Any]:
        for pos in range(len(self)):
            yield self.access(pos)

    def to_list(self) -> List[Any]:
        """Materialise the whole sequence (testing helper)."""
        return list(self)

    def positions(self, value: Any) -> Iterator[int]:
        """All positions holding ``value``, in increasing order."""
        for idx in range(self.count(value)):
            yield self.select(value, idx)

    def positions_prefix(self, prefix: Any) -> Iterator[int]:
        """All positions whose value starts with ``prefix``, in increasing order."""
        for idx in range(self.count_prefix(prefix)):
            yield self.select_prefix(prefix, idx)
