"""Uncompressed reference implementation of an indexed sequence of strings.

Every operation is implemented by scanning an explicit Python list.  The class
is deliberately simple -- it is the *oracle* the property-based tests compare
the Wavelet Trie against, and the uncompressed
yardstick in the space benchmarks.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Iterable, List, Optional, Tuple

from repro.core.interface import IndexedStringSequence, check_select_prefix_index
from repro.exceptions import OutOfBoundsError, ValueNotFoundError

__all__ = ["NaiveIndexedSequence"]


class NaiveIndexedSequence(IndexedStringSequence):
    """Plain list of strings with linear-scan query implementations."""

    def __init__(self, values: Iterable[Any] = ()) -> None:
        self._values: List[Any] = list(values)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._values)

    def access(self, pos: int) -> Any:
        self._check_pos(pos)
        return self._values[pos]

    def rank(self, value: Any, pos: int) -> int:
        self._check_rank_pos(pos)
        return sum(1 for item in self._values[:pos] if item == value)

    def select(self, value: Any, idx: int) -> int:
        seen = 0
        for position, item in enumerate(self._values):
            if item == value:
                if seen == idx:
                    return position
                seen += 1
        raise OutOfBoundsError(
            f"select({value!r}, {idx}) out of range: only {seen} occurrences"
        )

    def rank_prefix(self, prefix: Any, pos: int) -> int:
        self._check_rank_pos(pos)
        return sum(1 for item in self._values[:pos] if item.startswith(prefix))

    def select_prefix(self, prefix: Any, idx: int) -> int:
        seen = 0
        for position, item in enumerate(self._values):
            if item.startswith(prefix):
                if seen == idx:
                    return position
                seen += 1
        # The scan exhausted, so ``seen`` is the total match count and
        # ``idx`` is out of range (negative indexes never match ``seen``):
        # raise the canonical error.
        check_select_prefix_index(prefix, idx, seen)
        raise AssertionError("unreachable")  # pragma: no cover

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def append(self, value: Any) -> None:
        self._values.append(value)

    def insert(self, value: Any, pos: int) -> None:
        if not 0 <= pos <= len(self._values):
            raise OutOfBoundsError(f"insert position {pos} out of range")
        self._values.insert(pos, value)

    def delete(self, pos: int) -> Any:
        self._check_pos(pos)
        return self._values.pop(pos)

    # ------------------------------------------------------------------
    # Range analytics (mirrors RangeQueryMixin for cross-checking)
    # ------------------------------------------------------------------
    def iter_range(self, start: int, stop: int):
        self._check_range(start, stop)
        return iter(self._values[start:stop])

    def distinct_in_range(
        self, start: int, stop: int, prefix: Optional[Any] = None
    ) -> List[Tuple[Any, int]]:
        self._check_range(start, stop)
        window = self._values[start:stop]
        if prefix is not None:
            window = [item for item in window if item.startswith(prefix)]
        counts = Counter(window)
        return sorted(counts.items())

    def range_majority(
        self, start: int, stop: int, prefix: Optional[Any] = None
    ) -> Optional[Tuple[Any, int]]:
        self._check_range(start, stop)
        window = self._values[start:stop]
        if prefix is not None:
            window = [item for item in window if item.startswith(prefix)]
        if not window:
            return None
        value, count = Counter(window).most_common(1)[0]
        return (value, count) if count > len(window) / 2 else None

    def frequent_in_range(
        self, start: int, stop: int, threshold: int, prefix: Optional[Any] = None
    ) -> List[Tuple[Any, int]]:
        return [
            (value, count)
            for value, count in self.distinct_in_range(start, stop, prefix)
            if count >= threshold
        ]

    def top_k_in_range(
        self, start: int, stop: int, k: int, prefix: Optional[Any] = None
    ) -> List[Tuple[Any, int]]:
        counts = self.distinct_in_range(start, stop, prefix)
        return sorted(counts, key=lambda item: (-item[1], item[0]))[:k]

    def range_count(self, value: Any, start: int, stop: int) -> int:
        self._check_range(start, stop)
        return sum(1 for item in self._values[start:stop] if item == value)

    def range_count_prefix(self, prefix: Any, start: int, stop: int) -> int:
        self._check_range(start, stop)
        return sum(1 for item in self._values[start:stop] if item.startswith(prefix))

    # ------------------------------------------------------------------
    def size_in_bits(self) -> int:
        """Space of the explicit representation: characters + one pointer each."""
        payload = sum(len(str(item).encode("utf-8")) * 8 for item in self._values)
        return payload + len(self._values) * 64

    # ------------------------------------------------------------------
    def _check_pos(self, pos: int) -> None:
        if not 0 <= pos < len(self._values):
            raise OutOfBoundsError(
                f"position {pos} out of range for length {len(self._values)}"
            )

    def _check_rank_pos(self, pos: int) -> None:
        if not 0 <= pos <= len(self._values):
            raise OutOfBoundsError(
                f"position {pos} out of range for length {len(self._values)}"
            )

    def _check_range(self, start: int, stop: int) -> None:
        if not (0 <= start <= stop <= len(self._values)):
            raise OutOfBoundsError(f"range [{start}, {stop}) invalid")
