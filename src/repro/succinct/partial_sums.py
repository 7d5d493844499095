"""Static partial sums used to delimit variable-length encodings.

The static Wavelet Trie stores the node labels concatenated in one bitvector
``L`` and the per-node RRR encodings concatenated in another; both need a
partial-sum structure to find where the ``i``-th piece starts (paper
Section 3, cost ``B(e, |L| + e) + o(...)`` bits).

:class:`StaticPartialSums` is immutable: an Elias-Fano sequence over the
cumulative sums, matching the paper's space bound up to lower-order terms.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.bitvector.sparse import EliasFanoSequence
from repro.exceptions import OutOfBoundsError

__all__ = ["StaticPartialSums"]


class StaticPartialSums:
    """Immutable partial sums of a sequence of non-negative lengths.

    ``start(i)`` returns the sum of the first ``i`` lengths; ``find(pos)``
    returns the index of the piece containing offset ``pos``.
    """

    __slots__ = ("_cumulative", "_count")

    def __init__(self, lengths: Iterable[int]) -> None:
        cumulative: List[int] = [0]
        for length in lengths:
            if length < 0:
                raise ValueError("lengths must be non-negative")
            cumulative.append(cumulative[-1] + length)
        self._count = len(cumulative) - 1
        self._cumulative = EliasFanoSequence(
            cumulative, universe=cumulative[-1] + 1
        )

    def __len__(self) -> int:
        return self._count

    # ------------------------------------------------------------------
    # Frozen-image (RWT2) exchange -- see docs/ARCHITECTURE.md, "Storage"
    # ------------------------------------------------------------------
    def to_words_image(self, sink) -> dict:
        """Write the Elias-Fano cumulative sequence into an image sink."""
        return {
            "count": self._count,
            "cumulative": self._cumulative.to_words_image(sink),
        }

    @classmethod
    def from_words_image(cls, image, meta: dict) -> "StaticPartialSums":
        """Open from a frozen image; the cumulative sequence aliases it."""
        self = cls.__new__(cls)
        self._count = int(meta["count"])
        self._cumulative = EliasFanoSequence.from_words_image(
            image, meta["cumulative"]
        )
        return self

    @property
    def total(self) -> int:
        """Sum of all lengths."""
        return self._cumulative[self._count]

    def start(self, index: int) -> int:
        """Sum of the first ``index`` lengths (start offset of piece ``index``)."""
        if not 0 <= index <= self._count:
            raise OutOfBoundsError(f"index {index} out of range for {self._count} pieces")
        return self._cumulative[index]

    def length(self, index: int) -> int:
        """Length of piece ``index``."""
        if not 0 <= index < self._count:
            raise OutOfBoundsError(f"index {index} out of range for {self._count} pieces")
        return self._cumulative[index + 1] - self._cumulative[index]

    def find(self, pos: int) -> int:
        """Index of the piece containing global offset ``pos``."""
        if not 0 <= pos < self.total:
            raise OutOfBoundsError(f"offset {pos} out of range for total {self.total}")
        # rank over the monotone cumulative sequence: number of starts <= pos.
        return self._cumulative.rank(pos + 1) - 1

    def size_in_bits(self) -> int:
        """Encoded size in bits."""
        return self._cumulative.size_in_bits()
