"""Elias-Fano monotone sequences and sparse bitvectors.

The static Wavelet Trie (paper Section 3) delimits the concatenated node
labels ``L`` and the concatenated RRR encodings with the partial-sum structure
of Raman, Raman & Rao, which costs ``B(e, |L| + e) + o(...)`` bits.  The
quasi-succinct Elias-Fano representation achieves the same bound up to lower
order terms and is the standard engineering choice, so it is what we build
here:

* :class:`EliasFanoSequence` stores a non-decreasing sequence of integers with
  ``n (2 + log(u / n))`` bits and O(1) ``select`` (access by index);
* :class:`SparseBitVector` exposes the positions of the 1s of a sparse
  bitvector through the same machinery, with full rank/select support.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence

from repro.bits.bitbuffer import BitBuffer
from repro.bits.bitstring import Bits
from repro.bits.kernel import as_int_list, one_positions, pack_value
from repro.bits.packed import PackedIntVector
from repro.bitvector.base import StaticBitVector
from repro.bitvector.plain import PlainBitVector
from repro.exceptions import OutOfBoundsError

__all__ = ["EliasFanoSequence", "SparseBitVector"]


class EliasFanoSequence:
    """Quasi-succinct encoding of a monotone non-decreasing integer sequence.

    Each value is split into ``low_width`` low-order bits, stored verbatim in a
    packed array, and high-order bits, stored as a unary-coded sequence of
    bucket gaps in a plain bitvector with rank/select support.
    """

    __slots__ = ("_n", "_universe", "_low_width", "_low", "_high")

    def __init__(self, values: Sequence[int], universe: int | None = None) -> None:
        values = list(values)
        for earlier, later in zip(values, values[1:]):
            if later < earlier:
                raise ValueError("EliasFanoSequence requires a non-decreasing input")
        if values and values[0] < 0:
            raise ValueError("values must be non-negative")
        self._n = len(values)
        self._universe = universe if universe is not None else (values[-1] + 1 if values else 1)
        if values and values[-1] >= self._universe:
            raise ValueError("universe must exceed the largest value")
        if self._n == 0:
            self._low_width = 0
            self._low = PackedIntVector(0)
            self._high = PlainBitVector()
            return
        # Choose the textbook low-part width floor(log2(u / n)).
        ratio = max(1, self._universe // self._n)
        self._low_width = max(0, ratio.bit_length() - 1)
        low = PackedIntVector(self._low_width)
        high_bits = BitBuffer()
        previous_bucket = 0
        mask = (1 << self._low_width) - 1
        for value in values:
            low.append(value & mask if self._low_width else 0)
            bucket = value >> self._low_width
            high_bits.append_run(0, bucket - previous_bucket)
            high_bits.append(1)
            previous_bucket = bucket
        self._low = low
        self._high = PlainBitVector(high_bits.to_bits())

    # ------------------------------------------------------------------
    # Frozen-image (RWT2) exchange -- see docs/ARCHITECTURE.md, "Storage"
    # ------------------------------------------------------------------
    def to_words_image(self, sink) -> dict:
        """Write the low words and the high bitvector into an image sink.

        Returns the meta dict :meth:`from_words_image` needs: the span of
        the packed low halves and the high bitvector's own meta.
        """
        return {
            "n": self._n,
            "universe": self._universe,
            "low_width": self._low_width,
            "low": sink.add_u64(self._low._words),
            "high": self._high.to_words_image(sink),
        }

    @classmethod
    def from_words_image(cls, image, meta: dict) -> "EliasFanoSequence":
        """Open from a frozen image; low and high halves alias the buffer."""
        self = cls.__new__(cls)
        self._n = int(meta["n"])
        self._universe = int(meta["universe"])
        self._low_width = int(meta["low_width"])
        self._low = PackedIntVector.from_words(
            self._low_width, self._n, image.words(meta["low"])
        )
        self._high = PlainBitVector.from_words_image(image, meta["high"])
        return self

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n

    @property
    def universe(self) -> int:
        """Exclusive upper bound on the stored values."""
        return self._universe

    def __getitem__(self, index: int) -> int:
        return self.select(index)

    def select(self, index: int) -> int:
        """The ``index``-th value (0-based)."""
        if not 0 <= index < self._n:
            raise OutOfBoundsError(f"index {index} out of range for {self._n} values")
        high = self._high.select1(index) - index
        low = self._low[index] if self._low_width else 0
        return (high << self._low_width) | low

    def _bucket_start(self, bucket: int, zero_select) -> int:
        """Index of the first stored value whose high part is >= ``bucket``.

        ``zero_select(j)`` is the position of the ``j``-th 0 of the high
        bits: the ``bucket``-th 0 closes bucket ``bucket - 1``, and every 1
        before it is a value in a lower bucket.
        """
        if bucket <= 0:
            return 0
        if bucket > len(self._high) - self._n:  # past the last bucket
            return self._n
        return zero_select(bucket - 1) + 1 - bucket

    def _rank_in_bucket(self, value: int, lo: int, hi: int) -> int:
        """``lo`` plus the values of ``[lo, hi)`` (one bucket) below ``value``."""
        if not self._low_width:
            return lo
        target = value & ((1 << self._low_width) - 1)
        low = self._low
        while lo < hi:
            mid = (lo + hi) // 2
            if low[mid] < target:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def rank(self, value: int) -> int:
        """Number of stored values strictly smaller than ``value``.

        Two ``select(0, .)`` calls on the high bits bound the bucket of
        ``value``; a search over the low bits of that bucket alone finishes
        it.  Buckets of distinct values hold at most ``2**low_width <= u/n``
        entries.
        """
        if value <= 0 or self._n == 0:
            return 0
        bucket = value >> self._low_width
        select0 = self._high.select0
        return self._rank_in_bucket(
            value,
            self._bucket_start(bucket, select0),
            self._bucket_start(bucket + 1, select0),
        )

    def rank_many(self, values: Sequence[int]) -> List[int]:
        """``rank(value)`` for each of ``values``, in input order.

        Every bucket boundary the batch needs comes from one batched
        ``select_many(0, .)`` on the high bits (a sorted directory walk),
        then each value searches its own bucket.  Amortised
        ``O(q log q + q log(u/n))`` against two scalar zero-selects per
        value.
        """
        values = [int(value) for value in values]
        if self._n == 0:
            return [0] * len(values)
        shift = self._low_width
        last = len(self._high) - self._n
        needed = sorted(
            {
                bucket - 1
                for value in values
                if value > 0
                for bucket in (value >> shift, (value >> shift) + 1)
                if 0 < bucket <= last
            }
        )
        zero_at = dict(zip(needed, self._high.select_many(0, needed)))
        out: List[int] = []
        for value in values:
            if value <= 0:
                out.append(0)
                continue
            bucket = value >> shift
            out.append(
                self._rank_in_bucket(
                    value,
                    self._bucket_start(bucket, zero_at.__getitem__),
                    self._bucket_start(bucket + 1, zero_at.__getitem__),
                )
            )
        return out

    def predecessor(self, value: int) -> int:
        """Largest index ``i`` with ``self[i] <= value``; raises if none exists."""
        count = self.rank(value + 1)
        if count == 0:
            raise OutOfBoundsError(f"no value <= {value}")
        return count - 1

    def __iter__(self) -> Iterator[int]:
        for index in range(self._n):
            yield self.select(index)

    def to_list(self) -> List[int]:
        """Materialise the sequence."""
        return list(self)

    def size_in_bits(self) -> int:
        """Total encoded size in bits."""
        return self._low.size_in_bits() + self._high.size_in_bits() + 2 * 64


class SparseBitVector(StaticBitVector):
    """A bitvector represented by the Elias-Fano encoding of its 1 positions.

    Efficient when the density of 1s is low, e.g. block delimiters; supports
    the full FID interface.
    """

    __slots__ = ("_length", "_positions")

    def __init__(self, length: int, one_positions: Iterable[int]) -> None:
        positions = sorted(one_positions)
        if positions and (positions[0] < 0 or positions[-1] >= length):
            raise OutOfBoundsError("a 1-position is outside [0, length)")
        for earlier, later in zip(positions, positions[1:]):
            if earlier == later:
                raise ValueError("duplicate 1-position")
        self._length = length
        self._positions = EliasFanoSequence(positions, universe=max(length, 1))

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "SparseBitVector":
        """Build from a :class:`Bits` payload or an explicit iterable of bits."""
        if isinstance(bits, Bits):
            # Kernel path: extract the 1-positions bytewise from packed words.
            words = pack_value(bits.value, len(bits))
            return cls(len(bits), as_int_list(one_positions(words)))
        ones = []
        length = 0
        for position, bit in enumerate(bits):
            if bit:
                ones.append(position)
            length += 1
        return cls(length, ones)

    def __len__(self) -> int:
        return self._length

    @property
    def ones(self) -> int:
        return len(self._positions)

    def access(self, pos: int) -> int:
        self._check_pos(pos)
        rank_after = self._positions.rank(pos + 1)
        rank_before = self._positions.rank(pos)
        return rank_after - rank_before

    def rank(self, bit: int, pos: int) -> int:
        self._check_bit(bit)
        self._check_rank_pos(pos)
        ones = self._positions.rank(pos)
        return ones if bit else pos - ones

    def rank_many(self, bit: int, positions) -> List[int]:
        """``rank(bit, pos)`` for each of ``positions``, in input order.

        One :meth:`EliasFanoSequence.rank_many` over the whole batch: the
        bucket boundaries come from a single batched zero-select on the
        high bits.  Amortised ``O(q log q + q log(u/n))`` against two scalar
        zero-selects per position.
        """
        self._check_bit(bit)
        positions = [int(pos) for pos in positions]
        for pos in positions:
            self._check_rank_pos(pos)
        ones = self._positions.rank_many(positions)
        if bit:
            return ones
        return [pos - count for pos, count in zip(positions, ones)]

    def select(self, bit: int, idx: int) -> int:
        self._check_bit(bit)
        if bit:
            if not 0 <= idx < len(self._positions):
                raise OutOfBoundsError(
                    f"select(1, {idx}) out of range: only {len(self._positions)} ones"
                )
            return self._positions.select(idx)
        zeros = self._length - len(self._positions)
        if not 0 <= idx < zeros:
            raise OutOfBoundsError(
                f"select(0, {idx}) out of range: only {zeros} zeros"
            )
        # Binary search over positions: zeros before position p = p - rank1(p).
        lo, hi = 0, self._length - 1
        while lo < hi:
            mid = (lo + hi) // 2
            zeros_through_mid = (mid + 1) - self._positions.rank(mid + 1)
            if zeros_through_mid <= idx:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def size_in_bits(self) -> int:
        return self._positions.size_in_bits() + 64
