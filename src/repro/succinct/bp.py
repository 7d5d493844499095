"""Balanced-parentheses support over a bitvector.

A sequence of parentheses is stored as bits (``1`` = ``'('``, ``0`` = ``')'``)
with block-sampled *excess* directories supporting ``find_close``,
``find_open`` and ``enclose``.  This is the machinery underneath the DFUDS
encoding of the static Patricia trie (paper Section 3); the per-block scan
bounded by the block size plays the role of the four-Russians lookup tables of
the word-RAM construction.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Union

from repro.bits.bitstring import Bits
from repro.bitvector.plain import PlainBitVector
from repro.exceptions import OutOfBoundsError

__all__ = ["BalancedParentheses"]

_BLOCK = 64

OPEN = 1
CLOSE = 0


class BalancedParentheses:
    """Rank/select/excess operations over a balanced parentheses sequence."""

    __slots__ = ("_bits", "_block_excess", "_block_min")

    def __init__(self, parentheses: Union[Bits, Sequence[int], str]) -> None:
        if isinstance(parentheses, str):
            bits = Bits.from_iterable(
                1 if char == "(" else 0 for char in parentheses
            )
        elif isinstance(parentheses, Bits):
            bits = parentheses
        else:
            bits = Bits.from_iterable(parentheses)
        self._bits = PlainBitVector(bits)
        # Per-block cumulative excess (before block) and minimum excess inside.
        block_excess: List[int] = []
        block_min: List[int] = []
        excess = 0
        length = len(self._bits)
        for start in range(0, length, _BLOCK):
            block_excess.append(excess)
            minimum = excess
            for pos in range(start, min(start + _BLOCK, length)):
                excess += 1 if self._bits.access(pos) else -1
                minimum = min(minimum, excess)
            block_min.append(minimum)
        block_excess.append(excess)
        self._block_excess = block_excess
        self._block_min = block_min

    # ------------------------------------------------------------------
    # Frozen-image (RWT2) exchange -- see docs/ARCHITECTURE.md, "Storage"
    # ------------------------------------------------------------------
    def to_words_image(self, sink) -> dict:
        """Write the parentheses bitvector and block directories to a sink."""
        return {
            "bits": self._bits.to_words_image(sink),
            "bexc": sink.add_i64(self._block_excess),
            "bmin": sink.add_i64(self._block_min),
        }

    @classmethod
    def from_words_image(cls, image, meta: dict) -> "BalancedParentheses":
        """Open from a frozen image; no excess directory is recomputed."""
        self = cls.__new__(cls)
        self._bits = PlainBitVector.from_words_image(image, meta["bits"])
        self._block_excess = image.int64(meta["bexc"])
        self._block_min = image.int64(meta["bmin"])
        return self

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._bits)

    def access(self, pos: int) -> int:
        """1 for an open parenthesis, 0 for a close parenthesis."""
        return self._bits.access(pos)

    def is_open(self, pos: int) -> bool:
        """True if position ``pos`` holds an open parenthesis."""
        return self._bits.access(pos) == OPEN

    def rank_open(self, pos: int) -> int:
        """Number of open parentheses in ``[0, pos)``."""
        return self._bits.rank(OPEN, pos)

    def rank_close(self, pos: int) -> int:
        """Number of close parentheses in ``[0, pos)``."""
        return self._bits.rank(CLOSE, pos)

    def select_open(self, idx: int) -> int:
        """Position of the ``idx``-th open parenthesis."""
        return self._bits.select(OPEN, idx)

    def select_close(self, idx: int) -> int:
        """Position of the ``idx``-th close parenthesis."""
        return self._bits.select(CLOSE, idx)

    def excess(self, pos: int) -> int:
        """Number of opens minus closes in ``[0, pos)``."""
        if not 0 <= pos <= len(self._bits):
            raise OutOfBoundsError(f"position {pos} out of range")
        return 2 * self._bits.rank(OPEN, pos) - pos

    # ------------------------------------------------------------------
    def find_close(self, pos: int) -> int:
        """Position of the close parenthesis matching the open one at ``pos``."""
        if not self.is_open(pos):
            raise ValueError(f"position {pos} does not hold an open parenthesis")
        target = self.excess(pos)  # excess before pos; we need it back after the match
        excess = target + 1
        length = len(self._bits)
        current = pos + 1
        # Finish the current block with a scan.
        block_end = min(length, ((pos // _BLOCK) + 1) * _BLOCK)
        while current < block_end:
            excess += 1 if self._bits.access(current) else -1
            if excess == target:
                return current
            current += 1
        # Skip whole blocks whose minimum excess stays above the target.
        block = current // _BLOCK
        while block < len(self._block_min):
            if self._block_min[block] <= target:
                break
            block += 1
        current = block * _BLOCK
        excess = self._block_excess[block] if block < len(self._block_excess) else excess
        while current < length:
            excess += 1 if self._bits.access(current) else -1
            if excess == target:
                return current
            current += 1
        raise OutOfBoundsError(f"no matching close parenthesis for position {pos}")

    def find_open(self, pos: int) -> int:
        """Position of the open parenthesis matching the close one at ``pos``."""
        if self.is_open(pos):
            raise ValueError(f"position {pos} does not hold a close parenthesis")
        target = self.excess(pos + 1)
        current = pos - 1
        while current >= 0:
            if self.excess(current) == target and self.is_open(current):
                return current
            current -= 1
        raise OutOfBoundsError(f"no matching open parenthesis for position {pos}")

    def enclose(self, pos: int) -> int:
        """Position of the open parenthesis most tightly enclosing node ``pos``."""
        if not self.is_open(pos):
            raise ValueError(f"position {pos} does not hold an open parenthesis")
        target = self.excess(pos) - 1
        current = pos - 1
        while current >= 0:
            if self.is_open(current) and self.excess(current) == target:
                return current
            current -= 1
        raise OutOfBoundsError(f"position {pos} has no enclosing parenthesis")

    # ------------------------------------------------------------------
    def size_in_bits(self) -> int:
        """Encoded size: the parentheses plus the block directories."""
        return (
            self._bits.size_in_bits()
            + (len(self._block_excess) + len(self._block_min)) * 64
        )

    def to01(self) -> str:
        """Render as a parenthesis string (testing helper)."""
        return "".join("(" if bit else ")" for bit in self._bits)
