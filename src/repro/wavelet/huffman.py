"""Huffman-shaped Wavelet Trees.

The paper notes (after Lemma 3.2) that the popular Huffman-shaped Wavelet Tree
is a special case of the Wavelet Trie obtained by mapping each symbol to its
Huffman code.  This module provides the canonical-code construction and a
static Huffman-shaped tree, which stores the FM-index's BWT: frequent
symbols sit near the root, so the expected query depth is ``H0 + 1`` instead
of ``log sigma``.
"""

from __future__ import annotations

import heapq
from collections import Counter
from itertools import compress
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.bits.bitstring import Bits
from repro.bitvector.base import validate_select_indexes
from repro.bitvector.rrr import RRRBitVector
from repro.exceptions import OutOfBoundsError, ValueNotFoundError

__all__ = ["HuffmanWaveletTree", "huffman_codes"]


def huffman_codes(frequencies: Dict[Hashable, int]) -> Dict[Hashable, Bits]:
    """Binary Huffman codes for the given symbol frequencies.

    Ties are broken deterministically by insertion order so tests are stable.
    A single-symbol alphabet gets the 1-bit code ``0``.
    """
    if not frequencies:
        return {}
    if len(frequencies) == 1:
        symbol = next(iter(frequencies))
        return {symbol: Bits.from_string("0")}
    heap: List[Tuple[int, int, object]] = []
    counter = 0
    for symbol, frequency in frequencies.items():
        heap.append((frequency, counter, ("leaf", symbol)))
        counter += 1
    heapq.heapify(heap)
    while len(heap) > 1:
        freq_a, _, node_a = heapq.heappop(heap)
        freq_b, _, node_b = heapq.heappop(heap)
        counter += 1
        heapq.heappush(heap, (freq_a + freq_b, counter, ("internal", node_a, node_b)))
    _, _, root = heap[0]
    codes: Dict[Hashable, Bits] = {}

    def assign(node, prefix: Bits) -> None:
        if node[0] == "leaf":
            codes[node[1]] = prefix
            return
        assign(node[1], prefix.appended(0))
        assign(node[2], prefix.appended(1))

    assign(root, Bits.empty())
    return codes


class _CodeNode:
    __slots__ = ("bitvector", "children", "symbol")

    def __init__(self) -> None:
        self.bitvector = None
        self.children: List[Optional["_CodeNode"]] = [None, None]
        self.symbol: Optional[Hashable] = None

    @property
    def is_leaf(self) -> bool:
        return self.symbol is not None


class HuffmanWaveletTree:
    """Static Wavelet Tree shaped by the Huffman codes of the input symbols."""

    def __init__(self, sequence: Iterable[Hashable], bitvector_factory=RRRBitVector) -> None:
        data = list(sequence)
        self._size = len(data)
        self._codes = huffman_codes(Counter(data))
        self._factory = bitvector_factory
        self._root = self._build(data, 0) if data else None

    def _build(self, data: List[Hashable], depth: int) -> _CodeNode:
        node = _CodeNode()
        first = data[0]
        if all(symbol == first for symbol in data):
            # All elements carry the same symbol: a leaf of the code trie.
            node.symbol = first
            return node
        # Distinct symbols share the code prefix consumed so far and, the code
        # being prefix-free, must all have a bit at position `depth`.
        bits = [self._codes[symbol][depth] for symbol in data]
        node.bitvector = self._factory(bits)
        left = [symbol for symbol, bit in zip(data, bits) if bit == 0]
        right = [symbol for symbol, bit in zip(data, bits) if bit == 1]
        if left:
            node.children[0] = self._build(left, depth + 1)
        if right:
            node.children[1] = self._build(right, depth + 1)
        return node

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    @property
    def codes(self) -> Dict[Hashable, Bits]:
        """The Huffman code of each distinct symbol."""
        return dict(self._codes)

    def access(self, pos: int) -> Hashable:
        """The symbol at position ``pos``."""
        if not 0 <= pos < self._size:
            raise OutOfBoundsError(f"position {pos} out of range for length {self._size}")
        node = self._root
        while not node.is_leaf:
            bit = node.bitvector.access(pos)
            pos = node.bitvector.rank(bit, pos)
            node = node.children[bit]
        return node.symbol

    def rank(self, symbol: Hashable, pos: int) -> int:
        """Occurrences of ``symbol`` in positions ``[0, pos)``."""
        if not 0 <= pos <= self._size:
            raise OutOfBoundsError(f"position {pos} out of range for length {self._size}")
        code = self._codes.get(symbol)
        if code is None or pos == 0:
            return 0
        node = self._root
        for depth in range(len(code)):
            if node.is_leaf:
                break
            bit = code[depth]
            pos = node.bitvector.rank(bit, pos)
            if pos == 0:
                return 0
            node = node.children[bit]
            if node is None:
                return 0
        return pos if node is not None and node.is_leaf and node.symbol == symbol else 0

    def select(self, symbol: Hashable, idx: int) -> int:
        """Position of the ``idx``-th occurrence of ``symbol``."""
        code = self._codes.get(symbol)
        if code is None:
            raise ValueNotFoundError(f"symbol {symbol!r} does not occur")
        total = self.count(symbol)
        if not 0 <= idx < total:
            raise OutOfBoundsError(
                f"select({symbol!r}, {idx}) out of range: only {total} occurrences"
            )
        node = self._root
        path: List[Tuple[_CodeNode, int]] = []
        for depth in range(len(code)):
            if node.is_leaf:
                break
            bit = code[depth]
            path.append((node, bit))
            node = node.children[bit]
        for ancestor, bit in reversed(path):
            idx = ancestor.bitvector.select(bit, idx)
        return idx

    def count(self, symbol: Hashable) -> int:
        """Total occurrences of ``symbol``."""
        return self.rank(symbol, self._size)

    # ------------------------------------------------------------------
    # Batch query paths (docs/API.md, "The batch-API convention")
    # ------------------------------------------------------------------
    def access_many(self, positions: Sequence[int], ranks: bool = False):
        """The symbols at each of ``positions``.

        Queries descend the code trie in groups: each touched node is
        visited once per batch with one ``access_many``/``rank_many`` pair
        on its bitvector, so node and attribute overhead is amortised over
        the whole batch instead of paid per query.

        With ``ranks=True`` the result is the pair ``(symbols, ranks)``
        where ``ranks[i] = rank(symbols[i], positions[i])``: the position a
        query reaches at its leaf *is* that rank, so it comes for free with
        the descent.  The FM-index LF step ``C[c] + rank(c, row)`` then
        costs one descent instead of an access plus a rank walk.
        """
        if not isinstance(positions, (list, tuple)):
            positions = list(positions)
        for pos in positions:
            if not 0 <= pos < self._size:
                raise OutOfBoundsError(
                    f"position {pos} out of range for length {self._size}"
                )
        out: List[Optional[Hashable]] = [None] * len(positions)
        leaf_ranks: List[int] = [0] * len(positions)
        # Each stack entry holds parallel lists: the queries' output slots
        # and their positions inside the node's subsequence.
        stack: List[Tuple[_CodeNode, List[int], List[int]]] = (
            [(self._root, list(range(len(positions))), list(positions))]
            if positions
            else []
        )
        while stack:
            node, slots, rows = stack.pop()
            if node.is_leaf:
                symbol = node.symbol
                for slot, row in zip(slots, rows):
                    out[slot] = symbol
                    leaf_ranks[slot] = row
                continue
            vector = node.bitvector
            bits = vector.access_many(rows)
            # One rank_many(0) pass serves both children: rank(1, pos) is
            # just pos - rank(0, pos).
            zero_ranks = vector.rank_many(0, rows)
            to_left = [bit ^ 1 for bit in bits]
            left_slots = list(compress(slots, to_left))
            if left_slots:
                stack.append(
                    (node.children[0], left_slots, list(compress(zero_ranks, to_left)))
                )
            if len(left_slots) < len(slots):
                stack.append(
                    (
                        node.children[1],
                        list(compress(slots, bits)),
                        [
                            row - rank
                            for row, rank in compress(zip(rows, zero_ranks), bits)
                        ],
                    )
                )
        return (out, leaf_ranks) if ranks else out

    def rank_many(self, symbol: Hashable, positions: Sequence[int]) -> List[int]:
        """``rank(symbol, pos)`` for each of ``positions``.

        One walk down the symbol's code path serves the whole batch: every
        node on the path is visited once with a single batched ``rank_many``
        on its bitvector, amortising to ``O(|code|)`` batch passes total
        instead of ``q`` independent ``O(|code|)`` scalar walks -- the
        backward-search access pattern of :class:`repro.text.fm_index.FMIndex`.
        """
        if not isinstance(positions, (list, tuple)):
            positions = list(positions)
        for pos in positions:
            if not 0 <= pos <= self._size:
                raise OutOfBoundsError(
                    f"position {pos} out of range for length {self._size}"
                )
        code = self._codes.get(symbol)
        if code is None or not positions:
            return [0] * len(positions)
        current = [int(pos) for pos in positions]
        node = self._root
        for depth in range(len(code)):
            if node is None or node.is_leaf:
                break
            current = node.bitvector.rank_many(code[depth], current)
            node = node.children[code[depth]]
        if node is not None and node.is_leaf and node.symbol == symbol:
            return current
        return [0] * len(positions)

    def select_many(self, symbol: Hashable, indexes: Sequence[int]) -> List[int]:
        """``select(symbol, idx)`` for each of ``indexes``.

        The symbol's root-to-leaf code path is recorded once and unwound
        with each node bitvector's batched ``select_many`` (shared directory
        walks), amortising the per-node work over the whole batch instead of
        paying ``q`` independent unwinds.
        """
        code = self._codes.get(symbol)
        if code is None:
            raise ValueNotFoundError(f"symbol {symbol!r} does not occur")
        indexes = validate_select_indexes(indexes, self.count(symbol), symbol)
        if not indexes:
            return []
        node = self._root
        path: List[Tuple[_CodeNode, int]] = []
        for depth in range(len(code)):
            if node.is_leaf:
                break
            path.append((node, code[depth]))
            node = node.children[code[depth]]
        current = indexes
        for ancestor, bit in reversed(path):
            current = ancestor.bitvector.select_many(bit, current)
        return current

    def to_list(self) -> List[Hashable]:
        """Materialise the stored sequence."""
        return [self.access(pos) for pos in range(self._size)]

    def size_in_bits(self) -> int:
        """Bitvector space plus per-node bookkeeping."""
        total = 0
        nodes = 0
        stack = [self._root] if self._root is not None else []
        while stack:
            node = stack.pop()
            nodes += 1
            if node.bitvector is not None:
                total += node.bitvector.size_in_bits()
            for child in node.children:
                if child is not None:
                    stack.append(child)
        return total + nodes * 4 * 64
