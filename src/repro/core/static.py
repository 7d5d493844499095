"""The static Wavelet Trie (paper Section 3, Theorem 3.7).

Built once from a sequence of values; supports ``Access``, ``Rank``,
``Select``, ``RankPrefix``, ``SelectPrefix`` and the Section 5 range
analytics in ``O(|s| + h_s)`` time, with node bitvectors stored in RRR
compressed form so the total space is ``LT(Sset) + n H0(S)`` plus lower-order
terms.

The default in-memory layout is pointer-based (one Python object per trie
node); :meth:`WaveletTrie.succinct_space_breakdown` additionally *measures*
the Theorem 3.7 succinct layout -- DFUDS topology, concatenated labels with
Elias-Fano delimiters, concatenated RRR encodings with their delimiters -- so
the space experiments can report both the engineered and the succinct
accounting.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Sequence

from repro.bits.bitstring import Bits
from repro.bitvector.plain import PlainBitVector
from repro.bitvector.rle import RLEBitVector
from repro.bitvector.rrr import RRRBitVector
from repro.core.base import WaveletTrieBase
from repro.core.builder import build_wavelet_trie_nodes
from repro.core.node import WaveletTrieNode
from repro.exceptions import ImmutableStructureError, SerializationError
from repro.succinct.dfuds import DFUDSTree
from repro.succinct.partial_sums import StaticPartialSums
from repro.tries.binarize import StringCodec

__all__ = ["WaveletTrie"]

_BITVECTOR_FACTORIES = {
    "rrr": RRRBitVector,
    "plain": PlainBitVector,
    "rle": RLEBitVector,
}


class WaveletTrie(WaveletTrieBase):
    """Static compressed indexed sequence of strings.

    Parameters
    ----------
    values:
        The sequence to index.  Strings by default; other types need a
        matching ``codec``.
    codec:
        Binarisation codec (defaults to UTF-8 + NUL terminator).
    bitvector:
        Which static bitvector to store in the internal nodes: ``"rrr"``
        (default, the paper's choice), ``"plain"`` or ``"rle"`` -- the knob
        used by the ablation benchmark.

    Examples
    --------
    >>> wt = WaveletTrie(["/a/x", "/a/y", "/b", "/a/x"])
    >>> wt.access(0)
    '/a/x'
    >>> wt.rank("/a/x", 4)
    2
    >>> wt.select_prefix("/a", 2)
    3
    """

    def __init__(
        self,
        values: Iterable[Any] = (),
        codec: Optional[StringCodec] = None,
        bitvector: str = "rrr",
    ) -> None:
        super().__init__(codec)
        if bitvector not in _BITVECTOR_FACTORIES:
            raise ValueError(
                f"unknown bitvector kind {bitvector!r}; "
                f"expected one of {sorted(_BITVECTOR_FACTORIES)}"
            )
        self._bitvector_kind = bitvector
        factory = _BITVECTOR_FACTORIES[bitvector]
        values = list(values)
        encoded = [self._codec.to_bits(value) for value in values]
        self._root = build_wavelet_trie_nodes(encoded, factory)
        self._size = len(encoded)

    # ------------------------------------------------------------------
    @classmethod
    def from_bits_sequence(
        cls,
        encoded: Sequence[Bits],
        codec: Optional[StringCodec] = None,
        bitvector: str = "rrr",
    ) -> "WaveletTrie":
        """Build directly from already-binarised values (testing/benchmarks)."""
        trie = cls([], codec=codec, bitvector=bitvector)
        trie._root = build_wavelet_trie_nodes(
            list(encoded), _BITVECTOR_FACTORIES[bitvector]
        )
        trie._size = len(encoded)
        return trie

    @property
    def bitvector_kind(self) -> str:
        """Which static bitvector the internal nodes use."""
        return self._bitvector_kind

    # ------------------------------------------------------------------
    # Frozen-image (RWT2) exchange -- see docs/ARCHITECTURE.md, "Storage"
    # ------------------------------------------------------------------
    _IMAGE_BITVECTOR_LOADERS = {
        "rrr": RRRBitVector.from_words_image,
        "plain": PlainBitVector.from_words_image,
    }

    def to_words_image(self, sink) -> dict:
        """Write the trie into a frozen-image sink (word-array kinds only).

        The topology and labels go into the meta as one *flat preorder*
        node list ``[is_internal, label_value, label_length]`` (iterative,
        so deep Patricia chains cannot hit recursion or JSON nesting
        limits); ``bitvectors[r]`` is the meta of internal node ``r`` (by
        preorder internal rank).  Only ``"rrr"`` and ``"plain"`` node
        bitvectors have a word-array image layout; ``"rle"`` tries must use
        the RWT1 logical container instead.
        """
        if self._bitvector_kind not in self._IMAGE_BITVECTOR_LOADERS:
            raise SerializationError(
                f"WaveletTrie with {self._bitvector_kind!r} node bitvectors "
                "has no frozen-image layout; save it with the RWT1 logical "
                "container instead"
            )
        nodes: list = []
        bv_metas: list = []
        if self._root is not None:
            stack = [self._root]
            while stack:
                node = stack.pop()
                if node.is_leaf:
                    nodes.append([0, node.label.value, len(node.label)])
                else:
                    nodes.append([1, node.label.value, len(node.label)])
                    bv_metas.append(node.bitvector.to_words_image(sink))
                    stack.append(node.children[1])
                    stack.append(node.children[0])
        return {
            "size": self._size,
            "kind": self._bitvector_kind,
            "nodes": nodes,
            "bitvectors": bv_metas,
        }

    @classmethod
    def from_words_image(
        cls, image, meta: dict, codec: Optional[StringCodec] = None
    ) -> "WaveletTrie":
        """Open from a frozen image; node bitvectors alias the buffer.

        Rebuilds only the lightweight node shell objects (one per trie
        node); no bitvector is decoded or re-encoded.  The preorder node
        list is replayed iteratively: after an internal node, the next
        subtree in the list is its 0-child, then its 1-child.
        """
        kind = meta["kind"]
        loader = cls._IMAGE_BITVECTOR_LOADERS.get(kind)
        if loader is None:
            raise SerializationError(
                f"unknown node-bitvector kind {kind!r} in frozen image"
            )
        self = cls([], codec=codec, bitvector=kind)
        self._size = int(meta["size"])
        nodes_meta = meta["nodes"]
        if not nodes_meta:
            self._root = None
            return self
        bv_metas = meta["bitvectors"]
        internal_rank = 0
        root = None
        pending: list = []  # (parent, bit) slots awaiting the next subtree
        for is_internal, value, length in nodes_meta:
            label = Bits(int(value), int(length))
            if is_internal:
                vector = loader(image, bv_metas[internal_rank])
                internal_rank += 1
                node = WaveletTrieNode(label, vector)
            else:
                node = WaveletTrieNode(label)
            if root is None:
                root = node
            else:
                parent, bit = pending.pop()
                parent.attach(bit, node)
            if is_internal:
                pending.append((node, 1))
                pending.append((node, 0))
        if pending:
            raise SerializationError(
                "frozen image node list is truncated (dangling child slots)"
            )
        self._root = root
        return self

    # ------------------------------------------------------------------
    # Tier protocol (see repro.core.tiers)
    # ------------------------------------------------------------------
    @property
    def tier_state(self) -> str:
        """Always ``"frozen"``: the static trie is immutable."""
        return "frozen"

    def freeze_step(self, budget: int = 64) -> bool:
        """No freeze work on an already-frozen tier; returns True."""
        return True

    def to_succinct(self):
        """Flatten into the pointerless Theorem 3.7 succinct layout."""
        from repro.core.succinct_static import SuccinctWaveletTrie

        return SuccinctWaveletTrie.from_pointer_trie(self)

    # ------------------------------------------------------------------
    # Updates are rejected: the structure is static.
    # ------------------------------------------------------------------
    def append(self, value: Any) -> None:
        raise ImmutableStructureError(
            "WaveletTrie is static; use AppendOnlyWaveletTrie or DynamicWaveletTrie"
        )

    def insert(self, value: Any, pos: int) -> None:
        raise ImmutableStructureError(
            "WaveletTrie is static; use DynamicWaveletTrie"
        )

    def delete(self, pos: int) -> Any:
        raise ImmutableStructureError(
            "WaveletTrie is static; use DynamicWaveletTrie"
        )

    # ------------------------------------------------------------------
    # Succinct space accounting (Theorem 3.7)
    # ------------------------------------------------------------------
    def succinct_topology_bits(self) -> int:
        """Measured size of a DFUDS encoding of the trie topology."""
        if self._root is None:
            return 0
        dfuds = DFUDSTree.from_tree(
            self._root,
            lambda node: [] if node.is_leaf else
            [node.children[0], node.children[1]],
        )
        return dfuds.size_in_bits()

    def succinct_space_breakdown(self) -> Dict[str, float]:
        """The Theorem 3.7 decomposition, measured on this instance.

        Components: DFUDS topology, concatenated labels ``L``, label
        delimiters, concatenated node-bitvector encodings, encoding
        delimiters.  All in bits.
        """
        if self._root is None:
            return {
                "topology": 0, "labels": 0, "label_delimiters": 0,
                "bitvectors": 0, "bitvector_delimiters": 0, "total": 0,
            }
        label_lengths = []
        bitvector_sizes = []
        for node in self.nodes():
            label_lengths.append(len(node.label))
            if node.bitvector is not None:
                bitvector_sizes.append(node.bitvector.size_in_bits())
        topology = self.succinct_topology_bits()
        labels = sum(label_lengths)
        label_delimiters = StaticPartialSums(label_lengths).size_in_bits()
        bitvectors = sum(bitvector_sizes)
        bitvector_delimiters = (
            StaticPartialSums(bitvector_sizes).size_in_bits()
            if bitvector_sizes else 0
        )
        total = topology + labels + label_delimiters + bitvectors + bitvector_delimiters
        return {
            "topology": topology,
            "labels": labels,
            "label_delimiters": label_delimiters,
            "bitvectors": bitvectors,
            "bitvector_delimiters": bitvector_delimiters,
            "total": total,
        }
