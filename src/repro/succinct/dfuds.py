"""DFUDS (Depth-First Unary Degree Sequence) succinct tree encoding.

The static Wavelet Trie stores its Patricia trie topology with a DFUDS
encoding, ``2k + o(k)`` bits for ``k`` nodes, while supporting navigation in
constant time (paper Section 3, citing Benoit et al.).  This module encodes an
arbitrary ordinal tree given by a ``children`` function; nodes are identified
by their preorder rank.

Encoding: the sequence starts with an artificial open parenthesis, then each
node in preorder contributes ``degree`` open parentheses followed by one close
parenthesis.  The resulting sequence is balanced, and navigation reduces to
rank/select/find_close on it.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Sequence, TypeVar

from repro.succinct.bp import BalancedParentheses
from repro.exceptions import OutOfBoundsError

__all__ = ["DFUDSTree"]

NodeT = TypeVar("NodeT")


class DFUDSTree:
    """Succinct ordinal tree with DFUDS navigation.

    Build with :meth:`from_tree`, passing the root object and a function that
    returns the ordered children of a node.  Nodes of the encoded tree are
    referred to by *preorder rank* (the root is 0).
    """

    __slots__ = ("_bp", "_node_count")

    def __init__(self, parentheses: Sequence[int], node_count: int) -> None:
        self._bp = BalancedParentheses(parentheses)
        self._node_count = node_count

    # ------------------------------------------------------------------
    @classmethod
    def from_tree(
        cls, root: NodeT, children: Callable[[NodeT], Sequence[NodeT]]
    ) -> "DFUDSTree":
        """Encode the tree rooted at ``root``; ``children`` lists ordered children."""
        bits: List[int] = [1]  # artificial initial open parenthesis
        count = 0
        stack = [root]
        # Iterative preorder traversal (children pushed in reverse order).
        while stack:
            node = stack.pop()
            count += 1
            kids = list(children(node))
            bits.extend([1] * len(kids))
            bits.append(0)
            for kid in reversed(kids):
                stack.append(kid)
        return cls(bits, count)

    @classmethod
    def from_degrees(cls, preorder_degrees: Sequence[int]) -> "DFUDSTree":
        """Encode directly from the preorder sequence of node degrees."""
        bits: List[int] = [1]
        for degree in preorder_degrees:
            bits.extend([1] * degree)
            bits.append(0)
        return cls(bits, len(preorder_degrees))

    # ------------------------------------------------------------------
    # Frozen-image (RWT2) exchange -- see docs/ARCHITECTURE.md, "Storage"
    # ------------------------------------------------------------------
    def to_words_image(self, sink) -> dict:
        """Write the balanced-parentheses structure into an image sink."""
        return {
            "node_count": self._node_count,
            "bp": self._bp.to_words_image(sink),
        }

    @classmethod
    def from_words_image(cls, image, meta: dict) -> "DFUDSTree":
        """Open from a frozen image; the parentheses alias the buffer."""
        self = cls.__new__(cls)
        self._bp = BalancedParentheses.from_words_image(image, meta["bp"])
        self._node_count = int(meta["node_count"])
        return self

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._node_count

    @property
    def node_count(self) -> int:
        """Number of nodes in the tree."""
        return self._node_count

    def _node_position(self, node: int) -> int:
        """Starting position of the DFUDS description of ``node``."""
        self._check_node(node)
        if node == 0:
            return 1
        return self._bp.select_close(node - 1) + 1

    def _position_to_node(self, position: int) -> int:
        """Preorder rank of the node whose description starts at ``position``."""
        return self._bp.rank_close(position)

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self._node_count:
            raise OutOfBoundsError(
                f"node {node} out of range for {self._node_count} nodes"
            )

    # ------------------------------------------------------------------
    def degree(self, node: int) -> int:
        """Number of children of ``node``."""
        position = self._node_position(node)
        return self._bp.select_close(node) - position

    def is_leaf(self, node: int) -> bool:
        """True if ``node`` has no children."""
        return self.degree(node) == 0

    def child(self, node: int, index: int) -> int:
        """The ``index``-th (0-based, left to right) child of ``node``."""
        degree = self.degree(node)
        if not 0 <= index < degree:
            raise OutOfBoundsError(
                f"child index {index} out of range for degree {degree}"
            )
        position = self._node_position(node)
        open_position = position + degree - 1 - index
        child_position = self._bp.find_close(open_position) + 1
        return self._position_to_node(child_position)

    def children(self, node: int) -> Iterator[int]:
        """Iterate over the children of ``node`` left to right."""
        for index in range(self.degree(node)):
            yield self.child(node, index)

    def parent(self, node: int) -> int:
        """The parent of ``node``; raises for the root."""
        self._check_node(node)
        if node == 0:
            raise OutOfBoundsError("the root has no parent")
        position = self._node_position(node)
        open_position = self._bp.find_open(position - 1)
        # The open parenthesis belongs to the parent's description.
        parent_close = self._bp.rank_close(open_position)
        return parent_close

    def child_rank(self, node: int) -> int:
        """0-based index of ``node`` among its parent's children."""
        self._check_node(node)
        if node == 0:
            raise OutOfBoundsError("the root has no parent")
        position = self._node_position(node)
        open_position = self._bp.find_open(position - 1)
        parent = self.parent(node)
        parent_position = self._node_position(parent)
        parent_degree = self.degree(parent)
        return parent_position + parent_degree - 1 - open_position

    def preorder_nodes(self) -> Iterator[int]:
        """All nodes in preorder (they are simply 0..node_count-1)."""
        return iter(range(self._node_count))

    def leaf_count(self) -> int:
        """Number of leaves."""
        return sum(1 for node in range(self._node_count) if self.is_leaf(node))

    # ------------------------------------------------------------------
    def size_in_bits(self) -> int:
        """Encoded size: the parenthesis sequence plus its directories."""
        return self._bp.size_in_bits()

    def parentheses(self) -> str:
        """The raw DFUDS parenthesis string (testing helper)."""
        return self._bp.to01()
