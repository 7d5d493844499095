"""Tests for balanced parentheses and DFUDS succinct trees.

All navigation operations are cross-checked against an explicit pointer-based
tree generated pseudo-randomly.
"""

import random
from typing import List, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import OutOfBoundsError
from repro.succinct import BalancedParentheses, DFUDSTree


class Node:
    """Explicit ordinal-tree node used as the oracle."""

    def __init__(self):
        self.children: List["Node"] = []
        self.parent: Optional["Node"] = None

    def add(self, child: "Node") -> "Node":
        child.parent = self
        self.children.append(child)
        return child


def random_tree(seed: int, max_nodes: int = 40) -> Node:
    rng = random.Random(seed)
    root = Node()
    nodes = [root]
    while len(nodes) < max_nodes:
        parent = rng.choice(nodes)
        child = parent.add(Node())
        nodes.append(child)
    return root


def preorder(root: Node) -> List[Node]:
    out = []
    stack = [root]
    while stack:
        node = stack.pop()
        out.append(node)
        for child in reversed(node.children):
            stack.append(child)
    return out


class TestBalancedParentheses:
    def test_simple_sequence(self):
        bp = BalancedParentheses("(()(()))")
        assert len(bp) == 8
        assert bp.is_open(0) and not bp.is_open(2)
        assert bp.excess(8) == 0
        assert bp.find_close(0) == 7
        assert bp.find_close(1) == 2
        assert bp.find_close(3) == 6
        assert bp.find_close(4) == 5
        assert bp.find_open(7) == 0
        assert bp.find_open(5) == 4
        assert bp.enclose(1) == 0
        assert bp.enclose(4) == 3

    def test_long_sequence_block_skipping(self):
        # Deep nesting followed by a long flat section exercises the
        # block-skip path of find_close.
        text = "(" * 200 + "()" * 200 + ")" * 200
        bp = BalancedParentheses(text)
        assert bp.find_close(0) == len(text) - 1
        assert bp.find_close(199) == len(text) - 200
        assert bp.find_close(200) == 201

    def test_errors(self):
        bp = BalancedParentheses("()")
        with pytest.raises(ValueError):
            bp.find_close(1)
        with pytest.raises(ValueError):
            bp.find_open(0)
        with pytest.raises(OutOfBoundsError):
            bp.enclose(0)

    def test_rank_select(self):
        bp = BalancedParentheses("(()())")
        assert bp.rank_open(3) == 2
        assert bp.rank_close(3) == 1
        assert bp.select_open(2) == 3
        assert bp.select_close(0) == 2

    @given(st.integers(min_value=0, max_value=50))
    @settings(max_examples=25, deadline=None)
    def test_find_close_open_are_inverses(self, seed):
        root = random_tree(seed, max_nodes=30)
        # Build a BP string by DFS.
        text = []

        def walk(node):
            text.append("(")
            for child in node.children:
                walk(child)
            text.append(")")

        walk(root)
        bp = BalancedParentheses("".join(text))
        for pos in range(len(text)):
            if bp.is_open(pos):
                close = bp.find_close(pos)
                assert bp.find_open(close) == pos


class TestDFUDS:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 7])
    def test_navigation_matches_pointer_tree(self, seed):
        root = random_tree(seed, max_nodes=35)
        order = preorder(root)
        index = {id(node): i for i, node in enumerate(order)}
        tree = DFUDSTree.from_tree(root, lambda node: node.children)
        assert tree.node_count == len(order)
        for i, node in enumerate(order):
            assert tree.degree(i) == len(node.children)
            assert tree.is_leaf(i) == (not node.children)
            for k, child in enumerate(node.children):
                assert tree.child(i, k) == index[id(child)]
            if node.parent is not None:
                assert tree.parent(i) == index[id(node.parent)]
                assert tree.child_rank(i) == node.parent.children.index(node)
        assert tree.leaf_count() == sum(1 for node in order if not node.children)

    def test_single_node(self):
        tree = DFUDSTree.from_degrees([0])
        assert tree.node_count == 1
        assert tree.is_leaf(0)
        with pytest.raises(OutOfBoundsError):
            tree.parent(0)
        with pytest.raises(OutOfBoundsError):
            tree.child(0, 0)

    def test_from_degrees_binary_tree(self):
        # A binary Patricia-like shape: root with two leaves.
        tree = DFUDSTree.from_degrees([2, 0, 0])
        assert tree.degree(0) == 2
        assert tree.child(0, 0) == 1
        assert tree.child(0, 1) == 2
        assert tree.parent(1) == 0 and tree.parent(2) == 0
        assert tree.parentheses() == "((()))"

    def test_size_is_linear_in_nodes(self):
        tree = DFUDSTree.from_degrees([2] + [2, 0, 0] * 100 + [0, 0])
        # about 2 bits per node plus directories
        assert tree.size_in_bits() < 64 * tree.node_count
