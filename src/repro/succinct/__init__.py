"""Succinct tree encodings and prefix-sum structures.

These are the substrates used by the static Wavelet Trie representation
(paper Section 3): a DFUDS encoding of the Patricia trie topology, balanced
parentheses support, and static partial sums used to delimit concatenated
labels and bitvector encodings.
"""

from repro.succinct.bp import BalancedParentheses
from repro.succinct.dfuds import DFUDSTree
from repro.succinct.partial_sums import StaticPartialSums

__all__ = [
    "BalancedParentheses",
    "DFUDSTree",
    "StaticPartialSums",
]
