"""The FM-index: compressed full-text search over a BWT + wavelet tree.

Ferragina-Manzini backward search (PAPERS.md, *Indexing Compressed Text*):
the Burrows-Wheeler transform of the terminator-extended text is stored in a
:class:`~repro.wavelet.huffman.HuffmanWaveletTree`, so the index occupies
roughly the character entropy of the text while answering

* ``count(pattern)`` -- number of occurrences, in ``|pattern|`` backward
  steps, each issuing **one** ``rank_many`` pair on the wavelet tree instead
  of two scalar rank walks;
* ``locate(pattern)`` -- all occurrence positions, via a sampled suffix
  array (``sa_sample`` is the space/time knob: one stored position every
  ``sa_sample`` text positions, at most ``sa_sample - 1`` LF steps per
  occurrence).  All occurrences step together: a round is one batched
  marked-row test on an RRR bitvector plus one BWT descent
  (``access_many(rows, ranks=True)``) that yields each row's symbol and
  its rank, so ``LF = C[c] + rank`` costs no separate rank walk;
* ``extract(start, stop)`` -- any text slice, via inverse-suffix-array
  samples (at most ``sa_sample`` extra LF steps past the slice).

``count_many`` additionally batches backward search *across* patterns:
every step groups the live patterns by their next character and issues one
``rank_many`` per distinct character -- the access pattern the batch
subsystem was built for.  See docs/ARCHITECTURE.md, "Full-text search".
"""

from __future__ import annotations

from itertools import compress
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bits.packed import PackedIntVector
from repro.bitvector.plain import PlainBitVector
from repro.bitvector.rrr import RRRBitVector
from repro.exceptions import OutOfBoundsError
from repro.text.suffix_array import bwt_from_suffix_array, suffix_array
from repro.wavelet.huffman import HuffmanWaveletTree

__all__ = ["FMIndex"]

_TERMINATOR = 0  # code of the appended sentinel; smaller than every character

#: Node bitvector flavours for the BWT wavelet tree.  Backward search is
#: rank-bound, so the default is the plain vector whose ``rank_many`` is
#: kernel-vectorised (one gather + popcount for a whole batch); the Huffman
#: shape already holds total node bits near ``n * H0``.  The ``rrr`` flavour
#: trades batched rank speed for compressed nodes.
_BWT_BITVECTORS = {"plain": PlainBitVector, "rrr": RRRBitVector}


class FMIndex:
    """Compressed full-text index supporting count, locate and extract.

    Parameters
    ----------
    text:
        The text to index (any ``str``, including embedded NUL separators).
    sa_sample:
        Suffix-array sampling rate: every ``sa_sample``-th text position is
        stored explicitly.  Smaller values make ``locate``/``extract``
        faster and the index larger; the default 32 costs
        ``~2 * 64 / 32 = 4`` bits per character of sampled positions.
    bitvector:
        Node bitvector flavour of the BWT wavelet tree: ``"plain"``
        (default; kernel-vectorised batched ranks, ~``n * H0`` total node
        bits from the Huffman shape alone) or ``"rrr"`` (compressed nodes,
        scalar-speed ranks).

    Examples
    --------
    >>> fm = FMIndex("abracadabra")
    >>> fm.count("abra")
    2
    >>> fm.locate("abra")
    [0, 7]
    >>> fm.extract(4, 8)
    'cada'
    """

    def __init__(
        self, text: str = "", sa_sample: int = 32, bitvector: str = "plain"
    ) -> None:
        if not isinstance(text, str):
            raise TypeError(f"text must be str, got {type(text).__name__}")
        if sa_sample < 1:
            raise ValueError(f"sa_sample must be at least 1, got {sa_sample}")
        if bitvector not in _BWT_BITVECTORS:
            raise ValueError(
                f"unknown bitvector flavour {bitvector!r}; "
                f"choose from {sorted(_BWT_BITVECTORS)}"
            )
        alphabet = sorted(set(text))
        code_of = {char: code + 1 for code, char in enumerate(alphabet)}
        codes = [code_of[char] for char in text]
        codes.append(_TERMINATOR)
        order = suffix_array(codes)
        bwt = bwt_from_suffix_array(codes, order)
        rows = len(codes)
        marked_bits = [0] * rows
        samples: List[int] = []
        for row, position in enumerate(order):
            if position % sa_sample == 0:
                marked_bits[row] = 1
                samples.append(position)
        isa_samples = [0] * ((rows - 1) // sa_sample + 1)
        for row, position in enumerate(order):
            if position % sa_sample == 0:
                isa_samples[position // sa_sample] = row
        width = max(1, (rows - 1).bit_length())
        self._init_parts(
            len(text),
            "".join(alphabet),
            sa_sample,
            bitvector,
            HuffmanWaveletTree(
                bwt, bitvector_factory=_BWT_BITVECTORS[bitvector]
            ),
            RRRBitVector(marked_bits),
            PackedIntVector(width, samples),
            PackedIntVector(width, isa_samples),
        )

    def _init_parts(
        self,
        text_length: int,
        alphabet: str,
        sa_sample: int,
        bitvector: str,
        bwt_tree: HuffmanWaveletTree,
        marked: RRRBitVector,
        samples: PackedIntVector,
        isa_samples: PackedIntVector,
    ) -> None:
        self._bitvector_kind = bitvector
        self._text_length = text_length
        self._alphabet = alphabet
        self._code_of: Dict[str, int] = {
            char: code + 1 for code, char in enumerate(alphabet)
        }
        self._sa_sample = sa_sample
        self._bwt = bwt_tree
        self._marked = marked
        self._samples = samples
        self._isa_samples = isa_samples
        # C table: _c_table[c] = number of BWT symbols with code < c.
        counts = [0] * (len(alphabet) + 2)
        for code in range(len(alphabet) + 1):
            counts[code + 1] = counts[code] + bwt_tree.count(code)
        self._c_table = counts[: len(alphabet) + 1]

    @classmethod
    def _from_parts(
        cls,
        text_length: int,
        alphabet: str,
        sa_sample: int,
        bitvector: str,
        bwt_tree: HuffmanWaveletTree,
        marked: RRRBitVector,
        samples: PackedIntVector,
        isa_samples: PackedIntVector,
    ) -> "FMIndex":
        """Rebuild from stored parts without re-running suffix sorting."""
        self = cls.__new__(cls)
        self._init_parts(
            text_length,
            alphabet,
            sa_sample,
            bitvector,
            bwt_tree,
            marked,
            samples,
            isa_samples,
        )
        return self

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._text_length

    @property
    def text_length(self) -> int:
        """Characters in the indexed text (excluding the terminator)."""
        return self._text_length

    @property
    def sa_sample(self) -> int:
        """The suffix-array sampling rate (the space/time knob)."""
        return self._sa_sample

    @property
    def alphabet(self) -> str:
        """The distinct characters of the text, ascending."""
        return self._alphabet

    @property
    def bitvector_kind(self) -> str:
        """Node bitvector flavour of the BWT wavelet tree."""
        return self._bitvector_kind

    # ------------------------------------------------------------------
    # Backward search
    # ------------------------------------------------------------------
    def _check_pattern(self, pattern: str) -> None:
        if not isinstance(pattern, str):
            raise TypeError(
                f"pattern must be str, got {type(pattern).__name__}"
            )

    def _interval(self, pattern: str) -> Tuple[int, int]:
        """The suffix-array row interval of suffixes prefixed by ``pattern``.

        One batched backward step per character: both interval endpoints go
        through a single ``rank_many`` pair on the BWT wavelet tree.
        """
        low, high = 0, len(self._bwt)
        for char in reversed(pattern):
            code = self._code_of.get(char)
            if code is None:
                return (0, 0)
            base = self._c_table[code]
            low, high = self._bwt.rank_many(code, (low, high))
            low += base
            high += base
            if low >= high:
                return (0, 0)
        return (low, high)

    def _interval_scalar(self, pattern: str) -> Tuple[int, int]:
        """The unbatched backward search: two scalar ranks per character.

        Kept as the measured baseline of the batched path (see
        ``benchmarks/bench_search.py``); results are identical.
        """
        low, high = 0, len(self._bwt)
        for char in reversed(pattern):
            code = self._code_of.get(char)
            if code is None:
                return (0, 0)
            base = self._c_table[code]
            low = base + self._bwt.rank(code, low)
            high = base + self._bwt.rank(code, high)
            if low >= high:
                return (0, 0)
        return (low, high)

    def count(self, pattern: str) -> int:
        """Occurrences of ``pattern`` in the text (the empty pattern matches
        at every position, so it counts ``text_length + 1``)."""
        self._check_pattern(pattern)
        low, high = self._interval(pattern)
        return high - low

    def count_many(self, patterns: Sequence[str]) -> List[int]:
        """``count(pattern)`` for each pattern, batched across patterns.

        All backward searches advance in lock-step: at each step the live
        patterns are grouped by their next (rightmost unconsumed) character
        and every group issues **one** ``rank_many`` over both endpoints of
        every member, so the per-node wavelet walk is amortised over the
        whole group instead of paid per pattern -- ``O(distinct chars)``
        batched walks per step against ``2 q`` scalar walks.
        """
        for pattern in patterns:
            self._check_pattern(pattern)
        results: List[Optional[int]] = [None] * len(patterns)
        rows = len(self._bwt)
        live = [(slot, 0, rows) for slot in range(len(patterns))]
        step = 0
        while live:
            advancing: Dict[int, List[Tuple[int, int, int]]] = {}
            for slot, low, high in live:
                pattern = patterns[slot]
                if step == len(pattern):
                    results[slot] = high - low
                    continue
                code = self._code_of.get(pattern[len(pattern) - 1 - step])
                if code is None or low >= high:
                    results[slot] = 0
                    continue
                advancing.setdefault(code, []).append((slot, low, high))
            live = []
            for code, group in advancing.items():
                positions = [
                    endpoint for _, low, high in group for endpoint in (low, high)
                ]
                ranks = self._bwt.rank_many(code, positions)
                base = self._c_table[code]
                for index, (slot, _, _) in enumerate(group):
                    live.append(
                        (slot, base + ranks[2 * index], base + ranks[2 * index + 1])
                    )
            step += 1
        return results

    # ------------------------------------------------------------------
    # Locate / extract via the sampled suffix array
    # ------------------------------------------------------------------
    def locate(self, pattern: str) -> List[int]:
        """All occurrence positions of ``pattern``, ascending.

        Each of the ``occ`` matching rows walks the LF mapping until it hits
        a sampled row (< ``sa_sample`` steps, since LF decrements the text
        position and every ``sa_sample``-th position is sampled).  The walks
        advance together in rounds.  A round costs one batched
        ``access_many`` on the RRR marked-row vector (plus one
        ``rank_many`` over the rows it resolves), and one BWT
        ``access_many(..., ranks=True)`` descent.  That descent yields each
        live row's symbol ``c`` and ``rank(c, row)`` together, so
        ``LF(row) = C[c] + rank`` needs no second wavelet walk.  Against
        ``occ * sa_sample`` scalar walks, the work is amortised to at most
        ``sa_sample`` rounds of batched block decodes and node passes.
        """
        self._check_pattern(pattern)
        low, high = self._interval(pattern)
        positions: List[int] = []
        rows = list(range(low, high))
        # Every live row has taken the same number of LF steps.
        steps = 0
        c_table = self._c_table
        while rows:
            marks = self._marked.access_many(rows)
            if any(marks):
                samples = self._marked.rank_many(1, list(compress(rows, marks)))
                positions.extend(self._samples[sample] + steps for sample in samples)
                rows = [row for row, mark in zip(rows, marks) if not mark]
                if not rows:
                    break
            codes, ranks = self._bwt.access_many(rows, ranks=True)
            rows = [c_table[code] + rank for code, rank in zip(codes, ranks)]
            steps += 1
        return sorted(positions)

    def extract(self, start: int, stop: int) -> str:
        """The text slice ``[start, stop)``, decoded from the BWT.

        Starts at the nearest inverse-suffix-array sample at or after
        ``stop`` (the terminator row when ``stop`` is near the end) and
        walks LF backwards collecting characters, so the cost is
        ``stop - start + sa_sample`` LF steps.
        """
        length = self._text_length
        if not 0 <= start <= stop <= length:
            raise OutOfBoundsError(
                f"extract range [{start}, {stop}) invalid for text length {length}"
            )
        if start == stop:
            return ""
        sample = self._sa_sample
        anchor = ((stop + sample - 1) // sample) * sample
        if anchor >= length:
            # Suffix-array row 0 is always the terminator suffix (position
            # ``length``): the terminator code is the unique smallest.
            anchor, row = length, 0
        else:
            row = self._isa_samples[anchor // sample]
        alphabet = self._alphabet
        out: List[str] = []
        position = anchor
        while position > start:
            code = self._bwt.access(row)
            row = self._c_table[code] + self._bwt.rank(code, row)
            position -= 1
            if position < stop:
                out.append(alphabet[code - 1])
        out.reverse()
        return "".join(out)

    # ------------------------------------------------------------------
    def size_in_bits(self) -> int:
        """BWT wavelet tree + sampled-SA structures + the C table."""
        return (
            self._bwt.size_in_bits()
            + self._marked.size_in_bits()
            + self._samples.size_in_bits()
            + self._isa_samples.size_in_bits()
            + len(self._c_table) * 64
        )
