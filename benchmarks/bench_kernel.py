"""Microbenchmarks for the word-level bitops kernel -> BENCH_kernel.json.

Two families of sections:

* the legacy seed comparisons -- kernel-backed hot paths (pinned to the
  ``python`` backend for trajectory continuity) against faithful replicas of
  the seed implementation (per-bit in-word select scans, per-bit
  ``iter_range``, per-call rank loops, O(n^2) packing) on 1M-bit vectors;
* the ``rrr_batch`` section -- ``RRRBitVector.access_many``/``rank_many``
  against the scalar ``access``/``rank`` loop, one row per block class
  (every block of the vector holds that many ones) under every available
  backend, plus the kernel's ``decode_rrr_blocks`` against
  ``combinatorial_unrank`` per class.  Batch and scalar answers are
  cross-checked first, so this section is a differential check on every
  CI leg, numpy-free included;
* the ``backends`` section -- the python and numpy kernel backends side by
  side on the same inputs, per contract function.  Each backend is measured
  at its *native boundary* (python: list in / list out; numpy: word/query
  arrays in, arrays out -- the form vectorised callers use); for the batch
  queries the numpy backend's list-boundary number is recorded too, so the
  cost of crossing containers is visible.  Every section cross-checks the
  two backends' answers for equality first, so the benchmark doubles as a
  differential correctness harness.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_kernel.py            # full, writes BENCH_kernel.json
    PYTHONPATH=src python benchmarks/bench_kernel.py --quick    # small sizes, no file

The quick mode is also invoked from the test suite
(``tests/integration/test_bench_kernel_quick.py``) and via
``make bench-kernel-quick``, so the harness cannot silently break.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from bisect import bisect_right
from math import comb
from pathlib import Path
from typing import Dict, Iterator, List

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:  # allow running without PYTHONPATH
    sys.path.insert(0, str(SRC))

from repro.bits import kernel
from repro.bits.bitstring import Bits
from repro.bits.codes import combinatorial_unrank
from repro.bitvector.plain import PlainBitVector
from repro.bitvector.rrr import RRRBitVector
from repro.wavelet.wavelet_tree import WaveletTree

_WORD = 64
_WORD_MASK = (1 << _WORD) - 1


# ----------------------------------------------------------------------
# Seed replicas (the pre-kernel implementation, verbatim algorithms)
# ----------------------------------------------------------------------
def seed_bits_from_iterable(bits) -> Bits:
    """The seed ``Bits.from_iterable``: one growing big-int shift per bit."""
    value = 0
    length = 0
    for bit in bits:
        value = (value << 1) | (1 if bit else 0)
        length += 1
    return Bits(value, length)


class SeedPlainBitVector:
    """The seed ``PlainBitVector``: per-word cumulative directory, per-bit
    in-word select scan, per-bit ``iter_range``."""

    __slots__ = ("_words", "_length", "_cum_ones")

    def __init__(self, bits: Bits) -> None:
        self._length = len(bits)
        value = bits.value
        remaining = self._length
        chunks: List[int] = []
        while remaining >= _WORD:
            remaining -= _WORD
            chunks.append((value >> remaining) & _WORD_MASK)
        if remaining:
            chunks.append((value & ((1 << remaining) - 1)) << (_WORD - remaining))
        self._words = chunks
        self._finish_directory()

    @classmethod
    def from_words(cls, words: List[int], length: int) -> "SeedPlainBitVector":
        """Bypass the quadratic packer so 1M-bit query benchmarks stay cheap
        to set up; the query paths are byte-for-byte the seed algorithms."""
        self = cls.__new__(cls)
        self._words = list(words)
        self._length = length
        self._finish_directory()
        return self

    def _finish_directory(self) -> None:
        cum = 0
        self._cum_ones: List[int] = []
        for word in self._words:
            self._cum_ones.append(cum)
            cum += word.bit_count()
        self._cum_ones.append(cum)

    def __len__(self) -> int:
        return self._length

    # The seed's base-class validation, kept verbatim so per-call overhead is
    # identical to what the seed actually paid.
    def _check_pos(self, pos):
        if not 0 <= pos < len(self):
            raise IndexError(pos)

    def _check_rank_pos(self, pos):
        if not 0 <= pos <= len(self):
            raise IndexError(pos)

    @staticmethod
    def _check_bit(bit):
        if bit not in (0, 1):
            raise ValueError(bit)
        return bit

    @property
    def ones(self) -> int:
        return self._cum_ones[-1]

    def count(self, bit: int) -> int:
        return self.ones if bit else self._length - self.ones

    def access(self, pos: int) -> int:
        self._check_pos(pos)
        word_index, offset = divmod(pos, _WORD)
        return (self._words[word_index] >> (_WORD - 1 - offset)) & 1

    def rank(self, bit: int, pos: int) -> int:
        self._check_bit(bit)
        self._check_rank_pos(pos)
        word_index, offset = divmod(pos, _WORD)
        ones = self._cum_ones[word_index]
        if offset:
            word = self._words[word_index]
            ones += (word >> (_WORD - offset)).bit_count()
        return ones if bit else pos - ones

    def select(self, bit: int, idx: int) -> int:
        self._check_bit(bit)
        total = self.count(bit)
        if not 0 <= idx < total:
            raise IndexError(idx)
        if bit:
            word_index = bisect_right(self._cum_ones, idx) - 1
            seen = self._cum_ones[word_index]
        else:
            lo, hi = 0, len(self._words)
            while lo < hi:
                mid = (lo + hi + 1) // 2
                zeros_before = min(mid * _WORD, self._length) - self._cum_ones[mid]
                if zeros_before <= idx:
                    lo = mid
                else:
                    hi = mid - 1
            word_index = lo
            seen = word_index * _WORD - self._cum_ones[word_index]
        word = self._words[word_index]
        base = word_index * _WORD
        limit = min(_WORD, self._length - base)
        for offset in range(limit):
            value = (word >> (_WORD - 1 - offset)) & 1
            if value == bit:
                if seen == idx:
                    return base + offset
                seen += 1
        raise AssertionError("select directory inconsistent")

    def iter_range(self, start: int, stop: int) -> Iterator[int]:
        pos = start
        while pos < stop:
            word_index, offset = divmod(pos, _WORD)
            word = self._words[word_index]
            upper = min(stop, (word_index + 1) * _WORD)
            for local in range(offset, offset + (upper - pos)):
                yield (word >> (_WORD - 1 - local)) & 1
            pos = upper


class SeedQueryRRR(RRRBitVector):
    """A kernel-built RRR vector queried with the seed's algorithms.

    Construction reuses the current encoder (identical payload); ``rank``
    runs the seed's query path verbatim: per-block class-list walk, one
    big-int slice of the whole offset stream per decode, full-block
    ``combinatorial_unrank`` then a shifted popcount.
    """

    __slots__ = ("_offsets_bits",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._offsets_bits = Bits(
            kernel.unpack_value(self._offset_words, self._offset_len),
            self._offset_len,
        )

    def _seed_decode(self, block_index, offset_pos):
        cls = self._class_list[block_index]
        off_w = self._width_by_class[cls]
        if off_w == 0:
            return ((1 << self._block_size) - 1) if cls == self._block_size else 0
        offset_value = self._offsets_bits.slice(offset_pos, offset_pos + off_w).value
        return combinatorial_unrank(offset_value, self._block_size, cls)

    def _seed_walk(self, block_index):
        sample_index = block_index // self._sample_rate
        rank_before = self._sample_rank[sample_index]
        offset_pos = self._sample_offset_pos[sample_index]
        widths = self._width_by_class
        classes = self._class_list
        current = sample_index * self._sample_rate
        while current < block_index:
            cls = classes[current]
            rank_before += cls
            offset_pos += widths[cls]
            current += 1
        return rank_before, offset_pos

    def rank(self, bit, pos):
        self._check_bit(bit)
        self._check_rank_pos(pos)
        if pos == 0:
            return 0
        block_index, offset = divmod(pos, self._block_size)
        if block_index >= len(self._class_list):
            ones = self._ones
            return ones if bit else pos - ones
        rank_before, offset_pos = self._seed_walk(block_index)
        ones = rank_before
        if offset:
            value = self._seed_decode(block_index, offset_pos)
            ones += (value >> (self._block_size - offset)).bit_count()
        return ones if bit else pos - ones


def seed_wavelet_build(data: List[int], alphabet_size: int) -> object:
    """The seed ``WaveletTree`` construction: per-element recursion with the
    quadratic ``Bits.from_iterable`` + quadratic word packing inside every
    node bitvector."""

    def build(symbols: List[int], low: int, high: int):
        if high - low <= 1 or not symbols:
            return (low, high, None, None, None)
        mid = (low + high) // 2
        bits = [1 if symbol >= mid else 0 for symbol in symbols]
        vector = SeedPlainBitVector(seed_bits_from_iterable(bits))
        left = build([s for s in symbols if s < mid], low, mid)
        right = build([s for s in symbols if s >= mid], mid, high)
        return (low, high, vector, left, right)

    return build(data, 0, alphabet_size)


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def _best_time(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _entry(ops: int, seed_seconds: float, kernel_seconds: float) -> Dict[str, float]:
    return {
        "ops": ops,
        "seed_ops_per_sec": round(ops / seed_seconds, 1),
        "kernel_ops_per_sec": round(ops / kernel_seconds, 1),
        "speedup": round(seed_seconds / kernel_seconds, 2),
    }


def run(quick: bool = False, repeats: int = 3) -> Dict[str, object]:
    """Run every microbenchmark; returns the BENCH_kernel.json payload.

    The legacy seed-comparison sections run pinned to the ``python`` kernel
    backend (so their trajectory stays comparable across PRs); the
    ``backends`` section then measures both backends side by side.
    """
    previous_backend = kernel.use_backend("python")
    try:
        payload = _run_seed_sections(quick, repeats)
    finally:
        kernel.use_backend(previous_backend)
    payload["rrr_batch"] = _run_rrr_batch_sections(quick, repeats)
    payload["backends"] = _run_backend_sections(quick, repeats)
    return payload


def _run_seed_sections(quick: bool, repeats: int) -> Dict[str, object]:
    """The seed-replica comparisons (python backend pinned by the caller)."""
    n_bits = 100_000 if quick else 1_000_000
    n_select = 400 if quick else 2_000
    n_rank = 2_000 if quick else 20_000
    n_access = 2_000 if quick else 20_000
    wt_n = 4_000 if quick else 30_000
    wt_sigma = 64

    rng = random.Random(20260727)
    payload = Bits.from_bytes(rng.randbytes(n_bits // 8))
    assert len(payload) == n_bits

    kernel_vector = PlainBitVector(payload)
    seed_vector = SeedPlainBitVector.from_words(kernel_vector._words, n_bits)

    results: Dict[str, Dict[str, float]] = {}

    # select: word-skipping directory + table-driven in-word select vs the
    # seed's per-bit in-word scan.
    ones = kernel_vector.ones
    zeros = n_bits - ones
    select_queries = [(1, rng.randrange(ones)) for _ in range(n_select // 2)]
    select_queries += [(0, rng.randrange(zeros)) for _ in range(n_select // 2)]
    seed_answers = [seed_vector.select(b, i) for b, i in select_queries]
    kernel_answers = [kernel_vector.select(b, i) for b, i in select_queries]
    assert seed_answers == kernel_answers, "select mismatch vs seed"
    seed_time = _best_time(
        lambda: [seed_vector.select(b, i) for b, i in select_queries], repeats
    )
    kernel_time = _best_time(
        lambda: [kernel_vector.select(b, i) for b, i in select_queries], repeats
    )
    results["select"] = _entry(len(select_queries), seed_time, kernel_time)

    # rank, on the paper's default compressed bitvector (RRR): truncated
    # enumeration descent + O(1) packed offset extraction vs the seed's
    # full-block decode over one big-int offset stream.
    n_rank_rrr = max(100, n_rank // 50)
    rrr_kernel = RRRBitVector(payload)
    rrr_seed = SeedQueryRRR(payload)
    rrr_positions = [rng.randrange(n_bits + 1) for _ in range(n_rank_rrr)]
    assert [rrr_kernel.rank(1, p) for p in rrr_positions] == [
        rrr_seed.rank(1, p) for p in rrr_positions
    ], "RRR rank mismatch vs seed"
    seed_time = _best_time(
        lambda: [rrr_seed.rank(1, p) for p in rrr_positions], repeats
    )
    kernel_time = _best_time(
        lambda: [rrr_kernel.rank(1, p) for p in rrr_positions], repeats
    )
    results["rank"] = _entry(n_rank_rrr, seed_time, kernel_time)
    results["rank"]["path"] = "RRRBitVector.rank (static trie default)"

    # rank on the plain vector: the new batch path vs the seed's per-call
    # loop.  The per-item floor of the CPython interpreter keeps this one
    # below the RRR gain; recorded for transparency.
    rank_positions = [rng.randrange(n_bits + 1) for _ in range(n_rank)]
    assert kernel_vector.rank_many(1, rank_positions) == [
        seed_vector.rank(1, p) for p in rank_positions
    ], "rank mismatch vs seed"
    seed_time = _best_time(
        lambda: [seed_vector.rank(1, p) for p in rank_positions], repeats
    )
    kernel_time = _best_time(
        lambda: kernel_vector.rank_many(1, rank_positions), repeats
    )
    results["rank_plain_batch"] = _entry(n_rank, seed_time, kernel_time)

    # access: batch access_many vs the seed's per-call loop.
    access_positions = [rng.randrange(n_bits) for _ in range(n_access)]
    assert kernel_vector.access_many(access_positions) == [
        seed_vector.access(p) for p in access_positions
    ], "access mismatch vs seed"
    seed_time = _best_time(
        lambda: [seed_vector.access(p) for p in access_positions], repeats
    )
    kernel_time = _best_time(
        lambda: kernel_vector.access_many(access_positions), repeats
    )
    results["access"] = _entry(n_access, seed_time, kernel_time)

    # iter_range: byte-table broadword decoding vs the seed's per-bit yields.
    span = n_bits - 7  # unaligned on purpose
    assert list(kernel_vector.iter_range(3, span)) == list(
        seed_vector.iter_range(3, span)
    ), "iter_range mismatch vs seed"
    seed_time = _best_time(lambda: sum(seed_vector.iter_range(3, span)), repeats)
    kernel_time = _best_time(
        lambda: sum(kernel_vector.iter_range(3, span)), repeats
    )
    results["iter_range"] = _entry(span - 3, seed_time, kernel_time)

    # wavelet-tree build: broadside construction over linear packers vs the
    # seed's recursion over quadratic Bits accumulation.
    wt_data = [rng.randrange(wt_sigma) for _ in range(wt_n)]
    seed_time = _best_time(
        lambda: seed_wavelet_build(wt_data, wt_sigma), repeats
    )
    kernel_time = _best_time(
        lambda: WaveletTree(wt_data, alphabet_size=wt_sigma, bitvector="plain"),
        repeats,
    )
    results["wavelet_build"] = _entry(wt_n, seed_time, kernel_time)

    return {
        "benchmark": "bench_kernel",
        "quick": quick,
        "n_bits": n_bits,
        "wavelet": {"n": wt_n, "sigma": wt_sigma},
        "python": sys.version.split()[0],
        "results": results,
    }


# ----------------------------------------------------------------------
# RRR batch read paths, per block class and backend
# ----------------------------------------------------------------------
RRR_CLASSES = (1, 2, 8, 31)


def _class_bits(rng: random.Random, n_blocks: int, cls: int, block_size: int = 63):
    """Bits whose every ``block_size``-bit block holds exactly ``cls`` ones."""
    bits: List[int] = []
    for _ in range(n_blocks):
        block = [0] * block_size
        for pos in rng.sample(range(block_size), cls):
            block[pos] = 1
        bits.extend(block)
    return bits


def _run_rrr_batch_sections(quick: bool, repeats: int) -> Dict[str, object]:
    """RRR batch access/rank vs the scalar loop, per class and backend.

    Rows ``rrr_access_many`` and ``rrr_rank_many`` hold one entry per block
    class; each entry records, per available backend, the scalar-loop and
    batch rates over the same random positions (``q`` queries over
    ``n_blocks`` blocks), after asserting both answer identically.  The
    ``decode`` row times ``decode_rrr_blocks`` against
    ``combinatorial_unrank`` on the same ``(class, offset)`` pairs.
    """
    n_blocks = 300 if quick else 3_000
    n_queries = 600 if quick else 20_000
    rng = random.Random(20261017)
    backends = list(kernel.available_backends())
    rows: Dict[str, Dict[str, object]] = {
        "rrr_access_many": {},
        "rrr_rank_many": {},
        "decode": {},
    }
    for cls in RRR_CLASSES:
        bits = _class_bits(rng, n_blocks, cls)
        length = len(bits)
        access_positions = [rng.randrange(length) for _ in range(n_queries)]
        rank_positions = [rng.randrange(length + 1) for _ in range(n_queries)]
        cases = {
            "rrr_access_many": (
                access_positions,
                lambda v, ps: [v.access(p) for p in ps],
                lambda v, ps: v.access_many(ps),
            ),
            "rrr_rank_many": (
                rank_positions,
                lambda v, ps: [v.rank(1, p) for p in ps],
                lambda v, ps: v.rank_many(1, ps),
            ),
        }
        for row, (positions, scalar_fn, batch_fn) in cases.items():
            entry: Dict[str, object] = {"ops": n_queries, "n_blocks": n_blocks}
            for backend in backends:
                previous = kernel.use_backend(backend)
                try:
                    vector = RRRBitVector(bits)
                finally:
                    kernel.use_backend(previous)
                scalar, scalar_t = _timed_under_backend(
                    backend, lambda: scalar_fn(vector, positions), repeats
                )
                batch, batch_t = _timed_under_backend(
                    backend, lambda: batch_fn(vector, positions), repeats
                )
                assert batch == scalar, f"{row} class {cls} mismatch ({backend})"
                entry[backend] = {
                    "scalar_ops_per_sec": round(n_queries / scalar_t, 1),
                    "batch_ops_per_sec": round(n_queries / batch_t, 1),
                    "speedup": round(scalar_t / batch_t, 2),
                }
            rows[row][f"class_{cls}"] = entry

        offsets = [rng.randrange(comb(63, cls)) for _ in range(n_queries)]
        classes = [cls] * n_queries
        expected = [combinatorial_unrank(offset, 63, cls) for offset in offsets]
        unrank_t = _best_time(
            lambda: [combinatorial_unrank(offset, 63, cls) for offset in offsets],
            repeats,
        )
        entry = {
            "ops": n_queries,
            "unrank_blocks_per_sec": round(n_queries / unrank_t, 1),
        }
        for backend in backends:
            decoded, decode_t = _timed_under_backend(
                backend,
                lambda: kernel.decode_rrr_blocks(63, classes, offsets),
                repeats,
            )
            assert decoded == expected, f"decode class {cls} mismatch ({backend})"
            entry[backend] = {
                "decode_blocks_per_sec": round(n_queries / decode_t, 1),
                "speedup": round(unrank_t / decode_t, 2),
            }
        rows["decode"][f"class_{cls}"] = entry
    return {"block_size": 63, "backends": backends, "rows": rows}


# ----------------------------------------------------------------------
# Backend-vs-backend sections (python vs numpy on identical inputs)
# ----------------------------------------------------------------------
def _timed_under_backend(backend: str, fn, repeats: int):
    """Best-of-N timing of ``fn`` with ``backend`` active; returns (result, s).

    The timed runs double as the result runs -- ``fn`` executes exactly
    ``repeats`` times, never an extra warm-up pass.
    """
    previous = kernel.use_backend(backend)
    try:
        best = float("inf")
        result = None
        for _ in range(repeats):
            started = time.perf_counter()
            result = fn()
            best = min(best, time.perf_counter() - started)
        return result, best
    finally:
        kernel.use_backend(previous)


def _backend_entry(
    ops: int, python_seconds: float, numpy_seconds: float, **extra
) -> Dict[str, float]:
    entry = {
        "ops": ops,
        "python_ops_per_sec": round(ops / python_seconds, 1),
        "numpy_ops_per_sec": round(ops / numpy_seconds, 1),
        "numpy_speedup": round(python_seconds / numpy_seconds, 2),
    }
    entry.update(extra)
    return entry


def _run_backend_sections(quick: bool, repeats: int) -> Dict[str, object]:
    """Measure both kernel backends side by side on identical inputs.

    Returns the ``backends`` payload; when numpy is unavailable only the
    availability list is recorded.  Each backend runs at its native
    container boundary (see the module docstring); the batch queries also
    record the numpy backend fed plain lists.
    """
    available = list(kernel.available_backends())
    payload: Dict[str, object] = {
        "available": available,
        "boundary": (
            "python: lists in/out; numpy: uint64/int64 arrays in/out "
            "(native boundary); *_list entries feed the numpy backend "
            "python lists instead"
        ),
    }
    if "numpy" not in available:
        return payload
    import numpy as np

    n_bits = 100_000 if quick else 1_000_000
    n_queries = 2_000 if quick else 20_000
    n_select = 400 if quick else 2_000
    wt_n = 4_000 if quick else 30_000
    wt_sigma = 64

    rng = random.Random(20260728)
    payload_bits = Bits.from_bytes(rng.randbytes(n_bits // 8))
    words = kernel.pack_value(payload_bits.value, n_bits)
    words_arr = np.asarray(words, dtype=np.uint64)
    results: Dict[str, Dict[str, float]] = {}

    # pack_bits: one million python ints -> packed words.  The list boundary
    # is the dominant cost for numpy, so both boundaries are recorded.
    bit_list = [rng.randint(0, 1) for _ in range(n_bits)]
    bit_arr = np.asarray(bit_list, dtype=np.uint8)
    (py_words, py_len), py_t = _timed_under_backend(
        "python", lambda: kernel.pack_bits(bit_list), repeats
    )
    (np_words, np_len), np_t = _timed_under_backend(
        "numpy", lambda: kernel.pack_bits(bit_arr), repeats
    )
    _, np_list_t = _timed_under_backend(
        "numpy", lambda: kernel.pack_bits(bit_list), repeats
    )
    assert py_len == np_len and py_words == kernel.as_int_list(np_words)
    results["pack_bits"] = _backend_entry(
        n_bits,
        py_t,
        np_t,
        numpy_list_ops_per_sec=round(n_bits / np_list_t, 1),
        numpy_list_speedup=round(py_t / np_list_t, 2),
    )

    # Bulk rank-directory build: the full two-level directory plus the flat
    # cumulatives every batch path runs on, from the packed words.
    def build_directory(word_seq):
        super_cum, word_pop, word_cum = kernel.build_rank_directory(word_seq)
        abs_cum, zero_cum = kernel.cumulative_popcounts(word_pop, n_bits)
        return super_cum, word_pop, word_cum, abs_cum, zero_cum

    py_dir, py_t = _timed_under_backend(
        "python", lambda: build_directory(words), repeats
    )
    np_dir, np_t = _timed_under_backend(
        "numpy", lambda: build_directory(words_arr), repeats
    )
    _, np_list_t = _timed_under_backend(
        "numpy", lambda: build_directory(words), repeats
    )
    assert py_dir[1] == np_dir[1]
    for py_part, np_part in zip(py_dir, np_dir):
        if py_part is not np_part:
            assert kernel.as_int_list(py_part) == kernel.as_int_list(np_part)
    results["directory_build"] = _backend_entry(
        len(words),
        py_t,
        np_t,
        numpy_list_ops_per_sec=round(len(words) / np_list_t, 1),
        numpy_list_speedup=round(py_t / np_list_t, 2),
    )

    # Batched directory lookups: rank_many / access_many / select_many over
    # a prepared handle (prepared once, like a constructed bitvector).
    _, _, _, abs_cum, zero_cum = py_dir
    positions = [rng.randrange(n_bits + 1) for _ in range(n_queries)]
    access_positions = [rng.randrange(n_bits) for _ in range(n_queries)]
    pos_arr = np.asarray(positions, dtype=np.int64)
    access_arr = np.asarray(access_positions, dtype=np.int64)
    ones_total = abs_cum[-1]
    zeros_total = zero_cum[-1]
    sel_ones = [rng.randrange(ones_total) for _ in range(n_select)]
    sel_zeros = [rng.randrange(zeros_total) for _ in range(n_select)]
    sel_ones_arr = np.asarray(sel_ones, dtype=np.int64)

    previous = kernel.use_backend("python")
    py_handle = kernel.prepare_rank_select(words, n_bits, abs_cum, zero_cum)
    kernel.use_backend("numpy")
    np_handle = kernel.prepare_rank_select(
        words_arr, n_bits, abs_cum, zero_cum
    )
    kernel.use_backend(previous)

    def section(name, ops, py_fn, np_fn, np_list_fn):
        py_res, py_t = _timed_under_backend("python", py_fn, repeats)
        np_res, np_t = _timed_under_backend("numpy", np_fn, repeats)
        _, np_list_t = _timed_under_backend("numpy", np_list_fn, repeats)
        assert py_res == kernel.as_int_list(np_res), f"{name} mismatch"
        results[name] = _backend_entry(
            ops,
            py_t,
            np_t,
            numpy_list_ops_per_sec=round(ops / np_list_t, 1),
            numpy_list_speedup=round(py_t / np_list_t, 2),
        )

    section(
        "rank_many",
        n_queries,
        lambda: kernel.rank_many_packed(py_handle, 1, positions),
        lambda: kernel.rank_many_packed(np_handle, 1, pos_arr),
        lambda: kernel.rank_many_packed(np_handle, 1, positions),
    )
    section(
        "access_many",
        n_queries,
        lambda: kernel.access_many_packed(py_handle, access_positions),
        lambda: kernel.access_many_packed(np_handle, access_arr),
        lambda: kernel.access_many_packed(np_handle, access_positions),
    )
    section(
        "select_many",
        n_select,
        lambda: kernel.select_many_packed(py_handle, 1, sel_ones),
        lambda: kernel.select_many_packed(np_handle, 1, sel_ones_arr),
        lambda: kernel.select_many_packed(np_handle, 1, sel_ones),
    )
    # Zero-select correctness across the width-masked final word.
    py_zero, _ = _timed_under_backend(
        "python", lambda: kernel.select_many_packed(py_handle, 0, sel_zeros), 1
    )
    np_zero, _ = _timed_under_backend(
        "numpy", lambda: kernel.select_many_packed(np_handle, 0, sel_zeros), 1
    )
    assert py_zero == kernel.as_int_list(np_zero), "select_many(0) mismatch"

    # Whole-structure wavelet build (list boundary on both sides): the
    # partition_by_pivot + from_words construction path end to end.
    wt_data = [rng.randrange(wt_sigma) for _ in range(wt_n)]
    py_tree, py_t = _timed_under_backend(
        "python",
        lambda: WaveletTree(wt_data, alphabet_size=wt_sigma, bitvector="plain"),
        repeats,
    )
    np_tree, np_t = _timed_under_backend(
        "numpy",
        lambda: WaveletTree(wt_data, alphabet_size=wt_sigma, bitvector="plain"),
        repeats,
    )
    probe = [rng.randrange(wt_n) for _ in range(200)]
    assert py_tree.access_many(probe) == list(np_tree.access_many(probe))
    results["wavelet_build"] = _backend_entry(wt_n, py_t, np_t)

    payload["n_bits"] = n_bits
    payload["results"] = results
    return payload


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="small sizes, do not write JSON"
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_kernel.json",
        help="where to write the JSON payload (full mode only)",
    )
    args = parser.parse_args(argv)
    payload = run(quick=args.quick)
    rendered = json.dumps(payload, indent=2, sort_keys=True)
    print(rendered)
    if not args.quick:
        args.output.write_text(rendered + "\n")
        print(f"\nwrote {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
