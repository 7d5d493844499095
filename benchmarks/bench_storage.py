"""Cold-open benchmark: RWT1 logical load vs RWT2 mmap open -> BENCH_storage.json.

The claim under test is the tentpole property of the frozen-image container:
opening an RWT2 file costs O(header) -- no word array is read, decoded or
copied -- so the cold-open latency is (a) orders of magnitude below the RWT1
decode-and-rebuild path and (b) roughly flat as the index grows 1M -> 10M
elements, while resident memory after open stays near the interpreter
baseline because pages fault in lazily.  Those sizes use a 16-value
vocabulary; the **high-cardinality case** (``high_cardinality`` in the
payload) images a URL-log trie with tens of thousands of distinct values
(100k rows in full mode, 3k in quick mode) and records the RWT2 file size,
section count, header size and cold-open latency next to the RWT1 size --
the image holds one section per element kind, so the section count stays
at most 4 however many trie nodes there are (the quick mode asserts it).

Index construction at 10M elements is made affordable by *tiling*: for a
fixed vocabulary, the node bitvectors of a k-fold repeated value sequence
are exactly the k-fold concatenation of the base sequence's node bitvectors
(the Patricia topology depends only on the value *set*), so the benchmark
builds a base trie once and replicates each node bitvector with O(log k)
big-int shifts instead of running the builder over 10M values.  The tiled
trie is cross-checked against a directly-built trie at small size.

Measurements per size:

* in-process ``save``/``load`` (RWT1, 1M only -- the rebuild is the
  baseline) and ``save_image``/``open_image`` (RWT2) wall times, plus a
  first-query probe after open;
* cold-open in a **fresh subprocess** (full mode): open latency and
  ``ru_maxrss`` straight after open and after a query sweep, RWT1 vs RWT2;
* **multi-process shared page cache** (full mode): four concurrent fresh
  interpreters serving the same file -- mmap'd RWT2 readers share the word
  arrays through the kernel page cache while RWT1 readers each decode a
  private heap, so the aggregate RSS ratio grows with the reader count;
* differential equality: the image opened under *every available kernel
  backend* must answer a query sample identically to the in-memory
  original (and to the RWT1-rebuilt copy where one exists).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_storage.py            # full, writes BENCH_storage.json
    PYTHONPATH=src python benchmarks/bench_storage.py --quick    # small sizes, no file

The quick mode is also invoked from the test suite
(``tests/integration/test_bench_storage_quick.py``) and via
``make bench-storage-quick``, so the harness cannot silently break.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:  # allow running without PYTHONPATH
    sys.path.insert(0, str(SRC))

from repro.bits import kernel
from repro.bits.bitstring import Bits
from repro.bitvector.rrr import RRRBitVector
from repro.core.node import WaveletTrieNode
from repro.core.static import WaveletTrie
from repro.storage import load, open_image, save, save_image
from repro.storage.image import FrozenImage
from repro.storage.serializers import _bitvector_content
from repro.workloads.urls import UrlLogGenerator

_VOCAB = [f"/d{i // 4}/p{i % 4}" for i in range(16)]


def _values(count: int, seed: int = 1234) -> List[str]:
    rng = random.Random(seed)
    return [_VOCAB[rng.randrange(len(_VOCAB))] for _ in range(count)]


# ----------------------------------------------------------------------
# Tiled construction
# ----------------------------------------------------------------------
def _repeat_bits(bits: Bits, k: int) -> Bits:
    """``bits`` concatenated with itself ``k`` times, in O(log k) shifts."""
    result_value, result_length = 0, 0
    base_value, base_length = bits.value, len(bits)
    while k:
        if k & 1:
            result_value = (result_value << base_length) | base_value
            result_length += base_length
        k >>= 1
        if k:
            base_value = (base_value << base_length) | base_value
            base_length *= 2
    return Bits(result_value, result_length)


def tiled_trie(base: WaveletTrie, k: int) -> WaveletTrie:
    """The static trie indexing the base sequence repeated ``k`` times.

    Clones the topology and replaces each internal node's bitvector with the
    RRR encoding of its k-fold tiling (the builder never sees the repeated
    sequence).  ``base`` may use any node-bitvector kind; the result is RRR.
    """
    tiled = WaveletTrie([], codec=base.codec, bitvector="rrr")
    tiled._size = len(base) * k
    root = base.root
    if root is None:
        return tiled

    def clone(node):
        if node.is_leaf:
            return WaveletTrieNode(node.label)
        content = _bitvector_content(node.bitvector)
        return WaveletTrieNode(node.label, RRRBitVector(_repeat_bits(content, k)))

    root_clone = clone(root)
    stack = [(root, root_clone)]
    while stack:
        original, copy = stack.pop()
        if original.is_leaf:
            continue
        for bit in (0, 1):
            child = original.children[bit]
            child_copy = clone(child)
            copy.attach(bit, child_copy)
            stack.append((child, child_copy))
    tiled._root = root_clone
    return tiled


# ----------------------------------------------------------------------
# Probes
# ----------------------------------------------------------------------
def _probe_positions(n: int, count: int = 200) -> List[int]:
    rng = random.Random(99)
    return [rng.randrange(n) for _ in range(count)]


def _query_sample(trie, positions: List[int]):
    """A deterministic query fingerprint: access + rank + prefix count."""
    accessed = [trie.access(position) for position in positions]
    value = _VOCAB[0]
    return (
        accessed,
        trie.rank(value, len(trie)),
        trie.count_prefix("/d0"),
    )


def _timed(fn, repeats: int):
    best = None
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return result, best


# ----------------------------------------------------------------------
# Subprocess cold-open (full mode)
# ----------------------------------------------------------------------
_COLD_SCRIPT = """
import json, resource, sys, time

def rss_kb():
    # Current resident set (not the ru_maxrss peak, which the interpreter +
    # numpy import dominates); falls back to the peak off Linux.
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

sys.path.insert(0, {src!r})
from repro.storage import load, open_image
rss_baseline = rss_kb()
started = time.perf_counter()
index = {open_call}({path!r})
open_s = time.perf_counter() - started
rss_after_open = rss_kb()
started = time.perf_counter()
probe = [index.access(position) for position in range(0, len(index), max(1, len(index) // 200))]
query_s = time.perf_counter() - started
rss_after_queries = rss_kb()
print(json.dumps({{
    "open_s": open_s,
    "first_queries_s": query_s,
    "rss_baseline_kb": rss_baseline,
    "rss_open_delta_kb": rss_after_open - rss_baseline,
    "rss_queries_delta_kb": rss_after_queries - rss_baseline,
    "elements": len(index),
}}))
"""


def _cold_open(path: Path, open_call: str) -> Dict[str, float]:
    """Open ``path`` in a fresh interpreter; report latency and peak RSS."""
    script = _COLD_SCRIPT.format(src=str(SRC), open_call=open_call, path=str(path))
    completed = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    return json.loads(completed.stdout)


def _shared_page_cache(path: Path, open_call: str, workers: int = 4) -> Dict[str, object]:
    """``workers`` concurrent fresh interpreters over the *same* file.

    For the mmap'd RWT2 image the kernel page cache holds the word arrays
    once, so every process beyond the first opens against warm pages and its
    private heap stays near the interpreter baseline; RWT1 readers each
    decode into their own heap, multiplying resident memory per reader.
    Reports per-process open latency and RSS deltas after a query sweep.
    """
    script = _COLD_SCRIPT.format(src=str(SRC), open_call=open_call, path=str(path))
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for _ in range(workers)
    ]
    rows = []
    for proc in procs:
        stdout, stderr = proc.communicate()
        if proc.returncode:
            raise RuntimeError(f"shared-cache worker failed: {stderr}")
        rows.append(json.loads(stdout))
    return {
        "workers": workers,
        "open_s_max": round(max(row["open_s"] for row in rows), 4),
        "open_s_mean": round(sum(row["open_s"] for row in rows) / workers, 4),
        "rss_queries_delta_kb_per_worker": [
            row["rss_queries_delta_kb"] for row in rows
        ],
        "rss_queries_delta_kb_total": sum(row["rss_queries_delta_kb"] for row in rows),
    }


# ----------------------------------------------------------------------
# High-cardinality case
# ----------------------------------------------------------------------
def _url_sample(trie, rows: List[str], positions: List[int]):
    """Query fingerprint for the URL-log trie: access + rank + prefix count."""
    return (
        [trie.access(position) for position in positions],
        trie.rank(rows[0], len(trie)),
        trie.count_prefix(rows[0][:12]),
    )


def high_cardinality(quick: bool, workdir: Path, repeats: int) -> Dict[str, object]:
    """Image a URL-log trie at high cardinality; RWT2 layout vs RWT1 size."""
    rows = UrlLogGenerator(seed=3).generate(3_000 if quick else 100_000)
    entry: Dict[str, object] = {"elements": len(rows), "distinct": len(set(rows))}
    started = time.perf_counter()
    trie = WaveletTrie(rows)
    entry["build_s"] = round(time.perf_counter() - started, 3)
    positions = _probe_positions(len(rows))
    expected = _url_sample(trie, rows, positions)

    image_path = workdir / "urls.rwt2"
    _, save_image_s = _timed(lambda: save_image(trie, image_path), 1)
    data = image_path.read_bytes()
    image = FrozenImage(data)
    entry["rwt2_bytes"] = len(data)
    entry["rwt2_sections"] = len(image.section_names())
    entry["rwt2_header_bytes"] = 20 + int.from_bytes(data[8:16], "little")
    entry["rwt2_payload_bytes"] = sum(
        len(image.section(name)) for name in image.section_names()
    )
    entry["rwt2_save_s"] = round(save_image_s, 4)
    _, open_s = _timed(lambda: open_image(image_path), repeats)
    entry["rwt2_open_s"] = round(open_s, 6)
    for backend in kernel.available_backends():
        previous = kernel.use_backend(backend)
        try:
            assert _url_sample(open_image(image_path), rows, positions) == expected, (
                f"high-cardinality image mismatch under {backend} backend"
            )
        finally:
            kernel.use_backend(previous)

    rwt1_path = workdir / "urls.rwt1"
    _, save_s = _timed(lambda: save(trie, rwt1_path), 1)
    entry["rwt1_bytes"] = rwt1_path.stat().st_size
    entry["rwt1_save_s"] = round(save_s, 4)
    entry["rwt2_vs_rwt1_bytes"] = round(entry["rwt2_bytes"] / entry["rwt1_bytes"], 2)
    if not quick:
        entry["cold_rwt2"] = _cold_open(image_path, "open_image")
    return entry


# ----------------------------------------------------------------------
# The benchmark
# ----------------------------------------------------------------------
def run(quick: bool = False, repeats: int = 3) -> Dict[str, object]:
    """Run the storage benchmark; returns the BENCH_storage.json payload."""
    base_count = 2_000 if quick else 100_000
    tile_factors = [2, 5] if quick else [10, 100]
    rwt1_sizes = {base_count * tile_factors[0]}  # the decode-baseline size
    base_values = _values(base_count)
    base = WaveletTrie(base_values, bitvector="plain")

    # Tiling correctness: at a checkable size the tiled trie must equal the
    # directly-built trie on the full query surface sample.
    check_k = 3
    direct = WaveletTrie(base_values[:500] * check_k)
    tiled_check = tiled_trie(WaveletTrie(base_values[:500], bitvector="plain"), check_k)
    check_positions = _probe_positions(500 * check_k)
    assert _query_sample(direct, check_positions) == _query_sample(
        tiled_check, check_positions
    ), "tiled trie disagrees with direct build"

    results: Dict[str, Dict[str, object]] = {}
    with tempfile.TemporaryDirectory(prefix="bench_storage_") as workdir:
        for k in tile_factors:
            n = base_count * k
            entry: Dict[str, object] = {"elements": n, "tile_factor": k}
            started = time.perf_counter()
            trie = tiled_trie(base, k)
            entry["build_s"] = round(time.perf_counter() - started, 3)
            positions = _probe_positions(n)
            expected = _query_sample(trie, positions)

            image_path = Path(workdir) / f"trie_{n}.rwt2"
            _, save_image_s = _timed(lambda: save_image(trie, image_path), 1)
            entry["rwt2_bytes"] = image_path.stat().st_size
            entry["rwt2_save_s"] = round(save_image_s, 4)

            opened, open_s = _timed(lambda: open_image(image_path), repeats)
            entry["rwt2_open_s"] = round(open_s, 6)
            _, probe_s = _timed(lambda: _query_sample(opened, positions), 1)
            entry["rwt2_first_queries_s"] = round(probe_s, 4)

            # Differential: the mapped image answers identically under every
            # backend.
            for backend in kernel.available_backends():
                previous = kernel.use_backend(backend)
                try:
                    assert _query_sample(open_image(image_path), positions) == expected, (
                        f"image query mismatch under {backend} backend at n={n}"
                    )
                finally:
                    kernel.use_backend(previous)

            if n in rwt1_sizes:
                rwt1_path = Path(workdir) / f"trie_{n}.rwt1"
                _, save_s = _timed(lambda: save(trie, rwt1_path), 1)
                entry["rwt1_bytes"] = rwt1_path.stat().st_size
                entry["rwt1_save_s"] = round(save_s, 4)
                rebuilt, load_s = _timed(lambda: load(rwt1_path), repeats)
                entry["rwt1_load_s"] = round(load_s, 4)
                assert _query_sample(rebuilt, positions) == expected, (
                    f"RWT1 rebuild query mismatch at n={n}"
                )
                entry["open_speedup_vs_rwt1"] = round(load_s / open_s, 1)
                if not quick:
                    entry["cold_rwt1"] = _cold_open(rwt1_path, "load")

            if not quick:
                entry["cold_rwt2"] = _cold_open(image_path, "open_image")
                if "cold_rwt1" in entry:
                    entry["cold_open_speedup"] = round(
                        entry["cold_rwt1"]["open_s"] / entry["cold_rwt2"]["open_s"], 1
                    )
                # Multi-process serving: four readers share one image's
                # page cache vs four RWT1 readers each rebuilding a private
                # heap.  Compared head-to-head at the RWT1 baseline size;
                # RWT2-only at the largest size to show it scales.
                if "rwt1_bytes" in entry or k == tile_factors[-1]:
                    entry["shared_cache_rwt2"] = _shared_page_cache(
                        image_path, "open_image"
                    )
                if "rwt1_bytes" in entry:
                    entry["shared_cache_rwt1"] = _shared_page_cache(
                        Path(workdir) / f"trie_{n}.rwt1", "load"
                    )
                    entry["shared_cache_rss_ratio"] = round(
                        entry["shared_cache_rwt1"]["rss_queries_delta_kb_total"]
                        / max(
                            1,
                            entry["shared_cache_rwt2"]["rss_queries_delta_kb_total"],
                        ),
                        1,
                    )

            results[f"n={n}"] = entry

        high = high_cardinality(quick, Path(workdir), repeats)

    sizes = [base_count * k for k in tile_factors]
    flatness: Optional[float] = None
    if len(sizes) >= 2:
        small = results[f"n={sizes[0]}"]["rwt2_open_s"]
        large = results[f"n={sizes[-1]}"]["rwt2_open_s"]
        flatness = round(large / small, 2) if small else None
    return {
        "quick": quick,
        "base_elements": base_count,
        "vocabulary": len(_VOCAB),
        "backends": list(kernel.available_backends()),
        "results": results,
        "high_cardinality": high,
        # open-time growth across a {sizes[-1]//sizes[0]}x size increase;
        # ~1.0 means the open cost is independent of index size.
        "rwt2_open_growth": flatness,
        "size_ratio": sizes[-1] // sizes[0],
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="small sizes, do not write JSON"
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_storage.json",
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
