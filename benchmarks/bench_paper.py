"""Paper reproduction benchmark: the Wavelet Trie's claims -> BENCH_paper.json.

One harness evidences the claims of Grossi & Ottaviano (PODS'12) that this
repository reproduces.  Only deterministic quantities are gated; every gate
must hold in quick mode as well as at full size:

* **Table 1, space.**  For a URL log and a hierarchical column (many
  repetitions per distinct string, the paper's regime), the rows come from
  :func:`repro.analysis.report.space_vs_bounds`, which builds the static,
  append-only and dynamic tries and measures them against the bounds
  (``LT``, ``nH0``, ``LB``, ``PT``).  Gates: node bitvectors take at most
  ``4 nH0 + 200`` bits per trie node; the label bits equal the bound's
  ``|L|``; the structure (labels + node bitvectors + topology) is smaller
  than the raw input plus ``PT``; static is no larger than append-only; and
  every variant is smaller than the naive list copy.  The dynamic
  bitvectors' run-treap pointers (one node per run, far above Theorem 4.9's
  ``O(nH0)``) are recorded as ``pointer_overhead_bits`` but not gated.
* **Section 6.**  On a pathological alphabet (the powers of two, which
  branch off the all-zeros spine one level apart), the hashed
  :class:`~repro.wavelet.BalancedDynamicWaveletTree` stays within
  Theorem 6.2's ``(alpha + 2) log2 |Sigma|`` height for ``alpha = 2``, while
  the unhashed fixed-width trie degenerates to height ``>= |Sigma| - 1``.
* **Remark 4.2.**  ``Init(1, n)`` on the RLE+gamma dynamic bitvector is one
  run, so its size grows by at most two bits per doubling of ``n`` (the
  gamma code of the run length); the gap-encoded bitvector of
  Mäkinen–Navarro stores one code per 1 bit, so its size is ``>= n`` bits.
* **Section 5.**  Range iteration, distinct values (with and without a
  prefix), majority, frequent elements and top-k on the append-only trie
  equal the naive scan of the same window.

Wall-clock is recorded but not gated: per-op query and update times of the
three variants across an ``n`` sweep (Table 1's time columns: flat in ``n``
for static and append-only, ``log n`` for dynamic), and the Section 5
analytics next to the naive scan.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_paper.py            # full, writes BENCH_paper.json
    PYTHONPATH=src python benchmarks/bench_paper.py --quick    # small, no file

The quick mode also runs inside tier-1 via
``tests/integration/test_bench_paper_quick.py`` and ``make
bench-paper-quick``, so the harness cannot silently break.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:  # allow running without PYTHONPATH
    sys.path.insert(0, str(SRC))

from repro.analysis.report import space_vs_bounds
from repro.baselines import NaiveIndexedSequence
from repro.bits import kernel
from repro.bitvector import DynamicBitVector, GapEncodedBitVector
from repro.core.append_only import AppendOnlyWaveletTrie
from repro.core.dynamic import DynamicWaveletTrie
from repro.core.static import WaveletTrie
from repro.tries.binarize import FixedWidthIntCodec
from repro.wavelet import BalancedDynamicWaveletTree
from repro.workloads import ColumnGenerator, UrlLogGenerator

VARIANTS = {
    "static": WaveletTrie,
    "append-only": AppendOnlyWaveletTrie,
    "dynamic": DynamicWaveletTrie,
}
QUERIES_PER_KIND = 50
UPDATES_PER_ROUND = 100
INIT_SIZES = [1_000, 4_000, 16_000]


def _url_log(n: int, seed: int = 1234) -> List[str]:
    """~60 distinct URLs: n >> |Sset|, the regime the paper targets."""
    return UrlLogGenerator(domains=10, depth=2, branching=2, seed=seed).generate(n)


def _column(n: int) -> List[str]:
    """A hierarchical region/city/site column with 32 distinct values."""
    return ColumnGenerator(cardinality=32, zipf_exponent=1.1, seed=99).generate(n)


def _best_of(repeats: int, func) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - started)
    return best


def _us_per_op(seconds: float, ops: int) -> float:
    return round(seconds * 1e6 / ops, 2)


# ----------------------------------------------------------------------
# Table 1: space
# ----------------------------------------------------------------------
def table1_space(n: int):
    rows = []
    gates = {
        "bitvectors_within_4nH0": True,
        "label_bits_equal_bound": True,
        "structure_below_raw_plus_PT": True,
        "static_le_append_only": True,
        "all_below_naive": True,
    }
    for workload, values in (("urls", _url_log(n)), ("column", _column(n))):
        bounds, reports = space_vs_bounds(values)
        raw_bits = sum(len(value.encode()) * 8 for value in values)
        naive_bits = NaiveIndexedSequence(values).size_in_bits()
        structure = {}
        for variant, report in reports.items():
            parts = report.components
            pointer_overhead = parts.get("bitvector_pointer_overhead", 0)
            structure[variant] = report.total_bits - pointer_overhead
            gates["bitvectors_within_4nH0"] &= (
                parts["node_bitvectors"]
                <= 4 * bounds.entropy_bits + 200 * parts["node_count"]
            )
            gates["label_bits_equal_bound"] &= parts["node_labels"] == bounds.label_bits
            gates["structure_below_raw_plus_PT"] &= (
                structure[variant] < raw_bits + bounds.pt_bits
            )
            gates["all_below_naive"] &= structure[variant] < naive_bits
            rows.append(
                {
                    "workload": workload,
                    "variant": variant,
                    "n": bounds.length,
                    "distinct": bounds.distinct,
                    "LT_bits": round(bounds.lt_bits),
                    "nH0_bits": round(bounds.entropy_bits),
                    "LB_bits": round(bounds.lb_bits),
                    "PT_bits": bounds.pt_bits,
                    "raw_bits": raw_bits,
                    "naive_bits": naive_bits,
                    "nodes": parts["node_count"],
                    "label_bits": parts["node_labels"],
                    "bitvector_bits": parts["node_bitvectors"],
                    "structure_bits": structure[variant],
                    "pointer_overhead_bits": pointer_overhead,
                    "bits_per_element": round(structure[variant] / bounds.length, 2),
                    "structure_over_LB": round(structure[variant] / bounds.lb_bits, 3),
                }
            )
        gates["static_le_append_only"] &= structure["static"] <= structure["append-only"]
    return rows, gates


# ----------------------------------------------------------------------
# Table 1: time (recorded, not gated)
# ----------------------------------------------------------------------
def _query_batch(values: List[str], seed: int = 7):
    rng = random.Random(seed)
    batch = []
    for _ in range(QUERIES_PER_KIND):
        value = rng.choice(values)
        position = rng.randint(0, len(values))
        prefix = value[: rng.randint(7, min(18, len(value)))]
        batch.append((value, position, prefix))
    return batch


def _time_queries(trie, batch, repeats: int) -> Dict[str, float]:
    size = len(trie)
    select_args = [(value, trie.count(value) - 1) for value, _, _ in batch]
    prefix_args = [(prefix, trie.count_prefix(prefix) - 1) for _, _, prefix in batch]
    kinds = {
        "access": lambda: [trie.access(pos % size) for _, pos, _ in batch],
        "rank": lambda: [trie.rank(value, pos) for value, pos, _ in batch],
        "select": lambda: [trie.select(value, idx) for value, idx in select_args],
        "rank_prefix": lambda: [trie.rank_prefix(prefix, pos) for _, pos, prefix in batch],
        "select_prefix": lambda: [
            trie.select_prefix(prefix, idx) for prefix, idx in prefix_args
        ],
    }
    return {
        kind: _us_per_op(_best_of(repeats, func), len(batch))
        for kind, func in kinds.items()
    }


def _time_updates(trie, n: int, repeats: int) -> Dict[str, float]:
    rng = random.Random(n)
    # A fifth of the payload is unseen, so appends and inserts also split nodes.
    payload = [
        value if rng.random() < 0.8 else f"{value}/new-{rng.randrange(10)}"
        for value in _url_log(UPDATES_PER_ROUND, seed=n)
    ]
    timings = {"append": _best_of(repeats, lambda: [trie.append(v) for v in payload])}
    if isinstance(trie, DynamicWaveletTrie):
        # Paired rounds keep the size near n: insert a batch, delete a batch.
        insert_s = delete_s = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            for value in payload:
                trie.insert(value, rng.randint(0, len(trie)))
            insert_s = min(insert_s, time.perf_counter() - started)
            started = time.perf_counter()
            for _ in payload:
                trie.delete(rng.randrange(len(trie)))
            delete_s = min(delete_s, time.perf_counter() - started)
        timings.update(insert=insert_s, delete=delete_s)
    return {op: _us_per_op(seconds, len(payload)) for op, seconds in timings.items()}


def table1_time(sizes: List[int], repeats: int):
    rows = []
    for n in sizes:
        values = _url_log(n)
        batch = _query_batch(values)
        for variant, factory in VARIANTS.items():
            started = time.perf_counter()
            trie = factory(values)
            build_s = time.perf_counter() - started
            row = {
                "variant": variant,
                "n": n,
                "avg_height": round(trie.average_height(), 2),
                "build_us_per_element": _us_per_op(build_s, n),
                "query_us_per_op": _time_queries(trie, batch, repeats),
            }
            if variant != "static":
                row["update_us_per_op"] = _time_updates(trie, n, repeats)
            rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Section 5: range analytics against the naive scan
# ----------------------------------------------------------------------
def section5_range(n: int, repeats: int):
    values = _url_log(n)
    trie = AppendOnlyWaveletTrie(values)
    naive = NaiveIndexedSequence(values)
    start, stop = n // 4, 3 * n // 4
    prefix = f"http://{values[0].split('/')[2]}/"
    threshold = max(1, (stop - start) // 50)

    trie_top = trie.top_k_in_range(start, stop, 10)
    naive_top = naive.top_k_in_range(start, stop, 10)
    window_counts = dict(naive.distinct_in_range(start, stop))
    # top-k ties may break differently: the counts must match, and every
    # reported value must carry its true count.
    top_k_equal = [count for _, count in trie_top] == [
        count for _, count in naive_top
    ] and all(window_counts[value] == count for value, count in trie_top)
    checks = {
        "iter_range": list(trie.iter_range(start, stop)) == values[start:stop],
        "distinct": dict(trie.distinct_in_range(start, stop)) == window_counts,
        "distinct_prefix": dict(trie.distinct_in_range(start, stop, prefix=prefix))
        == dict(naive.distinct_in_range(start, stop, prefix=prefix)),
        "majority": trie.range_majority(start, stop) == naive.range_majority(start, stop),
        "majority_prefix": trie.range_majority(start, stop, prefix=prefix)
        == naive.range_majority(start, stop, prefix=prefix),
        "frequent": dict(trie.frequent_in_range(start, stop, threshold))
        == dict(naive.frequent_in_range(start, stop, threshold)),
        "top_k": top_k_equal,
    }

    def timed(func) -> float:
        return round(_best_of(repeats, func) * 1000.0, 3)

    timings_ms = {
        "iter_range": timed(lambda: list(trie.iter_range(start, stop))),
        "access_loop": timed(lambda: [trie.access(pos) for pos in range(start, stop)]),
        "distinct": timed(lambda: trie.distinct_in_range(start, stop)),
        "distinct_naive": timed(lambda: naive.distinct_in_range(start, stop)),
        "top_k": timed(lambda: trie.top_k_in_range(start, stop, 10)),
        "top_k_naive": timed(lambda: naive.top_k_in_range(start, stop, 10)),
    }
    payload = {
        "n": n,
        "window": [start, stop],
        "prefix": prefix,
        "threshold": threshold,
        "checks": checks,
        "ms": timings_ms,
    }
    return payload, all(checks.values())


# ----------------------------------------------------------------------
# Section 6: hashing keeps the dynamic Wavelet Tree balanced
# ----------------------------------------------------------------------
def section6_balance(n: int):
    rng = random.Random(4242)
    alphabet = [1 << k for k in range(60)]
    values = [rng.choice(alphabet) for _ in range(n)]

    hashed = BalancedDynamicWaveletTree(universe=2**64, values=values, seed=7)
    hashed_bound = hashed.theoretical_height_bound(alpha=2.0)
    raw = DynamicWaveletTrie(values, codec=FixedWidthIntCodec(64))
    raw_distinct = raw.distinct_values()
    raw_height = max(raw.height_of(value) for value in raw_distinct)
    payload = {
        "n": n,
        "alphabet": "2^k for k < 60",
        "hashed": {
            "distinct": hashed.distinct_count(),
            "max_height": hashed.max_height(),
            "avg_height": round(hashed.average_height(), 2),
            "bound_alpha2": round(hashed_bound, 2),
        },
        "raw": {
            "distinct": len(raw_distinct),
            "max_height": raw_height,
            "avg_height": round(raw.average_height(), 2),
        },
    }
    gates = {
        "hashed_height_within_bound": hashed.max_height() <= hashed_bound,
        "raw_height_at_least_distinct_minus_1": raw_height >= len(raw_distinct) - 1,
    }
    return payload, gates


# ----------------------------------------------------------------------
# Remark 4.2: Init(b, n) needs run-length, not gap, encoding
# ----------------------------------------------------------------------
def remark42_init(repeats: int):
    rows = []
    for n in INIT_SIZES:
        rle = DynamicBitVector.init_run(1, n)
        gap = GapEncodedBitVector.init_run(1, n)
        assert rle.rank(1, n // 2) == gap.rank(1, n // 2) == n // 2
        rows.append(
            {
                "n": n,
                "rle_bits": rle.size_in_bits(),
                "gap_bits": gap.size_in_bits(),
                "rle_init_us": round(
                    _best_of(repeats, lambda: DynamicBitVector.init_run(1, n)) * 1e6, 1
                ),
                "gap_init_us": round(
                    _best_of(repeats, lambda: GapEncodedBitVector.init_run(1, n)) * 1e6, 1
                ),
            }
        )
    doublings = math.ceil(math.log2(INIT_SIZES[-1] / INIT_SIZES[0]))
    gates = {
        "rle_growth_two_bits_per_doubling": rows[-1]["rle_bits"] - rows[0]["rle_bits"]
        <= 2 * doublings,
        "gap_at_least_n_bits": all(row["gap_bits"] >= row["n"] for row in rows),
    }
    return rows, gates


def run(quick: bool = False) -> Dict[str, object]:
    repeats = 1 if quick else 3
    space_rows, space_gates = table1_space(600 if quick else 4_000)
    time_rows = table1_time([200, 800] if quick else [500, 2_000, 8_000], repeats)
    range_payload, range_gate = section5_range(600 if quick else 4_000, repeats)
    balance_payload, balance_gates = section6_balance(300 if quick else 2_000)
    init_rows, init_gates = remark42_init(repeats)

    gates = {f"table1_space.{name}": ok for name, ok in space_gates.items()}
    gates.update({f"section6.{name}": ok for name, ok in balance_gates.items()})
    gates.update({f"remark42.{name}": ok for name, ok in init_gates.items()})
    gates["section5.range_answers_equal_naive"] = range_gate
    failed = [name for name, ok in gates.items() if not ok]
    assert not failed, failed
    return {
        "benchmark": "paper",
        "quick": quick,
        "backend": kernel.active_backend(),
        "gates": gates,
        "table1_space": space_rows,
        "table1_time": time_rows,
        "section5_range": range_payload,
        "section6_balance": balance_payload,
        "remark42_init": init_rows,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small sizes, do not write JSON"
    )
    args = parser.parse_args(argv)
    payload = run(quick=args.quick)
    rendered = json.dumps(payload, indent=2, sort_keys=True)
    print(rendered)
    if not args.quick:
        output = REPO_ROOT / "BENCH_paper.json"
        output.write_text(rendered + "\n")
        print(f"\nwrote {output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
