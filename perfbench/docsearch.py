"""The ``doc-search`` workload: FM-index document search in a child process.

Set-up (timed as ``setup_s``): build a
:class:`~repro.db.doc_store.DocumentStore` over generated URL documents,
save it as RWT1, and start the child that loads it, as every
``repro search`` call does.  The first set-up serves the run; repeats are
spread over the rounds (:func:`common.setup_points`) and ``setup_s`` is the
median of all.  The child then answers, closed loop, rounds
that alternate a fixed number of ``count_many`` batches of random 4-16
character substrings with a fixed number of ``locate`` calls on substrings
drawn equally from fixed occurrence bands (at most 256 occurrences).  Every
answer is checked against oracles over the joined text after each segment.
Reference-loop samples (:class:`common.HostSpeed`) are taken before every
segment and set-up, and the gated timings are reported at the reference
speed.

This workload bypasses the serving layer and the Wavelet Trie entirely:
count runs on the BWT's Huffman-shaped wavelet tree over plain bitvectors,
locate on the RRR marked-row vector and the sparse document-start vector.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import time
from bisect import bisect_right
from statistics import median
from typing import Dict, List, Tuple

from common import (
    OUT_REL,
    ROOT,
    HostSpeed,
    OracleMismatch,
    collector_paused,
    fresh_dir,
    load_json,
    percentile,
    read_json_line,
    setup_points,
    start_child,
    stop_child,
)

FULL = {"documents": 5_000, "count_per_s": 6_500, "locate_per_s": 30, "batch": 64}
TINY = {"documents": 300, "count_per_s": 400, "locate_per_s": 20, "batch": 16}
# Locate patterns are drawn in equal numbers from these narrow occurrence
# bands and interleaved, so every seed and every round sees the same mix of
# cheap and expensive locates (a pattern's cost grows with its occurrences),
# and the p50 and p90 fall inside the middle and the top band.
HIT_BANDS = ((1, 2), (4, 6), (12, 18), (40, 60), (128, 192))
# Count and locate alternate in this many rounds, so both sample the run.
ROUNDS = 24
SEPARATOR = "\x00"


class TextOracle:
    """Substring occurrences in the separator-joined documents."""

    def __init__(self, documents: List[str]) -> None:
        self.text = SEPARATOR.join(documents) + SEPARATOR
        self.starts: List[int] = []
        offset = 0
        for document in documents:
            self.starts.append(offset)
            offset += len(document) + 1

    def positions(self, pattern: str) -> List[int]:
        """Every start of ``pattern``, overlapping ones included."""
        return [match.start() for match in re.finditer("(?=" + re.escape(pattern) + ")", self.text)]

    def counts(self, patterns: List[str]) -> Dict[str, int]:
        """Overlapping occurrence counts: one scan of the text per length."""
        by_length: Dict[int, Dict[str, int]] = {}
        for pattern in patterns:
            by_length.setdefault(len(pattern), {})[pattern] = 0
        text = self.text
        for length, wanted in by_length.items():
            for start in range(len(text) - length + 1):
                window = text[start : start + length]
                if window in wanted:
                    wanted[window] += 1
        return {pattern: by_length[len(pattern)][pattern] for pattern in patterns}

    def locate(self, pattern: str) -> List[List[int]]:
        hits = []
        for position in self.positions(pattern):
            doc = bisect_right(self.starts, position) - 1
            hits.append([doc, position - self.starts[doc]])
        return hits

    def random_pattern(self, rng: random.Random) -> str:
        while True:
            length = rng.randint(4, 16)
            start = rng.randrange(len(self.text) - length)
            pattern = self.text[start : start + length]
            if SEPARATOR not in pattern:
                return pattern


def stratified_patterns(
    oracle: TextOracle, rng: random.Random, count: int
) -> List[Tuple[str, List[List[int]]]]:
    """``count`` locate patterns with their oracle hits, equal per band."""
    per_band = count // len(HIT_BANDS)
    bands: List[List[str]] = [[] for _ in HIT_BANDS]
    for _ in range(100):
        candidates = [oracle.random_pattern(rng) for _ in range(2_000)]
        for pattern, hits in oracle.counts(candidates).items():
            for band, (low, high) in zip(bands, HIT_BANDS):
                if low <= hits <= high and len(band) < per_band and pattern not in band:
                    band.append(pattern)
        if min(len(band) for band in bands) >= per_band:
            break
    else:
        raise RuntimeError("the corpus has too few patterns in some occurrence band")
    interleaved = [band[k] for k in range(per_band) for band in bands]
    return [(pattern, oracle.locate(pattern)) for pattern in interleaved]


class SearchProcess:
    """One set-up: the saved RWT1 store and the child process serving it."""

    def __init__(self, tag: str) -> None:
        self.dir = os.path.join(OUT_REL, tag)
        # Outside the set-up directory, so the report and spans outlive it.
        self.report = os.path.join(OUT_REL, "results", f"{tag}-child.json")
        self.proc = None
        self.stored_bytes = 0

    def setup(self, documents: List[str], trace: bool) -> float:
        from repro.db.doc_store import DocumentStore
        from repro.storage import save

        fresh_dir(self.dir)
        os.makedirs(os.path.join(ROOT, OUT_REL, "results"), exist_ok=True)
        index = os.path.join(self.dir, "docs.rwt1")
        started = time.perf_counter()
        store = DocumentStore(documents)
        self.stored_bytes = save(store, os.path.join(ROOT, index))
        argv = [
            os.path.join("perfbench", "search_child.py"),
            "--index", index,
            "--out", self.report,
        ]
        self.proc = start_child(argv + (["--trace"] if trace else []))
        self.ready = read_json_line(self.proc)
        return time.perf_counter() - started

    def ask(self, line: str):
        self.proc.stdin.write(line.encode("utf-8") + b"\n")
        answer = self.proc.stdout.readline()
        if not answer:
            raise ConnectionError("search child exited mid-run")
        return json.loads(answer)

    def stop(self) -> dict:
        stop_child(self.proc)
        self.proc = None
        return load_json(self.report)

    def remove(self) -> None:
        stop_child(self.proc)
        self.proc = None
        shutil.rmtree(os.path.join(ROOT, self.dir), ignore_errors=True)


def run(workload: str, seed: int, seconds: int, trace: bool, tiny: bool, setups: int) -> dict:
    from repro.workloads.urls import UrlLogGenerator

    size = TINY if tiny else FULL
    documents = UrlLogGenerator(seed=seed).generate(size["documents"])
    oracle = TextOracle(documents)
    input_bytes = sum(len(doc.encode("utf-8")) + 1 for doc in documents)

    rng = random.Random(seed * 1_000_003 + 2)
    batch = size["batch"]
    batches = max(1, int(size["count_per_s"] * seconds / 2) // batch)
    count_batches = [
        [oracle.random_pattern(rng) for _ in range(batch)] for _ in range(batches)
    ]
    locate_count = max(len(HIT_BANDS), int(size["locate_per_s"] * seconds / 2))
    locate_patterns = stratified_patterns(oracle, rng, locate_count)

    tag = f"{workload}-{'traced' if trace else 'plain'}"
    repeats = setup_points(setups, ROUNDS)
    speed = HostSpeed()

    def timed_setup(search: SearchProcess) -> float:
        speed.sample()
        return search.setup(documents, trace)

    def repeat_setup() -> float:
        again = SearchProcess(tag + "-again")
        try:
            return timed_setup(again)
        finally:
            again.remove()

    search = SearchProcess(tag)
    try:
        setup_times = [timed_setup(search)]
        # Count and locate segments alternate, so both sample the whole run.
        wanted = oracle.counts([p for patterns in count_batches for p in patterns])
        # As measured: count rate per round, every locate's time.
        round_rates: List[float] = []
        locate_ms: List[float] = []
        count_s = 0.0
        per_round = max(1, len(count_batches) // ROUNDS)
        locates_per_round = max(1, len(locate_patterns) // ROUNDS)
        for k in range(ROUNDS):
            batches_k = count_batches[k * per_round : (k + 1) * per_round]
            requests = ["C " + json.dumps(patterns) for patterns in batches_k]
            speed.sample()
            with collector_paused():
                started = time.perf_counter()
                answers = [search.ask(line) for line in requests]
                elapsed = time.perf_counter() - started
            count_s += elapsed
            round_rates.append(batch * len(batches_k) / elapsed)
            for patterns, counts in zip(batches_k, answers):
                for pattern, answer in zip(patterns, counts):
                    if answer != wanted[pattern]:
                        raise OracleMismatch(
                            f"count({pattern!r}) = {answer}, expected {wanted[pattern]}"
                        )
            located = []
            speed.sample()
            with collector_paused():
                for pattern, want in locate_patterns[k * locates_per_round : (k + 1) * locates_per_round]:
                    started = time.perf_counter()
                    located.append((pattern, want, search.ask("L " + pattern)))
                    locate_ms.append((time.perf_counter() - started) * 1e3)
            for pattern, want, answer in located:
                if answer != want:
                    raise OracleMismatch(f"locate({pattern!r}) differs from the oracle")
            setup_times += [repeat_setup() for _ in range(repeats[k + 1])]
        speed.sample()
        child_report = search.stop()
    finally:
        search.remove()

    stored_bytes = search.stored_bytes
    patterns_counted = ROUNDS * per_round * batch
    located_patterns = locate_patterns[: ROUNDS * locates_per_round]
    hits = sum(len(want) for _, want in located_patterns)
    locate_s = sum(locate_ms) / 1e3
    scale = speed.factor()
    metrics = {
        "setup_s": median(setup_times) * scale,
        "throughput_per_s": median(round_rates) / scale,
        "p50_ms": percentile(locate_ms, 0.50) * scale,
        "tail_ms": percentile(locate_ms, 0.90) * scale,
        "stored_bytes_per_input_byte": stored_bytes / input_bytes,
        "rss_mb": child_report["rss_mb"],
    }
    # As measured, not scaled to the reference speed.
    named = {
        "count_qps": patterns_counted / count_s,
        "locate_p50_ms": percentile(locate_ms, 0.50),
        "locate_hits_per_s": hits / locate_s,
        "failed_frac": 0.0,
    }
    return {
        "correct": True,
        "attempted": patterns_counted + len(located_patterns),
        "failed": 0,
        "metrics": metrics,
        "named": named,
        "details": {
            "documents": len(documents),
            "text_chars": len(oracle.text),
            "input_bytes": input_bytes,
            "setup_times_s": setup_times,
            "reference_s": speed.samples,
            "reference_factor": scale,
            "rwt1_load_s": search.ready["load_s"],
            "stored_bytes": stored_bytes,
            "count_patterns": patterns_counted,
            "locate_patterns": len(located_patterns),
            "round_count_rates": round_rates,
            "locate_hits": hits,
            "child": child_report,
        },
    }
