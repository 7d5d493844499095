"""The served workload: ``serve-read``.

Set-up (timed as ``setup_s``): build a static :class:`~repro.WaveletTrie`
over the generated URL rows, write it with ``export_shard_images(..., 1)`` as
one RWT2 tiered image, and start the launcher process that serves that
image.  The first set-up serves the run; repeats are spread over the rounds
(:func:`common.setup_points`) and ``setup_s`` is the median of all.  Load
comes from this process over ``CONNECTIONS`` unix-socket connections with
``DEPTH`` requests pipelined per connection.  After an untimed warm-up,
``ROUNDS`` rounds each run

1. a closed-loop segment with a fixed request count (callers that wait for
   their replies): capacity, and the latency a pipelining caller sees;
2. an open-loop segment at a fixed rate (independent users), each request
   timed from when it was due.

Reference-loop samples (:class:`common.HostSpeed`) are taken before and
after every closed-loop segment and before every set-up, and the gated
timings are reported at the reference speed.
Every answer is checked against oracles built from the generated rows after
each segment; a wrong answer raises :class:`OracleMismatch` and the run
stops.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import time
from bisect import bisect_left
from collections import Counter, defaultdict
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
from loadgen import Client

CONNECTIONS = 2
DEPTH = 16
# Untimed requests before the timed rounds.
WARMUP = 2_000
# Closed and open segments alternate, this many of each, so both sample the
# whole run; the gated metrics are medians over the closed segments.
ROUNDS = 24
# Share of the measured time spent in closed-loop segments.
CLOSED_SHARE = 3 / 4

# ``closed_per_s`` sets the closed-loop request count per measured second,
# near the rate the introducing commit reached on a 2-CPU x86-64 container
# (1,250-2,600 req/s), so a run measures for about ``--seconds``.  The
# open-loop rate is a fixed number, never derived from a measurement: about
# a fifth of that capacity.
FULL = {"rows": 15_000, "closed_per_s": 1_600, "rate": 300.0}
TINY = {"rows": 1_500, "closed_per_s": 150, "rate": 150.0}

READ_MIX = (
    ("access", 0.20),
    ("rank", 0.30),
    ("select", 0.20),
    ("rank_prefix", 0.20),
    ("select_prefix", 0.10),
)


def domain_prefix(url: str) -> str:
    """``http://host/`` of a generated URL: the prefix the prefix ops use."""
    return url[: url.index("/", len("http://")) + 1]


def input_bytes(rows: List[str]) -> int:
    return sum(len(row.encode("utf-8")) + 1 for row in rows)


class Oracle:
    """Answers of the read ops over the generated rows."""

    def __init__(self, rows: List[str]) -> None:
        self.rows = rows
        self.positions: Dict[str, List[int]] = defaultdict(list)
        self.prefix_positions: Dict[str, List[int]] = defaultdict(list)
        for pos, row in enumerate(rows):
            self.positions[row].append(pos)
            self.prefix_positions[domain_prefix(row)].append(pos)

    def read_request(self, rng: random.Random, op: str) -> Tuple[dict, object]:
        """One read request of ``op`` with its expected result."""
        n = len(self.rows)
        if op == "access":
            pos = rng.randrange(n)
            return {"op": op, "pos": pos}, self.rows[pos]
        row = self.rows[rng.randrange(n)]  # keys drawn by row frequency
        if op in ("rank", "select"):
            key, field, hits = row, "value", self.positions[row]
        else:
            key = domain_prefix(row)
            field, hits = "prefix", self.prefix_positions[key]
        if op.startswith("rank"):
            pos = rng.randrange(n + 1)
            return {"op": op, field: key, "pos": pos}, bisect_left(hits, pos)
        idx = rng.randrange(len(hits))
        return {"op": op, field: key, "idx": idx}, hits[idx]


def _pick(rng: random.Random) -> str:
    point = rng.random()
    for op, share in READ_MIX:
        point -= share
        if point < 0:
            return op
    return READ_MIX[-1][0]


def make_requests(
    oracle: Oracle, rng: random.Random, count: int, first_id: int
) -> Tuple[List[bytes], List[Tuple[str, object]]]:
    """Encoded frames of the read mix and ``(op, expected)`` per request."""
    frames: List[bytes] = []
    expected: List[Tuple[str, object]] = []
    for offset in range(count):
        payload, answer = oracle.read_request(rng, _pick(rng))
        payload["id"] = first_id + offset
        frames.append(json.dumps(payload, separators=(",", ":")).encode() + b"\n")
        expected.append((payload["op"], answer))
    return frames, expected


def check_phase(result, expected, failed_by_op: Counter) -> None:
    """Check every response against its oracle answer.

    Counts failures (error frames, timeouts, disconnects) per op into
    ``failed_by_op``; raises :class:`OracleMismatch` on a wrong answer.
    """
    for index, raw in enumerate(result.responses):
        op, answer = expected[index]
        frame = json.loads(raw) if raw is not None else {}
        if not frame.get("ok"):
            failed_by_op[op] += 1
        elif frame["result"] != answer:
            raise OracleMismatch(
                f"request {index} ({op}): got {frame['result']!r}, expected {answer!r}"
            )


class Served:
    """One set-up (image + server process) of the served workload."""

    def __init__(self, tag: str) -> None:
        self.dir = os.path.join(OUT_REL, tag)
        # Outside the set-up directory, so the report and spans outlive it.
        self.report = os.path.join(OUT_REL, "results", f"{tag}-server.json")
        self.proc = None
        self.image_bytes = 0
        self.open_s = 0.0
        self.build_s = 0.0

    def setup(self, rows: List[str], trace: bool) -> float:
        """Build, export and serve; returns the set-up seconds."""
        from repro import WaveletTrie
        from repro.db.column import CompressedColumn
        from repro.storage import export_shard_images

        fresh_dir(self.dir)
        os.makedirs(os.path.join(ROOT, OUT_REL, "results"), exist_ok=True)
        image_dir = os.path.join(self.dir, "image")
        started = time.perf_counter()
        trie = WaveletTrie(rows)
        # The benchmark's own build, timed apart: the export below rebuilds
        # the trie when it slices the column, and that rebuild is export time.
        self.build_s = time.perf_counter() - started
        column = CompressedColumn.from_index("default", trie)
        manifest = export_shard_images({"default": column}, os.path.join(ROOT, image_dir), 1)
        argv = [
            os.path.join("perfbench", "launcher.py"),
            "--image-dir", image_dir,
            "--socket", os.path.join(self.dir, "s.sock"),
            "--out", self.report,
        ]
        self.proc = start_child(argv + (["--trace"] if trace else []))
        ready = read_json_line(self.proc)
        elapsed = time.perf_counter() - started
        self.open_s = ready["open_s"]
        self.image_path = os.path.join(ROOT, image_dir, manifest["images"]["default"][0])
        self.image_bytes = os.path.getsize(self.image_path)
        return elapsed

    def client(self) -> Client:
        return Client(os.path.join(self.dir, "s.sock"), CONNECTIONS)

    def stop(self) -> dict:
        """Stop the server; returns its report (peak RSS, trace file)."""
        stop_child(self.proc)
        self.proc = None
        return load_json(self.report)

    def remove(self) -> None:
        stop_child(self.proc)
        self.proc = None
        shutil.rmtree(os.path.join(ROOT, self.dir), ignore_errors=True)


def image_sections(path: str) -> int:
    """Section count of an RWT2 image, read through the public image API."""
    from repro.storage.image import FrozenImage

    with open(path, "rb") as source:
        return len(FrozenImage(source.read()).section_names())


def run(workload: str, seed: int, seconds: int, trace: bool, tiny: bool, setups: int) -> dict:
    """One pass of the served workload; returns metrics and raw details."""
    from repro.workloads.urls import UrlLogGenerator

    size = TINY if tiny else FULL
    rows = UrlLogGenerator(seed=seed).generate(size["rows"])
    oracle = Oracle(rows)
    rate = size["rate"]
    closed_each = max(1, int(size["closed_per_s"] * seconds * CLOSED_SHARE / ROUNDS))
    open_each = max(1, int(rate * seconds * (1 - CLOSED_SHARE) / ROUNDS))

    rng = random.Random(seed * 1_000_003)
    warm_frames, warm_expected = make_requests(oracle, rng, WARMUP, 0)
    plan = []  # per round: (closed frames, expected), (open frames, expected)
    next_id = WARMUP
    for _ in range(ROUNDS):
        closed = make_requests(oracle, rng, closed_each, next_id)
        opened = make_requests(oracle, rng, open_each, next_id + closed_each)
        next_id += closed_each + open_each
        plan.append((closed, opened))

    tag = f"{workload}-{'traced' if trace else 'plain'}"
    repeats = setup_points(setups, ROUNDS)
    speed = HostSpeed()

    def timed_setup(served: Served) -> float:
        speed.sample()
        return served.setup(rows, trace)

    def repeat_setup() -> float:
        again = Served(tag + "-again")
        try:
            return timed_setup(again)
        finally:
            again.remove()

    failed_by_op: Counter = Counter()
    closed_runs, open_runs = [], []
    # Per closed segment, as measured: request rate, p50, p95.
    closed_rps: List[float] = []
    closed_p50: List[float] = []
    closed_p95: List[float] = []
    served = Served(tag)
    try:
        setup_times = [timed_setup(served)]
        client = served.client()
        try:
            # Per segment: past it, unanswered requests count as failed.
            deadline = 10.0 + seconds
            # Untimed warm-up: first touches of the mapped image and lazily
            # built node views happen before the timed rounds.
            check_phase(client.closed_loop(warm_frames, DEPTH, deadline), warm_expected, Counter())
            for done, ((closed_frames, closed_expected), (open_frames, open_expected)) in enumerate(plan, 1):
                speed.sample()
                with collector_paused():
                    closed = client.closed_loop(closed_frames, DEPTH, deadline)
                speed.sample()
                check_phase(closed, closed_expected, failed_by_op)
                latencies = closed.latencies_ms()
                closed_rps.append(closed_each / closed.elapsed)
                closed_p50.append(percentile(latencies, 0.50))
                closed_p95.append(percentile(latencies, 0.95))
                with collector_paused():
                    opened = client.open_loop(open_frames, rate, deadline)
                check_phase(opened, open_expected, failed_by_op)
                closed_runs.append(closed)
                open_runs.append(opened)
                setup_times += [repeat_setup() for _ in range(repeats[done])]
            stats = json.loads(client.call_all([b'{"id":0,"op":"stats"}\n'])[0])["result"]
        finally:
            client.close()
        server_report = served.stop()
        image_bytes = served.image_bytes
        sections = image_sections(served.image_path)
    finally:
        served.remove()

    attempted = ROUNDS * (closed_each + open_each)
    failed = sum(failed_by_op.values())
    closed_s = sum(closed.elapsed for closed in closed_runs)
    open_lat = [ms for opened in open_runs for ms in opened.latencies_ms()]
    scale = speed.factor()
    metrics = {
        "setup_s": median(setup_times) * scale,
        "throughput_per_s": median(closed_rps) / scale,
        "p50_ms": median(closed_p50) * scale,
        "tail_ms": median(closed_p95) * scale,
        "stored_bytes_per_input_byte": image_bytes / input_bytes(rows),
        "rss_mb": server_report["rss_mb"],
    }
    # As measured, not scaled to the reference speed.
    named = {
        "read_rps": ROUNDS * closed_each / closed_s,
        "read_p50_ms": percentile(open_lat, 0.50),
        "read_p99_ms": percentile(open_lat, 0.99),
        "failed_frac": failed / attempted,
    }
    return {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "named": named,
        "details": {
            "rows": len(rows),
            "distinct": len(oracle.positions),
            "input_bytes": input_bytes(rows),
            "setup_times_s": setup_times,
            "reference_s": speed.samples,
            "reference_factor": scale,
            "build_s": served.build_s,
            "open_image_s": served.open_s,
            "image_bytes": image_bytes,
            "image_sections": sections,
            "rounds": ROUNDS,
            "closed_per_round": closed_each,
            "open_per_round": open_each,
            "open_rate": rate,
            "open_samples": len(open_lat),
            "lag_ms_p99": max(percentile(o.lag_ms(), 0.99) for o in open_runs),
            "round_closed_rps": closed_rps,
            "round_closed_p50_ms": closed_p50,
            "round_closed_p95_ms": closed_p95,
            "failed_by_op": dict(failed_by_op),
            "stats": stats,
            "server": server_report,
        },
    }
