"""Shared helpers: checkout paths, percentiles, child processes, metric rows."""

from __future__ import annotations

import contextlib
import gc
import json
import math
import os
import shutil
import subprocess
import sys
import time
from collections import Counter
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# Scratch space inside the checkout; relative paths keep unix socket paths
# short whatever the checkout's location.
OUT_REL = os.path.join(os.path.basename(HERE), "out")
# How long a stopped child may take to write its report and exit.
STOP_TIMEOUT_S = 60.0
# The child process holding the index runs pinned to the last CPU this
# process may use, and the reference loop is timed there; the benchmark
# process keeps to the other CPUs (all of them on a single-CPU machine).
CPUS = sorted(os.sched_getaffinity(0))
INDEX_CPU = CPUS[-1]
CLIENT_CPUS = set(CPUS[:-1]) or {INDEX_CPU}


class OracleMismatch(Exception):
    """An answer differs from the oracle: the run stops without a result."""


def program_present() -> bool:
    """True when the checkout holds the program's sources next to the benchmark."""
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def child_env() -> Dict[str, str]:
    """Environment for child processes: the checkout's ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def fresh_dir(rel: str) -> str:
    """(Re)create an empty directory under the checkout root; returns its relative path."""
    path = os.path.join(ROOT, rel)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return rel


def setup_points(setups: int, rounds: int) -> Counter:
    """How many repeated set-ups run after each count of finished rounds.

    The first set-up serves the run; the other ``setups - 1`` are spread
    evenly over the measured rounds, so ``setup_s`` (their median) samples
    the same stretch of time as the other metrics: a shared host's CPU
    speed drifts over seconds.
    """
    return Counter(round(rounds * i / (setups - 1)) for i in range(1, setups))


# Loop size and the time the loop takes at the reference speed: about the
# fastest of repeated timings on a 2-CPU x86-64 container, CPython 3.11.
REFERENCE_STEPS = 30_000
REFERENCE_NOMINAL_S = 0.010


def reference_s() -> float:
    """Seconds this process takes for a fixed pure-Python loop (10-20 ms).

    Timed before every measured segment and set-up: on a shared host the
    CPU speed a run gets drifts by up to 1.5x over minutes, and differs
    between CPUs (a fixed loop drifts with every other timing of the run),
    so a run's timings are reported at the speed at which the loop takes
    ``REFERENCE_NOMINAL_S`` on the CPU holding the index (:class:`HostSpeed`).

    The loop does integer arithmetic, string allocation and inserts into a
    dict that outgrows the first cache levels.  Its time tracked the
    program's count and trie-read paths more closely under host slowdowns
    (spread of the ratio over 5 s windows 0.02-0.03) than an integer loop
    over a small table (0.05-0.07).
    """
    started = time.perf_counter()
    total = 0
    table: Dict[str, int] = {}
    for i in range(REFERENCE_STEPS):
        total += i * i
        table[str(i)] = total
    return time.perf_counter() - started


class HostSpeed:
    """Reference-loop samples of one run, taken next to its timed sections.

    One run's timings are scaled together, by the mean of all its samples:
    scaling each segment by the samples next to it alone adds the noise of
    a few short samples to every segment (on ten seeds of ``serve-read``,
    a throughput spread of 0.09 against 0.03-0.05 for one factor per run,
    and 0.17 unscaled).
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self) -> None:
        """Record the median of three reference timings on ``INDEX_CPU``."""
        own = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {INDEX_CPU})
        try:
            self.samples.append(sorted(reference_s() for _ in range(3))[1])
        finally:
            os.sched_setaffinity(0, own)

    def factor(self) -> float:
        """A time times this factor, or a rate divided by it, is at the
        reference speed."""
        return REFERENCE_NOMINAL_S / (sum(self.samples) / len(self.samples))


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


@contextlib.contextmanager
def collector_paused():
    """Keep this process's garbage collector off while a segment is timed,
    so the client's own pauses are not charged to the program."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class GcPauses:
    """Collector pauses of this process, per generation (``gc.callbacks``)."""

    def __init__(self) -> None:
        self.count = [0, 0, 0]
        self.total_s = [0.0, 0.0, 0.0]
        self.max_s = [0.0, 0.0, 0.0]
        self._started = 0.0
        gc.callbacks.append(self._observe)

    def _observe(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
            return
        generation = info["generation"]
        pause = time.perf_counter() - self._started
        self.count[generation] += 1
        self.total_s[generation] += pause
        self.max_s[generation] = max(self.max_s[generation], pause)

    def report(self) -> dict:
        return {"count": self.count, "total_s": self.total_s, "max_s": self.max_s}


def peak_rss_mb() -> float:
    """Peak resident set size (VmHWM) of this process, in MiB.

    Read from ``/proc/self/status``: ``getrusage``'s ``ru_maxrss`` would
    also count the benchmark process this child was forked from.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def start_child(argv: List[str]) -> subprocess.Popen:
    """Start a benchmark child process from the checkout root, pipes
    attached, pinned to ``INDEX_CPU``."""
    proc = subprocess.Popen(
        [sys.executable] + argv,
        cwd=ROOT,
        env=child_env(),
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        bufsize=0,
    )
    os.sched_setaffinity(proc.pid, {INDEX_CPU})
    return proc


def read_json_line(proc: subprocess.Popen) -> dict:
    line = proc.stdout.readline()
    if not line:
        code = proc.wait(timeout=30)
        raise RuntimeError(f"child process exited ({code}) before answering")
    return json.loads(line)


def stop_child(proc: Optional[subprocess.Popen]) -> None:
    """Close the child's stdin (its stop signal) and wait for it to end;
    a child still running after ``STOP_TIMEOUT_S`` is killed."""
    if proc is None:
        return
    try:
        if proc.stdin is not None and not proc.stdin.closed:
            proc.stdin.close()
        proc.wait(timeout=STOP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    finally:
        if proc.stdout is not None:
            proc.stdout.close()


def load_json(rel: str) -> dict:
    with open(os.path.join(ROOT, rel), encoding="utf-8") as source:
        return json.load(source)
