"""Smoke test of the benchmark itself: tiny sizes, every workload.

Usage (from the root of a checkout)::

    python3 perfbench/smoke.py

Checks that

* each workload, with ``--trace 0`` and ``--trace 1``, ends with a result
  line carrying every end-to-end (respectively per-layer) metric named in
  ``BENCHMARK.json``, with its unit;
* the per-layer metrics each workload must move are above 0, so a function
  renamed in the program cannot leave them quietly at 0;
* the oracle gate runs: a wrong expected answer makes ``run.py`` exit with
  status 1 and print no result line;
* in a directory holding only ``BENCHMARK.json`` and the benchmark, the
  command exits nonzero without a result.

Named ``smoke.py``, not ``test_*.py``, so the repository's test suite does
not collect it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402
import run  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Per-layer metrics that must be above 0 on each workload.
MUST_MOVE = {
    "serve-read": (
        "serving.tick_self_s", "core.trie_read_self_s", "bitvector.rrr.scalar_calls",
        "kernel.calls", "core.build_s", "storage.export_s", "storage.open_image_s",
    ),
    "doc-search": (
        "text.count_many_self_s", "text.locate_self_s", "wavelet.huffman.rank_many_calls",
        "bitvector.sparse.select_calls", "storage.rwt1_save_s", "storage.rwt1_load_s",
    ),
}


def run_tiny(workload: str, trace: int, cwd: str = common.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "2", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def check_metrics(workload: str, spec: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_tiny(workload, trace)
        assert proc.returncode == 0, f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}"
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == RESULT_KEYS, sorted(result)
        assert result["correct"] is True and result["attempted"] >= 1
        assert isinstance(result["failed"], int)
        wanted = {entry["name"]: entry["unit"] for entry in spec[key]}
        assert set(result["metrics"]) == set(wanted), set(result["metrics"]) ^ set(wanted)
        for name, unit in wanted.items():
            metric = result["metrics"][name]
            assert metric["unit"] == unit, (name, metric)
            assert isinstance(metric["value"], (int, float)), (name, metric)
        must_move = wanted if trace == 0 else MUST_MOVE[workload]
        for name in must_move:
            assert result["metrics"][name]["value"] > 0, (workload, name, result["metrics"][name])
        print(f"ok  {workload:<13} trace {trace}: {len(wanted)} metrics")


def check_oracle_gate() -> None:
    """A wrong oracle answer must stop the run: exit 1, no result line."""
    import docsearch
    import served

    read_request = served.Oracle.read_request
    positions = docsearch.TextOracle.positions

    def wrong_read(self, rng, op):
        payload, answer = read_request(self, rng, op)
        return payload, ["not", "the", "answer", answer]

    def wrong_positions(self, pattern):
        return positions(self, pattern) + [-1]

    for workload, owner, attr, fake in (
        ("serve-read", served.Oracle, "read_request", wrong_read),
        ("doc-search", docsearch.TextOracle, "positions", wrong_positions),
    ):
        original = getattr(owner, attr)
        setattr(owner, attr, fake)
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run.main(["--workload", workload, "--seed", "1", "--seconds", "2", "--tiny"])
        finally:
            setattr(owner, attr, original)
        assert code == 1, (workload, code, err.getvalue())
        assert "oracle mismatch" in err.getvalue(), err.getvalue()
        assert '"correct"' not in out.getvalue(), out.getvalue()
        print(f"ok  {workload:<13} oracle gate stops the run")


def check_bare_directory() -> None:
    """Without the program's sources the command fails without a result."""
    bare = os.path.join(common.ROOT, common.OUT_REL, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(common.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run_tiny("serve-read", 0, cwd=bare)
        assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  bare directory exits nonzero without a result")


def main() -> int:
    spec = run.benchmark_spec()
    for workload in run.WORKLOADS:
        check_metrics(workload, spec)
    check_oracle_gate()
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
