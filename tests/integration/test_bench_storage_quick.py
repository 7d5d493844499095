"""Quick-mode run of the storage cold-open benchmark harness.

Runs ``benchmarks/bench_storage.py`` at small sizes inside the test suite so
the harness (and its embedded differential checks -- tiled-vs-direct build
equality, image queries identical under every backend and to the RWT1
rebuild) cannot silently break.  No latency thresholds are asserted here --
tiny sizes and CI noise would make that flaky; the committed
``BENCH_storage.json`` records the full-size numbers.
"""

import importlib.util
from pathlib import Path

BENCH_PATH = (
    Path(__file__).resolve().parent.parent.parent / "benchmarks" / "bench_storage.py"
)


def load_bench_module():
    spec = importlib.util.spec_from_file_location("bench_storage", BENCH_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_storage_quick_mode():
    bench = load_bench_module()
    # run() embeds equality assertions (tiled trie vs direct build, image
    # queries under every backend vs the in-memory original and the RWT1
    # rebuild), so completing without error is itself a correctness check.
    payload = bench.run(quick=True, repeats=1)
    assert payload["quick"] is True
    assert "python" in payload["backends"]
    assert len(payload["results"]) == 2
    smallest = min(payload["results"].values(), key=lambda entry: entry["elements"])
    assert smallest["open_speedup_vs_rwt1"] > 0
    for entry in payload["results"].values():
        assert entry["rwt2_open_s"] > 0
        assert entry["rwt2_bytes"] > 0
        # Quick mode never spawns subprocesses or writes outside tempdirs.
        assert "cold_rwt2" not in entry
    # One section per element kind, whatever the node count.
    high = payload["high_cardinality"]
    assert high["distinct"] > 1000
    assert high["rwt2_sections"] <= 4
    padding = high["rwt2_bytes"] - high["rwt2_header_bytes"] - high["rwt2_payload_bytes"]
    assert padding < 5 * 4096
    assert "cold_rwt2" not in high


def test_bench_storage_restores_active_backend():
    """The harness switches backends for its differential checks but must
    leave the session's active backend untouched."""
    from repro.bits import kernel

    bench = load_bench_module()
    before = kernel.active_backend()
    bench.run(quick=True, repeats=1)
    assert kernel.active_backend() == before
