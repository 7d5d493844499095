"""Quick-mode run of the kernel microbenchmark harness.

Runs ``benchmarks/bench_kernel.py`` at small sizes inside the test suite so
the perf harness (and its seed-replica cross-checks, which assert that kernel
answers equal the seed implementation's) cannot silently break.  No speedup
thresholds are asserted here -- tiny sizes and CI noise would make that flaky;
the committed ``BENCH_kernel.json`` records the full-size numbers.
"""

import importlib.util
from pathlib import Path

from repro.bits import kernel

BENCH_PATH = (
    Path(__file__).resolve().parent.parent.parent / "benchmarks" / "bench_kernel.py"
)

EXPECTED_SECTIONS = {
    "select",
    "rank",
    "rank_plain_batch",
    "access",
    "iter_range",
    "wavelet_build",
}


def load_bench_module():
    spec = importlib.util.spec_from_file_location("bench_kernel", BENCH_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


EXPECTED_BACKEND_SECTIONS = {
    "pack_bits",
    "directory_build",
    "rank_many",
    "access_many",
    "select_many",
    "wavelet_build",
}


def test_bench_kernel_quick_mode():
    bench = load_bench_module()
    # run() embeds equality assertions of kernel answers vs the seed replica
    # and of the numpy backend vs the python backend, so completing without
    # error is itself a correctness check.
    payload = bench.run(quick=True, repeats=1)
    assert payload["quick"] is True
    assert set(payload["results"]) == EXPECTED_SECTIONS
    for name, entry in payload["results"].items():
        assert entry["ops"] > 0, name
        assert entry["seed_ops_per_sec"] > 0, name
        assert entry["kernel_ops_per_sec"] > 0, name
        assert entry["speedup"] > 0, name
    # The RRR batch rows run (and cross-check batch against scalar answers)
    # under every available backend, numpy-free installs included.
    rrr = payload["rrr_batch"]
    assert rrr["backends"] == list(kernel.available_backends())
    assert set(rrr["rows"]) == {"rrr_access_many", "rrr_rank_many", "decode"}
    for row in rrr["rows"].values():
        assert set(row) == {f"class_{cls}" for cls in bench.RRR_CLASSES}
        for entry in row.values():
            assert entry["ops"] > 0
            for backend in rrr["backends"]:
                assert entry[backend]["speedup"] > 0
    backends = payload["backends"]
    assert "python" in backends["available"]
    if "numpy" not in backends["available"]:
        assert "results" not in backends  # numpy-free installs: list only
        return
    assert set(backends["results"]) == EXPECTED_BACKEND_SECTIONS
    for name, entry in backends["results"].items():
        assert entry["ops"] > 0, name
        assert entry["python_ops_per_sec"] > 0, name
        assert entry["numpy_ops_per_sec"] > 0, name
        # No speedup thresholds here (tiny sizes + CI noise); the committed
        # BENCH_kernel.json records the full-size numbers.
        assert entry["numpy_speedup"] > 0, name


def test_bench_kernel_restores_active_backend():
    """The harness switches backends internally but must leave the session's
    active backend untouched."""
    from repro.bits import kernel

    bench = load_bench_module()
    before = kernel.active_backend()
    bench.run(quick=True, repeats=1)
    assert kernel.active_backend() == before
