"""Quick-mode run of the paper reproduction benchmark harness.

Runs ``benchmarks/bench_paper.py`` at small sizes inside the test suite.
``run()`` asserts every gate itself -- the Table 1 space claims, the
Section 6 height bounds, the Remark 4.2 ``Init`` sizes and the Section 5
range answers against the naive scan -- and all of them are deterministic,
so they hold at quick size too.  The committed ``BENCH_paper.json`` must
come from a full-size run with the same gates, all true.
"""

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
BENCH_PATH = REPO_ROOT / "benchmarks" / "bench_paper.py"


def load_bench_module():
    spec = importlib.util.spec_from_file_location("bench_paper", BENCH_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def quick_payload():
    return load_bench_module().run(quick=True)


def test_bench_paper_quick_mode(quick_payload):
    assert quick_payload["quick"] is True
    assert quick_payload["gates"] and all(quick_payload["gates"].values())
    assert {row["variant"] for row in quick_payload["table1_space"]} == {
        "static",
        "append-only",
        "dynamic",
    }


def test_committed_payload_is_full_size_with_every_gate_true(quick_payload):
    payload = json.loads((REPO_ROOT / "BENCH_paper.json").read_text())
    assert payload["quick"] is False
    assert payload["gates"].keys() == quick_payload["gates"].keys()
    assert all(payload["gates"].values())
    assert {row["n"] for row in payload["table1_space"]} == {4_000}
    assert sorted({row["n"] for row in payload["table1_time"]}) == [500, 2_000, 8_000]
