PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test docs-check bench-kernel bench-kernel-quick bench-dynamic \
	bench-storage bench-storage-quick bench-tiered bench-tiered-quick \
	bench-serving bench-serving-quick bench-search bench-search-quick \
	bench-paper bench-paper-quick bench

# Tier-1 verification: the full test suite (includes the quick-mode
# benchmark harnesses and the docs-check gate).
test:
	$(PYTHON) -m pytest -x -q

# Documentation gate: fails when a public class (or module) in src/repro
# lacks a docstring, a *_many batch method does not state its amortised
# complexity, a public kernel function exists in one backend but not the
# other, or the ARCHITECTURE.md backend-contract table drifts from
# kernel.KERNEL_CONTRACT.  Also run as part of `make test`.
docs-check:
	$(PYTHON) -m pytest -q tests/test_docstrings.py

# Full-size perf harnesses; each writes its BENCH_*.json at the repo root.
bench-kernel:
	$(PYTHON) benchmarks/bench_kernel.py

# Small-size smoke run of the kernel harness (no JSON written); its seed and
# python-vs-numpy backend cross-checks also run inside tier-1 via
# tests/integration/test_bench_kernel_quick.py.
bench-kernel-quick:
	$(PYTHON) benchmarks/bench_kernel.py --quick

bench-dynamic:
	$(PYTHON) benchmarks/bench_dynamic.py

bench-storage:
	$(PYTHON) benchmarks/bench_storage.py

# Small-size smoke run of the storage harness (no JSON written); its
# tiled-vs-direct and cross-backend differential checks also run inside
# tier-1 via tests/integration/test_bench_storage_quick.py.
bench-storage-quick:
	$(PYTHON) benchmarks/bench_storage.py --quick

bench-tiered:
	$(PYTHON) benchmarks/bench_tiered.py

# Small-size smoke run of the tiered LSM harness (no JSON written); its
# identical-op-stream differential checks against the pure dynamic trie also
# run inside tier-1 via tests/integration/test_bench_tiered_quick.py.
bench-tiered-quick:
	$(PYTHON) benchmarks/bench_tiered.py --quick

bench-serving:
	$(PYTHON) benchmarks/bench_serving.py

# Small-size smoke run of the serving harness (no JSON written); its
# coalescing-on vs coalescing-off byte-identity gate and the
# multi-process cluster replay (sharded worker processes byte-compared
# against the single-process server) also run inside tier-1 via
# tests/integration/test_bench_serving_quick.py.
bench-serving-quick:
	$(PYTHON) benchmarks/bench_serving.py --quick

bench-search:
	$(PYTHON) benchmarks/bench_search.py

# Small-size smoke run of the search harness (no JSON written); its
# differential gates (FM-index counts/locations vs the str.find oracle,
# batched vs scalar backward-search intervals) also run inside tier-1 via
# tests/integration/test_bench_search_quick.py.
bench-search-quick:
	$(PYTHON) benchmarks/bench_search.py --quick

bench-paper:
	$(PYTHON) benchmarks/bench_paper.py

# Small-size smoke run of the paper reproduction harness (no JSON written);
# its deterministic gates (Table 1 space, Section 5 range answers vs the
# naive scan, Section 6 heights, Remark 4.2 Init sizes) also run inside
# tier-1 via tests/integration/test_bench_paper_quick.py.
bench-paper-quick:
	$(PYTHON) benchmarks/bench_paper.py --quick

bench: bench-kernel bench-dynamic bench-storage bench-tiered bench-serving \
	bench-search bench-paper
