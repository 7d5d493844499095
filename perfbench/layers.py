"""Per-layer metrics of a traced run, from the span aggregates of its processes.

The traced run has two processes with wrappers installed: this one (set-up:
build, export or save) and the child holding the index (the launcher or the
search child).  Set-up metrics come from the first, everything else from the
second.  Every metric is emitted for every workload, as 0 where the workload
does not reach the layer.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from statistics import median
from typing import Dict

import common
import tracer as tracing

READ_OPS = ("access", "rank", "select", "rank_prefix", "select_prefix")
# The per-op breakdown as measured (not scaled to the reference speed),
# emitted for every workload (0 where it has no such op).
NAMED = (
    "read_rps", "read_p50_ms", "read_p99_ms",
    "count_qps", "locate_p50_ms", "locate_hits_per_s", "failed_frac",
)


def install_tracer() -> tracing.Tracer:
    """Wrap the layers in this process (the set-up side of the traced pass)."""
    tracer = tracing.Tracer()
    tracing.install(tracer)
    return tracer


def _child_trace(details: dict) -> dict:
    report = details.get("server") or details.get("child") or {}
    path = report.get("trace")
    if not path:
        return {"stats": {}, "spans": [], "spans_dropped": 0}
    with open(os.path.join(common.ROOT, path), encoding="utf-8") as source:
        return json.load(source)


class _Agg:
    def __init__(self, stats: Dict[str, dict]) -> None:
        self.stats = stats

    def _select(self, prefix: str):
        return [s for name, s in self.stats.items() if name == prefix or name.startswith(prefix + ".")]

    def sum(self, prefix: str, field: str) -> float:
        return float(sum(s[field] for s in self._select(prefix)))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(untraced: dict, traced: dict, tracer: tracing.Tracer) -> Dict[str, float]:
    """Every per-layer metric of one workload's traced run."""
    setup = _Agg(tracer.snapshot())
    child = _child_trace(traced["details"])
    # Query-path metrics come from the child alone: building and saving in
    # the set-up process also walk the wavelet tree and the bitvectors.
    served = _Agg(child["stats"])
    details = traced["details"]
    plain = untraced["details"]
    out: Dict[str, float] = {}

    # Serving: the launcher's spans, plus the public stats op of the untraced pass.
    out["serving.decode_s"] = served.sum("serving.decode", "self_s")
    out["serving.encode_s"] = served.sum("serving.encode", "self_s")
    out["serving.tick_self_s"] = served.sum("serving.tick", "self_s")
    stats = (plain.get("stats") or {}).get("metrics", {})
    batches = stats.get("batches", {})
    read_batches = [batches[op] for op in READ_OPS if op in batches]
    out["serving.batch_width_mean"] = _ratio(
        sum(b["requests"] for b in read_batches), sum(b["batches"] for b in read_batches)
    )
    latency = stats.get("latency", {})
    for op in READ_OPS:
        out[f"serving.server_p50_ms.{op}"] = float(latency.get(op, {}).get("p50_ms", 0.0))

    # Core.
    # The benchmark's own build only: the export's rebuild is export time.
    out["core.build_s"] = float(details.get("build_s", 0.0))
    out["core.trie_read_self_s"] = served.sum("core.trie_read", "self_s")

    # Bitvectors.
    out["bitvector.rrr.scalar_calls"] = sum(
        served.sum(f"bitvector.rrr.{op}", "calls") for op in ("access", "rank", "select")
    )
    out["bitvector.rrr.self_s"] = served.sum("bitvector.rrr", "self_s")
    out["bitvector.fallback_hits"] = served.sum("bitvector.fallback", "calls")
    out["bitvector.sparse.select_calls"] = served.sum("bitvector.sparse.select", "calls")

    # Wavelet tree and text index.
    rank_many_calls = served.sum("wavelet.huffman.rank_many", "calls")
    out["wavelet.huffman.rank_many_calls"] = rank_many_calls
    out["wavelet.huffman.rank_many_width_mean"] = _ratio(
        served.sum("wavelet.huffman.rank_many", "width"), rank_many_calls
    )
    out["wavelet.huffman.self_s"] = served.sum("wavelet.huffman", "self_s")
    out["text.count_many_self_s"] = served.sum("text.fm.count_many", "self_s")
    out["text.locate_self_s"] = served.sum("text.fm.locate", "self_s")
    # Each LF step of locate is one row in a BWT access_many batch.
    out["text.lf_steps_per_hit"] = _ratio(
        served.sum("wavelet.huffman.access_many", "width"), details.get("locate_hits", 0)
    )

    # Kernel.
    out["kernel.calls"] = served.sum("kernel", "calls")

    # Storage.
    out["storage.export_s"] = setup.sum("storage.export", "total_s")
    out["storage.open_image_s"] = served.sum("storage.open_image", "total_s")
    out["storage.image_bytes"] = float(details.get("image_bytes", 0))
    out["storage.image_sections"] = float(details.get("image_sections", 0))
    out["storage.rwt1_save_s"] = setup.sum("storage.rwt1_save", "total_s")
    out["storage.rwt1_load_s"] = served.sum("storage.rwt1_load", "total_s")

    # Each layer's self time in the process holding the index (kernel.self_s
    # among them); the set-up side is reported by the set-up metrics above.
    for layer in tracing.LAYERS:
        out[f"{layer}.self_s"] = served.sum(layer, "self_s")

    # The collector of the process holding the index (untraced pass: the
    # wrappers' own allocations would add collections).
    gc_report = (plain.get("server") or plain["child"])["gc"]
    out["runtime.gc_gen2_collections"] = float(gc_report["count"][2])
    out["runtime.gc_pause_s"] = float(sum(gc_report["total_s"]))
    out["runtime.gc_pause_max_ms"] = max(gc_report["max_s"]) * 1e3

    # Validity of the load generator and of the host-speed scaling, and the
    # untraced end-to-end breakdown.
    out["loadgen.lag_ms"] = float(plain.get("lag_ms_p99", 0.0))
    out["host.reference_ms"] = median(plain["reference_s"]) * 1e3
    for name in NAMED:
        out[f"e2e.{name}"] = float(untraced["named"].get(name, 0.0))
    for name in untraced["metrics"]:
        out[f"trace.overhead.{name}"] = traced["metrics"][name] - untraced["metrics"][name]
    out["trace.spans"] = float(len(tracer.spans) + len(child["spans"]))
    out["trace.spans_dropped"] = float(tracer.dropped + child["spans_dropped"])

    # Top kernel functions by self time, for the record only.
    kernel = Counter({
        name: stats["self_s"] for name, stats in served.stats.items() if name.startswith("kernel.")
    })
    traced["details"]["kernel_top_self_s"] = kernel.most_common(5)
    setup_spans = os.path.join(common.OUT_REL, "results", "setup-trace.json")
    os.makedirs(os.path.join(common.ROOT, common.OUT_REL, "results"), exist_ok=True)
    tracer.dump(os.path.join(common.ROOT, setup_spans))
    traced["details"]["setup_trace"] = setup_spans
    return out
