"""Run-time tracing of the program's layers, installed from outside ``src/``.

:func:`install` wraps the public functions of every layer (serving, db,
core, storage, text, wavelet, bitvector, kernel) in timing and counting
wrappers.  Nothing in the program is edited: the wrappers replace the
function objects in the classes and module namespaces that hold them, so
callers that imported a name with ``from ... import`` see the wrapper too.

Each wrapped call is one span: name, start, end, parent span, and the
request id where the call carries one.  Spans are kept in memory (up to a
cap; calls past it still count towards the aggregates) and written out by
:meth:`Tracer.dump` when the run ends.  A span's *self* time is its
duration minus the time covered by its wrapped children, so each layer's
self time adds up without double counting.

Every wrapped function is synchronous, so on the single-threaded event loop
one call stack is exact: an ``await`` never happens inside a span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional

# Span cap per process: enough for the coarse layers of a run while keeping
# the traced process's memory bounded (the fine-grained kernel and
# bitvector calls of one run number in the millions).
SPAN_CAP = 200_000

LAYERS = ("serving", "db", "core", "storage", "text", "wavelet", "bitvector", "kernel")


class Tracer:
    """Per-process span store and per-name aggregates."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.origin = self.clock()
        self.spans: List[tuple] = []
        self.dropped = 0
        self.next_id = 1
        self.stack: List[list] = []
        # name -> [calls, total_s, self_s, max_s, width]
        self.stats: Dict[str, list] = {}

    def wrap(
        self,
        name: str,
        fn: Callable,
        width_arg: Optional[int] = None,
        request_id: Optional[Callable] = None,
    ) -> Callable:
        """A wrapper recording one span per call of ``fn`` under ``name``.

        ``width_arg`` is the index of a positional sequence argument whose
        length is summed (the batch width of a ``*_many`` call);
        ``request_id`` extracts the request id from ``(args, result)``.
        """
        stack = self.stack
        clock = self.clock
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0.0, 0])

        spans = self.spans
        origin = self.origin

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self.next_id
            self.next_id = span_id + 1
            frame = [0.0, span_id]  # child time, id
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[0]
                if elapsed > stats[3]:
                    stats[3] = elapsed
                if width_arg is not None and len(args) > width_arg:
                    stats[4] += len(args[width_arg])
                if parent is not None:
                    parent[0] += elapsed
                if len(spans) < SPAN_CAP:
                    rid = None
                    if request_id is not None and result is not None:
                        rid = request_id(args, result)
                    spans.append(
                        (
                            span_id,
                            parent[1] if parent is not None else 0,
                            name,
                            start - origin,
                            end - origin,
                            rid,
                        )
                    )
                else:
                    self.dropped += 1

        traced.__wrapped_by_tracer__ = True
        return traced

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Per-name aggregates: calls, total, self and max seconds, width."""
        return {
            name: {
                "calls": s[0],
                "total_s": s[1],
                "self_s": s[2],
                "max_s": s[3],
                "width": s[4],
            }
            for name, s in self.stats.items()
            if s[0]
        }

    def dump(self, path: str) -> None:
        """Write the aggregates and every kept span as one JSON file."""
        with open(path, "w", encoding="utf-8") as sink:
            json.dump(
                {
                    "stats": self.snapshot(),
                    "spans_dropped": self.dropped,
                    "span_fields": ["id", "parent", "name", "start_s", "end_s", "request_id"],
                    "spans": self.spans,
                },
                sink,
            )


# ----------------------------------------------------------------------
# What gets wrapped
# ----------------------------------------------------------------------
_READS = (
    "access", "rank", "select", "rank_prefix", "select_prefix", "count", "count_prefix",
    "access_many", "rank_many", "select_many", "rank_prefix_many", "select_prefix_many",
)
_BATCH_WIDTH = {
    "access_many": 1, "rank_many": 2, "select_many": 2,
    "rank_prefix_many": 2, "select_prefix_many": 2, "count_many": 1,
}

# (span name prefix, class path, methods).  ``None`` methods: every public
# plain function the class itself defines.
_CLASS_TARGETS = [
    ("db.snapshot", "repro.db.column:ColumnSnapshot", _READS),
    ("db.docs", "repro.db.doc_store:DocumentStore", ("count", "count_many", "locate")),
    ("core.tiered_read", "repro.core.tiers:TieredWaveletTrie", _READS),
    ("core.trie_read", "repro.core.static:WaveletTrie", _READS),
    ("core.trie_read", "repro.core.succinct_static:SuccinctWaveletTrie", _READS),
    ("core.build", "repro.core.static:WaveletTrie", ("__init__",)),
    ("text.fm", "repro.text.fm_index:FMIndex", ("count", "count_many", "locate", "extract")),
    ("wavelet.huffman", "repro.wavelet.huffman:HuffmanWaveletTree", None),
    ("bitvector.rrr", "repro.bitvector.rrr:RRRBitVector", None),
    ("bitvector.fallback", "repro.bitvector.base:StaticBitVector", ("access_many", "rank_many")),
    ("bitvector.sparse", "repro.bitvector.sparse:SparseBitVector", None),
    ("bitvector.plain", "repro.bitvector.plain:PlainBitVector", None),
]

# (span name, module, function): module-level public functions.
_FUNCTION_TARGETS = [
    ("serving.decode", "repro.serving.protocol", "decode_frame"),
    ("serving.encode", "repro.serving.protocol", "encode_result"),
    ("serving.encode_error", "repro.serving.protocol", "encode_error"),
    ("serving.tick", "repro.serving.coalescer", "run_read_tick"),
    ("storage.export", "repro.storage.shards", "export_shard_images"),
    ("storage.open_worker_columns", "repro.storage.shards", "open_worker_columns"),
    ("storage.open_image", "repro.storage.image", "open_image"),
    ("storage.save_image", "repro.storage.image", "save_image"),
    ("storage.rwt1_save", "repro.storage.format", "save"),
    ("storage.rwt1_load", "repro.storage.format", "load"),
]

# Targets with one method each, named by the prefix alone.
_SINGLE_NAME = {"core.build"}

_KERNEL_SKIP = {"use_backend", "active_backend", "available_backends"}


def _request_id_of_result(args, result):
    return getattr(result, "id", None)


def _request_id_of_first_arg(args, result):
    return args[0]


_REQUEST_IDS = {
    "serving.decode": _request_id_of_result,
    "serving.encode": _request_id_of_first_arg,
    "serving.encode_error": _request_id_of_first_arg,
}


def _resolve(path: str):
    module_name, _, qualname = path.partition(":")
    obj: Any = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def _repoint(original: Callable, replacement: Callable) -> None:
    """Replace ``original`` in every loaded ``repro`` module namespace."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = replacement


def install(tracer: Tracer) -> None:
    """Wrap every target in this process.

    A method or function named explicitly above that the program no longer
    has raises ``AttributeError``, so a renamed function cannot leave its
    metrics silently at 0.
    """
    # Import every layer first so module namespaces exist to re-point.
    for module_name in (
        "repro", "repro.serving", "repro.storage", "repro.db.doc_store",
        "repro.text.fm_index", "repro.wavelet.huffman", "repro.bits.kernel",
        "repro.core.tiers", "repro.bitvector.sparse",
    ):
        importlib.import_module(module_name)

    for prefix, class_path, methods in _CLASS_TARGETS:
        cls = _resolve(class_path)
        if methods is None:
            methods = [
                attr for attr, value in vars(cls).items()
                if inspect.isfunction(value) and not attr.startswith("_")
                and not inspect.isgeneratorfunction(value)
            ]
        for method in methods:
            fn = vars(cls).get(method)
            if fn is None:
                # Inherited: wrap on this class only, so the span names the
                # class that answered, not the base that implements it.
                fn = getattr(cls, method)
            if not inspect.isfunction(fn) or inspect.isgeneratorfunction(fn):
                raise AttributeError(f"{class_path}.{method} is not a plain function")
            if getattr(fn, "__wrapped_by_tracer__", False):
                fn = fn.__wrapped__
            name = prefix if prefix in _SINGLE_NAME else f"{prefix}.{method}"
            offset = _BATCH_WIDTH.get(method)
            setattr(cls, method, tracer.wrap(name, fn, width_arg=offset))

    for name, module_name, attr in _FUNCTION_TARGETS:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        _repoint(original, tracer.wrap(name, original, request_id=_REQUEST_IDS.get(name)))

    kernel = importlib.import_module("repro.bits.kernel")
    for attr in kernel.__all__:
        original = getattr(kernel, attr, None)
        if attr in _KERNEL_SKIP or not inspect.isfunction(original):
            continue
        if inspect.isgeneratorfunction(original):
            continue
        _repoint(original, tracer.wrap(f"kernel.{attr}", original))
