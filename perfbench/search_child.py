"""The doc-search child: load an RWT1 document store and answer queries.

Usage (from the root of a checkout)::

    python3 perfbench/search_child.py --index FILE --out FILE [--trace]

Loads the store with the public ``repro.storage.load``, as every
``repro search`` call does, prints ``{"ready": ...}``, then answers one
request per line on standard input with one JSON line on standard output:

* ``C <json list of patterns>`` -> ``count_many`` of the patterns;
* ``L <pattern>`` -> ``locate`` of the pattern, as ``[[doc, offset], ...]``.

At end of input it writes ``FILE`` with its peak RSS (VmHWM) and, with
``--trace``, the spans and per-layer aggregates.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import GcPauses, peak_rss_mb  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--index", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    pauses = GcPauses()
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    from repro.storage import load

    started = time.perf_counter()
    store = load(args.index)
    load_s = time.perf_counter() - started
    out = sys.stdout
    out.write(json.dumps({"ready": True, "load_s": load_s, "documents": len(store)}) + "\n")
    out.flush()
    for line in sys.stdin:
        kind, _, body = line.rstrip("\n").partition(" ")
        if kind == "C":
            answer = store.count_many(json.loads(body))
        elif kind == "L":
            answer = store.locate(body)
        else:
            raise SystemExit(f"unknown request kind {kind!r}")
        out.write(json.dumps(answer, separators=(",", ":")) + "\n")
        out.flush()
    info = {"load_s": load_s, "rss_mb": peak_rss_mb(), "gc": pauses.report()}
    if tracer is not None:
        info["trace"] = args.out + ".trace.json"
        tracer.dump(info["trace"])
    with open(args.out, "w", encoding="utf-8") as sink:
        json.dump(info, sink)
    return 0


if __name__ == "__main__":
    sys.exit(main())
