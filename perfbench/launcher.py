"""Serve one RWT2 shard image as a separate process, for the served workloads.

Usage (from the root of a checkout)::

    python3 perfbench/launcher.py --image-dir DIR --socket PATH --out FILE [--trace]

Opens the image through the public ``open_worker_columns`` API, serves it
with :class:`repro.serving.IndexServer` on a unix socket, and prints one
JSON line ``{"ready": ...}`` once the socket accepts connections.  Closing
its standard input stops the server gracefully; the launcher then writes
``FILE``: the peak RSS (VmHWM) of this process, which is the process holding
the index, and with ``--trace`` every span and per-layer aggregate.  The
launcher is the same with and without ``--trace``; only the wrappers differ.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import GcPauses, peak_rss_mb  # noqa: E402


async def serve(args: argparse.Namespace, tracer) -> dict:
    from repro.serving import IndexServer, ServerConfig
    from repro.storage import load_manifest, open_worker_columns

    started = time.perf_counter()
    columns = open_worker_columns(args.image_dir, load_manifest(args.image_dir), 0)
    open_s = time.perf_counter() - started
    server = IndexServer(columns, ServerConfig(unix_path=args.socket))
    await server.start()
    rows = len(columns["default"])
    print(json.dumps({"ready": True, "open_s": open_s, "rows": rows}), flush=True)

    loop = asyncio.get_running_loop()
    # Standard input closing is the stop signal.
    await loop.run_in_executor(None, sys.stdin.buffer.read)
    await server.stop()
    return {"open_s": open_s, "rows": rows}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--image-dir", required=True)
    parser.add_argument("--socket", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    pauses = GcPauses()
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    info = asyncio.run(serve(args, tracer))
    info["rss_mb"] = peak_rss_mb()
    info["gc"] = pauses.report()
    if tracer is not None:
        trace_path = args.out + ".trace.json"
        tracer.dump(trace_path)
        info["trace"] = trace_path
    with open(args.out, "w", encoding="utf-8") as sink:
        json.dump(info, sink)
    return 0


if __name__ == "__main__":
    sys.exit(main())
