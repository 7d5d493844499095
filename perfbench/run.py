"""The repository benchmark: one command for every workload.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve-read --seed 3 --seconds 30 --trace 0

Workloads (see ``perfbench/README.md`` for sizes, loops and layers):

* ``serve-read`` -- frozen read path of a served RWT2 image;
* ``doc-search`` -- FM-index document search in a child process.

With ``--trace 0`` the last line of standard output is one JSON object with
every end-to-end metric named in ``BENCHMARK.json``.  With ``--trace 1`` the
run measures the workload twice, untraced and then with every layer's public
functions wrapped (``perfbench/tracer.py``), and reports every per-layer
metric, including the tracing overhead of each end-to-end metric (traced
minus untraced).  Any oracle mismatch exits with status 1 and no result
line; so does a checkout without the program's sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402

WORKLOADS = ("serve-read", "doc-search")
# Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="tiny sizes and one set-up, for the smoke test only",
    )
    return parser.parse_args(argv)


def benchmark_spec() -> dict:
    with open(os.path.join(common.ROOT, "BENCHMARK.json"), encoding="utf-8") as source:
        return json.load(source)


def environment(args: argparse.Namespace, result: dict) -> dict:
    """What a result was measured on, recorded next to every result."""
    from repro.bits import kernel

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    details = result["details"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rows": details.get("rows"),
        "documents": details.get("documents"),
        "nproc": len(os.sched_getaffinity(0)),
        "kernel_backend": kernel.active_backend(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def run_pass(args: argparse.Namespace, trace: bool, setups: int) -> dict:
    if args.workload == "doc-search":
        import docsearch as workload
    else:
        import served as workload
    return workload.run(args.workload, args.seed, args.seconds, trace, args.tiny, setups)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not common.program_present():
        print("perfbench: no program sources (src/repro) in this checkout", file=sys.stderr)
        return 2
    # The benchmark runs under the default kernel backend.
    os.environ.pop("REPRO_KERNEL_BACKEND", None)
    # The child holding the index gets a CPU of its own (common.INDEX_CPU).
    os.sched_setaffinity(0, common.CLIENT_CPUS)
    sys.path.insert(0, common.SRC)
    spec = benchmark_spec()
    setups = 1 if args.tiny else SETUPS
    try:
        if args.trace:
            import layers

            untraced = run_pass(args, False, 1)
            tracer = layers.install_tracer()
            traced = run_pass(args, True, 1)
            result = traced
            values = layers.per_layer(untraced, traced, tracer)
            wanted = spec["per_layer"]
        else:
            result = run_pass(args, False, setups)
            values = result["metrics"]
            wanted = spec["end_to_end"]
    except common.OracleMismatch as error:
        print(f"perfbench: oracle mismatch: {error}", file=sys.stderr)
        return 1

    env = environment(args, result)
    record = {"environment": env, "named": result["named"], "details": result["details"], "metrics": values}
    results_dir = os.path.join(common.ROOT, common.OUT_REL, "results")
    os.makedirs(results_dir, exist_ok=True)
    record_path = os.path.join(
        results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(record_path, "w", encoding="utf-8") as sink:
        json.dump(record, sink, indent=1, default=str)

    print("environment " + json.dumps(env, sort_keys=True))
    for name, value in sorted(result["named"].items()):
        print(f"{args.workload:>12} {name:<28} {value:14.4f}")
    metrics = {}
    for entry in wanted:
        metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
        print(f"{args.workload:>12} {entry['name']:<28} {values[entry['name']]:14.4f} {entry['unit']}")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
