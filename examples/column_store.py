#!/usr/bin/env python3
"""Column-oriented storage on compressed indexes.

Models the database scenario of the paper's introduction: each column of a
relation is stored as an indexed sequence of strings.  Filters (equality and
prefix), projections and GROUP BY run on the Wavelet Trie primitives, and the
example compares the compressed footprint with the uncompressed column.

Run with:  python examples/column_store.py
"""

import random

from repro.baselines import NaiveIndexedSequence
from repro.db import ColumnStore
from repro.workloads import ColumnGenerator


def main() -> None:
    rows = 4000
    rng = random.Random(99)
    location_gen = ColumnGenerator(cardinality=48, zipf_exponent=1.1, seed=5)
    locations = location_gen.generate(rows)
    statuses = [rng.choice(["ok", "ok", "ok", "retry", "error"]) for _ in range(rows)]
    services = [rng.choice(["web", "api", "batch"]) for _ in range(rows)]

    table = ColumnStore(["location", "status", "service"])
    for location, status, service in zip(locations, statuses, services):
        table.append_row({"location": location, "status": status, "service": service})

    print(f"rows                      : {len(table)}")
    print(f"compressed table size     : {table.size_in_bits() / 8 / 1024:.1f} KiB")
    print()

    print("=== SELECT count(*) WHERE status = 'error' AND location LIKE 'emea/%' ===")
    count = table.count_where({"status": "error"}, {"location": "emea/"})
    print(f"matching rows             : {count}")
    sample = table.filter({"status": "error"}, {"location": "emea/"})[:5]
    for row in table.project(sample, ["location", "service"]):
        print(f"  {row}")
    print()

    print("=== GROUP BY location prefix (region roll-up on the first 2000 rows) ===")
    for region in ["emea/", "amer/", "apac/", "latam/"]:
        in_window = table.column("location").count_prefix(region, end_row=2000)
        print(f"  {region:<7} {in_window:5d}")
    print()

    print("=== top locations overall (best-first top-k on the column index) ===")
    for value, count in table.column("location").top_values(5):
        print(f"  {count:5d}  {value}")
    print()

    print("=== space: Wavelet Trie column vs. uncompressed list ===")
    compressed = table.column("location").size_in_bits()
    naive = NaiveIndexedSequence(locations).size_in_bits()
    print(f"  Wavelet Trie column     : {compressed / 8 / 1024:8.1f} KiB")
    print(f"  uncompressed list       : {naive / 8 / 1024:8.1f} KiB")


if __name__ == "__main__":
    main()
