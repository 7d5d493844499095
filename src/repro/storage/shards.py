"""Per-shard RWT2 image export: the cluster's on-disk exchange format.

The multi-process cluster communicates its data to worker processes
through the filesystem: the supervisor splits every logical column into
position ranges (:func:`repro.db.partition.partition_ranges`), writes each
range as one RWT2 frozen image, and records the layout in a
``manifest.json``.  A worker then needs nothing but the manifest and its
worker index: it ``open_image``-mmaps its slices -- zero-copy, page cache
shared with any co-resident worker -- and serves them.

Each slice is written as a ``tiered_trie`` image holding a single frozen
RRR tier, because of how that image type reopens: a loaded
:class:`~repro.core.tiers.TieredWaveletTrie` gets a fresh *mutable* tail
over its mmap'd frozen tiers.  The tail worker therefore absorbs appends
without copying its frozen slice, while non-tail workers wrap the same
shape read-only -- the single-writer ownership rule enforced at the column
level.

The manifest is the recovery anchor: bounds, column names, and image file
names are all the supervisor needs to respawn a crashed worker into
exactly its starting state (the write journal replays the rest).
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Union

from repro.db.column import CompressedColumn
from repro.db.partition import as_column_dict, partition_ranges, slice_column
from repro.core.tiers import TieredWaveletTrie
from repro.exceptions import SerializationError
from repro.storage.image import open_image, save_image

__all__ = ["MANIFEST_NAME", "export_shard_images", "load_manifest", "open_worker_columns"]

MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = "rwt2-cluster"
MANIFEST_VERSION = 1
_MANIFEST_FIELDS = ("workers", "columns", "images")


def export_shard_images(
    source,
    directory: Union[str, os.PathLike],
    num_workers: int,
    *,
    active_capacity: int = 65536,
    compact_budget: int = 32,
) -> Dict[str, Any]:
    """Split ``source`` into per-worker RWT2 images under ``directory``.

    ``source`` is anything :func:`~repro.db.partition.as_column_dict`
    accepts (a column, a store, or a name->column dict); every column must
    have the same row count (they partition by the same row ranges).
    Writes one image per (column, worker) plus ``manifest.json``, and
    returns the manifest dict.
    """
    columns = as_column_dict(source)
    if not columns:
        raise ValueError("nothing to export: source has no columns")
    totals = {name: len(column) for name, column in columns.items()}
    if len(set(totals.values())) != 1:
        raise ValueError(f"columns must share one row count, got {totals}")
    total = next(iter(totals.values()))
    ranges = partition_ranges(total, num_workers)

    directory = os.fspath(directory)
    os.makedirs(directory, exist_ok=True)
    images: Dict[str, List[str]] = {}
    for position, (name, column) in enumerate(sorted(columns.items())):
        files: List[str] = []
        for worker, (lo, hi) in enumerate(ranges):
            slice_static = slice_column(column, lo, hi, name)
            shard_trie = TieredWaveletTrie._from_parts(
                [slice_static.index],
                None,
                slice_static.index.codec,
                active_capacity,
                compact_budget,
                0x5EED,
            )
            file_name = f"c{position}-w{worker}.rwt2"
            save_image(shard_trie, os.path.join(directory, file_name))
            files.append(file_name)
        images[name] = files

    manifest: Dict[str, Any] = {
        "format": MANIFEST_FORMAT,
        "version": MANIFEST_VERSION,
        "workers": num_workers,
        "partition": {
            "kind": "position_range",
            "bounds": [0] + [hi for _, hi in ranges],
        },
        "columns": sorted(columns),
        "images": images,
    }
    payload = json.dumps(manifest, indent=2, sort_keys=True)
    tmp_path = os.path.join(directory, MANIFEST_NAME + ".tmp")
    with open(tmp_path, "w", encoding="utf-8") as sink:
        sink.write(payload + "\n")
        sink.flush()
        os.fsync(sink.fileno())
    os.replace(tmp_path, os.path.join(directory, MANIFEST_NAME))
    return manifest


def load_manifest(directory: Union[str, os.PathLike]) -> Dict[str, Any]:
    """Read and validate the cluster manifest under ``directory``."""
    path = os.path.join(os.fspath(directory), MANIFEST_NAME)
    with open(path, "r", encoding="utf-8") as source:
        manifest = json.load(source)
    if not isinstance(manifest, dict) or manifest.get("format") != MANIFEST_FORMAT:
        raise SerializationError(f"{path}: not a {MANIFEST_FORMAT} manifest")
    if manifest.get("version") != MANIFEST_VERSION:
        raise SerializationError(
            f"{path}: unsupported manifest version {manifest.get('version')!r}"
        )
    _check_manifest_fields(manifest, path)
    return manifest


def _check_manifest_fields(manifest: Dict[str, Any], source: str) -> None:
    missing = [field for field in _MANIFEST_FIELDS if field not in manifest]
    if missing:
        raise SerializationError(f"{source}: manifest is missing {missing}")


def open_worker_columns(
    directory: Union[str, os.PathLike],
    manifest: Dict[str, Any],
    worker: int,
    *,
    appendable: Optional[bool] = None,
) -> Dict[str, CompressedColumn]:
    """Mmap one worker's shard images back as servable columns.

    ``appendable`` defaults to the ownership rule: only the tail worker
    (the last one) may accept writes; every other worker's columns are
    wrapped read-only, so a misrouted write fails loudly as
    ``invalid_operation`` instead of corrupting the partition.
    """
    _check_manifest_fields(manifest, os.fspath(directory))
    if not 0 <= worker < manifest["workers"]:
        raise ValueError(
            f"worker {worker} out of range for {manifest['workers']} workers"
        )
    if appendable is None:
        appendable = worker == manifest["workers"] - 1
    directory = os.fspath(directory)
    columns: Dict[str, CompressedColumn] = {}
    for name in manifest["columns"]:
        path = os.path.join(directory, manifest["images"][name][worker])
        trie = open_image(path)
        if not isinstance(trie, TieredWaveletTrie):
            raise ValueError(f"{path}: expected a tiered_trie shard image")
        columns[name] = CompressedColumn.from_index(name, trie, appendable=appendable)
    return columns
