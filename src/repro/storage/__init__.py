"""On-disk persistence for the Wavelet Trie and the database layer.

The paper's motivating applications (column stores, access-log analytics) need
indexes that survive a process restart.  This package provides two container
formats behind one set of entry points:

>>> from repro import WaveletTrie
>>> from repro.storage import dumps, loads
>>> trie = WaveletTrie(["/a/x", "/a/y", "/a/x"])
>>> restored = loads(dumps(trie))
>>> restored.rank("/a/x", 3)
2

* :func:`~repro.storage.format.dumps` / :func:`~repro.storage.format.loads`
  -- bytes in, bytes out;
* :func:`~repro.storage.format.save` / :func:`~repro.storage.format.load`
  -- atomic write to / read from a file path.

**RWT1** (``save``/``dumps``) stores the *logical* structure (codec, trie
topology, node bitvector contents in run-length form), not the in-memory
layout, so it is stable across internal tuning of block sizes and rebuild
policies -- but :func:`load` must decode and rebuild every directory.

**RWT2** (:func:`~repro.storage.image.save_image` /
:func:`~repro.storage.image.open_image`) is the "frozen image": the physical
word arrays and rank/select directories dumped verbatim, back to back in
one page-aligned section per element kind, memory-mapped back with
zero-copy views, so a cold open parses the header and reads no array
payload, and worker processes share one page cache.  :func:`load` and :func:`loads` sniff the magic and accept both.
See docs/ARCHITECTURE.md, "Storage", for the decision table.

:mod:`repro.storage.shards` builds on RWT2 as the serving cluster's
exchange format: :func:`~repro.storage.shards.export_shard_images` splits
a store into per-worker slice images plus a ``manifest.json``, and
:func:`~repro.storage.shards.open_worker_columns` mmaps one worker's
slices back as servable columns (only the tail worker's are appendable).
"""

from repro.storage.format import FORMAT_VERSION, MAGIC, dumps, load, loads, save
from repro.storage.image import (
    IMAGE_MAGIC,
    IMAGE_VERSION,
    dumps_image,
    freeze,
    loads_image,
    open_image,
    save_image,
)
from repro.storage.serializers import TYPE_TAGS
from repro.storage.shards import (
    MANIFEST_NAME,
    export_shard_images,
    load_manifest,
    open_worker_columns,
)

__all__ = [
    "FORMAT_VERSION",
    "IMAGE_MAGIC",
    "IMAGE_VERSION",
    "MAGIC",
    "MANIFEST_NAME",
    "TYPE_TAGS",
    "dumps",
    "dumps_image",
    "export_shard_images",
    "freeze",
    "load",
    "load_manifest",
    "loads",
    "loads_image",
    "open_image",
    "open_worker_columns",
    "save",
    "save_image",
]
