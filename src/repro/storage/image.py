"""The RWT2 "frozen image" container: zero-copy mmap persistence.

While the RWT1 logical format (:mod:`repro.storage.format`) serialises the
*content* of a structure and rebuilds every directory on load, RWT2 dumps
each frozen structure's kernel word arrays, rank/select directories and trie
topology bitvectors verbatim, little-endian.  Arrays lie back to back in one
4096-byte-aligned section per element kind (``u64``, ``i64``, ``u16``,
``u8``), with a JSON section table in the header and a CRC-32 per section.
This module is the only one that knows that layout: structures append
arrays through :class:`ImageWriter` and keep the opaque ``[start, count]``
spans it returns in their meta dicts; :class:`FrozenImage` turns a span
back into a view.  :func:`open_image` memory-maps the file and hands every
structure field a zero-copy view of the mapped bytes (``np.frombuffer``
under the numpy backend, an int-yielding ``memoryview`` cast under pure
python), so a cold open parses the header and reads no array payload, and
N worker processes share one page-cache copy of the data.

File layout::

    offset 0   : magic  b"RWT2"                     (4 bytes)
    offset 4   : format version, uint32 LE          (4 bytes)
    offset 8   : header JSON length, uint64 LE      (8 bytes)
    offset 16  : header JSON CRC-32, uint32 LE      (4 bytes)
    offset 20  : header JSON  {"type", "meta", "sections"}
    ...        : zero padding to the next 4096-byte boundary (= data_start)
    data_start : sections u64, i64, u16, u8, each starting at a
                 4096-byte-aligned offset

Section table entries are ``[kind, offset_relative_to_data_start, length,
crc32]``; offsets are relative so the header can be sized before any
absolute offset is known.  A span is checked against its kind's section
when it is resolved, so a malformed header raises
:class:`~repro.exceptions.SerializationError` instead of yielding a view
past its array.  Aliasing rule: everything returned by the loader
is read-only and aliases the mapped buffer -- the buffer stays alive as
long as any loaded structure does, and mutating the file while views exist
is undefined behaviour.  See docs/ARCHITECTURE.md, "Storage".
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import sys
import zlib
from array import array
from typing import Any, Dict, List, Tuple, Union

from repro.bits import kernel
from repro.core.append_only import AppendOnlyWaveletTrie
from repro.core.dynamic import DynamicWaveletTrie
from repro.core.static import WaveletTrie
from repro.core.succinct_static import SuccinctWaveletTrie
from repro.core.tiers import TieredWaveletTrie, freeze_trie
from repro.db.column import CompressedColumn
from repro.db.table import ColumnStore
from repro.exceptions import SerializationError
from repro.tries.binarize import (
    BytesCodec,
    FixedWidthIntCodec,
    StringCodec,
    Utf8Codec,
)

__all__ = [
    "IMAGE_MAGIC",
    "IMAGE_VERSION",
    "PAGE",
    "ImageWriter",
    "FrozenImage",
    "freeze",
    "dumps_image",
    "loads_image",
    "save_image",
    "open_image",
]

IMAGE_MAGIC = b"RWT2"
IMAGE_VERSION = 2
PAGE = 4096

# magic + u32 version + u64 header length + u32 header CRC.
_HEADER_FIXED = 20

# One section per element kind, written in this order: kind -> element
# size in bytes.
_KINDS = {"u64": 8, "i64": 8, "u16": 2, "u8": 1}


def _align(offset: int) -> int:
    return (offset + PAGE - 1) & ~(PAGE - 1)


def _le_bytes(typecode: str, values) -> bytes:
    """Encode an int sequence as little-endian fixed-width bytes."""
    if isinstance(values, memoryview):
        if values.format == typecode and sys.byteorder == "little":
            return bytes(values)
        values = values.tolist()
    elif not isinstance(values, (list, tuple)):
        tolist = getattr(values, "tolist", None)  # numpy arrays
        if tolist is not None:
            values = tolist()
    encoded = array(typecode, values)
    if sys.byteorder == "big":  # pragma: no cover - big-endian platforms only
        encoded.byteswap()
    return encoded.tobytes()


class ImageWriter:
    """Collects arrays into one section per element kind and assembles the
    RWT2 byte layout.

    Structures append their arrays through the typed ``add_*`` methods
    (everything is normalised to little-endian bytes); each call returns the
    array's opaque ``[start, count]`` span, in elements of its kind, which
    the structure keeps in its meta dict.  :meth:`tobytes` computes the
    aligned physical layout, the per-section CRCs and the header, and
    returns the complete file image.
    """

    def __init__(self) -> None:
        self._sections: Dict[str, bytearray] = {kind: bytearray() for kind in _KINDS}

    def _add(self, kind: str, data: bytes) -> List[int]:
        section = self._sections[kind]
        size = _KINDS[kind]
        start = len(section) // size
        section += data
        return [start, len(data) // size]

    def add_u64(self, values) -> List[int]:
        """Append unsigned 64-bit words (the kernel word layout)."""
        return self._add("u64", _le_bytes("Q", values))

    def add_i64(self, values) -> List[int]:
        """Append signed 64-bit integers (directory cumulatives)."""
        return self._add("i64", _le_bytes("q", values))

    def add_u16(self, values) -> List[int]:
        """Append unsigned 16-bit integers (in-superblock counts)."""
        return self._add("u16", _le_bytes("H", values))

    def add_bytes(self, values) -> List[int]:
        """Append raw bytes (popcount bytes, RRR class bytes)."""
        return self._add("u8", bytes(values))

    def tobytes(self, type_name: str, meta: dict) -> bytes:
        """Assemble the complete RWT2 file image."""
        table: List[List[Any]] = []
        relative = 0
        for kind, data in self._sections.items():
            table.append([kind, relative, len(data), zlib.crc32(data) & 0xFFFFFFFF])
            relative = _align(relative + len(data))
        header = json.dumps(
            {"type": type_name, "meta": meta, "sections": table},
            separators=(",", ":"),
        ).encode("utf-8")
        data_start = _align(_HEADER_FIXED + len(header))
        out = bytearray(data_start + relative)
        out[0:4] = IMAGE_MAGIC
        out[4:8] = IMAGE_VERSION.to_bytes(4, "little")
        out[8:16] = len(header).to_bytes(8, "little")
        out[16:20] = (zlib.crc32(header) & 0xFFFFFFFF).to_bytes(4, "little")
        out[_HEADER_FIXED : _HEADER_FIXED + len(header)] = header
        for data, entry in zip(self._sections.values(), table):
            offset = data_start + entry[1]
            out[offset : offset + len(data)] = data
        return bytes(out)


def _scalar_view(view: memoryview, typecode: str):
    """Cast a span to an int-yielding fixed-width read-only view."""
    if sys.byteorder == "little":
        return view.cast(typecode)
    count = view.nbytes // struct.calcsize(typecode)  # pragma: no cover - big-endian only
    return struct.unpack(f"<{count}{typecode}", view)


class FrozenImage:
    """A parsed RWT2 container over an open buffer (mmap region or bytes).

    Resolves the opaque spans structures store in their metas:
    :meth:`words` / :meth:`int64` / :meth:`uint16` / :meth:`bytes` return
    the typed zero-copy view of one span of the matching kind's section.
    Every span is bounds-checked against its section, so a crafted header
    can never yield a view past its array.  All views are read-only and
    alias the buffer; the image (and therefore the mapping) stays alive as
    long as any view-holding structure does.
    """

    def __init__(self, buffer, verify: bool = False, source: str = "<buffer>") -> None:
        view = memoryview(buffer)
        if not view.readonly:
            view = view.toreadonly()
        self._buffer = view
        self._source = source
        total = view.nbytes
        if total < _HEADER_FIXED:
            raise SerializationError(
                f"{source}: too short to be a frozen image ({total} bytes)"
            )
        magic = bytes(view[0:4])
        if magic != IMAGE_MAGIC:
            raise SerializationError(
                f"{source}: bad magic {magic!r}, expected {IMAGE_MAGIC!r}"
            )
        version = int.from_bytes(view[4:8], "little")
        if version != IMAGE_VERSION:
            raise SerializationError(
                f"{source}: unsupported image version: found {version}, "
                f"expected {IMAGE_VERSION}"
            )
        header_length = int.from_bytes(view[8:16], "little")
        if _HEADER_FIXED + header_length > total:
            raise SerializationError(f"{source}: header is truncated")
        header = bytes(view[_HEADER_FIXED : _HEADER_FIXED + header_length])
        stored_crc = int.from_bytes(view[16:20], "little")
        actual_crc = zlib.crc32(header) & 0xFFFFFFFF
        if stored_crc != actual_crc:
            raise SerializationError(
                f"{source}: header checksum mismatch: stored {stored_crc:#010x}, "
                f"computed {actual_crc:#010x}"
            )
        try:
            parsed = json.loads(header.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise SerializationError(
                f"{source}: header is not valid JSON ({error})"
            ) from error
        try:
            self.type_name = parsed["type"]
            self.meta = parsed["meta"]
            entries = parsed["sections"]
        except (KeyError, TypeError) as error:
            raise SerializationError(
                f"{source}: header is missing required fields ({error})"
            ) from error
        data_start = _align(_HEADER_FIXED + header_length)
        self._sections: Dict[str, Tuple[int, int, int]] = {}
        for entry in entries:
            try:
                name, relative, length, crc = entry
            except (TypeError, ValueError):
                raise SerializationError(
                    f"{source}: malformed section entry {entry!r}"
                ) from None
            if not (
                isinstance(name, str)
                and type(relative) is int
                and type(length) is int
                and type(crc) is int
            ):
                raise SerializationError(
                    f"{source}: malformed section entry {entry!r}"
                )
            if relative < 0 or length < 0:
                raise SerializationError(
                    f"{source}: section {name!r} has a negative offset or length"
                )
            offset = data_start + relative
            # Always-on (cheap) truncation check: the section table must fit
            # inside the file even when per-section CRCs are not verified.
            if offset + length > total:
                raise SerializationError(
                    f"{source}: section {name!r} is truncated "
                    f"(needs bytes up to {offset + length}, file has {total})"
                )
            self._sections[name] = (offset, length, crc)
        if verify:
            self.verify_checksums()

    def section_names(self) -> List[str]:
        """All section names (one per element kind), in file order."""
        return list(self._sections)

    def section(self, name: str) -> memoryview:
        """The raw bytes of a section as a read-only zero-copy view."""
        try:
            offset, length, _ = self._sections[name]
        except KeyError:
            raise SerializationError(
                f"{self._source}: frozen image has no section {name!r}"
            ) from None
        return self._buffer[offset : offset + length]

    def _span(self, kind: str, span) -> memoryview:
        """The bytes of ``span`` (``[start, count]`` in elements of
        ``kind``), rejecting any span that is malformed or leaves its
        section."""
        size = _KINDS[kind]
        section = self.section(kind)
        if type(span) is not list or len(span) != 2:
            start = count = None
        else:
            start, count = span
        if type(start) is not int or type(count) is not int:
            raise SerializationError(
                f"{self._source}: malformed {kind} span {span!r} "
                "(expected [start, count])"
            )
        if start < 0 or count < 0 or (start + count) * size > section.nbytes:
            raise SerializationError(
                f"{self._source}: {kind} span {span!r} lies outside its "
                f"section ({section.nbytes // size} elements)"
            )
        return section[start * size : (start + count) * size]

    def words(self, span):
        """A ``u64`` span as an int-yielding word view (kernel layout)."""
        return kernel.int_words_view(self._span("u64", span))

    def int64(self, span):
        """An ``i64`` span as an int-yielding signed 64-bit view."""
        return _scalar_view(self._span("i64", span), "q")

    def uint16(self, span):
        """A ``u16`` span as an int-yielding unsigned 16-bit view."""
        return _scalar_view(self._span("u16", span), "H")

    def bytes(self, span) -> memoryview:
        """A ``u8`` span as a read-only byte view."""
        return self._span("u8", span)

    def verify_checksums(self) -> None:
        """Check every section's CRC-32 (touches all mapped pages)."""
        for name, (offset, length, crc) in self._sections.items():
            actual = zlib.crc32(self._buffer[offset : offset + length]) & 0xFFFFFFFF
            if actual != crc:
                raise SerializationError(
                    f"{self._source}: section {name!r} checksum mismatch: "
                    f"stored {crc:#010x}, computed {actual:#010x}"
                )


# ----------------------------------------------------------------------
# Codec headers
# ----------------------------------------------------------------------
def _codec_meta(codec: StringCodec) -> dict:
    if isinstance(codec, Utf8Codec):
        return {"kind": "utf8"}
    if isinstance(codec, BytesCodec):
        return {"kind": "bytes"}
    if isinstance(codec, FixedWidthIntCodec):
        return {
            "kind": "fixed_int",
            "width": codec.width,
            "lsb_first": codec.lsb_first,
        }
    raise SerializationError(
        f"codec {type(codec).__name__} cannot be written to a frozen image"
    )


def _codec_from_meta(meta: dict) -> StringCodec:
    kind = meta.get("kind")
    if kind == "utf8":
        return Utf8Codec()
    if kind == "bytes":
        return BytesCodec()
    if kind == "fixed_int":
        return FixedWidthIntCodec(int(meta["width"]), bool(meta["lsb_first"]))
    raise SerializationError(f"unknown codec kind {kind!r} in frozen image")


# ----------------------------------------------------------------------
# Freezing: convert appendable/dynamic objects to their static snapshot.
# The trie-level lifecycle lives in repro.core.tiers (TrieFreezer /
# freeze_trie); this layer only dispatches the serialisable object kinds
# and keeps the column/store wrappers.
# ----------------------------------------------------------------------
def _freeze_column(column: CompressedColumn) -> CompressedColumn:
    index = column.index
    if isinstance(index, TieredWaveletTrie):
        # Columns flatten to a single static trie (per-tier layout is the
        # trie-level "tiered_trie" image type, not the column wrapper).
        index = index.to_static()
    elif isinstance(index, (AppendOnlyWaveletTrie, DynamicWaveletTrie)):
        index = freeze_trie(index)
    frozen = CompressedColumn(column.name, appendable=False)
    frozen._index = index
    frozen._appendable = False
    return frozen


def freeze(obj):
    """The static snapshot of ``obj`` suitable for a frozen image.

    Already-static objects pass through unchanged; append-only and dynamic
    tries (and columns/stores holding them) are converted to static RRR
    snapshots, and a tiered trie to its fully-frozen
    :meth:`~repro.core.tiers.TieredWaveletTrie.frozen_snapshot` -- all via
    :func:`repro.core.tiers.freeze_trie`, where the tier lifecycle lives.
    Loaded images are therefore always read-only (a loaded tiered trie gets
    a fresh empty mutable tail, so it keeps absorbing writes).
    """
    if isinstance(
        obj,
        (
            AppendOnlyWaveletTrie,
            DynamicWaveletTrie,
            TieredWaveletTrie,
            WaveletTrie,
            SuccinctWaveletTrie,
        ),
    ):
        return freeze_trie(obj)
    if isinstance(obj, CompressedColumn):
        return _freeze_column(obj)
    if isinstance(obj, ColumnStore):
        frozen = ColumnStore(obj.column_names)
        frozen._row_count = len(obj)
        frozen._columns = {
            name: _freeze_column(obj.column(name)) for name in obj.column_names
        }
        return frozen
    raise SerializationError(
        f"objects of type {type(obj).__name__} cannot be written "
        "as a frozen image"
    )


# ----------------------------------------------------------------------
# Per-type image writers/loaders
# ----------------------------------------------------------------------
def _write_static_trie(trie: WaveletTrie, sink: ImageWriter) -> dict:
    return {
        "codec": _codec_meta(trie.codec),
        "trie": trie.to_words_image(sink),
    }


def _load_static_trie(image: FrozenImage) -> WaveletTrie:
    return WaveletTrie.from_words_image(
        image, image.meta["trie"], codec=_codec_from_meta(image.meta["codec"])
    )


def _write_succinct_trie(trie: SuccinctWaveletTrie, sink: ImageWriter) -> dict:
    return {
        "codec": _codec_meta(trie._codec),
        "trie": trie.to_words_image(sink),
    }


def _load_succinct_trie(image: FrozenImage) -> SuccinctWaveletTrie:
    return SuccinctWaveletTrie.from_words_image(
        image, image.meta["trie"], codec=_codec_from_meta(image.meta["codec"])
    )


def _write_tiered_trie(trie: TieredWaveletTrie, sink: ImageWriter) -> dict:
    if trie._sealing is not None or len(trie._active):
        raise SerializationError(
            "tiered trie must be fully frozen before imaging "
            "(freeze() does this via frozen_snapshot())"
        )
    return {
        "codec": _codec_meta(trie.codec),
        "active_capacity": trie.active_capacity,
        "compact_budget": trie.compact_budget,
        "seed": trie._seed,
        "tiers": [tier.to_words_image(sink) for tier in trie._frozen],
    }


def _load_tiered_trie(image: FrozenImage) -> TieredWaveletTrie:
    codec = _codec_from_meta(image.meta["codec"])
    tiers = [
        WaveletTrie.from_words_image(image, meta, codec=codec)
        for meta in image.meta["tiers"]
    ]
    return TieredWaveletTrie._from_parts(
        tiers,
        None,
        codec,
        int(image.meta["active_capacity"]),
        int(image.meta["compact_budget"]),
        int(image.meta["seed"]),
    )


def _column_meta(column: CompressedColumn, sink: ImageWriter) -> dict:
    index = column.index
    if not isinstance(index, WaveletTrie) or isinstance(
        index, (AppendOnlyWaveletTrie, DynamicWaveletTrie)
    ):
        raise SerializationError(
            "column index must be frozen to a static WaveletTrie first "
            "(freeze() does this)"
        )
    return {
        "name": column.name,
        "codec": _codec_meta(index.codec),
        "trie": index.to_words_image(sink),
    }


def _column_from_meta(image: FrozenImage, meta: dict) -> CompressedColumn:
    column = CompressedColumn(meta["name"], appendable=False)
    column._index = WaveletTrie.from_words_image(
        image, meta["trie"], codec=_codec_from_meta(meta["codec"])
    )
    column._appendable = False
    return column


def _write_column(column: CompressedColumn, sink: ImageWriter) -> dict:
    return {"column": _column_meta(column, sink)}


def _load_column(image: FrozenImage) -> CompressedColumn:
    return _column_from_meta(image, image.meta["column"])


def _write_store(store: ColumnStore, sink: ImageWriter) -> dict:
    return {
        "row_count": len(store),
        "columns": [
            _column_meta(store.column(name), sink) for name in store.column_names
        ],
    }


def _load_store(image: FrozenImage) -> ColumnStore:
    metas = image.meta["columns"]
    store = ColumnStore([meta["name"] for meta in metas])
    store._row_count = int(image.meta["row_count"])
    store._columns = {meta["name"]: _column_from_meta(image, meta) for meta in metas}
    return store


_IMAGE_WRITERS = {
    WaveletTrie: ("static_trie", _write_static_trie),
    SuccinctWaveletTrie: ("succinct_trie", _write_succinct_trie),
    TieredWaveletTrie: ("tiered_trie", _write_tiered_trie),
    CompressedColumn: ("column", _write_column),
    ColumnStore: ("column_store", _write_store),
}

_IMAGE_LOADERS = {
    "static_trie": _load_static_trie,
    "succinct_trie": _load_succinct_trie,
    "tiered_trie": _load_tiered_trie,
    "column": _load_column,
    "column_store": _load_store,
}


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------
def dumps_image(obj) -> bytes:
    """Serialise ``obj`` (frozen first if needed) to RWT2 image bytes."""
    frozen = freeze(obj)
    entry = _IMAGE_WRITERS.get(type(frozen))
    if entry is None:
        raise SerializationError(
            f"objects of type {type(frozen).__name__} cannot be written "
            "as a frozen image"
        )
    type_name, writer_fn = entry
    sink = ImageWriter()
    meta = writer_fn(frozen, sink)
    return sink.tobytes(type_name, meta)


def loads_image(data, verify: bool = False):
    """Open a frozen image held in a bytes-like buffer (zero-copy views)."""
    image = FrozenImage(data, verify=verify)
    return _load_from_image(image)


def save_image(obj, path: Union[str, os.PathLike]) -> int:
    """Write ``obj`` as an RWT2 frozen image; returns the bytes written.

    The write is atomic and durable (temp file, fsync, rename), like
    :func:`repro.storage.save`.
    """
    data = dumps_image(obj)
    path = os.fspath(path)
    temporary = f"{path}.tmp"
    with open(temporary, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temporary, path)
    return len(data)


def open_image(path: Union[str, os.PathLike], verify: bool = False):
    """Memory-map an RWT2 file and open its object with zero-copy views.

    The open cost is O(header): no word array is read, decoded or copied
    -- pages fault in lazily on first query and are shared across every
    process that opens the same file.  ``verify=True`` additionally
    checks each section's CRC-32, which touches all pages (section-table
    bounds are always validated, so plain truncation is caught either way).
    """
    path = os.fspath(path)
    with open(path, "rb") as handle:
        try:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError as error:
            raise SerializationError(
                f"{path}: cannot map file ({error})"
            ) from error
    image = FrozenImage(mapped, verify=verify, source=str(path))
    return _load_from_image(image)


def _load_from_image(image: FrozenImage):
    loader = _IMAGE_LOADERS.get(image.type_name)
    if loader is None:
        raise SerializationError(
            f"unknown frozen-image type {image.type_name!r} "
            f"(this build reads {sorted(_IMAGE_LOADERS)})"
        )
    return loader(image)
