"""The container file formats: RWT1 logical payloads, RWT2 frozen images.

Layout of an RWT1 stored object (all integers little-endian / LEB128):

====================  =======================================================
field                 content
====================  =======================================================
magic                 4 bytes, ``b"RWT1"``
format version        1 byte, currently ``1``
type tag              varint, see :data:`repro.storage.serializers.TYPE_TAGS`
payload length        varint
payload               the serialised object
checksum              4 bytes, CRC-32 of the payload
====================  =======================================================

The checksum makes truncation and bit rot detectable: :func:`loads` verifies
it before handing the payload to the object reader, rejects any trailing
bytes after the checksum, and raises
:class:`~repro.exceptions.SerializationError` on any mismatch.

:func:`load` and :func:`loads` also accept the RWT2 frozen-image format
(magic ``b"RWT2"``, see :mod:`repro.storage.image`): the first four bytes
select the loader, so callers never need to know which container a file
uses.  RWT1 fully decodes and rebuilds the object (cost linear in its
size); RWT2 memory-maps it with zero-copy views (constant-cost open).

Large RWT1 files are streamed: :func:`save` writes the payload in chunks
and :func:`load` reads into one preallocated buffer while feeding
``zlib.crc32`` incrementally, so neither holds two copies of the payload.
"""

from __future__ import annotations

import os
import zlib
from typing import Any, BinaryIO, Union

from repro.exceptions import SerializationError
from repro.storage.image import IMAGE_MAGIC, loads_image, open_image
from repro.storage.serializers import read_object, write_object
from repro.storage.varint import ByteReader, ByteWriter

__all__ = ["FORMAT_VERSION", "MAGIC", "dumps", "loads", "save", "load"]

MAGIC = b"RWT1"
FORMAT_VERSION = 1

# Chunk size for streamed payload reads/writes (satellite: the running-CRC
# stream keeps load() at one payload copy instead of two).
_CHUNK = 1 << 20


def dumps(obj: Any) -> bytes:
    """Serialise ``obj`` to RWT1 bytes.

    Supported types are the three Wavelet Trie variants,
    :class:`~repro.db.column.CompressedColumn`,
    :class:`~repro.db.table.ColumnStore` and
    :class:`~repro.db.log_store.AccessLogStore`.
    """
    type_tag, payload = write_object(obj)
    writer = ByteWriter()
    writer.write_raw(MAGIC)
    writer.write_u8(FORMAT_VERSION)
    writer.write_uvarint(type_tag)
    writer.write_uvarint(len(payload))
    writer.write_raw(payload)
    writer.write_u32(zlib.crc32(payload) & 0xFFFFFFFF)
    return writer.getvalue()


def loads(data: bytes) -> Any:
    """Rebuild the object stored in ``data`` (either container format)."""
    if bytes(data[: len(IMAGE_MAGIC)]) == IMAGE_MAGIC:
        return loads_image(data)
    reader = ByteReader(data)
    magic = reader.read_raw(len(MAGIC))
    if magic != MAGIC:
        raise SerializationError(
            f"not a wavelet-trie file (bad magic {magic!r}, expected "
            f"{MAGIC!r} or {IMAGE_MAGIC!r})"
        )
    version = reader.read_u8()
    if version != FORMAT_VERSION:
        raise SerializationError(
            f"unsupported format version: found {version}, "
            f"expected {FORMAT_VERSION}"
        )
    type_tag = reader.read_uvarint()
    payload_length = reader.read_uvarint()
    payload = reader.read_raw(payload_length)
    stored_checksum = reader.read_u32()
    trailing = reader.remaining()
    if trailing:
        raise SerializationError(
            f"{trailing} trailing bytes after the checksum "
            "(corrupted or concatenated file?)"
        )
    actual_checksum = zlib.crc32(payload) & 0xFFFFFFFF
    if stored_checksum != actual_checksum:
        raise SerializationError(
            f"checksum mismatch: stored {stored_checksum:#010x}, "
            f"computed {actual_checksum:#010x} (corrupted file?)"
        )
    return read_object(type_tag, payload)


def save(obj: Any, path: Union[str, os.PathLike]) -> int:
    """Serialise ``obj`` to ``path`` as RWT1; returns the bytes written.

    The file is written atomically and durably: the data goes to a
    temporary sibling file which is flushed, fsynced and only then renamed
    over the target, so a crash cannot leave a half-written index behind.  The payload streams to
    disk in chunks with a running CRC -- no second in-memory copy of the
    serialised bytes is ever built.
    """
    type_tag, payload = write_object(obj)
    header = ByteWriter()
    header.write_raw(MAGIC)
    header.write_u8(FORMAT_VERSION)
    header.write_uvarint(type_tag)
    header.write_uvarint(len(payload))
    path = os.fspath(path)
    temporary = f"{path}.tmp"
    written = 0
    crc = 0
    with open(temporary, "wb") as handle:
        written += handle.write(header.getvalue())
        view = memoryview(payload)
        for start in range(0, len(payload), _CHUNK):
            chunk = view[start : start + _CHUNK]
            crc = zlib.crc32(chunk, crc)
            written += handle.write(chunk)
        written += handle.write((crc & 0xFFFFFFFF).to_bytes(4, "little"))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temporary, path)
    return written


def _read_header_byte(handle: BinaryIO) -> int:
    raw = handle.read(1)
    if not raw:
        raise SerializationError("unexpected end of file in header")
    return raw[0]


def _read_uvarint_stream(handle: BinaryIO) -> int:
    result = 0
    shift = 0
    while True:
        byte = _read_header_byte(handle)
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result
        shift += 7
        if shift > 63:
            raise SerializationError("varint too long (corrupted file?)")


def load(path: Union[str, os.PathLike]) -> Any:
    """Load the object stored at ``path`` (either container format).

    The first four bytes select the loader: ``RWT1`` streams the logical
    payload into one preallocated buffer with a running ``zlib.crc32``
    (a single in-memory copy of the payload, however large the file);
    ``RWT2`` memory-maps the frozen image and returns zero-copy views
    (see :func:`repro.storage.image.open_image`).
    """
    with open(path, "rb") as handle:
        magic = handle.read(len(MAGIC))
        if magic != IMAGE_MAGIC:
            return _load_rwt1_stream(handle, magic)
    return open_image(path)


def _load_rwt1_stream(handle: BinaryIO, magic: bytes) -> Any:
    if magic != MAGIC:
        raise SerializationError(
            f"not a wavelet-trie file (bad magic {magic!r}, expected "
            f"{MAGIC!r} or {IMAGE_MAGIC!r})"
        )
    version = _read_header_byte(handle)
    if version != FORMAT_VERSION:
        raise SerializationError(
            f"unsupported format version: found {version}, "
            f"expected {FORMAT_VERSION}"
        )
    type_tag = _read_uvarint_stream(handle)
    payload_length = _read_uvarint_stream(handle)
    # Bound the preallocation by the actual file size so a corrupted length
    # varint fails cleanly instead of attempting a huge allocation.
    available = os.fstat(handle.fileno()).st_size - handle.tell()
    if payload_length > available:
        raise SerializationError(
            f"payload length {payload_length} exceeds the {available} bytes "
            "left in the file (truncated or corrupted?)"
        )
    payload = bytearray(payload_length)
    view = memoryview(payload)
    crc = 0
    filled = 0
    while filled < payload_length:
        chunk = view[filled : min(filled + _CHUNK, payload_length)]
        got = handle.readinto(chunk)
        if not got:
            raise SerializationError(
                f"unexpected end of file: payload truncated at byte {filled} "
                f"of {payload_length}"
            )
        crc = zlib.crc32(chunk[:got], crc)
        filled += got
    stored = handle.read(4)
    if len(stored) != 4:
        raise SerializationError("unexpected end of file: checksum missing")
    stored_checksum = int.from_bytes(stored, "little")
    if handle.read(1):
        raise SerializationError(
            "trailing bytes after the checksum (corrupted or concatenated file?)"
        )
    actual_checksum = crc & 0xFFFFFFFF
    if stored_checksum != actual_checksum:
        raise SerializationError(
            f"checksum mismatch: stored {stored_checksum:#010x}, "
            f"computed {actual_checksum:#010x} (corrupted file?)"
        )
    return read_object(type_tag, payload)
