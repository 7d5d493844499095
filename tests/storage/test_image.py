"""RWT2 frozen-image tests: round trips, corruption, cross-backend parity.

Every supported type is written with :func:`dumps_image`/:func:`save_image`
and reopened under *each available kernel backend*; query results must be
identical to the in-memory original (the loaded structures answer queries
straight off the mapped words, so equality here certifies the whole
zero-copy path).  Corruption tests flip and truncate real section bytes and
expect the per-section CRC / bounds checks to name the damage.  The
numpy-absent fallback is covered by opening a numpy-written file under the
pure-python backend -- the bytes on disk are backend-independent.
"""

import json
import mmap
import random
import zlib

import pytest

from repro.bits import kernel
from repro.core.append_only import AppendOnlyWaveletTrie
from repro.core.dynamic import DynamicWaveletTrie
from repro.core.static import WaveletTrie
from repro.core.succinct_static import SuccinctWaveletTrie
from repro.core.tiers import TieredWaveletTrie
from repro.db.column import CompressedColumn
from repro.db.table import ColumnStore
from repro.exceptions import SerializationError
from repro.storage import (
    IMAGE_MAGIC,
    IMAGE_VERSION,
    dumps_image,
    freeze,
    load,
    loads,
    loads_image,
    open_image,
    save_image,
)
from repro.storage.image import PAGE, FrozenImage
from repro.storage.shards import load_manifest, open_worker_columns
from repro.tries.binarize import FixedWidthIntCodec
from repro.workloads.urls import UrlLogGenerator


@pytest.fixture(params=["python", "numpy"])
def backend(request):
    """Run the test under one kernel backend, restoring the previous one."""
    if request.param not in kernel.available_backends():
        pytest.skip("numpy not installed")
    previous = kernel.use_backend(request.param)
    yield request.param
    kernel.use_backend(previous)


def assert_trie_equal(loaded, values):
    """Differential check of the full query surface against the original."""
    assert len(loaded) == len(values)
    assert [loaded.access(i) for i in range(len(values))] == list(values)
    probes = sorted(set(values))[:8]
    for value in probes:
        assert loaded.count(value) == values.count(value)
        assert loaded.rank(value, len(values) // 2) == values[: len(values) // 2].count(value)
        if value in values:
            assert loaded.select(value, 0) == values.index(value)
    prefix = values[0][:3]
    expected = sum(1 for v in values if v.startswith(prefix))
    assert loaded.count_prefix(prefix) == expected


class TestTrieRoundTrip:
    @pytest.mark.parametrize("kind", ["rrr", "plain"])
    def test_static_trie(self, backend, url_log, kind):
        values = url_log[:150]
        loaded = loads_image(dumps_image(WaveletTrie(values, bitvector=kind)), verify=True)
        assert isinstance(loaded, WaveletTrie)
        assert loaded.bitvector_kind == kind
        assert_trie_equal(loaded, values)

    def test_succinct_trie(self, backend, url_log):
        values = url_log[:150]
        loaded = loads_image(dumps_image(SuccinctWaveletTrie(values)), verify=True)
        assert isinstance(loaded, SuccinctWaveletTrie)
        assert_trie_equal(loaded, values)

    @pytest.mark.parametrize("cls", [AppendOnlyWaveletTrie, DynamicWaveletTrie])
    def test_growable_tries_freeze_to_static(self, backend, url_log, cls):
        values = url_log[:120]
        loaded = loads_image(dumps_image(cls(values)), verify=True)
        assert type(loaded) is WaveletTrie
        assert_trie_equal(loaded, values)

    def test_tiered_trie_persists_per_tier(self, backend, url_log):
        """A tiered trie images as one section group per frozen tier; the
        reopened instance has the same tier layout plus a fresh mutable tail
        that keeps absorbing writes."""
        values = url_log[:150]
        tiered = TieredWaveletTrie(values, active_capacity=48, compact_budget=2)
        loaded = loads_image(dumps_image(tiered), verify=True)
        assert isinstance(loaded, TieredWaveletTrie)
        assert loaded.active_capacity == tiered.active_capacity
        assert loaded.compact_budget == tiered.compact_budget
        assert_trie_equal(loaded, values)
        assert loaded.mutable_start == len(values)
        assert all(row["state"] != "sealing" for row in loaded.tier_info())
        loaded.append("http://post-image.example/write")
        assert len(loaded) == len(values) + 1

    def test_tiered_trie_mid_seal_is_snapshotted(self, backend, url_log):
        """Imaging while a freeze is in flight captures a fully frozen
        snapshot without touching the live instance's compaction state."""
        values = url_log[:64]
        tiered = TieredWaveletTrie(active_capacity=64, compact_budget=1)
        tiered.extend(values)
        tiered.append(values[0])  # seal now in flight at 1-block pace
        assert any(r["state"] == "sealing" for r in tiered.tier_info())
        loaded = loads_image(dumps_image(tiered), verify=True)
        assert any(r["state"] == "sealing" for r in tiered.tier_info())
        assert loaded.to_list() == values + [values[0]]

    def test_empty_trie(self, backend):
        loaded = loads_image(dumps_image(WaveletTrie([])), verify=True)
        assert len(loaded) == 0
        assert loaded.count("/anything") == 0

    def test_single_value_trie(self, backend):
        loaded = loads_image(dumps_image(WaveletTrie(["/only"] * 5)), verify=True)
        assert loaded.to_list() == ["/only"] * 5

    def test_int_codec_round_trips(self, backend):
        values = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5]
        trie = WaveletTrie(values, codec=FixedWidthIntCodec(8))
        loaded = loads_image(dumps_image(trie), verify=True)
        assert loaded.to_list() == values
        assert loaded.rank(5, len(values)) == 3

    def test_file_round_trip_and_load_dispatch(self, backend, url_log, tmp_path):
        values = url_log[:100]
        path = tmp_path / "trie.rwt2"
        written = save_image(WaveletTrie(values), path)
        assert written == path.stat().st_size
        assert path.read_bytes()[:4] == IMAGE_MAGIC
        for loaded in (open_image(path, verify=True), load(path), loads(path.read_bytes())):
            assert_trie_equal(loaded, values)

    def test_rle_trie_is_rejected(self, backend, url_log):
        trie = WaveletTrie(url_log[:40], bitvector="rle")
        with pytest.raises(SerializationError, match="rle"):
            dumps_image(trie)

    def test_loaded_trie_is_immutable(self, backend, url_log):
        loaded = loads_image(dumps_image(AppendOnlyWaveletTrie(url_log[:40])))
        from repro.exceptions import ImmutableStructureError

        with pytest.raises(ImmutableStructureError):
            loaded.append("/new")


class TestDbRoundTrip:
    def test_column(self, backend, column_values):
        column = CompressedColumn("region", column_values)
        loaded = loads_image(dumps_image(column), verify=True)
        assert loaded.name == "region"
        assert not loaded.appendable
        assert len(loaded) == len(column_values)
        assert [loaded.value_at(i) for i in range(0, len(column_values), 13)] == [
            column_values[i] for i in range(0, len(column_values), 13)
        ]
        probe = column_values[0]
        assert loaded.count_eq(probe) == column_values.count(probe)
        assert list(loaded.rows_eq(probe, limit=5)) == list(column.rows_eq(probe, limit=5))

    def test_column_store(self, backend, url_log):
        store = ColumnStore(["url", "verb"])
        for position, url in enumerate(url_log[:120]):
            store.append_row({"url": url, "verb": "GET" if position % 4 else "POST"})
        loaded = loads_image(dumps_image(store), verify=True)
        assert loaded.column_names == store.column_names
        assert len(loaded) == len(store)
        assert loaded.row(17) == store.row(17)
        assert loaded.filter_eq("verb", "POST") == store.filter_eq("verb", "POST")
        assert loaded.count_where({"verb": "GET"}) == store.count_where({"verb": "GET"})
        assert loaded.group_by_count("verb") == store.group_by_count("verb")

    def test_unsupported_object_raises(self, backend):
        with pytest.raises(SerializationError, match="frozen image"):
            dumps_image({"not": "supported"})


class TestCrossBackend:
    """Bytes written under one backend open identically under the other."""

    def test_numpy_written_file_opens_under_python(self, url_log, tmp_path):
        if "numpy" not in kernel.available_backends():
            pytest.skip("numpy not installed")
        values = url_log[:150]
        path = tmp_path / "cross.rwt2"
        previous = kernel.use_backend("numpy")
        try:
            save_image(SuccinctWaveletTrie(values), path)
            numpy_bytes = path.read_bytes()
            kernel.use_backend("python")
            assert_trie_equal(open_image(path, verify=True), values)
            # The image bytes themselves are backend-independent.
            save_image(SuccinctWaveletTrie(values), path)
            assert path.read_bytes() == numpy_bytes
        finally:
            kernel.use_backend(previous)

    def test_python_written_file_opens_under_numpy(self, url_log, tmp_path):
        if "numpy" not in kernel.available_backends():
            pytest.skip("numpy not installed")
        values = url_log[:150]
        path = tmp_path / "cross.rwt2"
        previous = kernel.use_backend("python")
        try:
            save_image(WaveletTrie(values), path)
            kernel.use_backend("numpy")
            assert_trie_equal(open_image(path, verify=True), values)
        finally:
            kernel.use_backend(previous)


def _image_header(image_bytes):
    header_length = int.from_bytes(image_bytes[8:16], "little")
    return json.loads(image_bytes[20 : 20 + header_length])


def _resigned(image_bytes, header):
    """Rebuild ``image_bytes`` around a rewritten ``header`` with a valid
    header CRC, so only the loader's structural checks can catch it.
    Section offsets are relative to the data start, so the sections are
    carried over unchanged behind the re-padded header."""
    header_length = int.from_bytes(image_bytes[8:16], "little")
    encoded = json.dumps(header, separators=(",", ":")).encode("utf-8")
    old_start = -(-(20 + header_length) // PAGE) * PAGE
    new_start = -(-(20 + len(encoded)) // PAGE) * PAGE
    return (
        image_bytes[:8]
        + len(encoded).to_bytes(8, "little")
        + (zlib.crc32(encoded) & 0xFFFFFFFF).to_bytes(4, "little")
        + encoded
        + bytes(new_start - 20 - len(encoded))
        + image_bytes[old_start:]
    )


@pytest.fixture(scope="module")
def image_bytes(url_log):
    return dumps_image(WaveletTrie(url_log[:100]))


class TestImageValidation:
    def test_too_short(self):
        with pytest.raises(SerializationError, match="too short"):
            loads_image(IMAGE_MAGIC + b"\x01")

    def test_bad_magic(self, image_bytes):
        with pytest.raises(SerializationError, match="magic"):
            loads_image(b"XXXX" + image_bytes[4:])

    def test_version_mismatch_names_both_versions(self, image_bytes):
        corrupted = bytearray(image_bytes)
        corrupted[4:8] = (IMAGE_VERSION + 7).to_bytes(4, "little")
        with pytest.raises(
            SerializationError,
            match=f"found {IMAGE_VERSION + 7}, expected {IMAGE_VERSION}",
        ):
            loads_image(bytes(corrupted))

    def test_version_1_image_is_rejected(self, image_bytes):
        """Images of the retired per-array section layout get the typed
        version error; there is no second reader."""
        corrupted = bytearray(image_bytes)
        corrupted[4:8] = (1).to_bytes(4, "little")
        with pytest.raises(SerializationError, match="found 1, expected 2"):
            loads_image(bytes(corrupted))

    def test_header_bit_flip(self, image_bytes):
        corrupted = bytearray(image_bytes)
        corrupted[24] ^= 0x01  # inside the header JSON
        with pytest.raises(SerializationError, match="header"):
            loads_image(bytes(corrupted))

    def test_truncated_section_always_detected(self, image_bytes):
        # Cutting the last page off violates the section-table bounds check,
        # which runs even with verify=False.
        with pytest.raises(SerializationError, match="truncated"):
            loads_image(image_bytes[:-PAGE])

    def test_flipped_section_bit_fails_named_crc(self, image_bytes):
        image = FrozenImage(image_bytes)
        name = image.section_names()[0]
        offset, length, _ = image._sections[name]
        corrupted = bytearray(image_bytes)
        corrupted[offset + length // 2] ^= 0x10
        with pytest.raises(SerializationError) as excinfo:
            loads_image(bytes(corrupted), verify=True)
        assert name in str(excinfo.value)
        assert "checksum mismatch" in str(excinfo.value)
        # Without verification the flip goes unchecked at open time (by design).
        loads_image(bytes(corrupted), verify=False)

    def test_unknown_image_type(self, image_bytes):
        from repro.storage.image import ImageWriter

        writer = ImageWriter()
        writer.add_u64([1, 2, 3])
        with pytest.raises(SerializationError, match="unknown frozen-image type"):
            loads_image(writer.tobytes("martian_index", {}))

    def test_open_image_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.rwt2"
        path.write_bytes(b"")
        with pytest.raises(SerializationError):
            open_image(path)

    @pytest.mark.parametrize(
        "mutate",
        [
            pytest.param(lambda entry: entry.__setitem__(1, -8), id="negative-offset"),
            pytest.param(lambda entry: entry.__setitem__(2, -1), id="negative-length"),
            pytest.param(lambda entry: entry.pop(), id="three-fields"),
            pytest.param(lambda entry: entry.__setitem__(2, "64"), id="non-integer"),
        ],
    )
    def test_malformed_section_entry_with_valid_crc(self, image_bytes, mutate):
        header = _image_header(image_bytes)
        mutate(header["sections"][0])
        with pytest.raises(SerializationError, match="section"):
            loads_image(_resigned(image_bytes, header))

    @pytest.mark.parametrize(
        "field, span, message",
        [
            pytest.param("off", [0, 10**6], "u64 span .* outside", id="past-end"),
            pytest.param("off", [10**6, 0], "u64 span .* outside", id="start-past-end"),
            pytest.param("srank", [-1, 1], "i64 span .* outside", id="negative-start"),
            pytest.param("cls", [0, -1], "u8 span .* outside", id="negative-count"),
            pytest.param("off", [0, 1, 2], "malformed u64 span", id="three-ints"),
            pytest.param("srank", "0:1", "malformed i64 span", id="not-a-list"),
            pytest.param("cls", [0.0, 1], "malformed u8 span", id="float-start"),
        ],
    )
    def test_malformed_span_with_valid_crc(self, image_bytes, field, span, message):
        """A span that is malformed or leaves its kind's section is a typed
        error naming the span and the kind, never a view past its array."""
        header = _image_header(image_bytes)
        header["meta"]["trie"]["bitvectors"][0][field] = span
        with pytest.raises(SerializationError, match=message):
            loads_image(_resigned(image_bytes, header))

    def test_spans_outside_a_sliced_section_are_rejected(self):
        """Spans are checked against their own kind's section, not the file:
        a u16 span reaching into the following u8 section is rejected."""
        from repro.storage.image import ImageWriter

        writer = ImageWriter()
        span = writer.add_u16([1, 2, 3])
        writer.add_bytes(b"abc")
        image = FrozenImage(writer.tobytes("martian_index", {}))
        assert list(image.uint16(span)) == [1, 2, 3]
        with pytest.raises(SerializationError, match="u16 span"):
            image.uint16([2, 2])

    def test_sections_are_page_aligned_and_read_only(self, image_bytes):
        image = FrozenImage(image_bytes)
        for name in image.section_names():
            offset, _, _ = image._sections[name]
            assert offset % PAGE == 0
            assert image.section(name).readonly

    def test_mmap_pagesize_divides_page(self):
        # The format's alignment promise only holds if the OS page size
        # divides the section alignment.
        assert PAGE % mmap.PAGESIZE == 0 or mmap.PAGESIZE % PAGE == 0


class TestLayout:
    """One section per element kind, whatever the node count: section
    count and alignment padding stay constant as the trie grows."""

    @pytest.fixture(scope="class")
    def rows(self):
        return UrlLogGenerator(seed=3).generate(2000)

    def _objects(self, rows):
        tiered = TieredWaveletTrie(rows, active_capacity=512)
        assert len(freeze(tiered)._frozen) >= 2
        store = ColumnStore(["url", "verb"])
        for position, url in enumerate(rows):
            store.append_row({"url": url, "verb": "GET" if position % 3 else "PUT"})
        return {
            "rrr": WaveletTrie(rows),
            "plain": WaveletTrie(rows, bitvector="plain"),
            "succinct": SuccinctWaveletTrie(rows),
            "tiered": tiered,
            "store": store,
        }

    def test_sections_and_padding_are_bounded(self, rows):
        for label, obj in self._objects(rows).items():
            data = dumps_image(obj)
            image = FrozenImage(data)
            sections = len(image.section_names())
            header = 20 + int.from_bytes(data[8:16], "little")
            payload = sum(length for _, length, _ in image._sections.values())
            assert sections <= 4, label
            assert len(data) - header - payload < (sections + 1) * PAGE, label


class TestManifestValidation:
    @pytest.mark.parametrize("field", ["workers", "columns", "images"])
    def test_load_manifest_missing_field(self, tmp_path, field):
        manifest = {
            "format": "rwt2-cluster",
            "version": 1,
            "workers": 1,
            "columns": ["c"],
            "images": {"c": ["c0-w0.rwt2"]},
        }
        del manifest[field]
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SerializationError, match=field):
            load_manifest(tmp_path)

    @pytest.mark.parametrize("field", ["workers", "columns", "images"])
    def test_open_worker_columns_missing_field(self, tmp_path, field):
        manifest = {"workers": 1, "columns": ["c"], "images": {"c": ["c0-w0.rwt2"]}}
        del manifest[field]
        with pytest.raises(SerializationError, match=field):
            open_worker_columns(tmp_path, manifest, 0)


class TestFreeze:
    def test_freeze_passes_static_through(self, url_log):
        trie = WaveletTrie(url_log[:30])
        assert freeze(trie) is trie

    def test_freeze_snapshots_dynamic(self, url_log):
        dynamic = DynamicWaveletTrie(url_log[:50])
        frozen = freeze(dynamic)
        assert type(frozen) is WaveletTrie
        assert frozen.to_list() == dynamic.to_list()
        # The snapshot is independent: mutating the original changes nothing.
        dynamic.append("/after")
        assert len(frozen) == 50

    def test_freeze_routes_through_core_tiers(self, url_log):
        """storage.freeze is a thin wrapper over core.tiers.freeze_trie for
        every trie flavour -- the lifecycle logic lives in core, storage
        keeps only serialization."""
        from repro.core.tiers import freeze_trie

        dynamic = DynamicWaveletTrie(url_log[:40])
        assert freeze(dynamic).to_list() == freeze_trie(dynamic).to_list()
        tiered = TieredWaveletTrie(url_log[:40], active_capacity=16)
        snapshot = freeze(tiered)
        assert isinstance(snapshot, TieredWaveletTrie)
        assert snapshot.to_list() == tiered.to_list()
        assert all(row["elements"] == 0 or row["state"] == "frozen"
                   for row in snapshot.tier_info())

    def test_unfrozen_tiered_writer_is_rejected(self, url_log):
        """The RWT2 writer only accepts fully frozen tiered tries; live ones
        must go through freeze()/frozen_snapshot() first."""
        from repro.storage.image import _write_tiered_trie, ImageWriter

        tiered = TieredWaveletTrie(url_log[:30], active_capacity=100)
        assert len(tiered._active)  # live tail content
        with pytest.raises(SerializationError, match="fully frozen"):
            _write_tiered_trie(tiered, ImageWriter())


class TestConcurrentReaders:
    """Threads sharing one mapped image: reads are safe and exact.

    The serving layer hands one ``open_image`` result to every reader, so
    the loaded structures must tolerate concurrent queries on a *shared*
    object -- including the lazy per-backend re-preparation that runs on
    the first query after a backend switch.  The stress test computes the
    oracle serially first, then fires interleaved mixed workloads from
    many threads against the same ``FrozenImage``-backed trie and requires
    every thread to see byte-identical answers."""

    def test_threads_share_one_open_image(self, backend, url_log, tmp_path):
        import threading

        values = url_log
        path = tmp_path / "shared.rwt2"
        save_image(WaveletTrie(values), path)
        loaded = open_image(path, verify=True)

        prefix = values[0][:4]
        hot = max(set(values), key=values.count)

        def workload(seed):
            rng = random.Random(seed)
            out = []
            for _ in range(120):
                kind = rng.randrange(4)
                if kind == 0:
                    out.append(loaded.access(rng.randrange(len(values))))
                elif kind == 1:
                    out.append(loaded.rank(hot, rng.randrange(len(values) + 1)))
                elif kind == 2:
                    out.append(loaded.select(hot, rng.randrange(values.count(hot))))
                else:
                    out.append(
                        loaded.rank_prefix(prefix, rng.randrange(len(values) + 1))
                    )
            return out

        seeds = list(range(8))
        expected = {seed: workload(seed) for seed in seeds}  # serial oracle

        results = {}
        errors = []
        barrier = threading.Barrier(len(seeds))

        def run(seed):
            try:
                barrier.wait()  # maximise interleaving: all start together
                results[seed] = workload(seed)
            except Exception as error:  # pragma: no cover - failure path
                errors.append((seed, error))

        threads = [threading.Thread(target=run, args=(seed,)) for seed in seeds]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
        assert results == expected

    def test_threads_share_one_image_across_columns(self, backend, url_log, tmp_path):
        """Many threads, one mapped ColumnStore image: each hammers its own
        column of the shared store and the batch paths stay exact."""
        import threading

        store = ColumnStore(["urls", "mirror"])
        for url, mirror in zip(url_log[:200], url_log[200:400]):
            store.append_row({"urls": url, "mirror": mirror})
        path = tmp_path / "store.rwt2"
        save_image(store, path)
        loaded = open_image(path, verify=True)

        def batch_workload(name, rows):
            snapshot = loaded.column(name).snapshot()
            positions = list(range(0, len(rows), 7))
            got = snapshot.access_many(positions)
            assert got == [rows[p] for p in positions]
            value = rows[3]
            assert snapshot.rank_many(value, [len(rows)]) == [rows.count(value)]
            return True

        lanes = [("urls", url_log[:200]), ("mirror", url_log[200:400])] * 3
        errors = []
        barrier = threading.Barrier(len(lanes))

        def run(name, rows):
            try:
                barrier.wait()
                for _ in range(20):
                    batch_workload(name, rows)
            except Exception as error:  # pragma: no cover - failure path
                errors.append((name, error))

        threads = [threading.Thread(target=run, args=lane) for lane in lanes]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
