"""Durable atomic writes: every on-disk writer fsyncs its temporary file
before renaming it over the target.

``os.fsync`` and ``os.replace`` are wrapped to record the order of events;
the synced descriptor's inode must be the one that ends up at the target
path, so the test certifies that the *renamed* file is the synced one.
"""

import os

import pytest

from repro.core.static import WaveletTrie
from repro.db.table import ColumnStore
from repro.storage import MANIFEST_NAME, export_shard_images, save, save_image


@pytest.fixture
def events(monkeypatch):
    """Record ``("fsync", inode)`` and ``("replace", inode, target)``."""
    log = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        log.append(("fsync", os.fstat(fd).st_ino))
        real_fsync(fd)

    def replace(source, target):
        log.append(("replace", os.stat(source).st_ino, os.path.basename(target)))
        real_replace(source, target)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    return log


def assert_synced_before_rename(log, targets):
    """Each target is renamed into place right after its inode's fsync."""
    assert [entry[2] for entry in log if entry[0] == "replace"] == targets
    assert len(log) == 2 * len(targets)
    for synced, renamed in zip(log[::2], log[1::2]):
        assert synced[0] == "fsync" and renamed[0] == "replace"
        assert synced[1] == renamed[1]


@pytest.mark.parametrize("writer", [save, save_image], ids=["rwt1", "rwt2"])
def test_container_writers_fsync_before_rename(tmp_path, url_log, events, writer):
    path = tmp_path / "trie.idx"
    writer(WaveletTrie(url_log[:60]), path)
    assert_synced_before_rename(events, ["trie.idx"])
    assert os.stat(path).st_ino == events[0][1]


def test_shard_export_fsyncs_images_and_manifest(tmp_path, url_log, events):
    store = ColumnStore(["url"])
    for url in url_log[:60]:
        store.append_row({"url": url})
    manifest = export_shard_images(store, tmp_path, 2)
    images = [name for files in manifest["images"].values() for name in files]
    assert_synced_before_rename(events, images + [MANIFEST_NAME])
