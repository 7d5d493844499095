"""Deterministic work-counter gates on the batched read paths.

Counters, never wall-clock: each test counts calls of a method the batched
path must not reach and asserts zero.

* ``locate`` takes each LF round as one BWT descent, so past its backward
  search (the one ``count`` runs) it makes no
  ``HuffmanWaveletTree.rank_many`` call;
* ``locate`` (FM-index and document store) reaches no base-class scalar
  ``access_many``/``rank_many`` loop: every bitvector it touches has a
  real batch path;
* ``count(v)`` on a frozen tier reads no RRR block offset, because
  ``rank(bit, len)`` comes from the stored total.
"""

import pytest

import repro.bitvector.rrr as rrr_module
from repro.bitvector.base import BitVector
from repro.core.tiers import TieredWaveletTrie
from repro.db.doc_store import DocumentStore
from repro.text import FMIndex
from repro.wavelet.huffman import HuffmanWaveletTree
from repro.workloads import UrlLogGenerator

DOCUMENTS = UrlLogGenerator(seed=7).generate(300)
PATTERNS = ["http", "com/", "a", "/index", "zz-absent"]


def count_calls(monkeypatch, owner, name):
    """Replace ``owner.name`` by a counting wrapper; returns the counter."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("kind", ["plain", "rrr"])
def test_locate_lf_rounds_make_no_huffman_rank_many_call(monkeypatch, kind):
    """The only ``rank_many`` calls of ``locate`` are those of its backward
    search, which ``count`` makes too: the LF rounds add none."""
    text = "\x00".join(DOCUMENTS)
    fm = FMIndex(text, sa_sample=8, bitvector=kind)
    calls = count_calls(monkeypatch, HuffmanWaveletTree, "rank_many")
    hits = 0
    for pattern in PATTERNS:
        fm.count(pattern)
        backward_search = len(calls)
        hits += len(fm.locate(pattern))
        assert len(calls) == 2 * backward_search, pattern
        calls.clear()
    assert hits > 100


@pytest.mark.parametrize("kind", ["plain", "rrr"])
def test_locate_takes_no_scalar_fallback(monkeypatch, kind):
    store = DocumentStore(DOCUMENTS, sa_sample=8, bitvector=kind)
    access_calls = count_calls(monkeypatch, BitVector, "access_many")
    rank_calls = count_calls(monkeypatch, BitVector, "rank_many")
    located = [store.locate(pattern) for pattern in PATTERNS]
    assert sum(len(hits) for hits in located) > 100
    assert access_calls == [] and rank_calls == []


def test_frozen_tier_count_decodes_no_block(monkeypatch):
    values = UrlLogGenerator(seed=11).generate(700)
    trie = TieredWaveletTrie(values, active_capacity=256, compact_budget=8)
    trie.compact(merge=False)
    frozen = [tier for tier in trie._tiers() if tier.tier_state == "frozen"]
    assert frozen
    reads = count_calls(monkeypatch, rrr_module, "extract_bits_value")
    for tier in frozen:
        for value in set(values):
            tier.count(value)
    assert reads == []
