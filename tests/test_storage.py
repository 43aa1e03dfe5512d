"""Tests for the page-based document store and the buffer manager."""

import io
import os

import pytest

from repro import EvalOptions, evaluate, parse_document, serialize
from repro.dom.node import NodeKind
from repro.errors import StorageError
from repro.storage import DocumentStore, PAGE_SIZE
from repro.storage.encoding import (
    decode_id_list,
    decode_string,
    decode_varint,
    encode_id_list,
    encode_string,
    encode_varint,
)
from repro.storage.pages import BufferManager, PageFile
from repro.workloads import generate_document

from .conftest import SAMPLE_XML, normalize_result


class TestEncoding:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**20, 2**40])
    def test_varint_round_trip(self, value):
        out = bytearray()
        encode_varint(value, out)
        decoded, offset = decode_varint(bytes(out), 0)
        assert decoded == value
        assert offset == len(out)

    def test_varint_rejects_negative(self):
        with pytest.raises(StorageError):
            encode_varint(-1, bytearray())

    def test_varint_truncated(self):
        with pytest.raises(StorageError):
            decode_varint(b"\x80", 0)

    @pytest.mark.parametrize("text", ["", "abc", "ümläut ✓", "a" * 10000])
    def test_string_round_trip(self, text):
        out = bytearray()
        encode_string(text, out)
        decoded, _ = decode_string(bytes(out), 0)
        assert decoded == text

    def test_id_list_round_trip(self):
        ids = [0, 1, 5, 5, 100, 10000]
        out = bytearray()
        encode_id_list(ids, out)
        decoded, _ = decode_id_list(bytes(out), 0)
        assert decoded == ids

    def test_id_list_must_be_sorted(self):
        with pytest.raises(StorageError):
            encode_id_list([5, 3], bytearray())


class TestBufferManager:
    def _make(self, pages=10, capacity=3, page_size=64):
        data = b"".join(
            bytes([i]) * page_size for i in range(pages)
        )
        handle = io.BytesIO(data)
        page_file = PageFile(handle, 0, len(data), page_size)
        return BufferManager(page_file, capacity)

    def test_hit_miss_accounting(self):
        buffer = self._make()
        buffer.get_page(0)
        buffer.get_page(0)
        buffer.get_page(1)
        assert buffer.stats.misses == 2
        assert buffer.stats.hits == 1

    def test_lru_eviction(self):
        buffer = self._make(capacity=2)
        buffer.get_page(0)
        buffer.get_page(1)
        buffer.get_page(2)  # evicts page 0
        assert buffer.stats.evictions == 1
        buffer.get_page(0)  # miss again
        assert buffer.stats.misses == 4

    def test_lru_order_updated_on_hit(self):
        buffer = self._make(capacity=2)
        buffer.get_page(0)
        buffer.get_page(1)
        buffer.get_page(0)  # refresh page 0
        buffer.get_page(2)  # evicts page 1, not 0
        buffer.get_page(0)
        assert buffer.stats.hits == 2

    def test_record_spanning_pages(self):
        buffer = self._make(page_size=8)
        record = buffer.read_record(6, 10)  # spans pages 0-1
        assert record == bytes([0, 0]) + bytes([1] * 8)

    def test_out_of_range(self):
        buffer = self._make()
        with pytest.raises(StorageError):
            buffer.get_page(999)
        with pytest.raises(StorageError):
            buffer.read_record(0, 10**9)

    def test_capacity_validation(self):
        with pytest.raises(StorageError):
            self._make(capacity=0)


class TestStoreRoundTrip:
    @pytest.fixture()
    def stored(self, tmp_path):
        doc = parse_document(SAMPLE_XML)
        path = tmp_path / "doc.natix"
        DocumentStore.write(doc, path)
        with DocumentStore.open(path, buffer_pages=4) as stored:
            yield doc, stored

    def test_structure_preserved(self, stored):
        doc, sdoc = stored
        assert sdoc.node_count == doc.node_count
        mem_nodes = [(n.kind, n.name, n.value) for n in doc.iter_nodes()]
        disk_nodes = [(n.kind, n.name, n.value) for n in sdoc.iter_nodes()]
        assert mem_nodes == disk_nodes

    def test_sort_keys_match(self, stored):
        doc, sdoc = stored
        assert [n.sort_key for n in doc.iter_nodes()] == [
            n.sort_key for n in sdoc.iter_nodes()
        ]

    def test_attributes_preserved(self, stored):
        doc, sdoc = stored

        def attrs(document):
            return [
                (a.name, a.value, a.sort_key)
                for n in document.iter_nodes()
                for a in n.attributes
            ]

        assert attrs(doc) == attrs(sdoc)

    def test_parent_chain(self, stored):
        _, sdoc = stored
        deep = list(sdoc.iter_nodes())[-1]
        chain = []
        node = deep
        while node is not None:
            chain.append(node.sort_key)
            node = node.parent
        assert chain[-1] == (0, 0, 0)

    def test_id_map(self, stored):
        _, sdoc = stored
        assert sdoc.get_element_by_id("4").name == "a"
        assert sdoc.get_element_by_id("nope") is None

    def test_string_values(self, stored):
        doc, sdoc = stored
        assert sdoc.root.string_value() == doc.root.string_value()

    def test_serializer_equivalence(self, stored):
        doc, sdoc = stored
        # The serializer walks via the node protocol, so it works on
        # stored documents too.
        from repro.dom.serializer import _serialize_node

        out_mem: list = []
        out_disk: list = []
        for child in doc.root.children:
            _serialize_node(child, out_mem)
        for child in sdoc.root.children:
            _serialize_node(child, out_disk)
        assert "".join(out_mem) == "".join(out_disk)

    def test_proxies_cached(self, stored):
        _, sdoc = stored
        assert sdoc.node(1) is sdoc.node(1)
        sdoc.clear_node_cache()
        assert sdoc.node(1) == sdoc.node(1)  # equal even if re-decoded

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.natix"
        path.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(StorageError):
            DocumentStore.open(path)


class TestQueriesOverStorage:
    QUERIES = [
        "/xdoc/a/b",
        "//b[last()]",
        "count(//@id)",
        "id('4')/b/@id",
        "//a[b = 'y']/@id",
        "//b/ancestor::*/@id",
        "sum(//e)",
        "//e[lang('en')]",
        "(//b)[2]",
    ]

    @pytest.mark.parametrize("query", QUERIES)
    @pytest.mark.parametrize("engine", ["natix", "naive"])
    def test_same_results_as_memory(self, tmp_path, query, engine):
        doc = parse_document(SAMPLE_XML)
        path = tmp_path / "doc.natix"
        DocumentStore.write(doc, path)
        with DocumentStore.open(path, buffer_pages=2) as sdoc:
            mem = evaluate(query, doc.root, EvalOptions(engine=engine))
            disk = evaluate(query, sdoc.root, EvalOptions(engine=engine))
            if isinstance(mem, list):
                assert sorted(n.sort_key for n in mem) == sorted(
                    n.sort_key for n in disk
                )
            else:
                assert normalize_result(mem) == normalize_result(disk)

    def test_small_buffer_still_correct(self, tmp_path):
        doc = generate_document(800, 6, 4)
        path = tmp_path / "gen.natix"
        DocumentStore.write(doc, path, page_size=512)
        with DocumentStore.open(path, buffer_pages=1) as sdoc:
            want = evaluate("count(//*)", doc.root)
            got = evaluate("count(//*)", sdoc.root)
            assert want == got
            assert sdoc.buffer.stats.evictions > 0

    def test_buffer_locality(self, tmp_path):
        doc = generate_document(2000, 6, 4)
        path = tmp_path / "gen.natix"
        DocumentStore.write(doc, path)
        with DocumentStore.open(path, buffer_pages=64) as sdoc:
            evaluate("/xdoc/*/@id", sdoc.root)
            stats = sdoc.buffer.stats
            assert stats.hits > stats.misses  # sequential locality
