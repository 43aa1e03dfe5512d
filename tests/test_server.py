"""The serving front end: protocol, streaming, quotas, shutdown.

Covers the engine's lazy paging layer (``evaluate_stream``), the wire
protocol (request validation, the typed error-code table), loopback
end-to-end equality against in-process evaluation (documents, stores
and sharded collections; ≥ 2 streamed pages reassembling to the exact
canonical result), admission quotas and slot release on early
disconnect (hammer test: in-flight returns to zero, zero orphan
releases), idle keep-alive reaping, the event-driven page-buffer abort
(sub-10ms producer wakeup), graceful shutdown (in-flight queries
drain, new queries get a clean 503, no worker threads leak), and the
``--version`` / exit-code conventions of both CLIs.
"""

from __future__ import annotations

import json
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import EvalOptions, XPathEngine, parse_document, store_document
from repro.engine.session import DEFAULT_PAGE_SIZE
from repro.errors import (
    QueryBudgetError,
    QueryTimeoutError,
    XPathSyntaxError,
)
from repro.server import (
    ProtocolError,
    ServerClient,
    ServerConfig,
    XPathServer,
    classify_error,
    parse_request,
    start_in_thread,
)
from repro.storage import DocumentStore
from repro.testing.oracle import canonical_value

NUM_ITEMS = 30

SERVER_XML = (
    "<root>"
    + "".join(
        f"<item n=\"{n}\"><name>item-{n:03d}</name>"
        f"<price>{(n * 13) % 97}</price></item>"
        for n in range(NUM_ITEMS)
    )
    + "</root>"
)


@pytest.fixture(scope="module")
def document():
    return parse_document(SERVER_XML)


@pytest.fixture()
def stored(document, tmp_path):
    path = tmp_path / "server.natix"
    store_document(document, path)
    with DocumentStore.open(path) as handle:
        yield handle


class _SlowEngine(XPathEngine):
    """An engine whose streams pause before producing — deterministic
    "query still in flight" windows for quota and drain tests."""

    def __init__(self, *args, delay: float = 0.5, **kwargs):
        super().__init__(*args, **kwargs)
        self.delay = delay

    def evaluate_stream(self, query, target, eval_options=None, **kwargs):
        time.sleep(self.delay)
        return super().evaluate_stream(
            query, target, eval_options, **kwargs
        )


# ----------------------------------------------------------------------
# The engine-side streaming foundation
# ----------------------------------------------------------------------


class TestEvaluateStream:
    def test_pages_partition_the_result(self, document):
        engine = XPathEngine()
        pairs = list(
            engine.evaluate_stream("//item", document, page_size=7)
        )
        assert {kind for kind, _ in pairs} == {"node-set"}
        pages = [page for _, page in pairs]
        assert [len(page) for page in pages] == [7, 7, 7, 7, 2]
        flat = [node for page in pages for node in page]
        assert canonical_value(flat) == canonical_value(
            engine.evaluate("//item", document)
        )

    def test_default_page_size(self, document):
        engine = XPathEngine()
        pages = list(engine.evaluate_stream("//item", document))
        assert len(pages) == 1 and len(pages[0][1]) == NUM_ITEMS
        assert DEFAULT_PAGE_SIZE >= NUM_ITEMS

    def test_empty_result_yields_one_empty_page(self, document):
        engine = XPathEngine()
        pages = list(
            engine.evaluate_stream("//nothing", document, page_size=4)
        )
        assert pages == [("node-set", [])]

    def test_scalar_streams_as_single_item_page(self, document):
        engine = XPathEngine()
        pages = list(
            engine.evaluate_stream("count(//item)", document)
        )
        assert pages == [("scalar", [float(NUM_ITEMS)])]

    def test_ordered_stream_is_document_ordered(self, document):
        engine = XPathEngine()
        items = [
            node
            for _, page in engine.evaluate_stream(
                "//price/ancestor::item", document, page_size=5,
                ordered=True,
            )
            for node in page
        ]
        assert [n.sort_key for n in items] == sorted(
            n.sort_key for n in items
        )

    def test_invalid_page_size_rejected(self, document):
        engine = XPathEngine()
        with pytest.raises(ValueError):
            engine.evaluate_stream("//item", document, page_size=0)

    def test_stream_counters_reconcile(self, document):
        engine = XPathEngine()
        list(engine.evaluate_stream("//item", document, page_size=7))
        counters = engine.stats().runtime_counters
        assert counters["stream_queries"] == 1
        assert counters["stream_pages"] == 5
        assert counters["queries_submitted"] == 1
        assert counters["queries_completed"] == 1

    def test_budget_abort_mid_stream(self, document):
        engine = XPathEngine()
        stream = engine.evaluate_stream(
            "//item", document,
            EvalOptions(max_tuples=5), page_size=2,
        )
        with pytest.raises(QueryBudgetError):
            list(stream)
        counters = engine.stats().runtime_counters
        assert counters["budget_aborts"] == 1
        assert counters["queries_submitted"] == (
            counters["queries_completed"]
            + counters["queries_timed_out"]
            + counters["queries_cancelled"]
            + counters["budget_aborts"]
        )

    def test_abandoned_stream_still_settles_counters(self, document):
        engine = XPathEngine()
        stream = engine.evaluate_stream(
            "//item", document, page_size=3
        )
        next(stream)
        stream.close()
        counters = engine.stats().runtime_counters
        assert counters["queries_submitted"] == 1
        assert counters["queries_completed"] == 1


# ----------------------------------------------------------------------
# Protocol: request validation and the error-code table
# ----------------------------------------------------------------------


class TestProtocol:
    def _parse_error(self, body: dict) -> ProtocolError:
        with pytest.raises(ProtocolError) as exc_info:
            parse_request(json.dumps(body).encode())
        return exc_info.value

    def test_minimal_request(self):
        request = parse_request(b'{"query": "//a"}')
        assert request.query == "//a"
        assert request.mode == "stream"

    def test_not_json(self):
        with pytest.raises(ProtocolError) as exc_info:
            parse_request(b"not json at all")
        assert exc_info.value.status == 400

    def test_missing_query(self):
        assert self._parse_error({}).code == "bad-request"

    def test_unknown_field(self):
        error = self._parse_error({"query": "//a", "frobnicate": 1})
        assert "frobnicate" in str(error)

    def test_bad_mode_and_page_size(self):
        assert self._parse_error(
            {"query": "//a", "mode": "batch"}
        ).status == 400
        assert self._parse_error(
            {"query": "//a", "page_size": 0}
        ).status == 400
        assert self._parse_error(
            {"query": "//a", "page_size": True}
        ).status == 400

    def test_node_set_variables_rejected(self):
        error = self._parse_error(
            {"query": "//a", "variables": {"v": [1, 2]}}
        )
        assert "node-set" in str(error)

    def test_non_finite_numbers_round_trip(self):
        request = parse_request(json.dumps(
            {"query": "//a", "variables": {"nan": "NaN",
                                           "inf": "Infinity"}}
        ).encode())
        assert request.variables["nan"] != request.variables["nan"]
        assert request.variables["inf"] == float("inf")

    def test_error_table_classification(self):
        assert classify_error(QueryTimeoutError(1.0, 2.0)) == (
            "timeout", 408
        )
        assert classify_error(QueryBudgetError("tuples", 1, 2)) == (
            "budget-exceeded", 429
        )
        assert classify_error(XPathSyntaxError("boom")) == (
            "bad-query", 400
        )
        assert classify_error(RuntimeError("boom")) == ("crash", 500)


# ----------------------------------------------------------------------
# Loopback end-to-end
# ----------------------------------------------------------------------


class TestLoopback:
    def test_store_streams_pages_equal_to_in_process(self, stored):
        engine = XPathEngine(index="off")
        config = ServerConfig(port=0, page_size=7)
        with start_in_thread(
            {"doc": stored}, engine=engine, config=config
        ) as handle:
            with ServerClient(handle.host, handle.port) as client:
                result = client.query("//item", target="doc")
        assert result.ok and result.status == 200
        assert len(result.pages) >= 2
        assert result.footer["pages"] == len(result.pages)
        assert result.footer["items"] == NUM_ITEMS
        reference = XPathEngine(index="off").evaluate(
            "//item", stored.root
        )
        assert result.canonical() == canonical_value(reference)

    def test_full_mode_matches_stream_mode(self, document):
        with start_in_thread({"doc": document}) as handle:
            with ServerClient(handle.host, handle.port) as client:
                streamed = client.query(
                    "//item/name", page_size=4
                )
                full = client.query(
                    "//item/name", mode="full", page_size=4
                )
        assert streamed.ok and full.ok
        assert streamed.canonical() == full.canonical()
        assert len(streamed.pages) >= 2
        assert len(full.pages) >= 2

    def test_scalars_round_trip(self, document):
        with start_in_thread({"doc": document}) as handle:
            with ServerClient(handle.host, handle.port) as client:
                count = client.query("count(//item)")
                text = client.query("string(//name)")
                flag = client.query("count(//item) > 5")
                nan = client.query("number('nope')")
                inf = client.query("1 div 0")
        assert count.scalar() == float(NUM_ITEMS)
        assert text.scalar() == "item-000"
        assert flag.scalar() is True
        assert nan.scalar() != nan.scalar()
        assert inf.scalar() == float("inf")

    def test_variables_and_namespaces(self, document):
        with start_in_thread({"doc": document}) as handle:
            with ServerClient(handle.host, handle.port) as client:
                result = client.query(
                    "count(//item[@n > $min])",
                    variables={"min": 24},
                )
        assert result.scalar() == 5.0

    def test_bad_query_returns_typed_400(self, document):
        with start_in_thread({"doc": document}) as handle:
            with ServerClient(handle.host, handle.port) as client:
                result = client.query("//item[")
        assert result.status == 400
        assert result.error["code"] == "bad-query"
        assert result.error["error"] == "XPathSyntaxError"
        with pytest.raises(XPathSyntaxError):
            result.raise_for_error()

    def test_unknown_target_404(self, document):
        with start_in_thread({"doc": document}) as handle:
            with ServerClient(handle.host, handle.port) as client:
                result = client.query("//item", target="nope")
        assert result.status == 404
        assert result.error["code"] == "unknown-target"

    def test_malformed_body_400(self, document):
        with start_in_thread({"doc": document}) as handle:
            import http.client

            conn = http.client.HTTPConnection(
                handle.host, handle.port, timeout=10
            )
            conn.request(
                "POST", "/xpath", body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            frame = json.loads(response.read())
            conn.close()
        assert response.status == 400
        assert frame["code"] == "bad-request"

    def test_governance_error_frames(self, document):
        with start_in_thread({"doc": document}) as handle:
            with ServerClient(handle.host, handle.port) as client:
                budget = client.query("//item", max_tuples=3)
                deadline = client.query("//item", timeout=1e-9)
        assert budget.error["error"] == "QueryBudgetError"
        assert budget.error["code"] == "budget-exceeded"
        assert budget.error["status"] == 429
        assert deadline.error["error"] == "QueryTimeoutError"
        assert deadline.error["status"] == 408
        with pytest.raises(QueryBudgetError):
            budget.raise_for_error()

    def test_stats_healthz_version(self, document):
        with start_in_thread({"doc": document}) as handle:
            with ServerClient(handle.host, handle.port) as client:
                client.query("//item")
                stats = client.stats()
                health = client.healthz()
                version = client.version()
        # The whole payload must have survived json round-tripping —
        # this is what the stats to_dict() satellites exist for.
        assert stats["server"]["counters"]["queries_ok"] >= 1
        assert stats["server"]["targets"] == {"doc": "document"}
        assert stats["engine"]["cache"]["lookups"] >= 1
        assert isinstance(stats["engine"]["cache"]["shards"], list)
        assert stats["engine"]["runtime_counters"][
            "stream_queries"
        ] >= 1
        assert health["status"] == "ok"
        assert version["protocol"] == 1

    def test_unknown_route_404_and_method_405(self, document):
        with start_in_thread({"doc": document}) as handle:
            import http.client

            conn = http.client.HTTPConnection(
                handle.host, handle.port, timeout=10
            )
            conn.request("GET", "/nope")
            missing = conn.getresponse()
            missing_frame = json.loads(missing.read())
            conn.request("POST", "/stats", body=b"{}")
            wrong = conn.getresponse()
            wrong_frame = json.loads(wrong.read())
            conn.close()
        assert missing.status == 404
        assert missing_frame["code"] == "not-found"
        assert wrong.status == 405
        assert wrong_frame["code"] == "method-not-allowed"


@pytest.mark.multiprocess
class TestCollectionTarget:
    def test_collection_round_trip(self, document, tmp_path):
        from repro.collection import (
            Collection,
            create_collection_from_document,
        )

        catalog = create_collection_from_document(
            document, tmp_path / "coll", shards=3, name="serve"
        )
        with Collection(catalog.directory, workers=2) as collection:
            engine = XPathEngine()
            reference = engine.evaluate_collection(
                "//item/name", collection
            ).merged()
            with start_in_thread(
                {"coll": collection}, engine=engine,
                config=ServerConfig(port=0, page_size=7),
            ) as handle:
                with ServerClient(handle.host, handle.port) as client:
                    result = client.query("//item/name", target="coll")
                    stats = client.stats()
        assert result.ok
        assert len(result.pages) >= 2
        assert result.header["kind"] == "node-set"
        wire = [
            (
                item["shard"], tuple(item["sort_key"]), item["kind"],
                item["name"], item["value"],
            )
            for item in result.items
        ]
        assert wire == [
            (r.shard, tuple(r.sort_key), r.kind, r.name, r.string_value)
            for r in reference
        ]
        assert stats["server"]["targets"] == {"coll": "collection"}
        assert stats["engine"]["collection"]["shard_count"] == 3


# ----------------------------------------------------------------------
# Admission quotas
# ----------------------------------------------------------------------


class TestAdmission:
    def test_per_client_quota_429(self, document):
        engine = _SlowEngine(delay=1.0)
        config = ServerConfig(port=0, max_inflight=1)
        with start_in_thread(
            {"doc": document}, engine=engine, config=config
        ) as handle:
            with ThreadPoolExecutor(max_workers=2) as pool:
                slow = pool.submit(
                    lambda: ServerClient(
                        handle.host, handle.port, client_id="c1"
                    ).query("//item")
                )
                time.sleep(0.3)
                with ServerClient(
                    handle.host, handle.port, client_id="c1"
                ) as client:
                    rejected = client.query("//item")
                slow_result = slow.result(timeout=10)
        assert rejected.status == 429
        assert rejected.error["code"] == "quota-exceeded"
        assert slow_result.ok  # the in-flight query was untouched

    def test_other_clients_unaffected_by_quota(self, document):
        engine = _SlowEngine(delay=1.0)
        config = ServerConfig(port=0, max_inflight=1)
        with start_in_thread(
            {"doc": document}, engine=engine, config=config
        ) as handle:
            with ThreadPoolExecutor(max_workers=2) as pool:
                slow = pool.submit(
                    lambda: ServerClient(
                        handle.host, handle.port, client_id="c1"
                    ).query("//item")
                )
                time.sleep(0.3)
                with ServerClient(
                    handle.host, handle.port, client_id="c2"
                ) as client:
                    other = client.query("count(//item)")
                assert slow.result(timeout=10).ok
        assert other.ok

    def test_queue_full_429(self, document):
        engine = _SlowEngine(delay=1.0)
        config = ServerConfig(port=0, workers=1, queue_depth=0)
        with start_in_thread(
            {"doc": document}, engine=engine, config=config
        ) as handle:
            with ThreadPoolExecutor(max_workers=2) as pool:
                slow = pool.submit(
                    lambda: ServerClient(
                        handle.host, handle.port, client_id="c1"
                    ).query("//item")
                )
                time.sleep(0.3)
                with ServerClient(
                    handle.host, handle.port, client_id="c2"
                ) as client:
                    rejected = client.query("//item")
                assert slow.result(timeout=10).ok
        assert rejected.status == 429
        assert rejected.error["code"] == "queue-full"


# ----------------------------------------------------------------------
# Admission-slot release on early disconnect
# ----------------------------------------------------------------------


class TestAdmissionRelease:
    def test_early_disconnect_hammer_releases_every_slot(self, document):
        """Streaming clients that vanish — before the header, or
        mid-stream between header and pages — must release their
        admission slot exactly once: in-flight returns to zero, and
        ``orphan_releases`` (the double-release detector) stays 0."""
        engine = _SlowEngine(delay=0.15)
        config = ServerConfig(port=0, max_inflight=8, page_size=2)
        body = json.dumps({"query": "//item", "page_size": 2}).encode()
        request = (
            b"POST /xpath HTTP/1.1\r\n"
            b"Host: loopback\r\n"
            b"X-Client-Id: hammer\r\n"
            b"Content-Type: application/json\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode("latin-1")
            + body
        )
        with start_in_thread(
            {"doc": document}, engine=engine, config=config
        ) as handle:
            for attempt in range(12):
                conn = socket.create_connection(
                    (handle.host, handle.port), timeout=10
                )
                conn.sendall(request)
                if attempt % 2:
                    # Read the response head, then vanish mid-stream.
                    conn.settimeout(5)
                    try:
                        conn.recv(64)
                    except socket.timeout:
                        pass
                conn.close()
            deadline = time.monotonic() + 15.0
            with ServerClient(handle.host, handle.port) as client:
                while True:
                    admission = client.stats()["server"]["admission"]
                    if admission["inflight"] == 0:
                        break
                    assert time.monotonic() < deadline, admission
                    time.sleep(0.1)
        assert admission["inflight"] == 0
        assert admission["clients"] == {}
        assert admission["orphan_releases"] == 0
        assert admission["admitted"] >= 1
        assert admission["released"] == admission["admitted"]


# ----------------------------------------------------------------------
# Idle keep-alive reaping
# ----------------------------------------------------------------------


class TestIdleReaper:
    def test_idle_connection_is_reaped(self, document):
        """A keep-alive connection that goes silent is closed once it
        exceeds ``idle_timeout`` — the regression this satellite fixes
        is such connections holding their fd forever."""
        config = ServerConfig(port=0, idle_timeout=0.3)
        with start_in_thread({"doc": document}, config=config) as handle:
            conn = socket.create_connection(
                (handle.host, handle.port), timeout=10
            )
            try:
                conn.settimeout(10)
                # Go silent; the reaper must close us (EOF), not leave
                # this recv blocked until the client-side timeout.
                assert conn.recv(1) == b""
            finally:
                conn.close()
            with ServerClient(handle.host, handle.port) as client:
                stats = client.stats()
        assert stats["server"]["counters"]["connections_reaped"] >= 1

    def test_busy_connection_is_never_reaped(self, document):
        """A connection mid-query outlives ``idle_timeout`` untouched,
        however long its query streams."""
        engine = _SlowEngine(delay=1.0)
        config = ServerConfig(port=0, idle_timeout=0.2)
        with start_in_thread(
            {"doc": document}, engine=engine, config=config
        ) as handle:
            with ServerClient(
                handle.host, handle.port, timeout=30
            ) as client:
                result = client.query("//item")
                stats = client.stats()
        assert result.ok
        assert result.footer["items"] == NUM_ITEMS
        # Our own keep-alive connection was busy, then freshly active;
        # it must not be in the reaped count at query time.
        assert stats["server"]["counters"]["queries_ok"] >= 1

    def test_invalid_idle_timeout_rejected(self):
        with pytest.raises(ValueError):
            ServerConfig(idle_timeout=0.0)
        with pytest.raises(ValueError):
            ServerConfig(idle_timeout=-1.0)
        assert ServerConfig(idle_timeout=None).idle_timeout is None


# ----------------------------------------------------------------------
# Page-buffer abort latency (event-driven, not polled)
# ----------------------------------------------------------------------


class TestPageBufferAbort:
    def test_abort_unwedges_blocked_producer_within_10ms(self):
        """A producer parked on a full buffer must observe abort() at
        condition-variable wakeup latency — the old implementation
        polled every 0.1 s, so a disconnect left the worker thread
        computing for up to a full tick."""
        import asyncio

        from repro.server.server import _PageBuffer, _StreamAborted

        loop = asyncio.new_event_loop()
        runner = threading.Thread(target=loop.run_forever, daemon=True)
        runner.start()
        try:
            latencies = []
            for _ in range(3):
                buffer = _PageBuffer(loop, capacity=1)
                buffer.put_page([])  # takes the only slot
                parked = threading.Event()
                woke = {}

                def producer(buffer=buffer, parked=parked, woke=woke):
                    parked.set()
                    try:
                        buffer.put_page([])
                    except _StreamAborted:
                        woke["at"] = time.perf_counter()

                thread = threading.Thread(target=producer)
                thread.start()
                assert parked.wait(5)
                time.sleep(0.05)  # producer is inside the cond wait
                aborted_at = time.perf_counter()
                buffer.abort()
                thread.join(timeout=5)
                assert not thread.is_alive()
                assert "at" in woke
                latencies.append(woke["at"] - aborted_at)
            # Best-of-3 shields against scheduler jitter on loaded
            # hosts; the wakeup itself is microseconds.
            assert min(latencies) < 0.010, latencies
        finally:
            loop.call_soon_threadsafe(loop.stop)
            runner.join(timeout=5)
            loop.close()


# ----------------------------------------------------------------------
# Graceful shutdown (satellite: drain, 503, no leaked threads)
# ----------------------------------------------------------------------


class TestShutdown:
    def test_inflight_query_drains_to_completion(self, document):
        engine = _SlowEngine(delay=0.8)
        handle = start_in_thread(
            {"doc": document}, engine=engine,
            config=ServerConfig(port=0),
        )
        with ThreadPoolExecutor(max_workers=1) as pool:
            slow = pool.submit(
                lambda: ServerClient(handle.host, handle.port).query(
                    "//item"
                )
            )
            time.sleep(0.3)
            handle.stop(drain=10)  # blocks until drained
            result = slow.result(timeout=10)
        assert result.ok
        assert result.footer["items"] == NUM_ITEMS

    def test_draining_rejects_new_queries_with_503(self, document):
        engine = _SlowEngine(delay=1.2)
        handle = start_in_thread(
            {"doc": document}, engine=engine,
            config=ServerConfig(port=0),
        )
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                slow = pool.submit(
                    lambda: ServerClient(
                        handle.host, handle.port
                    ).query("//item")
                )
                time.sleep(0.3)
                stopper = pool.submit(handle.stop, 10)
                time.sleep(0.3)  # the server is now draining
                with ServerClient(handle.host, handle.port) as client:
                    rejected = client.query("count(//item)")
                    health = client.healthz()
                assert slow.result(timeout=10).ok
                stopper.result(timeout=15)
        finally:
            pass
        assert rejected.status == 503
        assert rejected.error["code"] == "draining"
        assert health["status"] == "draining"

    def test_drain_deadline_cancels_stragglers(self, document):
        engine = _SlowEngine(delay=3.0)
        handle = start_in_thread(
            {"doc": document}, engine=engine,
            config=ServerConfig(port=0, default_timeout=None),
        )
        with ThreadPoolExecutor(max_workers=1) as pool:
            slow = pool.submit(
                lambda: ServerClient(
                    handle.host, handle.port, timeout=30
                ).query("//item")
            )
            time.sleep(0.3)
            started = time.monotonic()
            handle.stop(drain=0.2)
            result = slow.result(timeout=30)
        # The straggler was cancelled (or squeaked through); either
        # way shutdown did not wait the full 3 s evaluation out.
        assert time.monotonic() - started < 6.0
        if not result.ok:
            assert result.error["error"] == "QueryCancelledError"

    def test_no_threads_leak_after_stop(self, document):
        def serving_threads():
            return [
                thread
                for thread in threading.enumerate()
                if thread.name.startswith(("xpath-serve", "xpath-server"))
            ]

        handle = start_in_thread({"doc": document})
        with ServerClient(handle.host, handle.port) as client:
            assert client.query("//item").ok
        assert serving_threads()
        handle.stop()
        deadline = time.monotonic() + 5.0
        while serving_threads() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert serving_threads() == []

    def test_new_connections_refused_after_stop(self, document):
        handle = start_in_thread({"doc": document})
        port = handle.port
        handle.stop()
        with pytest.raises(OSError):
            ServerClient("127.0.0.1", port, timeout=2).query("//item")


# ----------------------------------------------------------------------
# CLI entry points (satellite: --version, exit codes)
# ----------------------------------------------------------------------


class TestCli:
    def _run(self, *argv):
        return subprocess.run(
            [sys.executable, *argv], capture_output=True, text=True,
            timeout=60,
        )

    def test_repro_version_flag(self):
        from repro import __version__

        result = self._run("-m", "repro", "--version")
        assert result.returncode == 0
        assert __version__ in result.stdout

    def test_server_version_flag(self):
        from repro import __version__

        result = self._run("-m", "repro.server", "--version")
        assert result.returncode == 0
        assert __version__ in result.stdout

    def test_server_usage_error_exits_2(self):
        result = self._run("-m", "repro.server")  # no targets
        assert result.returncode == 2

    def test_server_bad_target_exits_1(self, tmp_path):
        result = self._run(
            "-m", "repro.server",
            "--store", f"doc={tmp_path / 'missing.natix'}",
        )
        assert result.returncode == 1
        assert "error:" in result.stderr

    def test_repro_usage_error_exits_2(self):
        result = self._run("-m", "repro", "--workers", "0", "//a", "-")
        assert result.returncode == 2

    def test_repro_query_error_exits_1(self, tmp_path):
        xml = tmp_path / "doc.xml"
        xml.write_text("<a/>")
        result = self._run("-m", "repro", "//a[", str(xml))
        assert result.returncode == 1
