"""The ``served-mix`` workload: ``python -m repro.server`` under load.

The server runs as its own process with its defaults; the benchmark
passes only its targets and ``--port 0``.  One generator process (this
one) drives a closed loop over :data:`CONNECTIONS` keep-alive
connections, each walking the seeded mix from its own offset, in
slices with the server idle between them (see :func:`_drive`).  Latency
runs from the POST to the last byte; time to first byte runs to the
first ``page`` or ``error`` frame.
"""

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from collections import defaultdict

from repro import (
    XPathEngine,
    create_collection,
    open_collection,
    open_store,
    parse_document,
    store_document,
)
from repro.server.protocol import canonical_items

import inputs as inputs_mod
from harness import (
    BrokenIdentity,
    check_cache_identity,
    check_collection_identity,
    end_to_end,
    mean,
    remove_tree,
)
from inprocess import first_touch
from layers import LayerStats, setup_values
from spans import request_self_times

CONNECTIONS = 2

#: Seconds of load per slice of the timed window, and of host-speed
#: calibration before the first slice and after each one, while the
#: server is idle.
SLICE_S = 2.5
IDLE_CALIBRATION_S = 0.25

#: In-process repetitions of each distinct query in the traced run.
INPROCESS_REPEATS = 3

_LISTENING = re.compile(r"on http://([0-9.]+):([0-9]+)")


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------


class ServerProcess:
    """One ``python -m repro.server`` child and its worker processes."""

    def __init__(self, arguments, directory, source_root):
        env = dict(os.environ)
        env["PYTHONPATH"] = source_root
        env["TMPDIR"] = directory
        self.log_path = os.path.join(directory, "server.log")
        self._log = open(self.log_path, "w")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.server", "--port", "0",
             *arguments],
            stdout=subprocess.DEVNULL, stderr=self._log, env=env,
            cwd=directory,
        )
        self.host = None
        self.port = None

    def wait_ready(self, timeout=120.0):
        """Block until ``/healthz`` answers 200."""
        deadline = time.perf_counter() + timeout
        while self.port is None:
            self._fail_if_exited()
            with open(self.log_path) as log:
                match = _LISTENING.search(log.read())
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
            elif time.perf_counter() > deadline:
                raise RuntimeError("server did not start listening")
            else:
                time.sleep(0.005)
        while True:
            self._fail_if_exited()
            connection = http.client.HTTPConnection(self.host, self.port,
                                                    timeout=5)
            try:
                connection.request("GET", "/healthz")
                if connection.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                connection.close()
            if time.perf_counter() > deadline:
                raise RuntimeError("server never became healthy")
            time.sleep(0.005)

    def _fail_if_exited(self):
        if self.process.poll() is not None:
            with open(self.log_path) as log:
                raise RuntimeError(
                    f"server exited with {self.process.returncode}: "
                    f"{log.read()[-2000:]}")

    def get_json(self, path):
        connection = http.client.HTTPConnection(self.host, self.port,
                                                timeout=60)
        try:
            connection.request("GET", path)
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def descendants(self):
        """Pids of the server's child processes, transitively."""
        children = defaultdict(list)
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as stat:
                    fields = stat.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            children[int(fields[1])].append(int(entry))
        found, frontier = [], [self.process.pid]
        while frontier:
            pid = frontier.pop()
            found.extend(children.get(pid, ()))
            frontier.extend(children.get(pid, ()))
        return found

    def peak_rss_mb(self):
        """Summed peak resident memory of the server and its workers."""
        total_kib = 0
        for pid in [self.process.pid, *self.descendants()]:
            try:
                with open(f"/proc/{pid}/status") as status:
                    for line in status:
                        if line.startswith("VmHWM:"):
                            total_kib += int(line.split()[1])
            except OSError:
                continue
        return total_kib / 1024.0

    def stop(self):
        """SIGTERM (the server drains and closes its pool), then make
        sure every process it started has ended."""
        workers = self.descendants() if self.process.poll() is None else []
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self._log.close()
        deadline = time.perf_counter() + 30
        for pid in workers:
            while os.path.exists(f"/proc/{pid}"):
                if time.perf_counter() > deadline:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except OSError:
                        pass
                time.sleep(0.01)


# ----------------------------------------------------------------------
# The client
# ----------------------------------------------------------------------


class Response:
    """One response: stamped while it arrives, decoded after the timed
    window (:meth:`decode`), so the client's loop does no more than read."""

    __slots__ = ("latency", "ttfb", "body", "bytes", "item_count", "pages",
                 "error")

    def __init__(self):
        self.ttfb = None
        self.body = b""
        self.bytes = 0
        self.item_count = 0
        self.pages = 0
        self.error = None

    def decode(self):
        """Read the frames, keep their sizes, drop the body; returns the
        page items."""
        items = []
        for line in self.body.split(b"\n"):
            if not line.strip():
                continue
            frame = json.loads(line)
            kind = frame.get("frame")
            if kind == "page":
                self.pages += 1
                items.extend(frame["items"])
            elif kind == "error":
                self.error = frame
        self.bytes = len(self.body)
        self.item_count = len(items)
        self.body = None
        return items


#: How the server's compact frame encoding starts each frame line; any
#: other line is decoded to find its kind.
_ANSWER_PREFIXES = (b'{"frame":"page"', b'{"frame":"error"')
_OTHER_PREFIXES = (b'{"frame":"header"', b'{"frame":"footer"')


def _answer_frame(line):
    """Is this line a ``page`` or ``error`` frame?"""
    if line.startswith(_ANSWER_PREFIXES):
        return True
    if not line.strip() or line.startswith(_OTHER_PREFIXES):
        return False
    return json.loads(line).get("frame") in ("page", "error")


def post(connection, query, target):
    """POST one query and read its frame stream as it arrives, stamping
    the arrival of the first ``page`` or ``error`` frame."""
    body = json.dumps({"query": query, "target": target}).encode()
    response = Response()
    chunks = []
    start = time.perf_counter()
    connection.request("POST", "/xpath", body=body,
                       headers={"Content-Type": "application/json"})
    reply = connection.getresponse()
    pending = b""
    while True:
        chunk = reply.read1(65536)
        if not chunk:
            break
        chunks.append(chunk)
        if response.ttfb is None:
            lines = (pending + chunk).split(b"\n")
            pending = lines.pop()
            if any(_answer_frame(line) for line in lines):
                response.ttfb = time.perf_counter() - start
    response.latency = time.perf_counter() - start
    if response.ttfb is None:  # the answer frame had no trailing newline
        response.ttfb = response.latency
    response.body = b"".join(chunks)
    return response


def canonical_response(items, target, shard_count):
    """Server page items in the reference's canonical form."""
    if target != "coll":
        return canonical_items(items)
    if items and items[0].get("type") == "node":
        by_shard = defaultdict(list)
        for item in items:
            by_shard[item["shard"]].append(item)
        return tuple((shard, canonical_items(by_shard[shard]))
                     for shard in range(shard_count))
    return tuple((shard, canonical_items([item]))
                 for shard, item in enumerate(items))


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------


def served_mix(run):
    docs_in, shards_in, mix = inputs_mod.served_mix(run.seed, run.size)
    references = {}
    for _cls, target, query in mix:
        references[target, query] = (
            inputs_mod.collection_reference(shards_in, query)
            if target == "coll" else docs_in[target].reference(query))
    source_root = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")

    def build(directory, phases):
        with run.phase(phases, "setup", "parse"):
            docs = {name: parse_document(item.text)
                    for name, item in docs_in.items()}
            shard_docs = [parse_document(item.text) for item in shards_in]
        paths = {name: os.path.join(directory, f"{name}.natix")
                 for name in docs}
        with run.phase(phases, "storage", "write"):
            for name, doc in docs.items():
                store_document(doc, paths[name])
        paths["coll"] = os.path.join(directory, "coll")
        with run.phase(phases, "collection", "collection"):
            create_collection(shard_docs, paths["coll"])
        arguments = ["--store", f"gen={paths['gen']}",
                     "--store", f"dblp={paths['dblp']}",
                     "--collection", f"coll={paths['coll']}"]
        server = None
        try:
            with run.phase(phases, "server", "server_start"):
                server = ServerProcess(arguments, directory, source_root)
                server.wait_ready()
        except BaseException:
            if server is not None:
                server.stop()
            raise
        return {"server": server, "paths": paths, "directory": directory}

    def teardown(state):
        state["server"].stop()
        remove_tree(state["directory"])

    state = run.repeated_setup(build, teardown)
    setup_s, phases = run.setup_summary()
    try:
        return _served_loop(run, state, mix, references, shards_in,
                            setup_s, phases)
    finally:
        teardown(state)


def _drive(run, server, mix, references, shard_count, budget):
    """Closed loop over the mix on every connection for ``budget`` s of
    load, in slices of ``SLICE_S`` s with the server idle between them
    for the host-speed calibration.  Returns ``(samples, window
    seconds)``: the window sums the slices, from each resume until
    every connection is idle again.  A sample is ``(class, target,
    query, response)``."""
    tracer = run.tracer
    samples = []
    errors = []
    gate = threading.Condition()
    control = {"running": False, "done": False, "busy": 0}

    def client(offset):
        connection = http.client.HTTPConnection(server.host, server.port,
                                                timeout=120)
        index = offset
        try:
            while True:
                with gate:
                    while not (control["running"] or control["done"]):
                        gate.wait()
                    if control["done"]:
                        return
                    control["busy"] += 1
                try:
                    cls, target, query = mix[index % len(mix)]
                    index += 1
                    with tracer.request(query):
                        start = time.perf_counter()
                        response = post(connection, query, target)
                        tracer.add("server", "xpath", start,
                                   start + response.latency)
                finally:
                    with gate:
                        control["busy"] -= 1
                        gate.notify_all()
                with gate:
                    samples.append((cls, target, query, response))
        except BaseException as error:  # reported by the main thread
            errors.append(error)
            with gate:
                control["done"] = True
                gate.notify_all()
        finally:
            connection.close()

    threads = [threading.Thread(target=client,
                                args=(i * len(mix) // CONNECTIONS,))
               for i in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    window = 0.0
    try:
        while window < budget and not errors:
            start = time.perf_counter()
            with gate:
                control["running"] = True
                gate.notify_all()
            time.sleep(min(SLICE_S, budget - window))
            with gate:
                control["running"] = False
                while control["busy"] and not errors:
                    gate.wait()
            window += time.perf_counter() - start
            _calibrate_idle(run)
    finally:
        with gate:
            control["done"] = True
            gate.notify_all()
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    # Every answer is checked, after the window: a check inside the loop
    # would lengthen each connection's cycle and hold the GIL against
    # the other connection's reads.
    for _cls, target, query, response in samples:
        items = response.decode()
        if response.error is None:
            run.check(f"{query} on {target}",
                      canonical_response(items, target, shard_count),
                      references[target, query])
    return samples, window


def _calibrate_idle(run):
    """Calibration loops for ``IDLE_CALIBRATION_S``, run while the
    server is idle so that its load does not slow them."""
    deadline = time.perf_counter() + IDLE_CALIBRATION_S
    while time.perf_counter() < deadline:
        run.calibrate()


def _check_server_identities(stats):
    admission = stats["server"]["admission"]
    if admission["admitted"] != admission["released"]:
        raise BrokenIdentity(
            f"server: admitted {admission['admitted']} != released "
            f"{admission['released']}")
    if admission["orphan_releases"] != 0:
        raise BrokenIdentity(
            f"server: {admission['orphan_releases']} orphan releases")
    engine = stats["engine"]
    check_cache_identity(engine["cache"])
    if engine.get("collection"):
        check_collection_identity(engine["collection"])


def _served_loop(run, state, mix, references, shards_in, setup_s, phases):
    server = state["server"]
    budget = run.seconds / 2 if run.traced else run.seconds
    shard_count = len(shards_in)
    saved = run.tracer.enabled
    run.tracer.enabled = False
    try:
        _calibrate_idle(run)
        untraced, window = _drive(run, server, mix, references,
                                  shard_count, budget)
    finally:
        run.tracer.enabled = saved
    traced = []
    if run.traced:
        traced, _ = _drive(run, server, mix, references, shard_count,
                           budget)
    stats = server.get_json("/stats")
    _check_server_identities(stats)
    peak_rss = server.peak_rss_mb()
    samples = untraced + traced
    attempted = len(samples)
    failed = sum(1 for *_rest, response in samples if response.error)
    ok = [response for *_rest, response in untraced if not response.error]
    if not run.traced:
        # Times scaled to the reference host, as in process
        # (``setup_s`` is scaled already).
        scale = run.host_scale()
        metrics = end_to_end(len(ok), window * scale,
                             [r.latency * scale for r in ok],
                             setup_s, peak_rss,
                             ttfbs=[r.ttfb * scale for r in ok])
        return metrics, attempted, failed

    layers = LayerStats()
    layers.values.update(setup_values(phases))
    server_stats(layers, stats, traced)
    state["server"].stop()
    first_replay_span = len(run.tracer.spans)
    _inprocess(run, layers, state["paths"], mix, references, shards_in)
    profiles = _profiles(run.tracer.spans[first_replay_span:])
    metrics = layers.finish(
        run.tracer, [r.latency for *_x, r in traced if not r.error],
        [r.latency for r in ok],
        self_seconds=_served_split(layers, traced, profiles))
    return metrics, attempted, failed


def _profiles(spans):
    """Per ``(target, query)`` of the in-process replay: mean self
    seconds per layer and mean request seconds."""
    grouped = defaultdict(list)
    for key, layer_seconds, seconds in request_self_times(spans):
        grouped[key].append((layer_seconds, seconds))
    profiles = {}
    for key, samples in grouped.items():
        summed = defaultdict(float)
        for layer_seconds, _seconds in samples:
            for layer, seconds in layer_seconds.items():
                summed[layer] += seconds
        profiles[key] = (
            {layer: seconds / len(samples)
             for layer, seconds in summed.items()},
            mean(seconds for _layers, seconds in samples),
        )
    return profiles


def _served_split(layers, traced, profiles):
    """Self time of the traced served requests, split per request: the
    layers below the server as the same query on the same target takes
    them in process, and the rest of the served latency as ``server``.
    Also sets ``server.overhead_ms.<class>``, the server's share by
    class.  Returns ``(per-layer seconds, request seconds, requests)``."""
    by_layer = defaultdict(float)
    overhead = defaultdict(list)
    request_seconds = 0.0
    requests = 0
    for cls, target, query, response in traced:
        if response.error:
            continue
        layer_seconds, inprocess = profiles[target, query]
        for layer, seconds in layer_seconds.items():
            by_layer[layer] += seconds
        by_layer["server"] += response.latency - inprocess
        overhead[cls].append(response.latency - inprocess)
        request_seconds += response.latency
        requests += 1
    for cls in inputs_mod.SERVED_CLASSES:
        layers.values[f"server.overhead_ms.{cls}"] = (
            mean(overhead[cls]) * 1e3)
    return by_layer, request_seconds, requests


def server_stats(layers, stats, traced):
    """Client-stamped and ``/stats`` server metrics."""
    values = layers.values
    by_class = defaultdict(list)
    for cls, _target, _query, response in traced:
        if not response.error:
            by_class[cls].append(response)
    for cls in inputs_mod.SERVED_CLASSES:
        responses = by_class[cls]
        values[f"server.ttfb_ms.{cls}"] = mean(
            r.ttfb for r in responses) * 1e3
        values[f"server.total_ms.{cls}"] = mean(
            r.latency for r in responses) * 1e3
    responses = [r for *_x, r in traced if not r.error]
    items = sum(r.item_count for r in responses)
    values["server.bytes_per_item"] = (
        sum(r.bytes for r in responses) / items if items else 0.0)
    values["server.pages_per_query"] = mean(r.pages for r in responses)
    admission = stats["server"]["admission"]
    values["server.rejected"] = (admission["rejected_quota"]
                                 + admission["rejected_queue"])
    counters = stats["engine"]["runtime_counters"]
    submitted = counters.get("queries_submitted", 0)
    values["engine.coalesced_ratio"] = (
        counters.get("coalesced_requests", 0) / submitted
        if submitted else 0.0)


def _inprocess(run, layers, paths, mix, references, shards_in):
    """Evaluate every mix query in process on the same targets, as
    requests named ``(target, query)``; records the compiler, engine,
    storage and collection spans and counters."""
    tracer = run.tracer
    directory = os.path.dirname(paths["gen"])
    shard_paths = []
    for index, shard in enumerate(shards_in):
        shard_paths.append(os.path.join(directory, f"shard{index}.natix"))
        store_document(parse_document(shard.text), shard_paths[-1])
    stores = {}
    for name in ("gen", "dblp"):
        start = time.perf_counter()
        stores[name] = open_store(paths[name])
        layers.open_seconds.append(time.perf_counter() - start)
    shard_stores = [open_store(path) for path in shard_paths]
    collection = open_collection(paths["coll"])
    engine = XPathEngine()
    distinct = sorted({(target, query) for _cls, target, query in mix})
    coll_seconds, overhead = [], []
    scatter, gather = [], []
    bench_lookups = 0
    try:
        for target, query in distinct:  # warm pass, untimed
            if target == "coll":
                engine.evaluate_collection(query, collection)
                for shard in shard_stores:
                    engine.evaluate(query, shard)
            else:
                before = engine.stats()
                start = time.perf_counter()
                plan = engine.compile(query, target=stores[target])
                layers.note_compile(time.perf_counter() - start, plan,
                                    before, engine.stats(), store=True)
                engine.evaluate(query, stores[target])
        for store in stores.values():
            layers.baseline_buffer(store)
        last_stats = engine.stats()
        for _repeat in range(INPROCESS_REPEATS):
            for target, query in distinct:
                expected = references[target, query]
                if target == "coll":
                    before = collection.stats()
                    start = time.perf_counter()
                    with tracer.request((target, query)):
                        with tracer.span("collection", "evaluate"):
                            result = engine.evaluate_collection(
                                query, collection)
                    elapsed = time.perf_counter() - start
                    after = collection.stats()
                    run.check(f"{query} on coll (in process)",
                              result.canonical(), expected)
                    scatter.append(after.scatter_seconds
                                   - before.scatter_seconds)
                    gather.append(after.gather_seconds
                                  - before.gather_seconds)
                    start = time.perf_counter()
                    for shard in shard_stores:
                        engine.evaluate(query, shard)
                    overhead.append(elapsed - (time.perf_counter() - start))
                    coll_seconds.append(elapsed)
                    last_stats = engine.stats()
                    continue
                store = stores[target]
                # The plan's identity keys its operator counters.
                plan = engine.compile(query, target=store)
                bench_lookups += 1
                start = time.perf_counter()
                with tracer.request((target, query)):
                    with tracer.span("engine", "evaluate"):
                        result = engine.evaluate(query, store)
                layers.exec_seconds["store"].append(
                    time.perf_counter() - start)
                run.check_value(f"{query} on {target} (in process)",
                                result, expected)
                stats = engine.stats()
                layers.note_request(plan, last_stats, stats, fresh=False)
                last_stats = stats
                layers.note_buffer(store, store.buffer_stats())
        stats = engine.stats()
        check_cache_identity(stats.cache)
        layers.note_cache(stats, bench_lookups)
        collection_stats = collection.stats()
        check_collection_identity(collection_stats)
        for target, query in distinct:
            if target != "coll":
                first_touch(layers, engine, paths[target], [query])
    finally:
        collection.close()
        for store in [*stores.values(), *shard_stores]:
            store.close()
    values = layers.values
    values["collection.eval_ms"] = mean(coll_seconds) * 1e3
    values["collection.overhead_ms"] = mean(overhead) * 1e3
    values["collection.scatter_ms"] = mean(scatter) * 1e3
    values["collection.gather_ms"] = mean(gather) * 1e3
    values["collection.pruned_ratio"] = (
        collection_stats.shards_pruned / collection_stats.submitted
        if collection_stats.submitted else 0.0)
    values["collection.recycles"] = collection_stats.recycles
    values["collection.failed"] = collection_stats.failed
