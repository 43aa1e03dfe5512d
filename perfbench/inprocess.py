"""The in-process workloads: ``paper-hot`` and ``oneshot-cold``.

Both are closed loops with one caller.  A request's latency runs from
the call to its return; the answer check after it is the benchmark's own
work and is excluded.  See :func:`_end_to_end` for how passes become
the reported figures.
"""

import os
import time

from repro import XPathEngine, open_store, parse_document, store_document

import inputs as inputs_mod
from harness import (
    check_cache_identity,
    end_to_end,
    own_peak_rss_mb,
    remove_tree,
)
from layers import LayerStats, setup_values

#: Setups of ``paper-hot`` before the first request, and after the last
#: one: the median of all of them samples the host at both ends of the
#: run.  The later ones run once the served state is gone, so they add
#: nothing to the peak memory of the serving process.
HOT_SETUPS_BEFORE = 3
HOT_SETUPS_AFTER = 7

#: Setup repetitions of ``oneshot-cold`` before the first request, and
#: after each pass.
COLD_SETUP_REPEATS = 10
COLD_SETUPS_PER_PASS = 5

#: Store queries whose first touch of a fresh store is measured.
FIRST_TOUCH_QUERIES = 40


def _store_documents(run, docs, directory, phases):
    """``store_document`` and ``open_store`` each document."""
    paths = {name: os.path.join(directory, f"{name}.natix") for name in docs}
    with run.phase(phases, "storage", "write"):
        for name, doc in docs.items():
            store_document(doc, paths[name])
    with run.phase(phases, "storage", "open"):
        stores = {name: open_store(path) for name, path in paths.items()}
    return paths, stores


def _close_all(state):
    for store in state["stores"].values():
        store.close()
    remove_tree(state["directory"])


def first_touch(layers, engine, path, queries):
    """First ``evaluate`` on a freshly opened store minus a repeat of the
    same cached plan on it."""
    for query in queries:
        store = open_store(path)
        try:
            engine.compile(query, target=store)
            start = time.perf_counter()
            engine.evaluate(query, store)
            first = time.perf_counter() - start
            start = time.perf_counter()
            engine.evaluate(query, store)
            layers.first_touch.append(first - (time.perf_counter() - start))
        finally:
            store.close()


# ----------------------------------------------------------------------
# paper-hot
# ----------------------------------------------------------------------


def paper_hot(run):
    docs_in, requests = inputs_mod.paper_hot(run.seed, run.size)
    references = {(query, doc): docs_in[doc].reference(query)
                  for query, doc, _route in requests}

    def build(directory, phases):
        with run.phase(phases, "setup", "parse"):
            docs = {name: parse_document(item.text)
                    for name, item in docs_in.items()}
        paths, stores = _store_documents(run, docs, directory, phases)
        return {"docs": docs, "paths": paths, "stores": stores,
                "directory": directory}

    state = run.repeated_setup(build, _close_all, HOT_SETUPS_BEFORE)
    try:
        layers, traced, untraced = _paper_hot_loop(run, state, requests,
                                                   references)
        peak_rss = own_peak_rss_mb()
    finally:
        _close_all(state)
        state = None  # freed before the later setups
    run.more_setups(build, _close_all, HOT_SETUPS_AFTER)
    setup_s, phases = run.setup_summary()
    if not run.traced:
        return _end_to_end(run, untraced, setup_s, peak_rss)
    layers.values.update(setup_values(phases))
    # The stores stay open for the whole run: their opens are setup's.
    layers.open_seconds.append(phases["open"] / len(docs_in))
    return _traced_result(layers, run.tracer, traced, untraced)


def _paper_hot_loop(run, state, requests, references):
    """The warm pass and the measured passes; returns ``(layers, traced
    passes, untraced passes)``."""
    tracer = run.tracer
    targets = {}
    for query, doc, route in requests:
        targets[doc, route] = (state["stores"][doc] if route == "store"
                               else state["docs"][doc])
    engine = XPathEngine()
    layers = LayerStats()

    # One untimed warm pass; the traced run times its compiles (the only
    # plan-cache misses of the run).
    for query, doc, route in requests:
        target = targets[doc, route]
        if run.traced:
            before = engine.stats()
            start = time.perf_counter()
            plan = engine.compile(query, target=target)
            seconds = time.perf_counter() - start
            layers.note_compile(seconds, plan, before, engine.stats(),
                                route == "store")
        run.check_value(query, engine.evaluate(query, target),
                        references[query, doc])
    for store in state["stores"].values():
        layers.baseline_buffer(store)
    last_stats = engine.stats()
    bench_lookups = 0

    def one_pass():
        nonlocal last_stats, bench_lookups
        latencies = []
        for query, doc, route in requests:
            target = targets[doc, route]
            if run.traced:
                # The plan's identity keys its operator counters.  This
                # lookup (a cache hit) is the benchmark's, outside the
                # request.
                plan = engine.compile(query, target=target)
                bench_lookups += 1
            start = time.perf_counter()
            with tracer.request(query):
                with tracer.span("engine", "evaluate"):
                    result = engine.evaluate(query, target)
            latencies.append(time.perf_counter() - start)
            run.check_value(query, result, references[query, doc])
            run.calibrate_if_due()
            if run.traced:
                layers.exec_seconds[route].append(latencies[-1])
                stats = engine.stats()
                layers.note_request(plan, last_stats, stats, fresh=False)
                last_stats = stats
                if route == "store":
                    layers.note_buffer(target, target.buffer_stats())
        return latencies

    # The traced half runs first, so its counter deltas start from the
    # baselines taken just above.
    traced = _passes(run, one_pass, enabled=True) if run.traced else []
    untraced = _passes(run, one_pass, enabled=False)
    stats = engine.stats()
    check_cache_identity(stats.cache)
    if not run.traced:
        return layers, traced, untraced
    layers.note_cache(stats, bench_lookups)
    store_queries = [(query, doc) for query, doc, route in requests
                     if route == "store"][:FIRST_TOUCH_QUERIES]
    for query, doc in store_queries:
        first_touch(layers, engine, state["paths"][doc], [query])
    return layers, traced, untraced


def _passes(run, one_pass, enabled, between=None):
    """Whole passes until the time share is used; returns each pass's
    request latencies.  A traced run spends half its time untraced, half
    traced; the difference is the tracing overhead.  The host-speed
    calibration runs before the first pass and after each one, and
    ``between`` after each pass but the last, all outside the measured
    time."""
    budget = run.seconds / 2 if run.traced else run.seconds
    tracer = run.tracer
    saved = tracer.enabled
    tracer.enabled = enabled
    passes = []
    try:
        run.calibrate()
        deadline = time.perf_counter() + budget
        while True:
            passes.append(one_pass())
            start = time.perf_counter()
            run.calibrate()
            if start >= deadline:
                return passes
            if between is not None:
                between()
            deadline += time.perf_counter() - start
    finally:
        tracer.enabled = saved


def _end_to_end(run, passes, setup_s, peak_rss_mb):
    """End-to-end metrics and counts of an untraced run.

    Every pass runs the same requests in the same order.  A shared host
    only ever adds time to a request, so each request is timed by its
    fastest pass: its cost on a quiet host.  The latency percentiles are
    taken over those times, and ``qps`` is one pass's requests over
    their summed times.  The host's speed itself drifts by phases longer
    than a run, so every time is scaled by :meth:`Run.host_scale` to the
    reference host's (``setup_s`` is scaled already).
    """
    scale = run.host_scale()
    fastest = [min(column) * scale for column in zip(*passes)]
    metrics = end_to_end(len(fastest), sum(fastest), fastest, setup_s,
                         peak_rss_mb)
    return metrics, sum(len(latencies) for latencies in passes), 0


def _traced_result(layers, tracer, traced, untraced):
    traced = [seconds for latencies in traced for seconds in latencies]
    untraced = [seconds for latencies in untraced for seconds in latencies]
    return (layers.finish(tracer, traced, untraced),
            len(untraced) + len(traced), 0)


# ----------------------------------------------------------------------
# oneshot-cold
# ----------------------------------------------------------------------


def oneshot_cold(run):
    docs_in, queries = inputs_mod.oneshot_cold(run.seed, run.size)
    doc_in = docs_in["cold"]
    references = {query: doc_in.reference(query) for query in queries}

    def build(directory, phases):
        with run.phase(phases, "setup", "parse"):
            doc = parse_document(doc_in.text)
        path = os.path.join(directory, "cold.natix")
        with run.phase(phases, "storage", "write"):
            store_document(doc, path)
        return {"path": path, "directory": directory}

    def teardown(old):
        remove_tree(old["directory"])

    state = run.repeated_setup(build, teardown, COLD_SETUP_REPEATS)
    layers = LayerStats()
    path = state["path"]
    tracer = run.tracer

    def one_pass():
        latencies = []
        for query in queries:
            start = time.perf_counter()
            with tracer.request(query):
                open_start = time.perf_counter()
                with tracer.span("storage", "open"):
                    store = open_store(path)
                open_end = time.perf_counter()
                try:
                    with tracer.span("engine", "session"):
                        engine = XPathEngine()
                    if run.traced:
                        compile_start = time.perf_counter()
                        with tracer.span("compiler", "compile"):
                            plan = engine.compile(query, target=store)
                        compile_end = time.perf_counter()
                    exec_start = time.perf_counter()
                    with tracer.span("engine", "evaluate"):
                        result = engine.evaluate(query, store)
                    exec_end = time.perf_counter()
                    check_start = exec_end
                    run.check_value(query, result, references[query])
                    if run.traced:
                        with tracer.span("bench", "buffer_stats"):
                            snapshot = store.buffer_stats()
                    check_end = time.perf_counter()
                finally:
                    with tracer.span("storage", "close"):
                        store.close()
            latencies.append(time.perf_counter() - start
                             - (check_end - check_start))
            run.calibrate_if_due()
            stats = engine.stats()
            check_cache_identity(stats.cache)
            if run.traced:
                layers.open_seconds.append(open_end - open_start)
                layers.note_compile(compile_end - compile_start, plan,
                                    None, stats, store=True)
                layers.exec_seconds["store"].append(exec_end - exec_start)
                layers.note_request(plan, None, stats, fresh=True)
                layers.note_buffer(store, snapshot)
                layers.forget_buffer(store)
                layers.note_cache(stats, 1)
        return latencies

    def between_passes():
        # Set-up takes about a millisecond: spreading its repeats over
        # the run samples the host as the requests do.
        run.more_setups(build, teardown, COLD_SETUPS_PER_PASS)

    try:
        untraced = _passes(run, one_pass, enabled=False,
                           between=between_passes)
        traced = (_passes(run, one_pass, enabled=True,
                          between=between_passes) if run.traced else [])
        setup_s, phases = run.setup_summary()
        if not run.traced:
            return _end_to_end(run, untraced, setup_s,
                               own_peak_rss_mb())
        layers.values.update(setup_values(phases))
        engine = XPathEngine()
        first_touch(layers, engine, path,
                    queries[:FIRST_TOUCH_QUERIES])
        return _traced_result(layers, tracer, traced, untraced)
    finally:
        remove_tree(state["directory"])

