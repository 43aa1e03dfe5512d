"""Spans recorded in the benchmark's own code around public calls.

A span has a layer, a name, start and end times, a parent span and a
request id shared by every span of one request.  Spans stay in memory
until the run ends.  A layer's self time is its span's duration minus
the time its child spans cover; the children of one span never overlap
here, because each thread runs one call at a time.

Layer ``request`` is the root span of one request; layer ``bench`` marks
the benchmark's own work inside a request (the answer check), which is
excluded from request time.
"""

import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("compiler", "codegen", "engine", "storage", "index",
          "collection", "server")


class Tracer:
    """Span recorder; when disabled every call is a cheap no-op."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []  # (id, parent, request, layer, name, start, end)
        self._local = threading.local()
        self._span_ids = itertools.count(1)
        self._request_ids = itertools.count(1)

    @contextmanager
    def span(self, layer, name):
        """Record one span, nested under the thread's open span."""
        if not self.enabled:
            yield
            return
        stack = self._stack()
        parent = stack[-1] if stack else (None, None)
        span_id = next(self._span_ids)
        stack.append((span_id, parent[1]))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self._record(span_id, parent[0], parent[1], layer, name,
                         start, end)

    @contextmanager
    def request(self, name):
        """The root span of one request; mints the request id."""
        if not self.enabled:
            yield
            return
        stack = self._stack()
        span_id, request_id = next(self._span_ids), next(self._request_ids)
        stack.append((span_id, request_id))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self._record(span_id, None, request_id, "request", name,
                         start, end)

    def add(self, layer, name, start, end):
        """Record an already-timed span under the thread's open span
        (for a call whose start and end are stamped by the caller)."""
        if not self.enabled:
            return
        stack = self._stack()
        parent = stack[-1] if stack else (None, None)
        self._record(next(self._span_ids), parent[0], parent[1], layer,
                     name, start, end)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, *record):
        self.spans.append(record)  # one append: atomic under the GIL

    def request_spans(self):
        """Spans that belong to a request."""
        return [span for span in self.spans if span[2] is not None]


def request_self_times(spans):
    """``(request name, {layer: self seconds}, request seconds)`` for
    each request of ``spans``.

    Request seconds are the root span's duration minus the ``bench``
    spans inside it.
    """
    covered = defaultdict(float)
    for _id, parent, _req, _layer, _name, start, end in spans:
        if parent is not None:
            covered[parent] += end - start
    requests = {}
    for span_id, _parent, request, layer, name, start, end in spans:
        entry = requests.setdefault(request, [None, defaultdict(float), 0.0])
        duration = end - start
        if layer == "request":
            entry[0] = name
            entry[2] += duration
        elif layer == "bench":
            entry[2] -= duration
        else:
            entry[1][layer] += duration - covered[span_id]
    return [tuple(entry) for entry in requests.values()]


def self_times(spans):
    """``(per-layer self seconds, request seconds, request count)``."""
    by_layer = defaultdict(float)
    request_seconds = 0.0
    requests = request_self_times(spans)
    for _name, layer_seconds, seconds in requests:
        request_seconds += seconds
        for layer, self_seconds in layer_seconds.items():
            by_layer[layer] += self_seconds
    return by_layer, request_seconds, len(requests)
