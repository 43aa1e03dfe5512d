"""Shared machinery: runs, answer checks, identities, setup, statistics."""

import gc
import math
import os
import resource
import shutil
import statistics
import time
from contextlib import contextmanager

from repro.testing.oracle import canonical_value

from spans import Tracer

#: Setup repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: The host-speed calibration loop: its size, the least time between
#: two loops that :meth:`Run.calibrate_if_due` keeps, and the loop's
#: time on the reference host (a shared 2-vCPU host, Python 3.11), to
#: which reported times are scaled.
CALIBRATION_ITEMS = 10000
CALIBRATION_INTERVAL_S = 0.1
CALIBRATION_REFERENCE_S = 0.005

#: Calibration loops just before and just after each setup.
SETUP_CALIBRATIONS = 4


class WrongAnswer(Exception):
    """A response differs from its reference answer."""


class BrokenIdentity(Exception):
    """A counter identity of the program's public stats does not hold."""


class Run:
    """One benchmark run: its arguments, tracer and answer checker."""

    def __init__(self, seed, seconds, trace, size, workdir, corrupt):
        self.seed = seed
        self.seconds = seconds
        self.size = size
        self.workdir = workdir
        self.tracer = Tracer(trace)
        # The self-test corrupts the first reference answer checked; the
        # run must then fail.
        self._corrupt = corrupt
        self.checked = 0
        self._setups = []  # phase seconds of every setup
        self._setup_seconds = []  # every setup's total, scaled
        self._calibrations = []  # seconds of every calibration loop
        self._calibrated_at = 0.0

    @property
    def traced(self):
        return self.tracer.enabled

    def check(self, what, actual, expected):
        """Compare canonical forms; a mismatch fails the run."""
        if self._corrupt and self.checked == 0:
            expected = ("corrupted", expected)
        self.checked += 1
        if actual != expected:
            raise WrongAnswer(f"wrong answer for {what}")

    def check_value(self, what, value, expected):
        """Check an in-process result against its reference, as a
        ``bench`` span so request time excludes it."""
        with self.tracer.span("bench", "check"):
            self.check(what, canonical_value(value), expected)

    @contextmanager
    def phase(self, phases, layer, name):
        """Time one setup phase into ``phases[name]`` (and a span)."""
        start = time.perf_counter()
        with self.tracer.span(layer, name):
            yield
        phases[name] = phases.get(name, 0.0) + time.perf_counter() - start

    def repeated_setup(self, build, teardown, repeats=SETUP_REPEATS):
        """Run ``build(directory, phases)`` ``repeats`` times and return
        the last state; :meth:`setup_summary` reports the times.

        The benchmark's own objects (generated inputs, reference
        answers) exist by now; they are moved out of the garbage
        collector's view first, so they do not tax the program's
        collections.
        """
        gc.collect()
        gc.freeze()
        state = None
        for _ in range(repeats):
            if state is not None:
                teardown(state)
                state = None  # freed before the next build
            state = self._setup_once(build)
        return state

    def more_setups(self, build, teardown, repeats):
        """Further timed setups, discarded at once."""
        for _ in range(repeats):
            teardown(self._setup_once(build))

    def _setup_once(self, build):
        """One timed ``build``.  It starts from a collected heap, so the
        collections its allocations set off do not depend on what ran
        before it.  Its total is scaled to the reference host by the
        calibration loops run just before and after it: a setup is too
        short to outlast a slow stretch of the host, so the run's own
        scale would not describe it."""
        directory = os.path.join(self.workdir, f"setup{len(self._setups)}")
        os.makedirs(directory)
        gc.collect()
        first = len(self._calibrations)
        for _ in range(SETUP_CALIBRATIONS):
            self.calibrate()
        phases = {}
        state = build(directory, phases)
        for _ in range(SETUP_CALIBRATIONS):
            self.calibrate()
        self._setups.append(phases)
        nearby = percentile(self._calibrations[first:], 0.1)
        self._setup_seconds.append(
            sum(phases.values()) * CALIBRATION_REFERENCE_S / nearby)
        return state

    def calibrate(self):
        """Time one calibration loop, with the collector off so the
        program's heap does not tax it."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            _calibration_loop()
            self._calibrated_at = time.perf_counter()
            self._calibrations.append(self._calibrated_at - start)
        finally:
            if enabled:
                gc.enable()

    def calibrate_if_due(self):
        """:meth:`calibrate`, at most once per ``CALIBRATION_INTERVAL_S``:
        called between requests, it samples the host through the run as
        the requests do."""
        if time.perf_counter() - self._calibrated_at >= CALIBRATION_INTERVAL_S:
            self.calibrate()

    def host_scale(self):
        """Factor from this host's time to the reference host's: the
        reference time of the calibration loop over the 10th percentile
        of its times in this run, a low quantile that one lucky loop
        cannot move."""
        return CALIBRATION_REFERENCE_S / percentile(self._calibrations, 0.1)

    def calibration_summary(self):
        """The calibration's times and scale, for provenance."""
        if not self._calibrations:
            return None
        return {"fastest_ms": min(self._calibrations) * 1e3,
                "p10_ms": percentile(self._calibrations, 0.1) * 1e3,
                "loops": len(self._calibrations),
                "host_scale": self.host_scale()}

    def setup_summary(self):
        """``(setup_s, phase medians)``: medians over every setup, the
        first scaled to the reference host, the phases as measured."""
        total = statistics.median(self._setup_seconds)
        phases = {name: statistics.median(p.get(name, 0.0)
                                          for p in self._setups)
                  for name in self._setups[-1]}
        return total, phases


class _Item:
    __slots__ = ("number", "key")

    def __init__(self, number, key):
        self.number = number
        self.key = key


def _calibration_loop():
    """Fixed interpreter work like the engine's: objects, attribute
    reads, string keys, a dict and a sort.  It runs no program code."""
    table = {}
    kept = []
    for number in range(CALIBRATION_ITEMS):
        key = str(number)
        table[key] = _Item(number, key)
        if number % 3 == 0:
            kept.append(table[key].number)
    kept.sort(reverse=True)
    return len(kept)


def remove_tree(path):
    shutil.rmtree(path, ignore_errors=True)


def percentile(values, share):
    """Linear-interpolated percentile of ``values`` (share in 0..1)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * share
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def harrell_davis(values, share):
    """Harrell-Davis estimate of the ``share`` quantile of ``values``.

    It is a mean of all the ordered values, weighted by the
    Beta((n+1)q, (n+1)(1-q)) mass of each one's slot, so it moves
    smoothly when the values near the quantile move, where an order
    statistic jumps across gaps between clusters of values.  The mass is
    summed on a grid of at least 4,000 cells.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count < 2:
        return ordered[0] if ordered else 0.0
    alpha = (count + 1) * share - 1
    beta = (count + 1) * (1 - share) - 1
    cells = max(1, 4000 // count)
    grid = count * cells
    logs = [alpha * math.log((cell + 0.5) / grid)
            + beta * math.log1p(-(cell + 0.5) / grid) for cell in range(grid)]
    top = max(logs)
    weights = [0.0] * count
    for cell, log in enumerate(logs):
        weights[cell // cells] += math.exp(log - top)
    return (sum(weight * value for weight, value in zip(weights, ordered))
            / sum(weights))


def mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def own_peak_rss_mb():
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_cache_identity(cache):
    """``hits + misses == lookups`` for a plan-cache snapshot."""
    hits, misses, lookups = _fields(cache, "hits", "misses", "lookups")
    if hits + misses != lookups:
        raise BrokenIdentity(
            f"plan cache: hits {hits} + misses {misses} != lookups "
            f"{lookups}"
        )


def check_collection_identity(stats):
    """``submitted == completed + timed_out + cancelled + failed +
    pruned`` for a collection stats snapshot."""
    submitted, completed, timed_out, cancelled, failed, pruned = _fields(
        stats, "submitted", "completed", "timed_out", "cancelled",
        "failed", "shards_pruned",
    )
    if submitted != completed + timed_out + cancelled + failed + pruned:
        raise BrokenIdentity(
            f"collection: submitted {submitted} != completed {completed}"
            f" + timed_out {timed_out} + cancelled {cancelled} + failed "
            f"{failed} + pruned {pruned}"
        )


def _fields(source, *names):
    if isinstance(source, dict):
        return [source[name] for name in names]
    return [getattr(source, name) for name in names]


def end_to_end(requests, window, latencies, setup_s, peak_rss_mb,
               ttfbs=None):
    """The end-to-end metrics of one untraced run (seconds in, ms out):
    ``requests`` completed in ``window`` seconds, and the latencies whose
    percentiles are reported.

    In-process calls return their whole answer at once, so there the
    first byte arrives with the last and ``ttfbs`` is the latencies.
    """
    ttfbs = latencies if ttfbs is None else ttfbs
    return {
        "setup_s": setup_s,
        "qps": requests / window,
        "latency_p50_ms": harrell_davis(latencies, 0.50) * 1e3,
        "latency_p90_ms": harrell_davis(latencies, 0.90) * 1e3,
        "ttfb_p50_ms": harrell_davis(ttfbs, 0.50) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
