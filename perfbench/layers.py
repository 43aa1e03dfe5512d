"""Per-layer metrics of traced runs, from spans and public counters."""

from collections import Counter, defaultdict

from harness import mean, percentile
from spans import LAYERS, self_times

#: Compiler phases as ``CompiledQuery.phase_timings`` names them, mapped
#: to metric names.  The pipeline calls the physical-plan phase
#: ``codegen``; ``pycodegen`` (Python code emission) is the codegen
#: layer's and is reported as ``codegen.emit_ms``.
PHASES = {
    "parse": "parse",
    "semantic": "rewrite",
    "rewrite": "rewrite",
    "normalize": "rewrite",
    "translate": "translate",
    "optimize": "optimize",
    "codegen": "physical",
}


class LayerStats:
    """Accumulates one traced run's per-layer observations."""

    def __init__(self):
        self.values = {}
        self.compiles = []        # (seconds, phase_timings)
        self.store_compiles = 0
        self.routed = 0
        self.exec_seconds = defaultdict(list)  # route -> [seconds]
        self.requests = 0
        self.sums = Counter()
        self.cache_lookups = Counter()
        self.first_touch = []
        self.open_seconds = []
        self._plan_ops = {}
        self._buffers = {}

    # -- compiler and engine counters ------------------------------------

    def note_compile(self, seconds, plan, before, after, store):
        """One ``compile()`` call, given engine stats around it; ``before``
        is None for an engine that never compiled."""
        compiled = before.compile_count if before is not None else 0
        if after.compile_count == compiled:
            return
        self.compiles.append((seconds, dict(plan.phase_timings)))
        if store:
            base = before.runtime_counters if before is not None else {}
            self.store_compiles += 1
            self.routed += (after.runtime_counters.get("plans_index_routed", 0)
                            - base.get("plans_index_routed", 0))

    def note_request(self, plan, before, after, fresh):
        """Engine counter deltas of one request.  ``before`` is None for
        an engine created inside the request."""
        self.requests += 1
        ops = after.operators
        totals = (sum(op.next_calls for op in ops),
                  sum(op.tuples_out for op in ops))
        seen = (0, 0) if fresh else self._plan_ops.get(id(plan), (0, 0))
        self._plan_ops[id(plan)] = totals
        self.sums["next_calls"] += totals[0] - seen[0]
        self.sums["tuples"] += totals[1] - seen[1]
        base = before.runtime_counters if before is not None else {}
        for name in ("index_candidates", "index_hits", "codegen_compiled",
                     "codegen_fallbacks"):
            self.sums[name] += (after.runtime_counters.get(name, 0)
                                - base.get(name, 0))

    def note_cache(self, stats, bench_lookups):
        """Plan-cache counters of one engine; ``bench_lookups`` counts the
        lookups the benchmark's own ``compile()`` calls added, which all
        hit the cache and are taken out of the ratio."""
        cache = stats.cache
        self.cache_lookups["hits"] += cache.hits - bench_lookups
        self.cache_lookups["lookups"] += cache.lookups - bench_lookups

    # -- storage and index ---------------------------------------------

    def baseline_buffer(self, store):
        self._buffers[id(store)] = store.buffer_stats()["by_kind"]

    def note_buffer(self, store, snapshot):
        """Buffer counter deltas since the last snapshot of ``store``
        (from zero for a store opened inside the request)."""
        by_kind = snapshot["by_kind"]
        before = self._buffers.get(id(store), {})
        self._buffers[id(store)] = by_kind
        for kind, prefix in (("data", "data_"), ("index", "index_")):
            now = by_kind.get(kind, {})
            then = before.get(kind, {})
            for name in ("hits", "misses", "evictions"):
                self.sums[prefix + name] += now.get(name, 0) - then.get(
                    name, 0)

    def forget_buffer(self, store):
        self._buffers.pop(id(store), None)

    # -- results ---------------------------------------------------------

    def finish(self, tracer, traced_latencies, untraced_latencies,
               self_seconds=None):
        """The per-layer metric values measured by this run.
        ``self_seconds`` replaces the self times of the tracer's requests
        with ``(per-layer seconds, request seconds, requests)``."""
        values = dict(self.values)
        by_layer, request_seconds, requests = (
            self_seconds or self_times(tracer.request_spans()))
        for layer in LAYERS:
            seconds = by_layer.get(layer, 0.0)
            values[f"self.{layer}_ms"] = (
                seconds / requests * 1e3 if requests else 0.0)
            values[f"self.{layer}_pct"] = (
                seconds / request_seconds * 100 if request_seconds else 0.0)
        overhead = mean(traced_latencies) - mean(untraced_latencies)
        values["trace.overhead_ms"] = overhead * 1e3
        values["trace.overhead_pct"] = (
            overhead / mean(untraced_latencies) * 100
            if untraced_latencies else 0.0)
        values["trace.requests"] = requests

        if self.compiles:
            # Medians: the first compile in a process also pays lazy
            # imports.
            values["compiler.compile_ms"] = percentile(
                [seconds for seconds, _ in self.compiles], 0.5) * 1e3
            phases = defaultdict(list)
            for _seconds, timings in self.compiles:
                summed = Counter()
                for phase, seconds in timings.items():
                    summed[PHASES.get(phase, phase)] += seconds
                for name in ("parse", "rewrite", "translate", "optimize",
                             "physical", "pycodegen"):
                    phases[name].append(summed[name])
            for name in ("parse", "rewrite", "translate", "optimize",
                         "physical"):
                values[f"compiler.phase.{name}_ms"] = percentile(
                    phases[name], 0.5) * 1e3
            values["codegen.emit_ms"] = percentile(
                phases["pycodegen"], 0.5) * 1e3
        if self.cache_lookups["lookups"]:
            values["compiler.plan_cache_hit_ratio"] = (
                self.cache_lookups["hits"] / self.cache_lookups["lookups"])
        if self.store_compiles:
            values["index.routed_plan_ratio"] = (
                self.routed / self.store_compiles)

        per_request = self.requests or 1
        values["codegen.executions"] = self.sums["codegen_compiled"]
        backend_runs = (self.sums["codegen_compiled"]
                        + self.sums["codegen_fallbacks"])
        values["codegen.fallback_ratio"] = (
            self.sums["codegen_fallbacks"] / backend_runs
            if backend_runs else 0.0)
        for route, samples in self.exec_seconds.items():
            values[f"engine.exec_ms.{route}"] = mean(samples) * 1e3
        values["engine.next_calls"] = self.sums["next_calls"] / per_request
        values["engine.tuples"] = self.sums["tuples"] / per_request
        values["index.candidates"] = (
            self.sums["index_candidates"] / per_request)
        values["index.hits"] = self.sums["index_hits"] / per_request
        values["index.pages_read"] = self.sums["index_misses"] / per_request
        values["storage.data_misses"] = (
            self.sums["data_misses"] / per_request)
        data_reads = self.sums["data_hits"] + self.sums["data_misses"]
        values["storage.data_hit_ratio"] = (
            self.sums["data_hits"] / data_reads if data_reads else 0.0)
        values["storage.evictions"] = self.sums["data_evictions"] / per_request
        if self.first_touch:
            values["storage.first_touch_ms"] = percentile(
                self.first_touch, 0.5) * 1e3
        if self.open_seconds:
            values["storage.open_ms"] = percentile(
                self.open_seconds, 0.5) * 1e3
        return values


def setup_values(phases):
    """``setup.*`` per-layer metrics from the setup phase medians."""
    values = {f"setup.{name}_s": seconds for name, seconds in phases.items()}
    values["storage.write_s"] = phases.get("write", 0.0)
    return values
