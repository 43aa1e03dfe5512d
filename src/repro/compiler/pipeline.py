"""The compiler pipeline: string in, executable plan out.

Orchestrates the six phases of section 5.1.  Phase order here is
parse → semantic analysis → rewrite (constant folding) → normalization →
translation → code generation; folding runs before normalization so the
cheap/expensive cost classification sees the folded clauses.

:class:`CompiledQuery` is the user-facing artifact: it exposes the AST,
the logical plan (pretty-printable) and ``evaluate()``.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from typing import Dict, List, Mapping, Optional

from repro.algebra import operators as ops
from repro.algebra import scalar as S
from repro.algebra.printer import plan_to_string
from repro.algebra.properties import free_variables
from repro.compiler.physical import CodeGenerator
from repro.compiler.improved import TranslationOptions
from repro.compiler.normalize import normalize
from repro.compiler.rewrite import fold_constants
from repro.compiler.semantic import analyze
from repro.compiler.translate import (
    TOP_CONTEXT_ATTR,
    TOP_POSITION_ATTR,
    TOP_SIZE_ATTR,
    TranslationResult,
    Translator,
)
from repro.dom.node import Node
from repro.engine.context import ExecutionContext
from repro.engine.iterator import RuntimeState
from repro.engine.plan import OperatorStats, PhysicalPlan
from repro.engine.tuples import AttributeManager
from repro.errors import CodegenError
from repro.xpath.datamodel import XPathValue
from repro.xpath.parser import parse_xpath
from repro.xpath.xast import Expr

#: Attributes the execution context may bind (everything else is a bug).
_ALLOWED_FREE = frozenset(
    {TOP_CONTEXT_ATTR, TOP_POSITION_ATTR, TOP_SIZE_ATTR}
)

#: Result attribute of top-level scalar plans.
_SCALAR_RESULT_ATTR = "result"

#: Valid values of the ``index`` and ``codegen`` switches.
SWITCH_MODES = ("auto", "off", "force")

#: Valid values of the ``optimizer`` switch.
OPTIMIZER_MODES = ("heuristic", "cost")


class CompiledQuery:
    """One compiled XPath query, ready for repeated execution.

    Thread model: the immutable artifacts (AST, translation result,
    logical plan) are shared, but a :class:`PhysicalPlan` owns a mutable
    register file and live iterator state, so plan *instances* are
    thread-confined.  Each thread that executes this query gets its own
    instance, re-generated from the shared translation on first use
    (:attr:`thread_physical`); a cached ``CompiledQuery`` can therefore
    be executed from any number of threads simultaneously without two of
    them ever sharing a live iterator.
    """

    def __init__(
        self,
        source: str,
        ast: Expr,
        translation: TranslationResult,
        physical: PhysicalPlan,
        options: TranslationOptions,
    ):
        self.source = source
        self.ast = ast
        self.translation = translation
        #: The primary plan instance (owned by the compiling thread).
        self.physical = physical
        self.options = options
        self._instances_lock = threading.Lock()
        self._instances: Dict[int, PhysicalPlan] = {
            threading.get_ident(): physical
        }
        #: Set when TranslationOptions(optimize=True) ran the plan pass.
        self.optimizer_report = None
        #: Seconds spent in each compiler phase (parse, semantic,
        #: rewrite, normalize, translate, optimize, codegen).
        self.phase_timings: Dict[str, float] = {}
        #: Default prefix bindings (set by ``compile_xpath(namespaces=)``),
        #: used when ``evaluate`` is called without explicit namespaces.
        self.default_namespaces: Optional[Mapping[str, str]] = None
        #: Python-codegen backend state: "pending" until first requested,
        #: then "compiled" or "unsupported".  The generated function is
        #: cached here, alongside the plan, so a striped-cache hit reuses
        #: both under the same fingerprint.
        self._codegen_lock = threading.Lock()
        self._generated = None
        self.codegen_state = "pending"
        self.codegen_detail = ""

    # ------------------------------------------------------------------

    def ensure_generated(self):
        """Compile this plan to Python, once; None if unsupported.

        Thread-safe and idempotent: the first caller pays the (one-time)
        emission cost, everyone else reads the cached outcome.  A plan
        the backend cannot compile is remembered as ``"unsupported"``
        with the reason in :attr:`codegen_detail` so callers fall back
        to the interpreter without retrying emission per evaluation.
        """
        if self.codegen_state != "pending":
            return self._generated
        with self._codegen_lock:
            if self.codegen_state != "pending":
                return self._generated
            from repro import codegen as pycodegen

            start = time.perf_counter()
            try:
                generated = pycodegen.generate_python(
                    self.translation, self.options, source=self.source
                )
            except CodegenError as error:
                self.codegen_detail = str(error)
                self.codegen_state = "unsupported"
            else:
                self._generated = generated
                self.codegen_state = "compiled"
            self.phase_timings["pycodegen"] = (
                time.perf_counter() - start
            )
        return self._generated

    # ------------------------------------------------------------------

    @property
    def thread_physical(self) -> PhysicalPlan:
        """The calling thread's private plan instance.

        The compiling thread gets the primary instance; any other thread
        re-generates an equivalent instance from the shared translation
        on first use and reuses it afterwards (codegen only reads the
        translation, so concurrent first touches are safe).
        """
        ident = threading.get_ident()
        instance = self._instances.get(ident)
        if instance is None:
            instance = generate_physical(self.translation, self.options)
            with self._instances_lock:
                instance = self._instances.setdefault(ident, instance)
        return instance

    def instances(self) -> List[PhysicalPlan]:
        """Every plan instance materialized so far (all threads)."""
        with self._instances_lock:
            return list(self._instances.values())

    @property
    def logical_plan(self) -> ops.Operator:
        """The logical algebra plan (scalars are wrapped in a χ over □)."""
        assert self.translation.plan is not None
        return self.translation.plan

    def explain(self) -> str:
        """The logical plan rendered as an indented tree."""
        return plan_to_string(self.logical_plan)

    def explain_cost(self) -> str:
        """The logical plan annotated with cardinality/cost estimates.

        Uses the estimates the optimizer pass attached (synopsis-fed
        when the target had fresh indexes); when the pass did not run —
        or ran without a synopsis — a defaults-only estimation is done
        on the fly, so the output always carries ``rows≈``/``cost``
        annotations.
        """
        from repro.compiler.cost import PlanEstimator, explain_with_costs

        report = self.optimizer_report
        estimates = getattr(report, "estimates", None)
        if estimates is None:
            estimates = PlanEstimator(None).estimate(self.logical_plan)
        return explain_with_costs(self.logical_plan, estimates)

    def plan_summary(self) -> dict:
        """JSON-friendly plan + rule trace + estimates (plan corpus).

        Deterministic for a fixed (query, document, optimizer mode):
        floats are rounded, dict ordering follows the plan tree.
        """
        from repro.compiler.cost import summarize_plan

        report = self.optimizer_report
        summary: dict = {
            "mode": getattr(report, "mode", "heuristic")
            if report is not None else "none",
            "tree": summarize_plan(
                self.logical_plan, getattr(report, "estimates", None)
            ),
        }
        if report is not None:
            summary["rules"] = list(report.rules)
            summary["est_root_rows"] = report.est_root_rows
            summary["est_cost"] = report.est_cost
        return summary

    @property
    def emits_document_order(self) -> bool:
        """True when the plan provably yields nodes in document order."""
        from repro.algebra.properties import is_document_ordered

        return (
            self.translation.kind == "sequence"
            and is_document_ordered(self.logical_plan)
        )

    def evaluate(
        self,
        context_node: Node,
        variables: Optional[Mapping[str, XPathValue]] = None,
        namespaces: Optional[Mapping[str, str]] = None,
        position: int = 1,
        size: int = 1,
        ordered: bool = False,
        governor=None,
        codegen: str = "off",
    ) -> XPathValue:
        """Evaluate against a context node.

        Node-set results are returned as duplicate-free lists (in no
        particular order — XPath 1.0 node-sets are unordered).  Pass
        ``ordered=True`` for document-order results; when the order
        analysis proves the pipeline already emits document order the
        sort is skipped (the paper's section-7 "interesting orders").
        A :class:`~repro.engine.governor.ResourceGovernor` passed as
        ``governor`` bounds the execution (deadline, budgets, cancel)
        and makes it raise a typed governance error instead of
        returning a partial result.

        ``codegen`` selects the backend: ``"off"`` interprets the
        iterator tree, ``"auto"`` runs the generated Python function
        when the plan compiles (interpreting otherwise), ``"force"``
        raises :class:`~repro.errors.CodegenError` if it does not.
        """
        context = ExecutionContext(
            context_node=context_node,
            variables=dict(variables or {}),
            namespaces=dict(namespaces or self.default_namespaces or {}),
            position=position,
            size=size,
            governor=governor,
        )
        generated = self._select_generated(codegen)
        if generated is not None:
            result = generated.execute(context)
            if ordered and isinstance(result, list):
                if self.emits_document_order:
                    generated.stats["order_sort_avoided"] += 1
                else:
                    result.sort(key=lambda node: node.sort_key)
            return result
        physical = self.thread_physical
        result = physical.execute(context)
        if ordered and isinstance(result, list):
            if self.emits_document_order:
                physical.stats["order_sort_avoided"] += 1
            else:
                result.sort(key=lambda node: node.sort_key)
        return result

    def evaluate_stream(
        self,
        context_node: Node,
        variables: Optional[Mapping[str, XPathValue]] = None,
        namespaces: Optional[Mapping[str, str]] = None,
        ordered: bool = False,
        governor=None,
    ):
        """Evaluate lazily, yielding result items one at a time.

        The streaming sibling of :meth:`evaluate`: node-set results are
        pulled from the iterator engine on demand instead of collected,
        so a consumer that pages them out (the network server) never
        materializes the whole answer.  Scalar plans yield their single
        value.  ``ordered=True`` streams directly when the order
        analysis proves the pipeline emits document order; otherwise it
        falls back to materialize-and-sort (counted as
        ``stream_sort_fallbacks`` — the answer cannot be known in order
        before it is complete).

        Always interprets the iterator tree (the generated-Python
        backend materializes internally and gains nothing from
        streaming).  The returned generator must be consumed on the
        thread that created it — it drives that thread's private plan
        instance — and closed before the same thread starts another
        evaluation of this query.
        """
        context = ExecutionContext(
            context_node=context_node,
            variables=dict(variables or {}),
            namespaces=dict(namespaces or self.default_namespaces or {}),
            governor=governor,
        )
        physical = self.thread_physical
        if (
            ordered
            and self.translation.kind == "sequence"
            and not self.emits_document_order
        ):
            physical.stats["stream_sort_fallbacks"] += 1
            result = physical.execute(context)
            assert isinstance(result, list)
            result.sort(key=lambda node: node.sort_key)
            return iter(result)
        if ordered and self.emits_document_order:
            physical.stats["order_sort_avoided"] += 1
        return physical.execute_stream(context)

    def _select_generated(self, codegen: str):
        """Resolve a ``codegen`` mode to a generated plan (or None)."""
        if codegen == "off":
            return None
        if codegen not in SWITCH_MODES:
            raise ValueError(
                f"codegen must be one of {SWITCH_MODES}, got {codegen!r}"
            )
        generated = self.ensure_generated()
        if generated is None and codegen == "force":
            raise CodegenError(
                f"plan for {self.source!r} has no Python codegen: "
                f"{self.codegen_detail}"
            )
        return generated

    def operator_stats(self) -> List[OperatorStats]:
        """Per-operator ``next()``-call and tuple counters (preorder).

        Counters are summed over every thread's plan instance — all
        instances are generated from the same translation, so their
        preorder operator walks line up one-to-one.
        """
        instances = self.instances()
        merged = instances[0].operator_stats()
        for instance in instances[1:]:
            merged = [
                OperatorStats(
                    op_id=base.op_id,
                    operator=base.operator,
                    next_calls=base.next_calls + extra.next_calls,
                    tuples_out=base.tuples_out + extra.tuples_out,
                )
                for base, extra in zip(merged, instance.operator_stats())
            ]
        return merged

    def count(self, context_node: Node, **kwargs) -> int:
        """Count result tuples without collecting them."""
        context = ExecutionContext(
            context_node=context_node,
            variables=dict(kwargs.get("variables") or {}),
            namespaces=dict(
                kwargs.get("namespaces") or self.default_namespaces or {}
            ),
            governor=kwargs.get("governor"),
        )
        generated = self._select_generated(kwargs.get("codegen", "off"))
        if generated is not None:
            return generated.execute_count(context)
        return self.thread_physical.execute_count(context)

    def reset_stats(self) -> None:
        """Zero runtime counters on every thread's plan instance."""
        for instance in self.instances():
            instance.reset_stats()

    @property
    def stats(self) -> Counter:
        """Runtime counters summed over every thread's plan instance.

        Includes the generated-function counters when the Python
        backend has run (generated plans are shared across threads, so
        theirs is a single counter, not per-instance).
        """
        instances = self.instances()
        generated = self._generated
        if len(instances) == 1 and generated is None:
            return instances[0].stats
        merged: Counter = Counter()
        for instance in instances:
            merged.update(instance.stats)
        if generated is not None:
            merged.update(generated.stats)
        return merged


class XPathCompiler:
    """Compiles XPath 1.0 strings into executable NQE plans.

    ``index_info``/``index_mode`` parameterize the optimizer's
    index-routing family for one evaluation target: ``index_info`` is
    the target's :class:`~repro.index.runtime.DocumentIndexes` (or
    ``None``), ``index_mode`` one of ``"auto"``/``"force"``.  They are
    *per-target* compile inputs, not translation options — the session
    layer keys its plan cache on the target's index signature so plans
    routed for one indexed store are never replayed against another.
    """

    def __init__(self, options: Optional[TranslationOptions] = None,
                 index_info=None, index_mode: str = "auto",
                 optimizer: str = "heuristic"):
        self.options = options or TranslationOptions()
        self.index_info = index_info
        self.index_mode = index_mode
        #: "heuristic" (selectivity gates) or "cost" (synopsis-fed cost
        #: comparison); see :mod:`repro.compiler.optimize`.
        self.optimizer = optimizer

    def compile(self, query: str) -> CompiledQuery:
        timings: Dict[str, float] = {}

        def timed(phase: str, run):
            start = time.perf_counter()
            result = run()
            timings[phase] = time.perf_counter() - start
            return result

        # Phases 1-4: parse, analyze, fold, normalize.
        ast = timed("parse", lambda: parse_xpath(query))
        timed("semantic", lambda: analyze(ast))
        ast = timed("rewrite", lambda: fold_constants(ast))
        timed("normalize", lambda: normalize(ast))

        # Phase 5: translation into the algebra.
        translator = Translator(self.options)
        translation = timed("translate", lambda: translator.translate(ast))
        optimizer_report = None
        if translation.kind == "scalar":
            # Wrap the top-level scalar in χ over □ so there is a single
            # uniform plan representation.
            assert translation.scalar is not None
            translation.plan = ops.MapOp(
                ops.SingletonScan(),
                _SCALAR_RESULT_ATTR,
                translation.scalar,
                is_result=True,
            )
            translation.result_attr = _SCALAR_RESULT_ATTR

        # Phase 5b (optional): rule-driven plan optimization.  An
        # indexed target enables the pass even without optimize=True —
        # index routing is what makes the target's indexes reachable —
        # and so does the cost optimizer (its estimates feed EXPLAIN).
        if (self.options.optimize or self.index_info is not None
                or self.optimizer == "cost"):
            from repro.compiler.optimize import optimize_plan

            assert translation.plan is not None
            start = time.perf_counter()
            translation.plan, optimizer_report = optimize_plan(
                translation.plan,
                index_info=self.index_info,
                index_mode=self.index_mode,
                optimizer=self.optimizer,
            )
            timings["optimize"] = time.perf_counter() - start

        # Phase 6: code generation.
        physical = timed("codegen", lambda: self._generate(translation))
        compiled = CompiledQuery(
            query, ast, translation, physical, self.options
        )
        compiled.optimizer_report = optimizer_report
        compiled.phase_timings = timings
        return compiled

    # ------------------------------------------------------------------

    def _generate(self, translation: TranslationResult) -> PhysicalPlan:
        return generate_physical(translation, self.options)


def generate_physical(
    translation: TranslationResult, options: TranslationOptions
) -> PhysicalPlan:
    """Generate a fresh physical plan instance from a translation.

    Pure function of its (read-only) inputs: each call builds a new
    register file, runtime state and iterator tree, so repeated calls
    yield independent, thread-confined instances of the same plan —
    this is how :attr:`CompiledQuery.thread_physical` re-instantiates
    cached plans for new threads.
    """
    plan = translation.plan
    assert plan is not None and translation.result_attr is not None

    free = free_variables(plan)
    unknown = free - _ALLOWED_FREE
    if unknown:
        raise CodegenError(
            f"plan has unexpected free attributes: {sorted(unknown)}"
        )

    manager = AttributeManager()
    runtime = RuntimeState(regs=[], context=None)  # type: ignore[arg-type]
    generator = CodeGenerator(runtime, manager, options)
    root = generator.build(plan)
    result_slot = manager.slot(translation.result_attr)

    runtime.regs = manager.make_registers()
    return PhysicalPlan(
        root=root,
        runtime=runtime,
        manager=manager,
        result_slot=result_slot,
        kind=translation.kind,
        context_slot=manager.lookup(TOP_CONTEXT_ATTR),
        position_slot=manager.lookup(TOP_POSITION_ATTR),
        size_slot=manager.lookup(TOP_SIZE_ATTR),
        resettable=generator.resettable,
    )
