"""Rule-driven logical plan optimization (paper section 7 outlook).

The paper closes with a list of algebraic optimizations to build on top
of the complete translation; this module implements them as a small
rule catalog (each application is recorded in the
:class:`OptimizerReport` rule trace):

* ``merge-descendant`` — the ``//t`` pattern
  ``Υ[child::t](Π^D?(Υ[descendant-or-self::node()]))`` collapses into a
  single ``Υ[descendant::t]`` step (an instance of the paper's
  "equivalences" item; cf. Helmer et al. [12]).  The rewrite requires
  that nothing else reads the intermediate step's attribute — a
  positional predicate grouping on it would change meaning.
* ``route-index-scan`` — name steps move onto
  :class:`~repro.algebra.operators.IndexNameScan` /
  :class:`~repro.algebra.operators.IndexDescendantScan` when the
  evaluation target carries fresh structural indexes.
* ``prune-dedup`` / ``prune-sort`` / ``prune-select`` — "using
  properties of the intermediate results to avoid duplicate elimination
  and sorting" [13]: a Π^D whose input is provably duplicate-free, a
  Sort whose input is provably in document order, and σ[true()] are
  removed.
* ``prune-memo`` (cost mode only) — a 𝔐 memo whose producer is cheaper
  to recompute than to cache is dropped (the memo is a pure cache, so
  answers cannot change).

Two **optimizer modes** drive the route-index-scan decision:

``optimizer="heuristic"`` (default, the oracle baseline) keeps the two
hard-coded selectivity gates: a descendant rewrite is declined when
more than :data:`DESCENDANT_SELECTIVITY_LIMIT` of all elements carry
the name (the posting list would enumerate most of the subtree anyway),
a child rewrite only happens below :data:`CHILD_SELECTIVITY_LIMIT` (the
interval slice over-approximates the child set by the whole subtree).

``optimizer="cost"`` estimates every operator's cardinality with the
DataGuide frontier walk of :mod:`repro.compiler.cost` and routes a step
onto the index iff the modelled index cost (posting pages + candidate
re-tests) undercuts the modelled navigation cost — which also catches
the case the global gates cannot see: ``/xdoc/entry`` where ``entry``
is globally rare but absent *at this tree level*, so the index probe
would grub through the whole deep posting list while navigation touches
a handful of children.

In **both** modes an index rewrite is declined when there is no
evidence for it: an empty synopsis (stale or absent indexes observed
through a half-built ``index_info``) or a name with neither a synopsis
count nor a posting list.  Routing on missing evidence used to slip
through the old ``count > limit * total`` gate as "0% selectivity" and
silently fall back at runtime; it now counts as ``index_skips``.
``index_mode="force"`` bypasses every gate in both modes.

The pass is enabled with ``TranslationOptions(optimize=True)`` and runs
between translation and code generation; it rewrites the plan in place
(including plans nested in subscripts).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.algebra import operators as ops
from repro.algebra import scalar as S
from repro.algebra.properties import (
    _order_info,
    is_document_ordered,
    is_duplicate_free,
)
from repro.compiler.cost import (
    DEFAULT_MODEL,
    Dist,
    PlanEstimates,
    PlanEstimator,
)
from repro.compiler.pipeline import OPTIMIZER_MODES
from repro.xpath.axes import Axis, NodeTestKind

#: Decline a descendant-index rewrite when the name covers more than
#: this fraction of all elements (the index would not prune).
DESCENDANT_SELECTIVITY_LIMIT = 0.5
#: A child-index rewrite probes the *subtree* and filters by parent, so
#: it only pays off for rare names.
CHILD_SELECTIVITY_LIMIT = 0.1


@dataclass
class OptimizerReport:
    """What the pass did — exposed for tests and EXPLAIN output."""

    removed_dedups: int = 0
    removed_sorts: int = 0
    removed_selections: int = 0
    merged_descendant_steps: int = 0
    #: Steps routed onto index scans / rewrites declined by the
    #: selectivity (or cost, or evidence) gate.
    index_scans: int = 0
    index_skips: int = 0
    #: 𝔐 memos dropped by the cost model (cost mode only).
    removed_memos: int = 0
    #: Which optimizer chose the plan: "heuristic" or "cost".
    mode: str = "heuristic"
    notes: List[str] = field(default_factory=list)
    #: Structured rule trace: {"rule", "action": "fired"|"declined",
    #: "detail"} per considered rewrite, in application order.
    rules: List[dict] = field(default_factory=list)
    #: Final-plan estimates (filled whenever a synopsis or the cost
    #: mode made estimation meaningful; serialized into EXPLAIN).
    est_root_rows: Optional[float] = None
    est_cost: Optional[dict] = None
    estimates: Optional[PlanEstimates] = field(
        default=None, repr=False, compare=False
    )

    @property
    def total(self) -> int:
        return (
            self.removed_dedups + self.removed_sorts
            + self.removed_selections + self.merged_descendant_steps
            + self.index_scans + self.removed_memos
        )

    @property
    def rules_fired(self) -> int:
        return sum(1 for r in self.rules if r["action"] == "fired")

    @property
    def rules_declined(self) -> int:
        return sum(1 for r in self.rules if r["action"] == "declined")

    def _record(self, rule: str, action: str, detail: str) -> None:
        self.rules.append({"rule": rule, "action": action, "detail": detail})
        self.notes.append(detail)


def optimize_plan(
    plan: ops.Operator,
    index_info=None,
    index_mode: str = "auto",
    optimizer: str = "heuristic",
) -> tuple[ops.Operator, OptimizerReport]:
    """Apply the rule catalog; returns (new root, report).

    ``index_info`` is the evaluation target's
    :class:`~repro.index.runtime.DocumentIndexes` (or ``None`` when the
    target carries no fresh indexes); with it, the index-routing family
    runs after the ``//t`` merge — so a merged ``Υ[descendant::t]`` is
    itself eligible — and before property pruning.  ``index_mode``
    ``"force"`` bypasses every routing gate; ``optimizer`` selects the
    hard-coded selectivity gates (``"heuristic"``) or the synopsis-fed
    cost comparison (``"cost"``).
    """
    from repro.algebra.visitor import transform_bottom_up

    if optimizer not in OPTIMIZER_MODES:
        raise ValueError(
            f"unknown optimizer {optimizer!r}; expected one of "
            f"{OPTIMIZER_MODES}"
        )
    report = OptimizerReport(mode=optimizer)
    synopsis = index_info.synopsis if index_info is not None else None
    estimator = PlanEstimator(synopsis)

    reads = _attribute_reads(plan)
    plan = transform_bottom_up(
        plan, lambda node: _merge_one(node, reads, report)
    )
    if index_info is not None:
        pre = estimator.estimate(plan) if optimizer == "cost" else None
        plan = transform_bottom_up(
            plan,
            lambda node: _index_one(
                node, index_info, index_mode, report, estimator, pre
            ),
        )
    plan = transform_bottom_up(plan, lambda node: _prune_one(node, report))
    if optimizer == "cost":
        mid = estimator.estimate(plan)
        plan = transform_bottom_up(
            plan, lambda node: _memo_one(node, report, estimator, mid)
        )
    if optimizer == "cost" or synopsis is not None:
        final = estimator.estimate(plan)
        report.estimates = final
        report.est_root_rows = round(final.root_rows, 3)
        report.est_cost = {
            "data_pages": round(final.total.data_pages, 3),
            "index_pages": round(final.total.index_pages, 3),
            "cpu": round(final.total.cpu, 3),
        }
    return plan, report


# ----------------------------------------------------------------------
# //t merging
# ----------------------------------------------------------------------

def _attribute_reads(plan: ops.Operator) -> dict:
    """How often each attribute is *read* anywhere in the plan."""
    reads: dict = {}

    def note(name) -> None:
        if name is not None:
            reads[name] = reads.get(name, 0) + 1

    def walk(node: ops.Operator) -> None:
        if isinstance(node, ops.UnnestMap):
            note(node.in_attr)
        elif isinstance(node, ops.PosMap):
            note(node.context_attr)
        elif isinstance(node, ops.TmpCs):
            note(node.context_attr)
            note(node.cp_attr)
        elif isinstance(node, ops.MemoX):
            for key in node.key_attrs:
                note(key)
        elif isinstance(node, ops.SortOp):
            note(node.attr)
        elif isinstance(node, ops.ProjectDup):
            note(node.attr)
        elif isinstance(node, ops.Aggregate):
            note(node.input_attr)
        elif isinstance(node, ops.Project):
            for old_name in node.renames.values():
                note(old_name)
        elif isinstance(node, ops.BinaryGroup):
            note(node.left_attr)
            note(node.right_attr)
            note(node.func_attr)
        for subscript in node.subscripts():
            for name in S.referenced_attrs(subscript):
                note(name)
            for nested in S.nested_plans(subscript):
                walk(nested.plan)
        for child in node.children():
            walk(child)

    walk(plan)
    return reads


def _merge_one(
    plan: ops.Operator, reads: dict, report: OptimizerReport
) -> ops.Operator:
    """Collapse Υ[child::t]∘(Π^D?)∘Υ[descendant-or-self::node()]."""
    if not (isinstance(plan, ops.UnnestMap) and plan.axis == Axis.CHILD):
        return plan
    inner = plan.child
    consumed_dedup = None
    if isinstance(inner, ops.ProjectDup) and inner.attr == plan.in_attr:
        consumed_dedup = inner
        inner = inner.child
    if not (
        isinstance(inner, ops.UnnestMap)
        and inner.axis == Axis.DESCENDANT_OR_SELF
        and inner.test_kind == NodeTestKind.NODE
        and inner.out_attr == plan.in_attr
    ):
        return plan
    # The intermediate attribute must have exactly the reads the pattern
    # itself performs (the child step, plus the consumed Π^D).
    expected_reads = 1 + (1 if consumed_dedup is not None else 0)
    if reads.get(plan.in_attr, 0) != expected_reads:
        return plan

    merged = ops.UnnestMap(
        inner.child, inner.in_attr, plan.out_attr, Axis.DESCENDANT,
        plan.test_kind, plan.test_name,
    )
    report.merged_descendant_steps += 1
    report._record(
        "merge-descendant", "fired",
        f"merged descendant-or-self/child into {merged.label()}",
    )
    if _order_info(inner.child).single:
        # descendant:: from a single context node is duplicate-free.
        return merged
    return ops.ProjectDup(merged, plan.out_attr)


# ----------------------------------------------------------------------
# Index routing
# ----------------------------------------------------------------------

def _index_one(
    plan: ops.Operator, index_info, index_mode: str,
    report: OptimizerReport, estimator: PlanEstimator,
    pre: Optional[PlanEstimates],
) -> ops.Operator:
    """Route one eligible name step onto an index scan."""
    if isinstance(plan, (ops.IndexNameScan, ops.IndexDescendantScan)):
        return plan
    if not isinstance(plan, ops.UnnestMap):
        return plan
    if plan.axis not in (Axis.CHILD, Axis.DESCENDANT):
        return plan
    name = plan.test_name
    if (plan.test_kind != NodeTestKind.NAME or not name or ":" in name):
        # Only plain-name tests: the posting list keys the stored QName,
        # which is a superset of a plain test's matches but not of a
        # prefix-resolved one.
        return plan

    synopsis = index_info.synopsis
    count = synopsis.element_count(name)
    total = synopsis.total_elements
    if index_mode != "force":
        # Evidence gate (both modes): an empty synopsis means the
        # catalog was stale or half-read; a name with neither a
        # synopsis count nor a posting list would route onto an index
        # that has nothing to say and silently navigate at runtime.
        if total == 0 or (
            count == 0 and not index_info.has_element_index(name)
        ):
            report.index_skips += 1
            report._record(
                "route-index-scan", "declined",
                f"declined index route for {plan.label()} "
                f"(no index evidence: {count}/{total} elements)",
            )
            return plan
        if report.mode == "cost":
            decision = _cost_gate(plan, estimator, pre)
            if decision is not None:
                report.index_skips += 1
                report._record("route-index-scan", "declined", decision)
                return plan
        else:
            limit = (
                CHILD_SELECTIVITY_LIMIT
                if plan.axis == Axis.CHILD
                else DESCENDANT_SELECTIVITY_LIMIT
            )
            if count > limit * total:
                report.index_skips += 1
                report._record(
                    "route-index-scan", "declined",
                    f"declined index route for {plan.label()} "
                    f"({count}/{total} elements)",
                )
                return plan

    cls = (
        ops.IndexNameScan
        if plan.axis == Axis.CHILD
        else ops.IndexDescendantScan
    )
    routed = cls(plan.child, plan.in_attr, plan.out_attr, name,
                 est_count=count)
    report.index_scans += 1
    report._record(
        "route-index-scan", "fired",
        f"routed {plan.label()} onto {routed.label()}",
    )
    return routed


def _cost_gate(
    plan: ops.UnnestMap, estimator: PlanEstimator,
    pre: Optional[PlanEstimates],
) -> Optional[str]:
    """Cost-mode routing decision: ``None`` to route, else the decline
    detail."""
    in_dist = pre.unnest_inputs.get(id(plan)) if pre is not None else None
    if in_dist is None:
        # The step was not part of the estimated plan (defensive; the
        # index pass mutates in place so ids normally survive).
        in_dist = Dist(1.0, None)
    navigation = estimator.navigation_cost(
        in_dist, plan.axis, plan.test_kind, plan.test_name
    )
    index = estimator.index_scan_cost(in_dist, plan.axis, plan.test_name)
    nav_score = navigation.score(DEFAULT_MODEL)
    idx_score = index.score(DEFAULT_MODEL)
    if idx_score < nav_score:
        return None
    return (
        f"{plan.label()} navigation wins "
        f"(nav≈{nav_score:.1f} vs idx≈{idx_score:.1f})"
    )


# ----------------------------------------------------------------------
# Property pruning
# ----------------------------------------------------------------------

def _prune_one(plan: ops.Operator, report: OptimizerReport) -> ops.Operator:
    if isinstance(plan, ops.ProjectDup):
        child = plan.child
        if plan.attr == child.result_attr and is_duplicate_free(child):
            report.removed_dedups += 1
            report._record(
                "prune-dedup", "fired", f"removed {plan.label()}"
            )
            return child
    if isinstance(plan, ops.SortOp):
        child = plan.child
        if plan.attr == child.result_attr and is_document_ordered(child):
            report.removed_sorts += 1
            report._record(
                "prune-sort", "fired", f"removed {plan.label()}"
            )
            return child
    if isinstance(plan, ops.Select):
        predicate = plan.predicate
        if isinstance(predicate, S.SConst) and predicate.value is True:
            report.removed_selections += 1
            report._record("prune-select", "fired", "removed σ[true()]")
            return plan.child
    return plan


def _memo_one(
    plan: ops.Operator, report: OptimizerReport,
    estimator: PlanEstimator, estimates: PlanEstimates,
) -> ops.Operator:
    """Drop a 𝔐 whose producer is cheaper to recompute than to cache."""
    if not isinstance(plan, ops.MemoX):
        return plan
    producer_cost = estimates.subtree.get(id(plan.child))
    if producer_cost is None:
        return plan
    score = producer_cost.score(estimator.model)
    if score <= estimator.model.memo_drop_threshold:
        report.removed_memos += 1
        report._record(
            "prune-memo", "fired",
            f"removed {plan.label()} (producer score≈{score:.1f})",
        )
        return plan.child
    report._record(
        "prune-memo", "declined",
        f"kept {plan.label()} (producer score≈{score:.1f})",
    )
    return plan
