"""EXPLAIN: render a physical plan with estimates and provenance."""

from __future__ import annotations

from typing import List

from repro.optimizer.physical import PhysicalNode, PhysicalPlan


def explain(plan: PhysicalPlan) -> str:
    """A multi-line EXPLAIN rendering of the plan.

    Shows the operator tree with per-node row/cost estimates, then the
    rewrites that fired, the soft constraints the plan depends on, and the
    estimation-only twinned predicates the estimator consulted.
    """
    lines: List[str] = []
    _render(plan.root, 0, lines)
    if plan.compiled:
        lines.append(
            f"expressions: compiled=yes (compile cache: "
            f"{plan.compile_cache_hits} hits, "
            f"{plan.compile_cache_misses} misses)"
        )
    else:
        lines.append("expressions: compiled=no (interpreted)")
    if plan.rewrites_applied:
        lines.append("rewrites:")
        for entry in plan.rewrites_applied:
            lines.append(f"  - {entry}")
    if plan.sc_dependencies:
        lines.append(
            "depends on soft constraints: "
            + ", ".join(sorted(plan.sc_dependencies))
        )
    if plan.estimation_notes:
        lines.append("estimation-only predicates:")
        for note in plan.estimation_notes:
            lines.append(f"  - {note}")
    return "\n".join(lines)


def _render(node: PhysicalNode, depth: int, lines: List[str]) -> None:
    indent = "  " * depth
    lines.append(
        f"{indent}{node.describe()}  "
        f"[rows~{node.estimated_rows:.1f} cost~{node.estimated_cost:.1f}"
        f"{_actuals(node)}]"
    )
    for child in node.children():
        _render(child, depth + 1, lines)


def _actuals(node: PhysicalNode) -> str:
    """The instrumented columns: ``est=…`` / ``act=…`` / ``qerr=…``.

    Present only after an instrumented execution; production runs add
    ``batches=…``.
    """
    if node.actual_rows is None:
        return ""
    from repro.stats.errors import q_error

    q = q_error(node.estimated_rows, node.actual_rows)
    text = (
        f" est={node.estimated_rows:.0f} act={node.actual_rows}"
        f" qerr={q:.2f}"
    )
    if node.actual_batches is not None:
        text += f" batches={node.actual_batches}"
    return text
