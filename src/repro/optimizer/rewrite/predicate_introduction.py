"""Predicate introduction and range trimming (paper Section 2, [10], [8]).

The rewrites here are all driven by ACTIVE *absolute* soft constraints:

* **interval introduction** — an SC relating columns of one table
  (:meth:`~repro.softcon.base.SoftConstraint.implied_interval`) plus a
  query interval on one of them introduces the implied range on another
  when that may open an index: ``a BETWEEN ...`` from a linear
  correlation ``a ~= k*b + c ± eps`` and a range on ``b``, or the other
  column of a check-style difference bound like
  ``ship_date <= order_date + 21`` (the paper's Section 4.4 example);
* **join-hole range trimming** — for a query over a hole SC's join path,
  the query's (a, b) rectangle is trimmed against the holes, shrinking
  the ranges to scan;
* **join-path bands** — an inter-table linear correlation carries a
  range on one side of its join path to the other;
* **min/max abbreviation** — Sybase-style: query ranges are intersected
  with the known min/max; an empty intersection turns the whole block
  into a constant-FALSE scan.

Every introduced conjunct is real (executed), so these fire only from
constraints with ``usable_in_rewrite`` (ACTIVE and absolute).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Tuple

from repro.expr import analysis
from repro.expr.intervals import Interval
from repro.optimizer.logical import LogicalPlan, QueryBlock
from repro.optimizer.rewrite import derive
from repro.optimizer.rewrite.engine import RewriteContext, map_blocks
from repro.sql import ast


def introduce_predicates(
    plan: LogicalPlan, context: RewriteContext
) -> LogicalPlan:
    return map_blocks(plan, lambda block: _introduce_in_block(block, context))


def _introduce_in_block(
    block: QueryBlock, context: RewriteContext
) -> QueryBlock:
    if context.registry is None:
        return block
    for bound in block.tables:
        for constraint in context.registry.rewrite_usable(bound.table_name):
            _introduce_interval(block, bound, constraint, context)
            bounds = constraint.column_bounds()
            if bounds is not None:
                _abbreviate(block, bound.binding, constraint, *bounds, context)
    _trim_against_holes(block, context)
    _introduce_join_linear(block, context)
    return block


def _worth_introducing(
    context: RewriteContext,
    table_name: str,
    binding: str,
    target_column: str,
    block: QueryBlock,
) -> bool:
    """The DB2 heuristic: introduce only when it can open an access path.

    The rewrite engine passes a single query to the cost-based optimizer,
    so an introduced predicate must "virtually always" pay off ([6]).  We
    require an index led by the target column, and that the query does
    not already have an indexable interval on some indexed column of the
    same binding.
    """
    catalog = context.database.catalog
    target_index = catalog.find_index(table_name, [target_column])
    if target_index is None:
        return False
    for index in catalog.indexes_on(table_name):
        lead = index.column_names[0]
        interval = analysis.column_interval(
            block.predicates, ast.ColumnRef(lead, binding)
        )
        if not interval.is_unbounded:
            return False  # an index path already exists
    return True


def _already_implied(
    block: QueryBlock,
    binding: str,
    column: str,
    interval: Interval,
    context: RewriteContext,
    live: Optional[derive.LiveInterval],
) -> bool:
    reference = ast.ColumnRef(column, binding)
    sources = analysis.constraining(block.predicates, reference)
    existing = analysis.column_interval(sources, reference)
    if not existing.is_unbounded:
        # Whether the range adds anything depends on both ranges' values.
        context.pin(sources)
        ast.pin(live.slots() if live is not None else ())
    return interval.contains_interval(existing)


def _append_interval_predicate(
    block: QueryBlock,
    binding: str,
    column: str,
    interval: Interval,
    context: RewriteContext,
    constraint_name: str,
    rule_detail: str,
    live: Optional[derive.LiveInterval] = None,
) -> bool:
    """Introduce ``interval`` on ``column``; with ``live`` (the interval
    follows the binding) as runtime parameters reading it."""
    if interval.is_unbounded:
        return False
    if _already_implied(block, binding, column, interval, context, live):
        return False
    predicate = derive.interval_to_predicate(column, binding, interval, live)
    if predicate is None:
        return False
    # Append as individual conjuncts so downstream interval extraction and
    # access-path selection see each bound.
    block.predicates.extend(analysis.split_conjuncts(predicate))
    context.depend_on(constraint_name)
    context.record("predicate_introduction", rule_detail)
    return True


def _introduce_interval(
    block: QueryBlock, bound, constraint, context: RewriteContext
) -> None:
    """Introduce the ranges an SC implies between columns of one table."""
    binding = bound.binding
    columns = constraint.interval_columns()
    known = derive.known_intervals_for_binding(
        block.predicates, binding, columns
    )
    if not known:
        return
    sources = derive.source_conjuncts(block.predicates, binding, columns)
    for target, source in constraint.introduction_targets(known):
        if not _worth_introducing(
            context, bound.table_name, binding, target, block
        ):
            continue
        detail = f"{constraint.name}: introduced range on {binding}.{target}"
        if source is not None:
            detail += f" from {binding}.{source}"
        live = derive.LiveInterval.over(
            f"{constraint.name}:{binding}.{target}",
            lambda target=target: constraint.implied_interval(
                target,
                derive.known_intervals_for_binding(sources, binding, columns),
            ),
            sources,
        )
        _append_interval_predicate(
            block,
            binding,
            target,
            constraint.implied_interval(target, known),
            context,
            constraint.name,
            detail,
            live,
        )


def _min_max_outcome(query_interval: Interval, known_range: Interval) -> str:
    """What abbreviation does with a bounded query range: ``"empty"``
    (outside the known min/max), ``"abbreviate"`` (a half-open range the
    bounds close) or ``"none"``."""
    intersected = query_interval.intersect(known_range)
    if intersected.is_empty:
        return "empty"
    if intersected != query_interval and (
        query_interval.low is None or query_interval.high is None
    ):
        return "abbreviate"
    return "none"


def _abbreviate(
    block: QueryBlock,
    binding: str,
    constraint,
    column: str,
    known_range: Interval,
    context: RewriteContext,
) -> None:
    reference = ast.ColumnRef(column, binding)
    sources = analysis.constraining(block.predicates, reference)
    query_interval = analysis.column_interval(sources, reference)
    if query_interval.is_unbounded:
        return
    outcome = _min_max_outcome(query_interval, known_range)
    if analysis.slots_in(sources):
        # The runtime-parameter abbreviation is right for any binding,
        # the fold only for ranges outside the bounds: a cached plan
        # serves the bindings that lead here again.
        ast.guard(
            lambda: _min_max_outcome(
                analysis.column_interval(sources, reference),
                constraint.column_bounds()[1],
            )
            == outcome
        )
    if outcome == "empty":
        block.predicates.append(ast.Literal(False))
        context.depend_on(constraint.name)
        context.record(
            "predicate_introduction",
            f"{constraint.name}: query range outside known min/max "
            f"of {binding}.{column} — block is empty",
        )
        return
    # Tighten a half-open query range using the known bounds (this is the
    # Sybase-style abbreviation: a bounded range can use an index range
    # scan on both ends).  Section 4.2: the SC-contributed bound(s) are
    # runtime parameters, so the plan reads the *current* min/max at
    # execution time and survives widening repairs without invalidation.
    if outcome == "abbreviate":
        if query_interval.low is None and known_range.low is not None:
            block.predicates.append(
                ast.BinaryOp(
                    ">=", reference, ast.RuntimeParameter(constraint, "low")
                )
            )
        if query_interval.high is None and known_range.high is not None:
            block.predicates.append(
                ast.BinaryOp(
                    "<=", reference, ast.RuntimeParameter(constraint, "high")
                )
            )
        context.depend_on_validity(constraint.name)
        context.record(
            "predicate_introduction",
            f"{constraint.name}: abbreviated range on "
            f"{binding}.{column} (runtime parameters)",
        )


def on_join_path(
    block: QueryBlock, constraints: Iterable
) -> Iterator[Tuple[object, object, str, str]]:
    """(constraint, path, one_binding, two_binding) for each inter-table
    SC whose join path the block joins along."""
    for constraint in constraints:
        path = constraint.join_path()
        if path is None:
            continue
        one_binding = block.binding_of(path.table_one)
        two_binding = block.binding_of(path.table_two)
        if one_binding is None or two_binding is None:
            continue
        if _join_path_present(block, path, one_binding, two_binding):
            yield constraint, path, one_binding, two_binding


def _trim_against_holes(block: QueryBlock, context: RewriteContext) -> None:
    if (
        context.registry is None
        or "hole_trimming" in context.config.disabled_rules
    ):
        return
    usable = context.registry.rewrite_usable()
    for constraint, path, one_binding, two_binding in on_join_path(
        block, usable
    ):
        a_reference = ast.ColumnRef(path.column_a, one_binding)
        b_reference = ast.ColumnRef(path.column_b, two_binding)
        a_range = analysis.column_interval(block.predicates, a_reference)
        b_range = analysis.column_interval(block.predicates, b_reference)
        if a_range.is_unbounded and b_range.is_unbounded:
            continue
        # Whether the holes trim the ranges, and to what, follows from the
        # query's values: the plan holds only for these.
        context.pin(
            analysis.constraining(block.predicates, a_reference)
            + analysis.constraining(block.predicates, b_reference)
        )
        trimmed_a, trimmed_b = constraint.trim(a_range, b_range)
        if trimmed_a != a_range:
            _append_interval_predicate(
                block,
                one_binding,
                path.column_a,
                trimmed_a,
                context,
                constraint.name,
                f"{constraint.name}: trimmed range on "
                f"{one_binding}.{path.column_a}",
            )
        if trimmed_b != b_range:
            _append_interval_predicate(
                block,
                two_binding,
                path.column_b,
                trimmed_b,
                context,
                constraint.name,
                f"{constraint.name}: trimmed range on "
                f"{two_binding}.{path.column_b}",
            )


def join_bands(
    block: QueryBlock, constraints: Iterable
) -> Iterator[
    Tuple[object, str, str, Interval, Optional[derive.LiveInterval]]
]:
    """(constraint, binding, column, band, live) for each side of each
    join path the block joins along: a range on one side's column implies
    the model's band on the other side's.  ``live`` recomputes the band
    when the range follows the binding (None otherwise).  Lazy, so a
    band the caller adds to ``block.predicates`` narrows the range the
    next band starts from.
    """
    for constraint, path, one_binding, two_binding in on_join_path(
        block, constraints
    ):
        for extend, source, target in (
            (
                constraint.forward_interval,
                ast.ColumnRef(path.column_b, two_binding),
                ast.ColumnRef(path.column_a, one_binding),
            ),
            (
                constraint.inverse_interval,
                ast.ColumnRef(path.column_a, one_binding),
                ast.ColumnRef(path.column_b, two_binding),
            ),
        ):
            sources = analysis.constraining(block.predicates, source)
            known = analysis.column_interval(sources, source)
            if known.is_unbounded:
                continue
            live = derive.LiveInterval.over(
                f"{constraint.name}:{target.qualified}",
                lambda extend=extend, sources=sources, source=source: (
                    extend(analysis.column_interval(sources, source))
                ),
                sources,
            )
            yield constraint, target.table, target.column, extend(known), live


def _introduce_join_linear(block: QueryBlock, context: RewriteContext) -> None:
    """Introduce bands from inter-table linear correlations (Section 2:
    correlations "across common join paths") — predicates on the *join
    result*, pushable to the other table's scan."""
    if context.registry is None:
        return
    usable = context.registry.rewrite_usable()
    for constraint, binding, column, band, live in join_bands(block, usable):
        _append_interval_predicate(
            block,
            binding,
            column,
            band,
            context,
            constraint.name,
            f"{constraint.name}: introduced join-path band on "
            f"{binding}.{column}",
            live,
        )


def _join_path_present(
    block: QueryBlock,
    path,
    one_binding: str,
    two_binding: str,
) -> bool:
    for conjunct in block.predicates:
        pair = analysis.match_equijoin(conjunct)
        if pair is None:
            continue
        left, right = pair
        if (
            left.table == one_binding
            and left.column == path.join_column_one
            and right.table == two_binding
            and right.column == path.join_column_two
        ) or (
            right.table == one_binding
            and right.column == path.join_column_one
            and left.table == two_binding
            and left.column == path.join_column_two
        ):
            return True
    return False
