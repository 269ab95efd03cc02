"""Workload query sets for the scenarios (used by selection and benches)."""

from __future__ import annotations

from typing import List, Optional

from repro.discovery.workload_model import Workload


def correlated_workload(
    probe_values: Optional[List[float]] = None,
) -> Workload:
    """Point queries on ``meas.b`` — the pattern the linear SC serves."""
    if probe_values is None:
        probe_values = [100.0, 250.0, 500.0, 750.0, 900.0]
    workload = Workload()
    for value in probe_values:
        workload.add(f"SELECT id, a FROM meas WHERE b = {value}", frequency=4.0)
    workload.add("SELECT id FROM meas WHERE b BETWEEN 400.0 AND 420.0", 2.0)
    workload.add("SELECT count(*) AS n FROM meas WHERE a > 1500.0", 1.0)
    return workload


def star_workload(include_explicit_joins: bool = True) -> Workload:
    """Fact-only aggregations that join to dimensions out of habit.

    Every query is emitted in both join syntaxes — the legacy
    comma-WHERE form and the explicit ``JOIN ... ON`` form — so corpus
    consumers exercise both paths through the parser.  The explicit
    variants carry half the frequency (the workload's feature counts
    stay dominated by the historical shape); pass
    ``include_explicit_joins=False`` for the legacy comma-only workload.
    """
    workload = Workload()
    shapes = [
        (
            "SELECT s.id, s.amount FROM sales s, customer c "
            "WHERE s.customer_id = c.id AND s.amount > 400.0",
            "SELECT s.id, s.amount FROM sales s "
            "JOIN customer c ON s.customer_id = c.id "
            "WHERE s.amount > 400.0",
            5.0,
        ),
        (
            "SELECT s.customer_id, sum(s.amount) AS total FROM sales s, "
            "product p WHERE s.product_id = p.id GROUP BY s.customer_id",
            "SELECT s.customer_id, sum(s.amount) AS total FROM sales s "
            "INNER JOIN product p ON s.product_id = p.id "
            "GROUP BY s.customer_id",
            3.0,
        ),
        (
            "SELECT c.segment, sum(s.amount) AS total FROM sales s, "
            "customer c WHERE s.customer_id = c.id GROUP BY c.segment",
            "SELECT c.segment, sum(s.amount) AS total FROM sales s "
            "JOIN customer c ON s.customer_id = c.id GROUP BY c.segment",
            2.0,
        ),
    ]
    for comma_sql, explicit_sql, frequency in shapes:
        workload.add(comma_sql, frequency=frequency)
        if include_explicit_joins:
            workload.add(explicit_sql, frequency=frequency / 2.0)
    return workload


def monthly_union_sql(
    table_names: List[str],
    day_low: int,
    day_high: int,
    columns: str = "id, day, amount",
) -> str:
    """The UNION ALL view query with a day-range predicate on every branch."""
    branches = [
        f"(SELECT {columns} FROM {name} "
        f"WHERE day BETWEEN {day_low} AND {day_high})"
        for name in table_names
    ]
    return " UNION ALL ".join(branches)

