"""The cost model: I/O-dominant costing aligned with the executor.

Costs are expressed in *page-read equivalents* so the model's predictions
can be checked directly against the executor's
:class:`~repro.engine.page.IOCounters`.  CPU work is charged per tuple at
a small fraction of a page read, as in the classic System-R / DB2 models.

The geometry the model consults (page counts, index heights, leaf counts)
comes from the live catalog objects, matching exactly what the executor
will be charged at runtime — by design, so cost-model validation tests
can assert tight agreement on I/O.
"""

from __future__ import annotations

import math
from repro.engine.database import Database

SEQ_PAGE_COST = 1.0
RANDOM_PAGE_COST = 1.0  # fetches are counted, not penalized, to match IOCounters
# Simulated rows are small (~150/page), so the per-tuple CPU share of a
# page read is lower than the classic 0.01.
CPU_TUPLE_COST = 0.005
CPU_OPERATOR_COST = 0.002
HASH_BUILD_COST_PER_ROW = 0.015
SORT_CPU_PER_COMPARE = 0.005


class CostModel:
    """Computes operator costs from catalog geometry and row estimates."""

    def __init__(self, database: Database) -> None:
        self.database = database

    # -- scans ---------------------------------------------------------------

    def seq_scan_cost(self, table_name: str, output_rows: float) -> float:
        table = self.database.table(table_name)
        pages = max(1, table.page_count)
        rows = table.row_count
        return pages * SEQ_PAGE_COST + rows * CPU_TUPLE_COST

    def index_scan_cost(
        self, table_name: str, index_name: str, matching_rows: float
    ) -> float:
        """Descent + leaf pages crossed + clustered-adjusted row fetches.

        The executor fetches rows through a one-page buffer, so over a
        clustered index consecutive fetches share pages.  Expected data
        page reads: each fetch starts a new page with probability
        ``1 - cluster_ratio`` (plus the rows-per-page floor for a
        perfectly clustered scan).
        """
        index = self.database.catalog.index(index_name)
        table = self.database.table(table_name)
        descent = index.height
        entries = len(index)
        leaf_fraction = 0.0 if entries == 0 else matching_rows / entries
        leaves = max(0.0, leaf_fraction * index.leaf_pages - 1.0)
        ratio = index.cluster_ratio()
        rows_per_page = max(1.0, table.row_count / max(1, table.page_count))
        clustered_fetches = matching_rows / rows_per_page
        fetches = (
            matching_rows * (1.0 - ratio) + clustered_fetches * ratio
        ) * RANDOM_PAGE_COST
        return (
            descent * SEQ_PAGE_COST
            + leaves * SEQ_PAGE_COST
            + max(1.0, fetches)
            + matching_rows * CPU_TUPLE_COST
        )

    # -- joins ------------------------------------------------------------------

    def nested_loop_cost(
        self,
        left_cost: float,
        left_rows: float,
        right_cost: float,
        right_rows: float,
    ) -> float:
        """Materialized inner: pay the inner's cost once, then CPU.

        The executor materializes the inner input in memory, so repeated
        passes cost CPU (predicate evaluation) rather than repeated I/O.
        """
        comparisons = left_rows * right_rows
        return left_cost + right_cost + comparisons * CPU_OPERATOR_COST

    def hash_join_cost(
        self,
        left_cost: float,
        left_rows: float,
        right_cost: float,
        right_rows: float,
    ) -> float:
        build = right_rows * HASH_BUILD_COST_PER_ROW
        probe = left_rows * CPU_TUPLE_COST
        return left_cost + right_cost + build + probe

    # -- other operators -----------------------------------------------------------

    def sort_cost(
        self, child_cost: float, child_rows: float, key_count: int = 1
    ) -> float:
        rows = max(2.0, child_rows)
        compares = rows * math.log2(rows)
        return child_cost + compares * SORT_CPU_PER_COMPARE * max(1, key_count)

    def group_by_cost(self, child_cost: float, child_rows: float) -> float:
        return child_cost + child_rows * HASH_BUILD_COST_PER_ROW

    def project_cost(self, child_cost: float, child_rows: float) -> float:
        return child_cost + child_rows * CPU_OPERATOR_COST

    def distinct_cost(self, child_cost: float, child_rows: float) -> float:
        return child_cost + child_rows * HASH_BUILD_COST_PER_ROW
