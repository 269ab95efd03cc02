"""template_point — where parse, rewrite, plan and compile are the statement.

Ten parameterised templates over the same warehouse at scale factor 1,
**fresh seeded literals in every statement**, so execution is a fraction of
a millisecond and the front end is about half of every statement.  This is
where a shape-keyed plan or compile cache, or a rewrite short-circuit,
shows — and where ``corpus_scan`` predicts no change.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Tuple

import harness
from workloads import readpath

from repro.workload.schemas import YEAR_START
from repro.workload.tpc import (
    DATE_DAYS,
    PRICE_HIGH,
    PRICE_LOW,
    QUANTITY_HIGH,
    TOTAL_HIGH,
    TpcScale,
    build_tpc_db,
)

#: One in this many statements of a block is checked against the oracle.
ORACLE_SAMPLE = 25

Template = Callable[[random.Random, TpcScale], Tuple[str, Optional[int]]]


def _day(rng: random.Random) -> int:
    return YEAR_START + rng.randrange(40, DATE_DAYS - 40)


# Each template returns the SQL text and, where the schema alone fixes it,
# the row count every run must see.
def _order_by_key(rng, scale):
    key = rng.randrange(scale.orders)
    return f"SELECT id, customer_id, total FROM orders WHERE id = {key}", 1


def _lineitem_by_key(rng, scale):
    key = rng.randrange(scale.lineitems)
    return f"SELECT id, price, quantity FROM lineitem WHERE id = {key}", 1


def _order_date_range(rng, scale):
    day = _day(rng)
    return (
        "SELECT id, total FROM orders "
        f"WHERE order_date BETWEEN {day} AND {day + 2}",
        None,
    )


def _ship_date_equality(rng, scale):
    # Predicate introduction opens the order_date index.
    return (
        "SELECT id, customer_id, total FROM orders "
        f"WHERE ship_date = {_day(rng)}",
        None,
    )


def _ship_date_range(rng, scale):
    day = _day(rng)
    total = round(rng.uniform(500.0, TOTAL_HIGH - 500.0), 2)
    return (
        "SELECT id, total FROM orders "
        f"WHERE ship_date BETWEEN {day} AND {day + 3} AND total > {total}",
        None,
    )


def _total_out_of_bounds(rng, scale):
    # Outside the MinMaxSC: the block folds to empty at plan time.
    total = round(TOTAL_HIGH + rng.uniform(1.0, 5000.0), 2)
    return f"SELECT id, total FROM orders WHERE total > {total}", 0


def _quantity_out_of_bounds(rng, scale):
    quantity = QUANTITY_HIGH + rng.randrange(1, 200)
    return f"SELECT id FROM lineitem WHERE quantity > {quantity}", 0


def _price_band(rng, scale):
    low = round(rng.uniform(PRICE_LOW, PRICE_HIGH - 3.0), 2)
    return (
        "SELECT id, price FROM lineitem "
        f"WHERE price BETWEEN {low} AND {round(low + 1.5, 2)}",
        None,
    )


def _order_with_customer(rng, scale):
    key = rng.randrange(scale.orders)
    return (
        "SELECT o.id, c.name FROM orders o, customer c "
        f"WHERE o.customer_id = c.id AND o.id = {key}",
        1,
    )


def _customer_aggregate(rng, scale):
    customer = rng.randrange(scale.customers)
    return (
        "SELECT COUNT(*), SUM(total) FROM orders "
        f"WHERE customer_id = {customer}",
        1,
    )


TEMPLATES: List[Template] = [
    _order_by_key,
    _lineitem_by_key,
    _order_date_range,
    _ship_date_equality,
    _ship_date_range,
    _total_out_of_bounds,
    _quantity_out_of_bounds,
    _price_band,
    _order_with_customer,
    _customer_aggregate,
]


class Workload:
    def __init__(self, seed: int, smoke: bool) -> None:
        self.smoke = smoke
        self.sizing = harness.SMOKE if smoke else harness.FULL
        self.seed = seed
        self.scale_factor = 0.25 if smoke else 1.0
        self.scale = TpcScale.of(self.scale_factor)
        self.block_size = 200 if smoke else 1000
        self.db = None

    def block(self, index: int) -> Tuple[List[str], List[Optional[int]]]:
        """Block ``index`` of the stream: every template equally often,
        shuffled, literals drawn from ``(seed, index)`` alone."""
        rng = random.Random(f"template_point:{self.seed}:{index}")
        drawn = [
            template(rng, self.scale)
            for template in TEMPLATES
            for _ in range(self.block_size // len(TEMPLATES))
        ]
        rng.shuffle(drawn)
        return [sql for sql, _ in drawn], [rows for _, rows in drawn]

    def inputs(self) -> List[str]:
        return self.block(0)[0] + self.block(1)[0]

    def setup(self) -> None:
        self.db = build_tpc_db(scale_factor=self.scale_factor)

    def teardown(self) -> None:
        self.db = None

    def check_before(self) -> Tuple[int, int]:
        """A 1-in-``ORACLE_SAMPLE`` sample of block 0 against the oracle,
        and all of block 0 against the row counts the schema fixes."""
        sqls, expected = self.block(0)
        sample = sqls[::ORACLE_SAMPLE]
        failed, _ = readpath.validate(self.db, sample)
        _, bad = readpath.run_block(self.db, sqls, expected)
        return len(sample) + len(sqls), failed + bad

    def run(self, seconds: float):
        # Block 0 warmed the caches in check_before; timing starts at 1.
        return harness.run_blocks(
            seconds, self.sizing.min_blocks,
            lambda index: readpath.run_block(self.db, *self.block(index + 1)),
        )

    def check_after(self) -> Tuple[int, int]:
        return 0, 0

    def trace(self, tracer: harness.Tracer) -> Dict[str, float]:
        return readpath.trace(
            self.db, self.block(0)[0], self.block(1)[0],
            1 if self.smoke else 3, tracer,
        )
