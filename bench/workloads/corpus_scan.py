"""corpus_scan — the paper's read-side headline.

The 106 queries of ``generate_corpus(seed)`` over the TPC-style warehouse
at a scale where the executor, the vector kernels and the scans do ~90 %
of the work and the optimizer almost none.  One in-process client, closed
loop, whole passes over the corpus.  A plan/compile cache or a rewrite
short-circuit should move nothing here; a faster scan or kernel should.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import harness
from workloads import readpath

from repro.corpus.generator import generate_corpus
from repro.workload.tpc import build_tpc_db


class Workload:
    def __init__(self, seed: int, smoke: bool) -> None:
        # Scale factor 2 = 6 000 orders / 18 000 lineitems: the largest
        # warehouse three set-ups and an interpreted-oracle pass fit
        # beside the timed run under the driver's time cap.
        self.smoke = smoke
        self.sizing = harness.SMOKE if smoke else harness.FULL
        self.scale_factor = 0.25 if smoke else 2.0
        self.sqls = [query.sql for query in generate_corpus(seed)]
        self.expected_rows: List[int] = []
        self.db = None

    def inputs(self) -> List[str]:
        return self.sqls

    def setup(self) -> None:
        self.db = build_tpc_db(scale_factor=self.scale_factor)

    def teardown(self) -> None:
        self.db = None

    def check_before(self) -> Tuple[int, int]:
        """Every distinct SELECT against the interpreted SC-off oracle."""
        failed, self.expected_rows = readpath.validate(self.db, self.sqls)
        return len(self.sqls), failed

    def run(self, seconds: float) -> Tuple[List[harness.Repetition], int, int]:
        return harness.run_blocks(
            seconds, self.sizing.min_blocks,
            lambda index: readpath.run_block(
                self.db, self.sqls, self.expected_rows
            ),
        )

    def check_after(self) -> Tuple[int, int]:
        return 0, 0

    def trace(self, tracer: harness.Tracer) -> Dict[str, float]:
        return readpath.trace(
            self.db, self.sqls, self.sqls, 1 if self.smoke else 3, tracer
        )
