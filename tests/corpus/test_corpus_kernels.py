"""The corpus runs on the kernels: no query reaches the per-row interpreter.

Production evaluates every compiled expression through its numpy kernel
and drops a batch to :func:`~repro.expr.eval.evaluate` only when some
row of it raises, or the expression has no kernel
(:mod:`repro.expr.vector`).  No corpus query raises, so a corpus query
that reaches the interpreter is a kernel regression the differential
suites cannot see: the interpreter still gives the right answer, only
slowly.  Here the fallback fails instead, and every corpus query runs
on the production executor under the default (SC-on) optimizer and
with every soft-constraint rule off.
"""

import pytest

from repro.corpus.generator import generate_corpus
from repro.executor.runtime import Executor
from repro.expr import vector
from repro.harness.runner import all_off
from repro.optimizer.planner import Optimizer
from repro.workload.tpc import build_tpc_db

pytestmark = pytest.mark.differential


def test_no_corpus_query_falls_back_to_the_interpreter(monkeypatch):
    db = build_tpc_db(scale_factor=0.15, seed=7)
    sc_off = Optimizer(db.database, None, all_off())
    executor = Executor(db.database)
    queries = generate_corpus(0)
    assert len(queries) == 106

    def fallback(compiled, batch):
        expressions = [expr.expression for expr in compiled if expr is not None]
        raise AssertionError(f"{expressions} fell back over {len(batch)} rows")

    monkeypatch.setattr(vector, "_interpret", fallback)
    for query in queries:
        assert db.execute(query.sql).executor.startswith("production"), query.sql
        plan = sc_off.optimize(query.sql)
        assert executor.execute(plan).executor.startswith("production"), query.sql
