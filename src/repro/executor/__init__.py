"""The runtime: the production executor and the oracle for physical plans.

On the production path rows flow between operators, and into the
kernels that evaluate their expressions, as column-major
:class:`~repro.executor.batch.RowBatch` objects, the one batch type (the
vectorized pipeline in :mod:`repro.executor.vectorized`); ``batch_size=0``, or a plan
without compiled expressions, selects the oracle — the interpreted
row-at-a-time iterator model where operators exchange
``{qualified_name: value}`` dicts.  All page I/O is charged to the
database's shared counters, so an
:class:`~repro.executor.runtime.ExecutionResult` reports exactly the pages
a plan touched — the number every benchmark compares across plans.
"""

from repro.executor.batch import DEFAULT_BATCH_SIZE, RowBatch
from repro.executor.runtime import ExecutionResult, Executor
from repro.executor.vectorized import BatchedInterpreter

__all__ = [
    "BatchedInterpreter",
    "DEFAULT_BATCH_SIZE",
    "ExecutionResult",
    "Executor",
    "RowBatch",
]
