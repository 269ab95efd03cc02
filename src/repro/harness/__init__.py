"""Experiment harness: shared measurement, classification and reporting
utilities used by the ``benchmarks/`` suite, the corpus runner
(:mod:`repro.corpus`) and the examples."""

from repro.harness.classify import (
    BOTH_TIMEOUT,
    ERROR,
    FAIL,
    IMPROVED,
    MEASURED,
    NEUTRAL,
    QueryOutcome,
    REGRESSION,
    VS_TIMEOUT_CEILING,
    Validation,
    WIN,
    classify_speedup,
    normalized_row_key,
    result_checksum,
    speedup_type,
    summarize,
    validate_rows,
)
from repro.harness.runner import (
    PlanMeasurement,
    all_off,
    compare_optimizers,
    measure_query,
)
from repro.harness.reporting import (
    format_corpus_summary,
    format_outcomes,
    format_table,
)
from repro.stats.errors import q_error as qerror

__all__ = [
    "BOTH_TIMEOUT",
    "ERROR",
    "FAIL",
    "IMPROVED",
    "MEASURED",
    "NEUTRAL",
    "PlanMeasurement",
    "QueryOutcome",
    "REGRESSION",
    "VS_TIMEOUT_CEILING",
    "Validation",
    "WIN",
    "all_off",
    "classify_speedup",
    "compare_optimizers",
    "format_corpus_summary",
    "format_outcomes",
    "format_table",
    "measure_query",
    "normalized_row_key",
    "qerror",
    "result_checksum",
    "speedup_type",
    "summarize",
    "validate_rows",
]
