"""The WIN/REGRESSION classification layer for A/B query measurements.

This is the corpus harness's contract (borrowed from querytorque's
knowledge-engine vocabulary): every query run under a candidate vs. a
baseline configuration gets

* a **status** from its speedup ratio — WIN (>= 1.10x), IMPROVED
  (>= 1.05x), NEUTRAL (>= 0.95x), REGRESSION (below), with ERROR for
  execution/validation failures and FAIL for structural ones (parse or
  bind errors);
* a **speedup type** — ``measured`` when both sides ran to completion,
  ``vs_timeout_ceiling`` when the baseline was guard-truncated (the
  ratio is a lower bound computed against the ceiling, and is inflated),
  ``both_timeout`` when both sides tripped (the ratio is meaningless and
  pinned to 1.0).  The segregation rule: ceiling-bounded results never
  enter measured aggregates;
* a **validation confidence** against the oracle executor — ``high``
  (row count and order-insensitive checksum both match),
  ``row_count_only`` (counts compared, checksum skipped), and
  ``zero_row_unverified`` (both sides empty: nothing to checksum).

:func:`summarize` folds a list of :class:`QueryOutcome` into the
machine-readable shape ``BENCH_e15.json`` records and
``check_bench_regression.py`` gates.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

# -- status vocabulary (shared contract values; use exactly) ----------------

WIN = "WIN"
IMPROVED = "IMPROVED"
NEUTRAL = "NEUTRAL"
REGRESSION = "REGRESSION"
ERROR = "ERROR"
FAIL = "FAIL"

STATUSES = (WIN, IMPROVED, NEUTRAL, REGRESSION, ERROR, FAIL)

WIN_THRESHOLD = 1.10
IMPROVED_THRESHOLD = 1.05
NEUTRAL_THRESHOLD = 0.95

# -- speedup types ----------------------------------------------------------

MEASURED = "measured"
VS_TIMEOUT_CEILING = "vs_timeout_ceiling"
BOTH_TIMEOUT = "both_timeout"

# -- validation confidence ---------------------------------------------------

CONFIDENCE_HIGH = "high"
CONFIDENCE_ROW_COUNT_ONLY = "row_count_only"
CONFIDENCE_ZERO_ROW = "zero_row_unverified"


def classify_speedup(ratio: float) -> str:
    """Status for a measured baseline/candidate ratio (>1 = candidate won).

    Thresholds are inclusive: exactly 1.10x is a WIN, exactly 1.05x is
    IMPROVED, exactly 0.95x is NEUTRAL.
    """
    if ratio >= WIN_THRESHOLD:
        return WIN
    if ratio >= IMPROVED_THRESHOLD:
        return IMPROVED
    if ratio >= NEUTRAL_THRESHOLD:
        return NEUTRAL
    return REGRESSION


def speedup_type(
    candidate_truncated: bool, baseline_truncated: bool
) -> str:
    """Which of the contract's speedup types a run pair produced."""
    if candidate_truncated and baseline_truncated:
        return BOTH_TIMEOUT
    if candidate_truncated or baseline_truncated:
        return VS_TIMEOUT_CEILING
    return MEASURED


# -- result normalization and checksums --------------------------------------


def normalized_row_key(row: Sequence[Any]) -> Tuple[Any, ...]:
    """Sort key tolerant of None and float summation-order noise.

    Floats are quantized to 12 significant digits: different plans sum in
    different orders, and the resulting last-ulp differences are not
    correctness violations.
    """
    normalized = []
    for value in row:
        if value is None:
            normalized.append((True, ""))
        elif isinstance(value, float):
            normalized.append((False, float(f"{value:.12g}")))
        else:
            normalized.append((False, value))
    return tuple(normalized)


def result_checksum(tuples: Iterable[Sequence[Any]]) -> str:
    """Order-insensitive checksum of a result multiset.

    Rows are normalized (:func:`normalized_row_key`), sorted, and hashed,
    so two plans producing the same rows in any order — with float
    aggregates differing only in the last ulps — checksum identically.
    """
    digest = hashlib.md5()
    for key in sorted(repr(normalized_row_key(row)) for row in tuples):
        digest.update(key.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


@dataclass
class Validation:
    """One candidate-vs-oracle comparison, nested per the contract."""

    confidence: str
    rows_match: bool
    checksum_match: Optional[bool] = None

    @property
    def ok(self) -> bool:
        return self.rows_match and self.checksum_match is not False

    def as_dict(self) -> Dict[str, Any]:
        return {
            "confidence": self.confidence,
            "rows_match": self.rows_match,
            "checksum_match": self.checksum_match,
        }


def validate_rows(
    candidate: Sequence[Sequence[Any]],
    oracle: Sequence[Sequence[Any]],
    with_checksum: bool = True,
) -> Validation:
    """Row count + order-insensitive checksum against the oracle's rows."""
    rows_match = len(candidate) == len(oracle)
    if rows_match and len(oracle) == 0:
        return Validation(CONFIDENCE_ZERO_ROW, True, None)
    if not with_checksum:
        return Validation(CONFIDENCE_ROW_COUNT_ONLY, rows_match, None)
    checksum_match = rows_match and (
        result_checksum(candidate) == result_checksum(oracle)
    )
    return Validation(CONFIDENCE_HIGH, rows_match, checksum_match)


# -- per-query outcomes -------------------------------------------------------


@dataclass
class QueryOutcome:
    """One corpus query's classified A/B measurement."""

    query_id: str
    sql: str
    family: str = ""
    status: str = NEUTRAL
    #: Ratio the status was computed from (baseline/candidate on the
    #: runner's primary metric).
    speedup: float = 1.0
    speedup_type: str = MEASURED
    page_ratio: Optional[float] = None
    wall_ratio: Optional[float] = None
    cached_wall_ratio: Optional[float] = None
    candidate_pages: Optional[int] = None
    baseline_pages: Optional[int] = None
    candidate_s: Optional[float] = None
    baseline_s: Optional[float] = None
    row_count: Optional[int] = None
    qerror: Optional[float] = None
    validation: Optional[Validation] = None
    rewrites: List[str] = field(default_factory=list)
    error: Optional[str] = None

    def speedup_for(self, metric: str) -> float:
        """The ratio the runner's primary metric selects (1.0 when the
        measurement is missing)."""
        ratio = self.page_ratio if metric == "pages" else self.wall_ratio
        return 1.0 if ratio is None else ratio

    @property
    def ceiling_bounded(self) -> bool:
        """True when a guard truncation bounded either side's timing —
        such runs never enter measured aggregates."""
        return self.speedup_type != MEASURED

    @property
    def validation_ok(self) -> bool:
        return self.validation is None or self.validation.ok

    def as_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "query_id": self.query_id,
            "family": self.family,
            "status": self.status,
            "speedup": _round(self.speedup),
            "speedup_type": self.speedup_type,
            "page_ratio": _round(self.page_ratio),
            "wall_ratio": _round(self.wall_ratio),
            "cached_wall_ratio": _round(self.cached_wall_ratio),
            "candidate_pages": self.candidate_pages,
            "baseline_pages": self.baseline_pages,
            "row_count": self.row_count,
            "qerror": _round(self.qerror),
            "validation": (
                None if self.validation is None else self.validation.as_dict()
            ),
            "rewrites": list(self.rewrites),
        }
        if self.error is not None:
            payload["error"] = self.error
        return payload


def _round(value: Optional[float], digits: int = 4) -> Optional[float]:
    return None if value is None else round(value, digits)


# -- aggregation --------------------------------------------------------------


def summarize(outcomes: Sequence[QueryOutcome]) -> Dict[str, Any]:
    """Fold outcomes into the gated summary shape.

    The measured/ceiling segregation rule is enforced here: win rate,
    mean speedup and per-status worst q-error aggregate *measured*
    outcomes only; ceiling-bounded runs are reported solely as a count
    plus their statuses (their ratios are bounds, not measurements).
    """
    measured = [o for o in outcomes if not o.ceiling_bounded]
    ceiling = [o for o in outcomes if o.ceiling_bounded]
    status_counts = {status: 0 for status in STATUSES}
    for outcome in outcomes:
        status_counts[outcome.status] += 1
    measured_ok = [
        o for o in measured if o.status not in (ERROR, FAIL)
    ]
    wins = sum(1 for o in measured_ok if o.status == WIN)
    worst_qerror: Dict[str, float] = {}
    for outcome in measured_ok:
        if outcome.qerror is None:
            continue
        prior = worst_qerror.get(outcome.status, 1.0)
        worst_qerror[outcome.status] = max(prior, outcome.qerror)
    mismatches = sum(1 for o in outcomes if not o.validation_ok)
    return {
        "queries": len(outcomes),
        "status_counts": status_counts,
        "win_rate": round(wins / len(measured_ok), 4) if measured_ok else 0.0,
        "wins": wins,
        "regressions": status_counts[REGRESSION],
        "errors": status_counts[ERROR] + status_counts[FAIL],
        "validation_mismatches": mismatches,
        "measured_queries": len(measured_ok),
        "mean_measured_speedup": (
            round(
                sum(o.speedup for o in measured_ok) / len(measured_ok), 4
            )
            if measured_ok
            else None
        ),
        "worst_qerror_by_status": {
            status: round(value, 3)
            for status, value in sorted(worst_qerror.items())
        },
        "ceiling_bounded": len(ceiling),
        "ceiling_statuses": sorted(o.status for o in ceiling),
        "validation_confidence_counts": _confidence_counts(outcomes),
    }


def _confidence_counts(outcomes: Sequence[QueryOutcome]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for outcome in outcomes:
        if outcome.validation is None:
            continue
        confidence = outcome.validation.confidence
        counts[confidence] = counts.get(confidence, 0) + 1
    return dict(sorted(counts.items()))
