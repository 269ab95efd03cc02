"""The classification layer's contract: thresholds, routing, segregation."""

from repro.harness.classify import (
    BOTH_TIMEOUT,
    CONFIDENCE_HIGH,
    CONFIDENCE_ROW_COUNT_ONLY,
    CONFIDENCE_ZERO_ROW,
    ERROR,
    FAIL,
    IMPROVED,
    MEASURED,
    NEUTRAL,
    QueryOutcome,
    REGRESSION,
    VS_TIMEOUT_CEILING,
    WIN,
    classify_speedup,
    normalized_row_key,
    result_checksum,
    speedup_type,
    summarize,
    validate_rows,
)
from repro.harness import qerror


class TestThresholds:
    """Boundary cases are inclusive, per the contract table."""

    def test_exactly_1_10x_is_a_win(self):
        assert classify_speedup(1.10) == WIN

    def test_just_below_1_10x_is_improved(self):
        assert classify_speedup(1.0999) == IMPROVED

    def test_exactly_1_05x_is_improved(self):
        assert classify_speedup(1.05) == IMPROVED

    def test_exactly_0_95x_is_neutral(self):
        assert classify_speedup(0.95) == NEUTRAL

    def test_just_below_0_95x_is_a_regression(self):
        assert classify_speedup(0.9499) == REGRESSION

    def test_parity_is_neutral(self):
        assert classify_speedup(1.0) == NEUTRAL

    def test_big_win(self):
        assert classify_speedup(37.0) == WIN


class TestSpeedupType:
    def test_both_complete_is_measured(self):
        assert speedup_type(False, False) == MEASURED

    def test_either_truncation_is_ceiling(self):
        assert speedup_type(True, False) == VS_TIMEOUT_CEILING
        assert speedup_type(False, True) == VS_TIMEOUT_CEILING

    def test_both_truncated_is_both_timeout(self):
        assert speedup_type(True, True) == BOTH_TIMEOUT


class TestValidation:
    def test_matching_rows_high_confidence(self):
        rows = [(1, "a", 2.0), (2, "b", None)]
        validation = validate_rows(rows, list(reversed(rows)))
        assert validation.confidence == CONFIDENCE_HIGH
        assert validation.rows_match and validation.checksum_match
        assert validation.ok

    def test_row_count_mismatch(self):
        validation = validate_rows([(1,)], [(1,), (2,)])
        assert not validation.rows_match
        assert not validation.ok

    def test_same_count_different_values_fails_checksum(self):
        validation = validate_rows([(1,), (2,)], [(1,), (3,)])
        assert validation.rows_match
        assert validation.checksum_match is False
        assert not validation.ok

    def test_zero_rows_is_unverified(self):
        validation = validate_rows([], [])
        assert validation.confidence == CONFIDENCE_ZERO_ROW
        assert validation.ok
        assert validation.checksum_match is None

    def test_checksum_skipped_is_row_count_only(self):
        validation = validate_rows([(1,)], [(9,)], with_checksum=False)
        assert validation.confidence == CONFIDENCE_ROW_COUNT_ONLY
        assert validation.rows_match  # counts match; values never compared

    def test_checksum_is_order_insensitive(self):
        a = [(1, 2.0), (3, 4.0)]
        assert result_checksum(a) == result_checksum(list(reversed(a)))

    def test_checksum_tolerates_summation_order_noise(self):
        total = sum([0.1] * 10)  # 0.9999999999999999
        assert result_checksum([(total,)]) == result_checksum([(1.0,)])

    def test_checksum_distinguishes_none_from_empty_string(self):
        assert result_checksum([(None,)]) != result_checksum([("",)])

    def test_normalized_key_orders_none_last_style(self):
        assert normalized_row_key((None,)) != normalized_row_key((0,))


class TestQError:
    def test_symmetric(self):
        assert qerror(10, 100) == qerror(100, 10) == 10.0

    def test_floors_zero_actuals(self):
        assert qerror(5.0, 0) == 5.0
        assert qerror(0.0, 4) == 4.0


def _outcome(status, speedup=1.0, speedup_type_=MEASURED, qerror_=None,
             validation=None):
    outcome = QueryOutcome("q", "SELECT 1", "fam")
    outcome.status = status
    outcome.speedup = speedup
    outcome.speedup_type = speedup_type_
    outcome.qerror = qerror_
    outcome.validation = validation
    return outcome


class TestSummarize:
    def test_win_rate_over_measured_only(self):
        outcomes = [
            _outcome(WIN, 2.0),
            _outcome(NEUTRAL, 1.0),
            # A ceiling-bounded "win" must not enter the measured rate.
            _outcome(WIN, 50.0, speedup_type_=VS_TIMEOUT_CEILING),
        ]
        summary = summarize(outcomes)
        assert summary["measured_queries"] == 2
        assert summary["win_rate"] == 0.5
        assert summary["ceiling_bounded"] == 1
        assert summary["ceiling_statuses"] == [WIN]
        # Mean speedup also excludes the inflated ceiling ratio.
        assert summary["mean_measured_speedup"] == 1.5

    def test_error_and_fail_counted_but_not_measured(self):
        outcomes = [_outcome(ERROR), _outcome(FAIL), _outcome(WIN, 1.2)]
        summary = summarize(outcomes)
        assert summary["errors"] == 2
        assert summary["measured_queries"] == 1
        assert summary["win_rate"] == 1.0

    def test_regression_count(self):
        summary = summarize([_outcome(REGRESSION, 0.5), _outcome(WIN, 1.5)])
        assert summary["regressions"] == 1

    def test_worst_qerror_per_status_class(self):
        outcomes = [
            _outcome(WIN, 1.5, qerror_=3.0),
            _outcome(WIN, 1.2, qerror_=9.0),
            _outcome(NEUTRAL, 1.0, qerror_=2.0),
            # Ceiling-bounded q-errors stay out of the aggregate.
            _outcome(NEUTRAL, 1.0, speedup_type_=VS_TIMEOUT_CEILING,
                     qerror_=99.0),
        ]
        worst = summarize(outcomes)["worst_qerror_by_status"]
        assert worst == {WIN: 9.0, NEUTRAL: 2.0}

    def test_validation_mismatches_counted(self):
        bad = validate_rows([(1,)], [(2,)])
        good = validate_rows([(1,)], [(1,)])
        summary = summarize(
            [_outcome(ERROR, validation=bad), _outcome(WIN, validation=good)]
        )
        assert summary["validation_mismatches"] == 1
        assert summary["validation_confidence_counts"] == {
            CONFIDENCE_HIGH: 2
        }

    def test_empty_corpus(self):
        summary = summarize([])
        assert summary["queries"] == 0
        assert summary["win_rate"] == 0.0
        assert summary["mean_measured_speedup"] is None
