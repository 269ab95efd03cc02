"""E15 — The TPC-style corpus under WIN/REGRESSION classification.

~106 generated queries over the TPC-flavored warehouse (:mod:`repro.workload.tpc`) run under SC-on vs
SC-off (and cached vs uncached), each validated against the row-at-a-time
interpreted oracle and classified per the querytorque-style contract
(WIN >= 1.10x / IMPROVED >= 1.05x / NEUTRAL >= 0.95x / REGRESSION below;
``high`` / ``row_count_only`` / ``zero_row_unverified`` validation
confidence; ceiling-bounded runs segregated from measured aggregates).

Shape to reproduce: the soft-constraint machinery wins broadly (ship-lag
and charge-band predicate introduction, min/max abbreviation, habit-join
elimination) and *never* regresses — the status ratio is the
deterministic logical page-read count, so zero REGRESSION and zero
validation mismatches are hard assertions, not statistical ones.  Emits
``BENCH_e15.json``; ``check_bench_regression.py`` gates its corpus
section so any future PR that turns a NEUTRAL into a REGRESSION (or
breaks validation) fails CI.

Set ``E15_FAST=1`` for the CI smoke run: reduced scale factor, a strided
query sample, results written to a temp directory (the committed
BENCH_e15.json is never clobbered).
"""

import json
import os
import tempfile
from pathlib import Path

import pytest

from repro.corpus import CorpusRunner, generate_corpus
from repro.harness.classify import summarize
from repro.workload.tpc import build_tpc_db

FAST = bool(os.environ.get("E15_FAST"))

SCALE_FACTOR = 0.25 if FAST else 1.0
#: The smoke run strides the corpus; family order interleaves, so every
#: family stays represented.
QUERY_STRIDE = 3 if FAST else 1
DATA_SEED = 7
CORPUS_SEED = 11
#: Floors recorded into the JSON and enforced by the gate; the measured
#: win rate is ~0.61 at both scales, so 0.45 tolerates corpus drift
#: without letting the mechanism quietly stop firing.
MIN_WIN_RATE = 0.45
MIN_QUERIES = 30 if FAST else 100
RESULTS_PATH = (
    Path(tempfile.mkdtemp(prefix="bench_e15_")) / "BENCH_e15.json"
    if FAST
    else Path(__file__).resolve().parent / "BENCH_e15.json"
)


@pytest.fixture(scope="module")
def corpus_run():
    db = build_tpc_db(SCALE_FACTOR, seed=DATA_SEED)
    queries = generate_corpus(seed=CORPUS_SEED)[::QUERY_STRIDE]
    runner = CorpusRunner(db, metric="pages")
    outcomes = runner.run(queries)
    return queries, outcomes, summarize(outcomes)


def test_e15_corpus_classification_shape(corpus_run):
    """The acceptance shape: enough queries, zero regressions, zero
    validation mismatches, and every planted mechanism actually firing."""
    queries, outcomes, summary = corpus_run
    assert summary["queries"] >= MIN_QUERIES
    assert summary["regressions"] == 0
    assert summary["errors"] == 0
    assert summary["validation_mismatches"] == 0
    assert summary["ceiling_bounded"] == 0
    assert summary["win_rate"] >= MIN_WIN_RATE
    wins_by_family = {}
    for outcome in outcomes:
        if outcome.status == "WIN":
            wins_by_family.setdefault(outcome.family, 0)
            wins_by_family[outcome.family] += 1
    # Each characterization-backed family must produce wins: ship-lag
    # introduction, charge-band introduction, min/max abbreviation, and
    # habit-join elimination.
    for family in ("sel_shipdate", "sel_charge", "sel_bounds", "join_habit"):
        assert wins_by_family.get(family, 0) > 0, f"no WINs in {family}"
    # The zero-row confidence path is exercised by the out-of-bounds
    # family (min/max abbreviation empties those scans).
    confidences = summary["validation_confidence_counts"]
    assert confidences.get("zero_row_unverified", 0) > 0
    assert confidences.get("high", 0) > 0


def test_e15_report_and_emit_json(report, corpus_run):
    """Writes BENCH_e15.json and requires the gate to accept it."""
    queries, outcomes, summary = corpus_run
    measured = [o for o in outcomes if not o.ceiling_bounded]
    wall = {
        "sc_on_s": round(sum(o.candidate_s or 0.0 for o in measured), 4),
        "sc_off_s": round(sum(o.baseline_s or 0.0 for o in measured), 4),
    }
    payload = {
        "experiment": "E15",
        "scale_factor": SCALE_FACTOR,
        "data_seed": DATA_SEED,
        "corpus_seed": CORPUS_SEED,
        "metric": "pages",
        "corpus": {
            "min_win_rate": MIN_WIN_RATE,
            "min_queries": MIN_QUERIES,
            "measured_wall": wall,
            **summary,
        },
        "queries": [o.as_dict() for o in outcomes],
    }
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    report(
        f"E15: corpus classification (scale={SCALE_FACTOR}, "
        f"{len(queries)} queries, status from page-read ratio)",
        ["metric", "value"],
        [
            ["queries", summary["queries"]],
            ["WIN / IMPROVED / NEUTRAL", " / ".join(
                str(summary["status_counts"][s])
                for s in ("WIN", "IMPROVED", "NEUTRAL")
            )],
            ["REGRESSION / ERROR / FAIL", " / ".join(
                str(summary["status_counts"][s])
                for s in ("REGRESSION", "ERROR", "FAIL")
            )],
            ["win rate", summary["win_rate"]],
            ["mean measured speedup x", summary["mean_measured_speedup"]],
            ["validation mismatches", summary["validation_mismatches"]],
            ["confidence counts", str(summary["validation_confidence_counts"])],
            ["worst q-error by status", str(summary["worst_qerror_by_status"])],
            ["SC-on / SC-off wall s", f"{wall['sc_on_s']} / {wall['sc_off_s']}"],
        ],
    )
    from check_bench_regression import check_regressions

    assert check_regressions(RESULTS_PATH) == []
