"""Shared helpers for the experiment benchmarks.

Every ``bench_eXX`` module reproduces one experiment from DESIGN.md's
index.  Wall-clock timings come from pytest-benchmark; the *shape* results
(pages read, q-errors, candidate counts) are printed as tables — run with
``pytest benchmarks/ --benchmark-only`` and the tables appear between the
benchmark summaries.

The session also ends with the perf regression gate: every recorded
``BENCH_*.json`` (e.g. the production-vs-oracle executor results from
``bench_e16_production_vs_oracle.py``) is checked; if any records
its candidate path as slower than its baseline — or below the
experiment's recorded speedup target — the whole benchmark run fails
even when every individual test passed.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, List, Sequence

import pytest

from check_bench_regression import check_all_regressions, discover_results


def pytest_sessionfinish(session, exitstatus):
    if exitstatus != 0 or not discover_results():
        return
    failures = check_all_regressions()
    if failures:
        reporter = session.config.pluginmanager.get_plugin("terminalreporter")
        for failure in failures:
            message = f"benchmark regression: {failure}"
            if reporter is not None:
                reporter.write_line(message, red=True)
            else:
                print(message)
        session.exitstatus = 1


@pytest.fixture
def report(capsys):
    """Print an experiment table so it survives pytest's capture."""

    def emit(title: str, headers: Sequence[str], rows: Sequence[Sequence[Any]]):
        from repro.harness.reporting import format_table

        with capsys.disabled():
            print()
            print(format_table(headers, rows, title=title))
            print()

    return emit
