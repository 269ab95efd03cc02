"""The schedule golden: where the fault and crash suites aim.

The crash and chaos suites pick their targets from schedules they measure
first.  A change to the engine that moves those schedules moves what the
suites test, silently: a crash aimed at "the middle WAL append" lands on
a different statement.  This module records the three schedules:

* ``crash_census``: visits per crash site in a fault-free durable run of
  each seed's workload from ``tests/crash/test_crash_differential.py``;
* ``concurrent_census``: the cumulative WAL-append visit count after
  each statement of ``tests/crash/test_crash_concurrent.py``'s
  two-session script, per seed;
* ``chaos``: the faults injected (per ``site/kind``) and the virtual
  clock after the query loop of ``tests/chaos/test_chaos_differential.py``
  ``::test_queries_never_silently_wrong``, per seed and batch size.

``tests/goldens/test_schedule_golden.py`` holds them to the literal
records in ``schedule_records.py``.  Regenerate those with::

    PYTHONPATH=src python -m tests.goldens.schedule_golden

A change that moves a record says which schedule moved and why.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Any, Dict, List

from repro import SoftDB
from repro.errors import IndexCorruptionError, ReproError
from repro.optimizer.planner import OptimizerConfig
from repro.resilience.faults import FaultInjector
from tests.chaos import test_chaos_differential as chaos
from tests.crash import test_crash_concurrent as concurrent
from tests.crash import test_crash_differential as crash

RECORDS_PATH = Path(__file__).with_name("schedule_records.py")


def crash_census(seed: int) -> Dict[str, int]:
    crash_points = FaultInjector(seed)
    crash_points.pause()
    with tempfile.TemporaryDirectory() as path:
        db = SoftDB.open(Path(path) / "census", crash_points=crash_points)
        for action in crash.build_workload(seed):
            crash.apply_action(db, action)
        visits = {site: crash_points.visits[site] for site in crash.CRASH_SITES}
        db.close(checkpoint=False)
    return visits


def concurrent_census(seed: int) -> List[int]:
    with tempfile.TemporaryDirectory() as path:
        return concurrent.census(Path(path), seed)


def chaos_counts(seed: int, batch_size: int) -> Dict[str, Any]:
    """The query loop of ``test_queries_never_silently_wrong``, counted."""
    db = chaos.build_db(OptimizerConfig(batch_size=batch_size))
    injector = chaos.chaos_injector(seed)
    db.attach_fault_injector(injector)
    for _ in range(4):
        for sql in chaos.QUERIES:
            try:
                db.execute(sql)
            except ReproError as error:
                if isinstance(error, IndexCorruptionError) and error.index_name:
                    db.rebuild_index(error.index_name)
    return {
        "injected": {
            f"{site}/{kind}": count
            for (site, kind), count in sorted(injector.injected.items())
        },
        "clock_now": round(injector.clock.now, 9),
    }


def records() -> Dict[str, Dict[str, Any]]:
    return {
        "crash_census": {seed: crash_census(seed) for seed in crash.SEEDS},
        "concurrent_census": {
            seed: concurrent_census(seed) for seed in concurrent.SEEDS
        },
        "chaos": {
            f"{seed}/{batch_size}": chaos_counts(seed, batch_size)
            for seed in chaos.SEEDS
            for batch_size in chaos.BATCH_SIZES
        },
    }


def _format(schedules: Dict[str, Dict[str, Any]]) -> str:
    lines = [
        '"""Literal schedule golden records; regenerate with',
        "``PYTHONPATH=src python -m tests.goldens.schedule_golden``.",
        '"""',
        "",
        "RECORDS = {",
    ]
    for name, by_case in schedules.items():
        lines.append(f"    {name!r}: {{")
        lines.extend(
            f"        {case!r}: {value!r}," for case, value in by_case.items()
        )
        lines.append("    },")
    lines.append("}")
    return "\n".join(lines) + "\n"


def main() -> None:
    RECORDS_PATH.write_text(_format(records()))
    print(f"wrote {RECORDS_PATH}")


if __name__ == "__main__":
    main()
