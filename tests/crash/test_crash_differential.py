"""Crash-differential suite: kill the durability layer at every declared
crash site, recover, and require the recovered state to match a
never-crashed twin **bit for bit** for all committed work.

The model: a seeded workload of DML/DDL/soft-constraint actions runs
against a durable session with a :class:`FaultInjector` ``crash`` spec
armed at one site/visit.  When :class:`SimulatedCrash` fires mid-action ``i``, the
in-memory session is discarded (that *is* the crash — nothing that only
lived in memory survives) and ``SoftDB.open`` recovers from disk.  The
twin is a plain in-memory session that applied exactly the committed
prefix — actions ``0..i-1`` — and never crashed.  Fingerprints cover
page images with CRCs, index images, the catalog's constraints, summary
tables, and the full soft-constraint registry state, compared with
``==``: committed work must be bit-identical, the crashed action must
leave zero trace, and no recovered ACTIVE absolute soft constraint may
contradict the recovered data.
"""

import random

import pytest

from repro.api import SoftDB
from repro.durability import codec
from repro.resilience.faults import SITE_KINDS, FaultInjector, SimulatedCrash
from repro.softcon.base import SCState
from repro.softcon.maintenance import RepairPolicy
from repro.softcon.minmax import MinMaxSC

pytestmark = pytest.mark.crash

SEEDS = (7, 23, 1009)

CRASH_SITES = tuple(
    site for site, kinds in SITE_KINDS.items() if "crash" in kinds
)


# -- the seeded workload ------------------------------------------------------


def build_workload(seed):
    """A deterministic action list: multi-row DML, index/summary DDL,
    a repairable soft constraint that later inserts violate, two
    mid-run checkpoints and a rolled-back explicit transaction.  Same
    seed, same list — crashed and twin runs always agree on what action
    ``i`` was."""
    rng = random.Random(seed)
    actions = [
        ("sql", "CREATE TABLE emp (id INT PRIMARY KEY, salary INT)"),
        ("sql", "CREATE TABLE dept (id INT PRIMARY KEY, budget INT)"),
        (
            "sql",
            "INSERT INTO emp VALUES "
            + ", ".join(
                f"({n}, {1000 + rng.randrange(500)})" for n in range(30)
            ),
        ),
        (
            "sql",
            "INSERT INTO dept VALUES "
            + ", ".join(f"({n}, {5000 + 100 * n})" for n in range(8)),
        ),
        ("sql", "CREATE INDEX ix_emp_salary ON emp (salary)"),
        # Bounds cover the data so far; later inserts breach the high
        # bound and the RepairPolicy widens it mid-workload.
        ("softcon", ("emp_salary_range", "emp", "salary", 900, 1600)),
        (
            "sql",
            "CREATE SUMMARY TABLE high_paid AS "
            "(SELECT * FROM emp WHERE salary > 1400)",
        ),
        ("checkpoint", None),
    ]
    next_id = 30
    for step in range(10):
        kind = rng.choice(("insert", "insert", "update", "delete"))
        if kind == "insert":
            count = rng.randrange(1, 5)
            values = ", ".join(
                f"({next_id + n}, {1000 + rng.randrange(1200)})"
                for n in range(count)
            )
            next_id += count
            actions.append(("sql", f"INSERT INTO emp VALUES {values}"))
        elif kind == "update":
            bump = rng.randrange(5, 60)
            cutoff = 1000 + rng.randrange(400)
            actions.append(
                (
                    "sql",
                    f"UPDATE emp SET salary = salary + {bump} "
                    f"WHERE salary < {cutoff}",
                )
            )
        else:
            victim = rng.randrange(next_id)
            actions.append(("sql", f"DELETE FROM emp WHERE id = {victim}"))
        if step == 5:
            actions.append(("checkpoint", None))
            # Rolled-back work replays from its logged compensations, so
            # its traces (freed slots, index order, the repair its
            # 2500 insert made) must match the twin's live rollback.
            # Fixed literals keep the seeded steps after it unchanged.
            actions.append(
                (
                    "script",
                    (
                        "BEGIN",
                        f"INSERT INTO emp VALUES ({next_id}, 1300), "
                        f"({next_id + 1}, 2500), ({next_id + 2}, 1010)",
                        "UPDATE emp SET salary = salary + 7 "
                        "WHERE salary < 1150",
                        "DELETE FROM emp WHERE salary > 1900",
                        "ROLLBACK",
                    ),
                )
            )
    return actions


def apply_action(db, action):
    kind, payload = action
    if kind == "sql":
        db.execute(payload)
    elif kind == "script":
        for sql in payload:
            db.execute(sql)
    elif kind == "softcon":
        name, table, column, low, high = payload
        db.add_soft_constraint(
            MinMaxSC(name, table, column, low, high, 1.0),
            policy=RepairPolicy(),
        )
    elif kind == "checkpoint":
        # The twin is in-memory: checkpoints are a durable-session-only
        # action and mutate no logical or physical table state.
        if db.durability is not None:
            db.checkpoint()


# -- fingerprinting -----------------------------------------------------------


def fingerprint(db):
    """Codec-encoded full state: page images carry a CRC over their
    slots, so ``==`` here is the bit-identity the suite demands."""
    catalog = db.database.catalog
    return {
        "tables": {
            name: {
                "pages": [
                    codec.encode_page(page)
                    for page in catalog.table(name).pages.pages
                ],
                "row_count": catalog.table(name).row_count,
            }
            for name in sorted(catalog.table_names())
        },
        "indexes": {
            name: codec.encode_index(catalog.index(name))
            for name in sorted(catalog.indexes)
        },
        "constraints": sorted(
            (codec.canonical_dumps(codec.encode_constraint(constraint)))
            for constraint in catalog.all_constraints()
        ),
        "summary_tables": sorted(catalog.summary_tables()),
        "softcons": {
            name: {
                "sc": codec.encode_soft_constraint(sc),
                "currency": codec.encode_currency(
                    db.registry._currency.get(name)
                ),
            }
            for name, sc in db.registry._constraints.items()
        },
    }


def run_twin(actions):
    twin = SoftDB()
    for action in actions:
        apply_action(twin, action)
    return twin


# -- the differential ---------------------------------------------------------


_CENSUS = {}


def site_visit_counts(tmp_path, seed):
    """Total visits per crash site in a fault-free durable run (a
    paused injector still counts), so crashes can target first, middle
    and last visits of every site."""
    if seed not in _CENSUS:
        crash_points = FaultInjector(seed)
        crash_points.pause()
        db = SoftDB.open(tmp_path / "census", crash_points=crash_points)
        for action in build_workload(seed):
            apply_action(db, action)
        _CENSUS[seed] = {
            site: crash_points.visits[site] for site in CRASH_SITES
        }
    return _CENSUS[seed]


def crash_and_recover(path, actions, site, at_visit):
    """Run until the scheduled crash, discard the session, recover.

    Returns ``(recovered, crashed_at)`` — the index of the action that
    died — or ``(None, None)`` if the schedule never fired."""
    crash_points = FaultInjector(seed=0).add(site, "crash", at_visit=at_visit)
    db = SoftDB.open(path, crash_points=crash_points)
    crashed_at = None
    for position, action in enumerate(actions):
        try:
            apply_action(db, action)
        except SimulatedCrash:
            crashed_at = position
            break
    if crashed_at is None:
        return None, None
    # The crash: the in-memory session is simply abandoned.  Recovery
    # opens the directory fresh, with no crash points.
    del db
    return SoftDB.open(path), crashed_at


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("site", CRASH_SITES)
def test_crash_differential(tmp_path, site, seed):
    actions = build_workload(seed)
    visits = site_visit_counts(tmp_path, seed)[site]
    assert visits > 0, f"workload never visits crash site {site!r}"
    targets = sorted({1, max(1, visits // 2), visits})
    for at_visit in targets:
        path = tmp_path / f"visit{at_visit}"
        recovered, crashed_at = crash_and_recover(
            path, actions, site, at_visit
        )
        assert recovered is not None, (
            f"{site} at_visit={at_visit} never fired despite the census"
        )
        summary = recovered.durability.last_recovery
        # Committed prefix, bit for bit; zero trace of the crashed action.
        twin = run_twin(actions[:crashed_at])
        assert fingerprint(recovered) == fingerprint(twin), (
            f"recovered state diverges from the fault-free twin after "
            f"crash at {site} visit {at_visit} (action {crashed_at}, "
            f"recovery summary {summary})"
        )
        # Storage integrity held without salvage work.
        assert summary["indexes_rebuilt"] == []
        assert summary["indexes_quarantined"] == []
        # WAL + registry stayed consistent: re-validation found nothing
        # to repair or overturn, and no ACTIVE absolute soft constraint
        # contradicts the recovered data.
        assert summary["asc_actions"] == []
        for sc in recovered.registry._constraints.values():
            if sc.state is SCState.ACTIVE and sc.is_absolute:
                assert recovered.durability._find_violation(sc) is None
        if site == "wal_append":
            # A torn final record is this site's on-disk signature.
            assert summary["torn_tail"]
        # The recovered session keeps working (and keeps logging).  The
        # very first crash point can predate CREATE TABLE emp itself.
        if "emp" in recovered.database.catalog.table_names():
            recovered.execute("INSERT INTO emp VALUES (7777, 1234)")
            assert recovered.query(
                "SELECT id FROM emp WHERE id = 7777"
            ) == [{"id": 7777}]
        recovered.close()


@pytest.mark.parametrize("seed", SEEDS)
def test_fault_free_run_matches_twin_after_reopen(tmp_path, seed):
    """Baseline differential: no crash at all — close, reopen (which
    recovers from the final checkpoint), and compare against the twin
    that applied the identical full workload in memory."""
    actions = build_workload(seed)
    db = SoftDB.open(tmp_path / "db")
    for action in actions:
        apply_action(db, action)
    db.close()
    reopened = SoftDB.open(tmp_path / "db")
    twin = run_twin(actions)
    assert fingerprint(reopened) == fingerprint(twin)
    assert reopened.durability.last_recovery["asc_actions"] == []
