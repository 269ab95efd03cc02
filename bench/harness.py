"""Shared machinery of the repo benchmark: metric table, statistics,
the outside-in tracer, and the clean-exit checks.

Nothing here knows a workload.  ``bench/workloads/*.py`` build inputs and
drive the public API; this module turns what they record into the metrics
``BENCHMARK.json`` names.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional,
    Sequence,
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"



class Sizing(NamedTuple):
    """How much a run repeats itself.

    ``repetitions``: every timed run is cut into this many equal parts and
    the reported value is the median across them (ISSUE 12: a single block
    on a shared box varies by 15-50 %, medians do not).  ``min_blocks``:
    never report from fewer.  ``setups``: set-ups per run, ``setup_s`` being
    their median; a cheap set-up is repeated, up to ``max_setups`` times,
    until ``setup_budget_s`` is spent, so that its median is steady too.
    """

    repetitions: int
    min_blocks: int
    setups: int
    max_setups: int
    setup_budget_s: float

    def another_setup(self, times: Sequence[float]) -> bool:
        if len(times) < self.setups:
            return True
        return (
            len(times) < self.max_setups and sum(times) < self.setup_budget_s
        )


FULL = Sizing(repetitions=10, min_blocks=7, setups=3, max_setups=15,
              setup_budget_s=1.5)
SMOKE = Sizing(repetitions=2, min_blocks=2, setups=2, max_setups=2,
               setup_budget_s=0.0)

# name, unit, better, bound (share of the parent's median).  The bounds are
# what this box's run-to-run noise allows, not what one would wish: whole
# runs land in phases 10-15 % apart (bench/README.md, "Steadiness"), so a
# tighter gate would flap.  Claims use the pairing protocol instead.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("stmt_per_s", "stmt/s", "higher", 0.25),
    ("stmt_p50_ms", "ms", "lower", 0.25),
    ("stmt_p95_ms", "ms", "lower", 0.25),
    ("cpu_ms_per_stmt", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
]

# name, unit, better.  0 on a workload means "this workload does not
# exercise the layer" (see bench/README.md for which workload owns which).
PER_LAYER = [
    ("sql.parse_ms", "ms", "lower"),
    ("optimizer.build_ms", "ms", "lower"),
    ("optimizer.rewrite_ms", "ms", "lower"),
    ("optimizer.rewrite_fired_ratio", "ratio", "higher"),
    ("optimizer.plan_ms", "ms", "lower"),
    ("optimizer.total_ms", "ms", "lower"),
    ("optimizer.sc_off_total_ms", "ms", "lower"),
    ("expr.compile_ms", "ms", "lower"),
    ("expr.compile_cache_hit_ratio", "ratio", "higher"),
    ("executor.execute_ms", "ms", "lower"),
    ("executor.sc_off_execute_ms", "ms", "lower"),
    ("executor.rows_read_per_row_out", "ratio", "lower"),
    ("api.self_ms", "ms", "lower"),
    ("engine.page_reads_per_stmt", "count", "lower"),
    ("engine.page_writes_per_stmt", "count", "lower"),
    ("softcon.wall_speedup", "ratio", "higher"),
    ("softcon.page_speedup", "ratio", "higher"),
    ("softcon.maintain_overhead_ratio", "ratio", "lower"),
    ("softcon.violations", "count", "lower"),
    ("softcon.repairs", "count", "lower"),
    ("durability.overhead_ratio", "ratio", "lower"),
    ("durability.wal_bytes_per_stmt", "bytes", "lower"),
    ("durability.flushes_per_commit", "ratio", "lower"),
    ("durability.checkpoint_ms", "ms", "lower"),
    ("durability.recovery_ms", "ms", "lower"),
    ("durability.disk_bytes_per_user_byte", "ratio", "lower"),
    ("client.select_p50_ms", "ms", "lower"),
    ("client.insert_p50_ms", "ms", "lower"),
    ("client.update_p50_ms", "ms", "lower"),
    ("client.delete_p50_ms", "ms", "lower"),
    ("client.commit_p50_ms", "ms", "lower"),
    ("client.stmt_p99_ms", "ms", "lower"),
    ("concurrency.session_overhead_ms", "ms", "lower"),
    ("concurrency.wire_overhead_ms", "ms", "lower"),
    ("concurrency.wire_self_ms", "ms", "lower"),
    ("concurrency.contention_ms", "ms", "lower"),
    ("concurrency.commits_per_flush", "ratio", "higher"),
    ("concurrency.server_shed", "count", "lower"),
    ("concurrency.aborts", "count", "lower"),
    ("replication.pump_ms_per_commit", "ms", "lower"),
    ("replication.shipped_bytes_per_commit", "bytes", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

E2E_UNITS = {name: unit for name, unit, _, _ in END_TO_END}
LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}


def use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src`` and from nowhere else.

    Forces ``REPRO_WORKERS=1`` first, so no morsel thread pool is ever
    created and a workload process ends with the main thread only.
    """
    os.environ["REPRO_WORKERS"] = "1"
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"bench: no program to measure: {src}/repro is missing")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        sys.exit(f"bench: repro imported from {repro.__file__}, not {src}")


# ---------------------------------------------------------------- statistics


def percentile(values: Sequence[float], share: float) -> float:
    """Linear-interpolated percentile of ``values`` (``share`` in 0..1)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = share * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles of one run's repetitions (never outside the
    observed range, however few there are)."""
    if len(values) < 2:
        only = float(values[0])
        return {"q1": only, "median": only, "q3": only}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def per_statement(
    passes: Sequence[Sequence[float]],
    pick: Callable[[Iterable[float]], float] = statistics.median,
) -> List[float]:
    """One value per statement across passes over the same statements: the
    median for a time that is reported, ``min`` for the two sides of a
    twin ratio (noise here only ever slows a pass down, and a ratio of two
    single passes wanders by 15 % on its own)."""
    return [pick(column) for column in zip(*passes)]


class Repetition:
    """One repetition's raw record: wall and CPU seconds and every
    statement's latency as the caller saw it."""

    __slots__ = ("elapsed", "cpu", "latencies")

    def __init__(self, elapsed: float, cpu: float, latencies: List[float]):
        self.elapsed = elapsed
        self.cpu = cpu
        self.latencies = latencies


def group_blocks(blocks: List[Repetition], sizing: Sizing) -> List[Repetition]:
    """Merge consecutive blocks into ``sizing.repetitions`` equal parts.

    A remainder is dropped from the *front*: those blocks are the run's
    warm-up.  Fewer blocks than repetitions are reported one each.
    """
    if len(blocks) < sizing.min_blocks:
        raise RuntimeError(
            f"only {len(blocks)} blocks ran; {sizing.min_blocks} are needed"
        )
    per = max(1, len(blocks) // sizing.repetitions)
    count = min(sizing.repetitions, len(blocks))
    used = blocks[len(blocks) - per * count:]
    merged = []
    for start in range(0, len(used), per):
        part = used[start:start + per]
        merged.append(
            Repetition(
                sum(b.elapsed for b in part),
                sum(b.cpu for b in part),
                [latency for b in part for latency in b.latencies],
            )
        )
    return merged


def run_blocks(
    seconds: float, min_blocks: int, one_block: Callable[[int], tuple]
) -> tuple:
    """Closed loop of whole blocks until ``seconds`` have passed (and at
    least ``min_blocks`` ran).  ``one_block(index)`` returns
    ``(Repetition, failed)``; returns ``(blocks, attempted, failed)``."""
    blocks: List[Repetition] = []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(blocks) < min_blocks:
        block, bad = one_block(len(blocks))
        blocks.append(block)
        attempted += len(block.latencies)
        failed += bad
    return blocks, attempted, failed


def end_to_end_metrics(
    repetitions: List[Repetition], setup_times: List[float]
) -> Dict[str, Dict[str, float]]:
    """Per-repetition metrics, then median and quartiles across them."""
    per_rep = {
        "stmt_per_s": [len(r.latencies) / r.elapsed for r in repetitions],
        "stmt_p50_ms": [
            percentile(r.latencies, 0.50) * 1e3 for r in repetitions
        ],
        "stmt_p95_ms": [
            percentile(r.latencies, 0.95) * 1e3 for r in repetitions
        ],
        "cpu_ms_per_stmt": [
            r.cpu / len(r.latencies) * 1e3 for r in repetitions
        ],
    }
    out = {name: quartiles(values) for name, values in per_rep.items()}
    out["setup_s"] = quartiles(setup_times)
    rss = peak_rss_mb()
    out["peak_rss_mb"] = {"q1": rss, "median": rss, "q3": rss}
    return out


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def inputs_sha256(statements: Iterable[str]) -> str:
    """Fingerprint of a generated statement list: two commits that report
    the same digest provably ran the same inputs."""
    digest = hashlib.sha256()
    for sql in statements:
        digest.update(sql.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


# -------------------------------------------------------------------- tracer


class Tracer:
    """Spans recorded from outside the program, kept in memory.

    A span is ``[id, name, start, end, parent, stmt_id]``.  ``patch``
    swaps a public function for a wrapper that records one span per call,
    parented through a per-thread stack; ``begin``/``end`` record a span
    by hand where the stack cannot know the parent (an asyncio client
    whose statement runs on a server thread).
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: List[tuple] = []

    def _stack(self) -> List[list]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def begin(
        self,
        name: str,
        parent: Optional[list] = None,
        stmt_id: Optional[int] = None,
    ) -> list:
        if parent is not None and stmt_id is None:
            stmt_id = parent[5]
        span = [
            next(self._ids), name, time.perf_counter(), None,
            None if parent is None else parent[0], stmt_id,
        ]
        self.spans.append(span)
        return span

    @staticmethod
    def end(span: list) -> None:
        span[3] = time.perf_counter()

    def call(
        self,
        name: str,
        function: Callable,
        *args: Any,
        parent: Optional[list] = None,
        stmt_id: Optional[int] = None,
        **kwargs: Any,
    ) -> Any:
        """Run ``function`` under a span on this thread's stack."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span = self.begin(name, parent, stmt_id)
        stack.append(span)
        try:
            return function(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            stack.pop()

    def patch(self, owner: Any, attribute: str, name: str) -> None:
        """Record a span named ``name`` around every ``owner.attribute``
        call until :meth:`unpatch_all`."""
        original = getattr(owner, attribute)
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            return tracer.call(name, original, *args, **kwargs)

        traced.__wrapped__ = original
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, traced)

    def unpatch_all(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> Dict[int, float]:
        """Each span's duration minus what its children cover."""
        own = {span[0]: span[3] - span[2] for span in self.spans}
        for span in self.spans:
            if span[4] is not None:
                own[span[4]] -= span[3] - span[2]
        return own

    def total(self, name: str, self_time: bool = False,
              under: Optional[str] = None) -> float:
        """Summed seconds of the spans called ``name``; with ``under``
        only those whose root span carries that name."""
        own = self.self_times() if self_time else None
        roots = self._roots() if under is not None else None
        seconds = 0.0
        for span in self.spans:
            if span[1] != name:
                continue
            if roots is not None and roots[span[0]] != under:
                continue
            seconds += own[span[0]] if own else span[3] - span[2]
        return seconds

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span[1] == name)

    def _roots(self) -> Dict[int, str]:
        by_id = {span[0]: span for span in self.spans}
        roots: Dict[int, str] = {}
        for span in self.spans:
            top = span
            while top[4] is not None:
                top = by_id[top[4]]
            roots[span[0]] = top[1]
        return roots

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, stmt_id in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id, "name": name, "start": start,
                            "end": end, "parent": parent,
                            "stmt_id": stmt_id,
                        }
                    )
                    + "\n"
                )


def patch_layers(tracer: Tracer) -> None:
    """Wrap the public function at each layer boundary of a statement.

    Fails loudly when a boundary moved: a span that silently stops firing
    would read as a layer that became free.
    """
    import repro.api
    import repro.concurrency.session
    import repro.optimizer.planner as planner
    from repro.executor.runtime import Executor
    from repro.optimizer.rewrite.engine import RewriteEngine

    tracer.patch(repro.api, "parse_statement", "sql.parse")
    tracer.patch(repro.concurrency.session, "parse_statement", "sql.parse")
    tracer.patch(planner, "parse_statement", "sql.parse")
    tracer.patch(planner, "build_logical_plan", "optimizer.build")
    tracer.patch(RewriteEngine, "rewrite", "optimizer.rewrite")
    tracer.patch(planner.Optimizer, "optimize", "optimizer.optimize")
    tracer.patch(planner, "attach_compiled_expressions", "expr.compile")
    tracer.patch(Executor, "execute", "executor.execute")


def read_path_layers(tracer: Tracer, statements: int,
                     under: Optional[str] = None) -> Dict[str, float]:
    """Mean ms per statement of each read-path layer, from the spans."""
    scale = 1e3 / statements
    build = tracer.total("optimizer.build", under=under) * scale
    rewrite = tracer.total("optimizer.rewrite", under=under) * scale
    plan = tracer.total("optimizer.optimize", self_time=True,
                        under=under) * scale
    return {
        "sql.parse_ms": tracer.total("sql.parse", under=under) * scale,
        "optimizer.build_ms": build,
        "optimizer.rewrite_ms": rewrite,
        "optimizer.plan_ms": plan,
        "optimizer.total_ms": build + rewrite + plan,
        "expr.compile_ms": tracer.total("expr.compile", under=under) * scale,
        "executor.execute_ms": tracer.total(
            "executor.execute", under=under) * scale,
    }


# ---------------------------------------------------------------- clean exit


def make_workdir(label: str) -> Path:
    """A scratch directory inside the checkout (``bench/out``)."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"tmp-{label}-", dir=OUT_DIR))


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


def remove_workdir(path: Optional[Path]) -> None:
    if path is not None:
        shutil.rmtree(path, ignore_errors=True)


@contextlib.contextmanager
def scratch_db(build: Callable[[Optional[Path]], Any], durable: bool,
               label: str) -> Iterator[Any]:
    """A just-built database — ``build(path)``, path ``None`` for an
    in-memory one — closed and with its scratch directory gone on exit."""
    path = make_workdir(label) if durable else None
    db = None
    try:
        db = build(path)
        yield db
    finally:
        try:
            if db is not None:
                db.close(checkpoint=False)
        finally:
            remove_workdir(path)


def counters(db: Any) -> Dict[str, float]:
    """The program-side exact counts of a durable database, for deltas."""
    wal = db.durability.wal
    io = db.database.counters
    return {
        "page_reads": io.page_reads, "page_writes": io.page_writes,
        "violations": db.registry.violations_seen,
        "repairs": db.registry.repairs_performed,
        "wal_bytes": wal.offset(), "wal_flushes": wal.flushes,
    }


def counter_deltas(before: Dict[str, float], after: Dict[str, float]):
    return {name: after[name] - before[name] for name in before}


def user_bytes(rows: Iterable[Sequence[Any]]) -> int:
    """Bytes of user data: the rows as compact JSON."""
    return sum(len(json.dumps(list(row))) for row in rows)


def assert_clean_exit() -> None:
    """The last thing a workload process does: nothing may be left
    running.  A leftover is a benchmark failure, not a warning."""
    gc.collect()
    leftover = [
        thread for thread in threading.enumerate()
        if thread is not threading.main_thread()
    ]
    if leftover:
        raise RuntimeError(f"threads left running: {leftover}")
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    raise RuntimeError(f"child process left behind (waitpid -> {pid})")
