"""Smoke test of the repo benchmark: ``PYTHONPATH=src python -m pytest -q bench/``.

Runs the whole set once at toy size (``run.py --smoke``, well under 30 s)
and holds the output to the contract later PRs rely on: every metric named
in ``BENCHMARK.json`` is printed, finite and carries its unit; inputs are a
function of the seed; every span has a parent that exists and a
non-negative self time.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def smoke():
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--seed", "0"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    results = json.loads((harness.OUT_DIR / "results-smoke.json").read_text())
    return done.stdout, results


def manifest():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_manifest_lists_exactly_the_benchmarks_metrics():
    listed = manifest()
    assert [w["name"] for w in listed["workloads"]] == run.WORKLOADS
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in listed["end_to_end"]
    ] == harness.END_TO_END
    assert [
        (m["name"], m["unit"], m["better"]) for m in listed["per_layer"]
    ] == harness.PER_LAYER
    assert listed["paths"] == ["bench"]
    assert listed["command"] == ["python3", "bench/run.py"]
    for name in list(harness.E2E_UNITS) + list(harness.LAYER_UNITS):
        assert NAME.match(name), name
    assert all(0 < m["bound"] <= 0.25 for m in listed["end_to_end"])


def test_every_metric_is_reported_finite_with_its_unit(smoke):
    stdout, results = smoke
    assert list(results["workloads"]) == run.WORKLOADS
    for workload, entry in results["workloads"].items():
        assert entry["correct"] and entry["failed"] == 0, workload
        assert entry["attempted"] >= 1
        for section, units in (
            ("end_to_end", harness.E2E_UNITS),
            ("per_layer", harness.LAYER_UNITS),
        ):
            assert set(entry[section]) == set(units), (workload, section)
            for name, value in entry[section].items():
                assert value["unit"] == units[name]
                assert math.isfinite(value["value"]), (workload, name)
                # A difference of two medians may dip below zero by noise.
                assert value["value"] >= 0 or name.endswith(
                    ("overhead_ms", "contention_ms")
                ), (workload, name)
                assert name in stdout
        for name in harness.E2E_UNITS:
            assert entry["end_to_end"][name]["value"] > 0, (workload, name)


def test_each_workload_times_the_layer_it_is_there_for(smoke):
    layers = {
        name: {k: v["value"] for k, v in entry["per_layer"].items()}
        for name, entry in smoke[1]["workloads"].items()
    }
    for name in run.WORKLOADS:
        assert layers[name]["sql.parse_ms"] > 0
        assert layers[name]["executor.execute_ms"] > 0
        assert layers[name]["trace.overhead_ratio"] > 0
    for name in ("corpus_scan", "template_point"):
        assert layers[name]["softcon.wall_speedup"] > 0
        assert layers[name]["optimizer.rewrite_fired_ratio"] > 0
    assert layers["write_maintain"]["softcon.violations"] > 0
    assert layers["write_maintain"]["durability.wal_bytes_per_stmt"] > 0
    assert layers["write_maintain"]["replication.shipped_bytes_per_commit"] > 0
    assert layers["wire_oltp"]["concurrency.wire_self_ms"] > 0
    assert layers["wire_oltp"]["concurrency.commits_per_flush"] >= 1


def test_inputs_are_a_function_of_the_seed(smoke):
    harness.use_checkout_sources()
    import importlib

    for name in run.WORKLOADS:
        module = importlib.import_module(f"workloads.{name}")

        def digest(seed):
            return harness.inputs_sha256(module.Workload(seed, True).inputs())

        recorded = smoke[1]["workloads"][name]["inputs_sha256"]
        assert re.fullmatch(r"[0-9a-f]{64}", recorded)
        assert digest(0) == recorded
        assert digest(0) == digest(0)
        assert digest(0) != digest(1)


def test_spans_have_parents_and_non_negative_self_time(smoke):
    for name in run.WORKLOADS:
        path = harness.OUT_DIR / f"trace-{name}.jsonl"
        spans = [json.loads(line) for line in path.read_text().splitlines()]
        assert spans, name
        by_id = {span["id"]: span for span in spans}
        own = {span["id"]: span["end"] - span["start"] for span in spans}
        for span in spans:
            assert span["end"] >= span["start"], span
            if span["parent"] is not None:
                assert span["parent"] in by_id, span
                own[span["parent"]] -= span["end"] - span["start"]
        # A clock read costs more than this; anything lower is a child
        # that ran outside its parent.
        assert min(own.values()) > -1e-6, name


def test_nothing_is_left_behind(smoke):
    leftovers = [p.name for p in harness.OUT_DIR.glob("tmp-*")]
    assert leftovers == []
