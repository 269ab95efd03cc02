"""The repo benchmark: wall-clock statement cost on four workloads, with an
outside-in per-layer trace.

Driver form (one workload, one process, one JSON line last on stdout)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Without ``--workload`` every workload runs, untraced then traced, each in
a subprocess of its own, every metric is printed by name with its unit and
the results are written under ``bench/out/``.  ``--smoke`` is the same at
toy size; ``--selfcheck`` runs the whole set twice and fails when the two
disagree by more than the benchmark's own bounds.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import compare
import harness

WORKLOADS = ["corpus_scan", "template_point", "write_maintain", "wire_oltp"]

#: A workload subprocess that has not finished by then is hung: it is
#: killed with its process group and reported as a failure.
WORKLOAD_TIMEOUT_S = 170


# ----------------------------------------------------------- one workload


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> Dict[str, Any]:
    """Set up, check, measure and check again; returns the result record."""
    harness.use_checkout_sources()
    module = importlib.import_module(f"workloads.{name}")
    workload = module.Workload(seed, smoke)
    record: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "inputs_sha256": harness.inputs_sha256(workload.inputs()),
    }
    attempted = failed = 0
    try:
        # The traced run reports no setup_s, so it sets up once.
        setup_times: List[float] = []
        while not setup_times or (
            not trace and workload.sizing.another_setup(setup_times)
        ):
            workload.teardown()
            gc.collect()
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
        tried, bad = workload.check_before()
        attempted, failed = attempted + tried, failed + bad
        if trace:
            tracer = harness.Tracer()
            layers = {layer: 0.0 for layer in harness.LAYER_UNITS}
            measured = workload.trace(tracer)
            unknown = set(measured) - set(layers)
            if unknown:
                raise RuntimeError(f"unnamed per-layer metrics: {unknown}")
            layers.update(measured)
            tracer.write(harness.OUT_DIR / f"trace-{name}.jsonl")
            record["spans"] = len(tracer.spans)
            record["metrics"] = {
                layer: {"value": value, "unit": harness.LAYER_UNITS[layer]}
                for layer, value in layers.items()
            }
        else:
            blocks, tried, bad = workload.run(seconds)
            attempted, failed = attempted + tried, failed + bad
            spread = harness.end_to_end_metrics(
                harness.group_blocks(blocks, workload.sizing), setup_times
            )
            record["blocks"] = len(blocks)
            record["statements_timed"] = tried
            record["quartiles"] = spread
            record["metrics"] = {
                metric: {
                    "value": spread[metric]["median"],
                    "unit": harness.E2E_UNITS[metric],
                }
                for metric in harness.E2E_UNITS
            }
        tried, bad = workload.check_after()
        attempted, failed = attempted + tried, failed + bad
    finally:
        workload.teardown()
    record.update(
        correct=failed == 0, attempted=attempted, failed=failed,
        fail_ratio=failed / attempted,
    )
    return record


def detail_path(name: str, seed: int, trace: int, smoke: bool) -> Path:
    """Where a workload process leaves its full record (quartiles, inputs
    digest, counts) beside the one line it prints."""
    size = "smoke-" if smoke else ""
    return harness.OUT_DIR / f"{size}{name}-seed{seed}-trace{trace}.json"


def workload_main(args: argparse.Namespace) -> int:
    record = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
    )
    harness.assert_clean_exit()
    harness.OUT_DIR.mkdir(parents=True, exist_ok=True)
    detail = detail_path(args.workload, args.seed, args.trace, args.smoke)
    detail.write_text(json.dumps(record, indent=1) + "\n")
    print(
        json.dumps(
            {
                key: record[key]
                for key in ("correct", "attempted", "failed", "metrics")
            }
        )
    )
    return 0 if record["correct"] else 1


# ------------------------------------------------------------ the whole set


def run_in_subprocess(name: str, seed: int, seconds: float, trace: int,
                      smoke: bool) -> Dict[str, Any]:
    """One workload in a process of its own (its own ``ru_maxrss``); a
    hung one is killed with its whole process group."""
    command = [
        sys.executable, str(harness.BENCH_DIR / "run.py"),
        "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if smoke:
        command.append("--smoke")
    detail = detail_path(name, seed, trace, smoke)
    detail.unlink(missing_ok=True)
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        process.communicate(timeout=WORKLOAD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise RuntimeError(f"{name} hung past {WORKLOAD_TIMEOUT_S}s; killed")
    if not detail.exists():
        raise RuntimeError(f"{name} exited {process.returncode}, no result")
    return json.loads(detail.read_text())


def run_all(seed: int, seconds: float, smoke: bool) -> Dict[str, Any]:
    results: Dict[str, Any] = {"seed": seed, "seconds": seconds,
                               "smoke": smoke, "workloads": {}}
    for name in WORKLOADS:
        untraced = run_in_subprocess(name, seed, seconds, 0, smoke)
        traced = run_in_subprocess(name, seed, seconds, 1, smoke)
        results["workloads"][name] = {
            "inputs_sha256": untraced["inputs_sha256"],
            "correct": untraced["correct"] and traced["correct"],
            "attempted": untraced["attempted"] + traced["attempted"],
            "failed": untraced["failed"] + traced["failed"],
            "end_to_end": untraced["metrics"],
            "quartiles": untraced["quartiles"],
            "per_layer": traced["metrics"],
        }
    return results


def print_results(results: Dict[str, Any]) -> None:
    for name, entry in results["workloads"].items():
        print(f"== {name}  (inputs {entry['inputs_sha256'][:12]}, "
              f"failed {entry['failed']}/{entry['attempted']})")
        for metric, value in entry["end_to_end"].items():
            spread = entry["quartiles"][metric]
            print(
                f"  {metric:<34}{value['value']:>14.4f} {value['unit']:<7}"
                f" [q1 {spread['q1']:.4f}, q3 {spread['q3']:.4f}]"
            )
        for metric, value in entry["per_layer"].items():
            print(f"  {metric:<34}{value['value']:>14.4f} {value['unit']}")


def all_main(args: argparse.Namespace) -> int:
    runs = 2 if args.selfcheck else 1
    written: List[Path] = []
    failed = False
    for run in range(runs):
        results = run_all(args.seed, args.seconds, args.smoke)
        print_results(results)
        label = "smoke" if args.smoke else f"seed{args.seed}"
        suffix = f"-{'ab'[run]}" if args.selfcheck else ""
        path = harness.OUT_DIR / f"results-{label}{suffix}.json"
        path.write_text(json.dumps(results, indent=1) + "\n")
        written.append(path)
        failed |= not all(
            entry["correct"] for entry in results["workloads"].values()
        )
    if args.selfcheck:
        # Two runs of one checkout must agree within the benchmark's own
        # bounds, or no bound means anything.
        a, b = (json.loads(path.read_text()) for path in written)
        rows = compare.compare(a, b, compare.manifest_metrics())
        print(compare.render(rows))
        failed |= any(row["gap"] > row["bound"] for row in rows)
    for path in written:
        print(f"wrote {path.relative_to(harness.ROOT)}")
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes, seconds total")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the set twice; fail if they disagree")
    args = parser.parse_args(argv)
    if args.seconds is None:
        manifest = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
        args.seconds = 1.0 if args.smoke else float(manifest["run_seconds"])
    if args.workload:
        return workload_main(args)
    return all_main(args)


if __name__ == "__main__":
    sys.exit(main())
