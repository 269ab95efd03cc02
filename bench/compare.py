"""Compare two result files of ``bench/run.py``::

    python3 bench/compare.py A.json B.json

One row per workload and end-to-end metric: both medians, both
inter-quartile ranges (across the run's repetitions), the bound from
``BENCHMARK.json`` and a verdict.  A is the base of every ratio.

``regressed``   B is worse than A by more than the bound
``improved``    B is better than A by more than the bound
``unchanged``   the medians are within the bound of each other
``unresolved``  either side's spread is wider than the bound, so the
                comparison cannot tell — not the same as unchanged
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent


def manifest_metrics() -> Dict[str, Dict[str, Any]]:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry for entry in manifest["end_to_end"]}


def compare(a: Dict[str, Any], b: Dict[str, Any],
            metrics: Dict[str, Dict[str, Any]]) -> List[Dict[str, Any]]:
    rows = []
    for workload, entry_a in a["workloads"].items():
        entry_b = b["workloads"][workload]
        for metric, spec in metrics.items():
            qa = entry_a["quartiles"][metric]
            qb = entry_b["quartiles"][metric]
            bound = spec["bound"]
            ratio = qb["median"] / qa["median"]
            worse = ratio - 1.0 if spec["better"] == "lower" else 1.0 - ratio
            spread = max(
                (qa["q3"] - qa["q1"]) / qa["median"],
                (qb["q3"] - qb["q1"]) / qb["median"],
            )
            if spread > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regressed"
            elif worse < -bound:
                verdict = "improved"
            else:
                verdict = "unchanged"
            rows.append(
                {
                    "workload": workload, "metric": metric,
                    "unit": spec["unit"],
                    "a": qa["median"], "a_iqr": qa["q3"] - qa["q1"],
                    "b": qb["median"], "b_iqr": qb["q3"] - qb["q1"],
                    "ratio": ratio, "gap": abs(ratio - 1.0),
                    "bound": bound, "verdict": verdict,
                }
            )
    return rows


def render(rows: List[Dict[str, Any]]) -> str:
    lines = [
        f"{'workload':<15}{'metric':<17}{'A median':>12}{'A iqr':>10}"
        f"{'B median':>12}{'B iqr':>10}  {'B/A':>6} {'bound':>6}  verdict"
    ]
    for row in rows:
        lines.append(
            f"{row['workload']:<15}{row['metric']:<17}{row['a']:>12.4f}"
            f"{row['a_iqr']:>10.4f}{row['b']:>12.4f}{row['b_iqr']:>10.4f}"
            f"  {row['ratio']:>6.3f} {row['bound']:>6.2f}  {row['verdict']}"
            f" ({row['unit']}, base A)"
        )
    return "\n".join(lines)


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    for name, entry in a["workloads"].items():
        other = b["workloads"][name]["inputs_sha256"]
        if entry["inputs_sha256"] != other:
            print(f"note: {name} ran different inputs on the two sides")
    rows = compare(a, b, manifest_metrics())
    print(render(rows))
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
