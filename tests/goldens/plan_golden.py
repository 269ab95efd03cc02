"""The plan golden: what the optimizer plans for every corpus query, and
what that plan reads and returns.

Every query of ``generate_corpus(seed=11)`` over
``build_tpc_db(scale_factor=0.15, seed=7)`` (the corpus differential's
fixture) is planned twice, under the default configuration and under
:func:`~repro.harness.runner.all_off`, and executed on the production
executor.  Each record holds the EXPLAIN text (compile-cache counts
masked: they depend on what ran before), the rewrites applied, the
soft constraints the plan depends on, the root estimate, the pages read
and the result checksum.  ``tests/goldens/test_plan_golden.py`` holds
the optimizer to the literal records in ``plan_records.py``.

Regenerate the records with::

    PYTHONPATH=src python -m tests.goldens.plan_golden

A change that moves a record says which plans moved and why.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Any, Dict, Iterator, Tuple

from repro.corpus.generator import CorpusQuery, generate_corpus
from repro.harness.classify import result_checksum
from repro.harness.runner import all_off
from repro.optimizer.explain import explain
from repro.optimizer.planner import Optimizer
from repro.workload.tpc import build_tpc_db

CORPUS_SEED = 11
CONFIGS = ("default", "all_off")
RECORDS_PATH = Path(__file__).with_name("plan_records.py")

_COMPILE_CACHE = re.compile(r"compile cache: \d+ hits, \d+ misses")


def build_db():
    return build_tpc_db(scale_factor=0.15, seed=7)


def optimizers(db) -> Dict[str, Optimizer]:
    return {
        "default": db.optimizer,
        "all_off": Optimizer(db.database, db.registry, all_off()),
    }


def cases() -> Iterator[Tuple[str, CorpusQuery, str]]:
    """(record key, query, config name) for every recorded pair."""
    for query in generate_corpus(seed=CORPUS_SEED):
        for config in CONFIGS:
            yield f"{query.query_id}-{query.family}/{config}", query, config


def record(db, optimizer: Optimizer, sql: str) -> Dict[str, Any]:
    plan = optimizer.optimize(sql)
    result = db.executor.execute(plan)
    text = _COMPILE_CACHE.sub("compile cache: masked", explain(plan))
    return {
        "explain": tuple(text.split("\n")),
        "rewrites": tuple(plan.rewrites_applied),
        "sc_dependencies": tuple(sorted(plan.sc_dependencies)),
        "estimate": float(f"{plan.estimated_rows:.12g}"),
        "page_reads": result.page_reads,
        "checksum": result_checksum(result.tuples()),
    }


def _format(records: Dict[str, Dict[str, Any]]) -> str:
    lines = [
        '"""Literal plan golden records; regenerate with',
        "``PYTHONPATH=src python -m tests.goldens.plan_golden``.",
        '"""',
        "",
        "RECORDS = {",
    ]
    for key, fields in records.items():
        lines.append(f"    {key!r}: {{")
        for name, value in fields.items():
            if isinstance(value, tuple):
                lines.append(f"        {name!r}: (")
                lines.extend(f"            {item!r}," for item in value)
                lines.append("        ),")
            else:
                lines.append(f"        {name!r}: {value!r},")
        lines.append("    },")
    lines.append("}")
    return "\n".join(lines) + "\n"


def main() -> None:
    db = build_db()
    chosen = optimizers(db)
    records = {
        key: record(db, chosen[config], query.sql)
        for key, query, config in cases()
    }
    RECORDS_PATH.write_text(_format(records))
    print(f"wrote {len(records)} records to {RECORDS_PATH}")


if __name__ == "__main__":
    main()
