"""Literal exact-count golden record; regenerate with
``PYTHONPATH=src python -m tests.goldens.count_golden``.
"""

RECORD = {
    'statements': 262,
    'commits': 182,
    'wal_bytes': 33897,
    'wal_flushes': 182,
    'page_reads': 953,
    'page_writes': 794,
    'violations': 9,
    'repairs': 8,
    'shipped_bytes': 33897,
    'wal_bytes_per_stmt': 129.3779,
    'page_reads_per_stmt': 3.6374,
    'page_writes_per_stmt': 3.0305,
    'flushes_per_commit': 1.0,
    'shipped_bytes_per_commit': 186.2473,
}
