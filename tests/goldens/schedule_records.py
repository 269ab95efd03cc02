"""Literal schedule golden records; regenerate with
``PYTHONPATH=src python -m tests.goldens.schedule_golden``.
"""

RECORDS = {
    'crash_census': {
        7: {'wal_append': 91, 'page_flush': 6, 'checkpoint_write': 2, 'catalog_serialize': 2},
        23: {'wal_append': 101, 'page_flush': 6, 'checkpoint_write': 2, 'catalog_serialize': 2},
        1009: {'wal_append': 102, 'page_flush': 6, 'checkpoint_write': 2, 'catalog_serialize': 2},
    },
    'concurrent_census': {
        7: [6, 6, 6, 7, 8, 9, 11, 12, 12, 12, 12, 13, 14, 15, 17, 18, 18, 18, 18, 19, 20, 21, 23, 24],
        23: [6, 6, 6, 7, 8, 9, 11, 12, 12, 12, 12, 13, 14, 15, 17, 18, 18, 18, 18, 19, 20, 21, 23, 24],
        1009: [6, 6, 6, 7, 8, 9, 11, 12, 12, 12, 12, 13, 14, 15, 17, 18, 18, 18, 18, 19, 20, 21, 23, 24],
    },
    'chaos': {
        '7/0': {'injected': {'index_probe/transient': 1, 'page_read/corrupt': 2, 'page_read/transient': 4}, 'clock_now': 0.007},
        '7/32': {'injected': {'index_probe/transient': 1, 'page_read/corrupt': 2, 'page_read/transient': 4}, 'clock_now': 0.007},
        '23/0': {'injected': {'index_probe/transient': 1, 'page_read/corrupt': 2, 'page_read/transient': 4}, 'clock_now': 0.007},
        '23/32': {'injected': {'index_probe/transient': 1, 'page_read/corrupt': 2, 'page_read/transient': 4}, 'clock_now': 0.007},
        '1009/0': {'injected': {'page_read/corrupt': 3, 'page_read/transient': 6}, 'clock_now': 0.01},
        '1009/32': {'injected': {'page_read/corrupt': 3, 'page_read/transient': 6}, 'clock_now': 0.01},
    },
}
