"""Restore the global parallel configuration around every test."""

from __future__ import annotations

import pytest

from repro import parallel


@pytest.fixture(autouse=True)
def restore_parallel_config():
    workers = parallel.get_num_workers()
    min_rows = parallel.get_min_parallel_rows()
    yield
    parallel.set_num_workers(workers)
    parallel.set_min_parallel_rows(min_rows)
