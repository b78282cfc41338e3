"""Tier-1 runs in-process work at one BLAS thread from the start, as the CLI
does, so no result depends on which test first calls cli.main."""

from nullstream import linalg


def pytest_configure(config):
    linalg.use_one_blas_thread()
