"""Fixtures shared by more than one test module."""

import time

import pytest

from stgl.cli import main


@pytest.fixture(scope="session")
def gyre_cli_run(tmp_path_factory):
    """One ``stgl gyre --k 2 --seed 1`` run (gen-seed 0, 10 views, no
    self-loops): its output directory, exit code and wall time in seconds."""
    out = tmp_path_factory.mktemp("gyre")
    start = time.perf_counter()
    code = main(["gyre", "--k", "2", "--seed", "1", "--out", str(out)])
    return out, code, time.perf_counter() - start
