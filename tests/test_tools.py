"""Argument checks of the scripts under tools/."""

import os
import subprocess
import sys

import pytest

BENCH_PAIRS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools", "bench_pairs.py")


@pytest.mark.parametrize("seeds", ["1", "4-4", "3-2"])
def test_bench_pairs_refuses_fewer_than_two_seeds(tmp_path, seeds):
    # neither checkout exists, so any run or file read would fail otherwise
    missing = str(tmp_path / "missing")
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, BENCH_PAIRS, "--base", missing, "--head", missing,
         "--workloads", "certify", "--seeds", seeds, "--seconds", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "at least 2" in proc.stderr
    assert proc.stdout == ""
    assert not out.exists()
