"""perfbench's traced runs rebind module-level names of nullstream (see
perfbench/spans.py: `patched` raises when its target name is gone). Entering
each workload's patches here, without running an op, makes a refactor that
drops or renames one of those names fail tier-1 rather than the traced
benchmark."""

import contextlib
import importlib
import os

import pytest

import nullstream.algorithms
import nullstream.cli
import nullstream.instances

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PATCHED_MODULES = (nullstream.algorithms, nullstream.cli, nullstream.instances)
WORKLOAD_NAMES = ["certify", "reduce-d64", "sweep-proj"]


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    return importlib.import_module("workloads"), importlib.import_module("spans")


def test_every_workload_is_checked(perfbench):
    assert sorted(perfbench[0].WORKLOADS) == WORKLOAD_NAMES


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced_patches_find_their_targets_and_restore_them(perfbench, tmp_path, name):
    workloads, spans = perfbench
    before = [dict(vars(module)) for module in PATCHED_MODULES]
    workload = workloads.WORKLOADS[name](7, str(tmp_path), ROOT)
    with contextlib.ExitStack() as stack:
        workload.tracing(stack, spans.Tracer())
        if name == "sweep-proj":
            assert nullstream.cli.build_algorithm is not before[1]["build_algorithm"]
    assert [dict(vars(module)) for module in PATCHED_MODULES] == before
