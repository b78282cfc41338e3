"""The benchmark's own tests.

Run from the root of a checkout:  python3 -m pytest -q perfbench/tests
"""

import contextlib
import io
import json
import os
import statistics

import pytest

import layers
import run
import workloads
from spans import Tracer


def op_self_times(tracer):
    """(root duration, sum of self times in its tree) for each "op" root."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    root_of = list(range(len(spans)))
    for i, (_, parent, start, end) in enumerate(spans):
        if parent >= 0:
            root_of[i] = root_of[parent]
            child_time[parent] += end - start
    sums = {}
    for i, (_, _, start, end) in enumerate(spans):
        sums[root_of[i]] = sums.get(root_of[i], 0.0) + (end - start) - child_time[i]
    return [(spans[r][3] - spans[r][2], s) for r, s in sorted(sums.items()) if spans[r][0] == "op"]


def _digest(seed, tmp_path, ops=3):
    runner = run.Runner(workloads.ReduceD64(seed, str(tmp_path), run.ROOT))
    for i in range(ops):
        assert runner.op(i) is None
    return runner.digest()


def test_same_seed_gives_same_digest(tmp_path):
    first = _digest(11, tmp_path)
    assert _digest(11, tmp_path) == first
    assert _digest(12, tmp_path) != first


def test_traced_self_times_sum_to_op_time(tmp_path):
    runner = run.Runner(workloads.ReduceD64(5, str(tmp_path), run.ROOT))
    tracer = Tracer()
    runner.loop(1.5, tracer)
    sources = [("own", tracer)]
    metrics, _ = run.per_layer(runner, sources)
    overhead = abs(metrics["trace.overhead_ms_per_op"][0]) / 1e3
    trees = op_self_times(tracer)
    traced = [t for t, on in zip(runner.latencies, runner.traced) if on]
    untraced = [t for t, on in zip(runner.latencies, runner.traced) if not on]
    assert len(trees) == len(traced) >= 2 and untraced
    for (root, self_sum), latency in zip(trees, traced):
        # every instant of an op is in exactly one span's self time
        assert self_sum == pytest.approx(root, abs=1e-9)
        assert 0.0 <= root - latency < 1e-3
    gap = abs(statistics.median(s for _, s in trees) - statistics.median(untraced))
    assert gap <= overhead + 1e-3


class FailingReduce(workloads.ReduceD64):
    def run(self, inputs, tracer):
        if inputs[0] % 2:
            raise RuntimeError("injected failure")
        return super().run(inputs, tracer)


def test_injected_failing_op_raises_fail_frac(monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "reduce-d64", FailingReduce)
    monkeypatch.setattr(run, "setup_child", lambda args: 0.0)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(["--workload", "reduce-d64", "--seed", "3", "--seconds", "1"]) == 0
    lines = out.getvalue().splitlines()
    result = json.loads(lines[-1])
    record = json.loads(next(l for l in lines if l.startswith("record "))[len("record "):])
    assert result["failed"] >= 1 and result["correct"] is False
    assert record["fail_frac"] == result["failed"] / result["attempted"] > 0


def test_tail_has_ten_ops_beyond_or_falls_back_to_median():
    xs = [float(i) for i in range(1, 41)]
    assert run.tail(xs) == (30.0, 75.0, 10)
    assert run.tail(xs[:5]) == (3.0, 50.0, 2)


def test_benchmark_json_lists_the_metrics_the_run_prints():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    per_layer = [(n, u, b) for n, u, b, _ in layers.per_layer_metrics(workloads.CERT_TRIALS)]
    per_layer.append(("trace.overhead_ms_per_op", "ms", "lower"))
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == per_layer
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
