"""Checks of the scripts under tools/."""

import importlib.util
import json
import os
import subprocess
import sys
import threading

import pytest

TOOLS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools")
BENCH_PAIRS = os.path.join(TOOLS, "bench_pairs.py")


def _result(metrics, attempted=10, failed=0, correct=True):
    # the result line of one perfbench run
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def _load_bench_pairs(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script adds perfbench/
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS)
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    return bench_pairs


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


def test_bench_pairs_records_seeds_whose_digests_differ(tmp_path, monkeypatch, capsys):
    bench_pairs = _load_bench_pairs(monkeypatch)
    base, head = tmp_path / "base", tmp_path / "head"
    head.mkdir()
    (head / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "ops_per_s", "better": "higher", "bound": 0.24}]}))

    def run_once(root, workload, seed, seconds):
        # head's bytes differ on seed 2 of certify only
        changed = root == str(head) and workload == "certify" and seed == 2
        return {"seed": seed, "record": {"output_sha256": "b" if changed else "a"},
                "result": _result({"ops_per_s": {"unit": "1/s", "value": float(seed)}})}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "bench.json"
    bench_pairs.main(["--base", str(base), "--head", str(head), "--workloads",
                      "reduce-d64,certify", "--seeds", "1-3", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert doc["digest_mismatch"] == {"reduce-d64": [], "certify": [2]}
    lines = capsys.readouterr().out.splitlines()
    assert [line.endswith("DIGEST MISMATCH") for line in lines] == [False] * 4 + [True, False]


def test_bench_pairs_writes_win_counts_and_median_changes(tmp_path, monkeypatch, capsys):
    bench_pairs = _load_bench_pairs(monkeypatch)
    base, head = tmp_path / "base", tmp_path / "head"
    head.mkdir()
    (head / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.15},
        {"name": "ops_per_s", "better": "higher", "bound": 0.24},
    ]}))
    # base rss 100, 101, 102, 103; head is 12% lower except on seed 4, where
    # it loses; head ops/s are equal to base's on every seed
    values = {"base": {1: 100.0, 2: 101.0, 3: 102.0, 4: 103.0},
              "head": {1: 88.0, 2: 88.88, 3: 89.76, 4: 200.0}}

    def run_once(root, workload, seed, seconds):
        side = "head" if root == str(head) else "base"
        metrics = {"peak_rss_mb": {"unit": "MB", "value": values[side][seed]},
                   "ops_per_s": {"unit": "1/s", "value": 2.0}}
        return {"seed": seed, "record": {"output_sha256": "a"}, "result": _result(metrics)}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "bench.json"
    bench_pairs.main(["--base", str(base), "--head", str(head), "--workloads", "sweep-proj",
                      "--seeds", "1-4", "--out", str(out)])
    capsys.readouterr()
    pairs = json.loads(out.read_text())["pairs"]["sweep-proj"]
    assert pairs["peak_rss_mb"]["won"] == "3 of 4"
    # medians: base 101.5, head (88.88 + 89.76) / 2 = 89.32
    assert pairs["peak_rss_mb"]["median_change"] == pytest.approx(89.32 / 101.5 - 1)
    assert pairs["ops_per_s"] == {"won": "0 of 4", "median_change": 0.0, "bound": 0.24,
                                  "within_bound": True, "base_iqr": 0.0, "gain_shown": False}


@pytest.mark.parametrize("better, head_value, within", [
    ("lower", 114.9, True),  # 14.9% higher, inside a 0.15 bound
    ("lower", 115.1, False),  # 15.1% higher: worse beyond the bound
    ("lower", 50.0, True),
    ("higher", 85.1, True),  # 14.9% lower
    ("higher", 84.9, False),  # 15.1% lower: worse beyond the bound
    ("higher", 200.0, True),
])
def test_bench_pairs_marks_a_median_worse_beyond_its_bound(tmp_path, monkeypatch, capsys,
                                                           better, head_value, within):
    bench_pairs = _load_bench_pairs(monkeypatch)
    base, head = tmp_path / "base", tmp_path / "head"
    head.mkdir()
    (head / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "metric", "better": better, "bound": 0.15}]}))

    def run_once(root, workload, seed, seconds):
        value = head_value if root == str(head) else 100.0
        return {"seed": seed, "record": {"output_sha256": "a"},
                "result": _result({"metric": {"unit": "s", "value": value}})}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "bench.json"
    bench_pairs.main(["--base", str(base), "--head", str(head), "--workloads", "certify",
                      "--seeds", "1-2", "--out", str(out)])
    capsys.readouterr()
    entry = json.loads(out.read_text())["pairs"]["certify"]["metric"]
    assert entry["bound"] == 0.15
    assert entry["within_bound"] is within


@pytest.mark.parametrize("better, step, losses, shown", [
    ("higher", 6.0, 0, True),  # 10 of 10 won, medians 6 apart against an IQR of 5.5
    ("higher", 5.0, 0, False),  # 10 of 10 won, but 5 apart is inside the IQR
    ("higher", 6.0, 1, True),  # 9 of 10 won, medians 6 apart
    ("higher", 6.0, 2, False),  # 8 of 10 won, medians still 6 apart
    ("lower", 6.0, 0, True),
    ("lower", 5.0, 0, False),
    ("lower", 6.0, 1, True),
    ("lower", 6.0, 2, False),
])
def test_bench_pairs_shows_a_gain_only_on_9_of_10_pairs_beyond_the_base_iqr(
        tmp_path, monkeypatch, capsys, better, step, losses, shown):
    bench_pairs = _load_bench_pairs(monkeypatch)
    base, head = tmp_path / "base", tmp_path / "head"
    head.mkdir()
    (head / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "metric", "better": better, "bound": 0.24}]}))
    sign = 1.0 if better == "higher" else -1.0

    def run_once(root, workload, seed, seconds):
        # base reads 100 + seed, or 100 - seed for a lower-is-better metric
        # (IQR 5.5 either way); head is step better on every seed but the
        # first `losses`, where it is 1 worse
        shift = 0.0
        if root == str(head):
            shift = -1.0 if seed <= losses else step
        value = 100.0 + sign * (seed + shift)
        return {"seed": seed, "record": {"output_sha256": "a"},
                "result": _result({"metric": {"unit": "s", "value": value}})}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "bench.json"
    bench_pairs.main(["--base", str(base), "--head", str(head), "--workloads", "certify",
                      "--seeds", "1-10", "--out", str(out)])
    capsys.readouterr()
    entry = json.loads(out.read_text())["pairs"]["certify"]["metric"]
    assert entry["won"] == "%d of 10" % (10 - losses)
    assert entry["base_iqr"] == 5.5
    assert entry["gain_shown"] is shown


def test_bench_pairs_counts_failed_ops_and_flags_their_pairs(tmp_path, monkeypatch, capsys):
    bench_pairs = _load_bench_pairs(monkeypatch)
    base, head = tmp_path / "base", tmp_path / "head"
    head.mkdir()
    (head / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "ops_per_s", "better": "higher", "bound": 0.24}]}))

    def run_once(root, workload, seed, seconds):
        # base fails one of its 10 ops on seed 2; head fails none of its 20
        # but reads correct: false on seed 3
        side = "head" if root == str(head) else "base"
        failed = int(side == "base" and seed == 2)
        correct = not failed and not (side == "head" and seed == 3)
        return {"seed": seed, "record": {"output_sha256": "a"},
                "result": _result({"ops_per_s": {"unit": "1/s", "value": 1.0}},
                                  attempted=10 if side == "base" else 20, failed=failed,
                                  correct=correct)}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "bench.json"
    bench_pairs.main(["--base", str(base), "--head", str(head), "--workloads", "certify",
                      "--seeds", "1-4", "--out", str(out)])
    lines = capsys.readouterr().out.splitlines()
    assert [line.endswith("  FAILED OPS") for line in lines] == [False, True, True, False]
    pairs = json.loads(out.read_text())["pairs"]["certify"]
    assert pairs["failed_ops"] == "base 1 of 40, head 0 of 80"


TOY = """\
def sign(x):
    if x > 0:
        return 1
    return -1


def never():
    total = 0
    return total


class Box:
    def get(self):
        return [v for v in (1, 2)]
"""


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(TOOLS, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traffic_reports_the_lines_no_call_ran(tmp_path):
    traffic = _load_tool("traffic")
    path = tmp_path / "toy.py"
    path.write_text(TOY)
    spec = importlib.util.spec_from_file_location("toy", path)
    toy = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(toy)
    functions = traffic.function_lines(str(path))
    # def lines and the class body are not counted
    assert functions == {"sign": {2, 3, 4}, "never": {8, 9}, "Box.get": {14},
                         "Box.get.<locals>.<listcomp>": {14}}

    def call():
        # one branch here, the other in a thread the call starts
        toy.sign(1)
        worker = threading.Thread(target=toy.Box().get)
        worker.start()
        worker.join()

    before = sys.gettrace(), threading.gettrace()
    hits = traffic.traced([str(path)], call)
    assert hits == {str(path): {2, 3, 14}}
    assert (sys.gettrace(), threading.gettrace()) == before
    assert traffic.report("toy.py", functions, hits[str(path)]) == [
        "toy.py: 3 of 7 lines in functions unrun",
        "  sign: 4",
        "  never: 8-9 (never called)",
    ]
