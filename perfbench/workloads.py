"""The three benchmark workloads.

Every workload is a closed loop with one client: the next op starts when the
previous one has returned.  An op is split in three so that only the call
into nullstream is timed:

  stage(i)            builds op i's inputs from the workload seed (untimed);
  run(inputs, tracer) the op itself (timed; tracer is None when untraced);
  check(inputs, raw)  validates the outputs and returns an OpCheck (untimed).

Op i draws its inputs from op_seed(seed, i) only, so the same workload seed
gives the same inputs.  Why each workload exists is recorded in README.md.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

import nullstream.algorithms as ns_algorithms
import nullstream.cli as ns_cli
import nullstream.instances as ns_instances
from nullstream.algorithms import OfflineLstsqSolver, OfflineSeparatorSolver
from nullstream.config import Constants
from nullstream.instances import anv_loss, conditioned_acceptance_stats, gen_anv_conditioned, gen_lsp_margin
from nullstream.reductions import ReductionConfig, anv_via_lr, anv_via_lsp
from nullstream.serialize import instance_from_json, instance_to_json, report_to_json
from nullstream.streaming import one_pass_to_protocol, run_one_pass_stats, run_protocol
from nullstream.verification import (
    certify_no_joint_sol,
    certify_sandwich,
    comorth_check,
    singular_value_experiment,
    sphere_concentration_test,
    sphere_marginal_tests,
)

from spans import Tracer, TracedAlgorithm, maybe_span, patched, timed

# criterion-6 size: d=1024, m=1000, margin 0.3, and the proj-separator state
# at its defaults (d'=600, 600 slots, 16-bit coordinates): 64 + 600 + 600*600*16
LSP_D, LSP_M, LSP_GAMMA = 1024, 1000, 0.3
PROJ_BUDGET = 5_760_664
PROJ_ERROR_BAR = 0.1

ANV_D = 64
CONSTANTS = Constants()
# budgets from the state layouts in the OfflineSeparatorSolver and
# OfflineLstsqSolver docstrings, at d=64 with 2(d-1) labeled points
LSP_BUDGET = 64 + 64 * 2 * (ANV_D - 1) * (ANV_D + 1)
LR_BUDGET = 64 + 64 * (ANV_D * (ANV_D + 1) // 2 + ANV_D)

# certificate sizes are the acceptance dimensions; trial counts are the
# acceptance ones except the singular-value experiment (1000 there), cut so
# one cycle stays under a second.  Thresholds are the CLI's defaults.
CERT_TRIALS = {
    "no_joint_sol": 50,
    "sandwich": 100,
    "singular": 50,
    "comorth": 100,
}
MARGINAL_SAMPLES = 100_000
CONCENTRATION_TRIALS = 10_000
JOINT_DELTA, SANDWICH_T, SINGULAR_T, MARGINAL_CF = 0.5, 0.2, 3.0, 0.2

ACCEPT_ATTEMPTS = 400
EXPERIMENT_HEADER = ["trial", "seed", "status", "state_bits", "loss", "error", "margin"]


def child_env(root: str) -> dict:
    """This process's environment (BLAS thread variables included) with the
    checkout's src first on the module path."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def op_seed(seed: int, i: int) -> int:
    digest = hashlib.sha256(b"%d|%d" % (seed, i)).digest()
    return int.from_bytes(digest[:4], "big") >> 1


@dataclass
class OpCheck:
    """failure: why the op counts as failed, or None; quality_miss: the output
    misses its quality bar; output: the bytes that go into the digest."""

    failure: str | None
    quality_miss: bool
    output: bytes


# ---------------------------------------------------------------------------
# tracing hooks


def _record_run(tracer: Tracer, samples, budget_bits, stats):
    steps = len(samples)
    tracer.add("streaming.run_steps", steps)
    tracer.add("streaming.state_bytes_x_steps", steps * ((budget_bits + 7) // 8))
    if stats.max_used_bits is not None:
        tracer.add("streaming.max_used_bits", stats.max_used_bits)


def traced_run_one_pass_stats(tracer: Tracer, run):
    def wrapper(alg, samples, budget_bits, *args, **kwargs):
        with tracer.span("streaming.run"):
            out, stats = run(alg, samples, budget_bits, *args, **kwargs)
        _record_run(tracer, samples, budget_bits, stats)
        return out, stats

    return wrapper


def traced_perceptron(tracer: Tracer):
    with_stats = ns_algorithms.perceptron_with_stats

    def make(_original):
        def perceptron(points, max_passes):
            with tracer.span("algorithms.perceptron"):
                w, updates = with_stats(points, max_passes)
            tracer.add("algorithms.perceptron_updates", updates)
            return w

        return perceptron

    return make


def algorithm_patches(stack: contextlib.ExitStack, tracer: Tracer):
    stack.enter_context(patched(ns_algorithms, "perceptron", traced_perceptron(tracer)))
    stack.enter_context(patched(ns_algorithms, "orthonormalize",
                                lambda f: timed(tracer, "linalg.orthonormalize", f)))


def cli_patches(stack: contextlib.ExitStack, tracer: Tracer, proxies: list):
    """Spans around the public calls `nullstream experiment` makes, plus the
    algorithm-level patches.  Proxies built by build_algorithm land in
    `proxies` so the caller can replay their projection matvecs."""

    def build(original):
        def build_algorithm(*args, **kwargs):
            alg = TracedAlgorithm(original(*args, **kwargs), tracer, "algorithms")
            proxies.append(alg)
            return alg

        return build_algorithm

    for name, span in (
        ("gen_lsp_margin", "instances.gen"),
        ("shuffle", "streaming.shuffle"),
        ("classification_error", "instances.eval"),
        ("margin_of", "instances.eval"),
    ):
        stack.enter_context(patched(ns_cli, name, lambda f, s=span: timed(tracer, s, f)))
    stack.enter_context(patched(ns_cli, "build_algorithm", build))
    stack.enter_context(patched(ns_cli, "run_one_pass_stats",
                                lambda f: traced_run_one_pass_stats(tracer, f)))
    algorithm_patches(stack, tracer)


def replay_matvecs(tracer: Tracer, proxies: list):
    for alg in proxies:
        if alg.watch_projection:
            seconds, steps = alg.replay_matvec()
            tracer.add("algorithms.matvec_s", seconds)
            tracer.add("algorithms.matvec_steps", steps)
    proxies.clear()


def _error_quality(row: dict):
    """(failure, quality_miss) for a proj-separator CSV row."""
    try:
        error = float(row["error"])
        bits = int(row["state_bits"])
    except (KeyError, ValueError) as exc:
        return "malformed row %r: %s" % (row, exc), False
    if not 0.0 <= error <= 1.0:
        return "error %r outside [0, 1]" % error, False
    if not 0 < bits <= PROJ_BUDGET:
        return "state bits %d outside (0, %d]" % (bits, PROJ_BUDGET), False
    return None, error > PROJ_ERROR_BAR


def _read_single_row(text: str, header: list):
    lines = list(csv.reader(io.StringIO(text)))
    if len(lines) != 2 or lines[0] != header:
        raise ValueError("expected a header and one row, got %d lines" % len(lines))
    return dict(zip(header, lines[1]))


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""
    quality_allowance = 0.0

    def __init__(self, seed: int, workdir: str, root: str):
        self.seed = int(seed)
        self.workdir = workdir
        self.root = root

    def tracing(self, stack: contextlib.ExitStack, tracer: Tracer):
        """Enter the patches a traced op needs."""

    def after_traced(self, inputs, raw, tracer: Tracer):
        """Trace-only work that runs after the op span has closed."""

    def cleanup(self, inputs):
        pass


class SweepProj(Workload):
    name = "sweep-proj"
    # the acceptance gate allows 2 of 20 proj-separator seeds over the bar
    quality_allowance = 0.1

    def __init__(self, seed, workdir, root):
        super().__init__(seed, workdir, root)
        self.proxies = []

    def stage(self, i):
        spec = {
            "problem": "lsp-margin",
            "params": {"d": LSP_D, "m": LSP_M, "gamma": LSP_GAMMA,
                       "algorithm": "proj-separator", "budget_bits": PROJ_BUDGET},
            "trials": 1,
            "seed": op_seed(self.seed, i),
            "order": "shuffled",
        }
        spec_path = os.path.join(self.workdir, "spec-%d.json" % i)
        out_path = os.path.join(self.workdir, "rows-%d.csv" % i)
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        return spec_path, out_path

    def run(self, inputs, tracer):
        spec_path, out_path = inputs
        with contextlib.redirect_stdout(io.StringIO()), maybe_span(tracer, "cli.main"):
            return ns_cli.main(["experiment", "--spec", spec_path, "--out", out_path])

    def tracing(self, stack, tracer):
        cli_patches(stack, tracer, self.proxies)

    def after_traced(self, inputs, raw, tracer):
        replay_matvecs(tracer, self.proxies)
        spec_path, out_path = inputs
        out = io.StringIO()
        with contextlib.redirect_stdout(out), tracer.span("cli.resume"):
            rc = ns_cli.main(["experiment", "--spec", spec_path, "--out", out_path])
        if rc != 0 or not out.getvalue().startswith("0 rows appended"):
            raise RuntimeError("resume of a finished spec did not append 0 rows")

    def check(self, inputs, rc):
        if rc != 0:
            return OpCheck("experiment exited %r" % rc, False, b"")
        with open(inputs[1], "rb") as fh:
            data = fh.read()
        try:
            row = _read_single_row(data.decode("utf-8"), EXPERIMENT_HEADER)
        except ValueError as exc:
            return OpCheck(str(exc), False, data)
        if row["status"] != "ok":
            return OpCheck("status %r" % row["status"], False, data)
        failure, miss = _error_quality(row)
        return OpCheck(failure, miss, data)

    def cleanup(self, inputs):
        for path in inputs:
            if os.path.exists(path):
                os.remove(path)


class ReduceD64(Workload):
    name = "reduce-d64"

    def stage(self, i):
        s = op_seed(self.seed, i)
        # party 1 holds the first 0 to d-1 rows, both ends included
        return s, s % ANV_D

    def run(self, inputs, tracer):
        s, split = inputs
        cfg = ReductionConfig(c4=CONSTANTS.c4, cf=CONSTANTS.cf)
        run = run_one_pass_stats
        if tracer is None:
            def reduction(outer, inner):
                return outer(inner)
        else:
            run = traced_run_one_pass_stats(tracer, run)

            def reduction(outer, inner):
                # the inner proxy separates the wrapper's own time from the solver's
                inner = TracedAlgorithm(inner, tracer, "algorithms")
                return TracedAlgorithm(outer(inner), tracer, "reductions")

        def lsp():
            return reduction(lambda a: anv_via_lsp(a, cfg), OfflineSeparatorSolver())

        with maybe_span(tracer, "instances.gen"):
            inst = gen_anv_conditioned(ANV_D, CONSTANTS.cf, s)
        rows = [row for row in inst.vectors]
        start = time.perf_counter()
        w_lsp, _ = run(lsp(), rows, LSP_BUDGET, s)
        direct_s = time.perf_counter() - start
        w_lr, _ = run(reduction(lambda a: anv_via_lr(a, cfg, s), OfflineLstsqSolver()),
                      rows, LR_BUDGET, s)
        with maybe_span(tracer, "streaming.split"):
            protocol = one_pass_to_protocol(lsp(), split)
            transcript = run_protocol(protocol, rows[:split], rows[split:], LSP_BUDGET, s)
        if tracer is not None:
            tracer.add("streaming.split_direct_s", direct_s)
            tracer.add("streaming.split_steps", len(rows))
        return inst, w_lsp, w_lr, transcript

    def tracing(self, stack, tracer):
        algorithm_patches(stack, tracer)
        stack.enter_context(patched(ns_instances, "kernel_vector",
                                    lambda f: timed(tracer, "linalg.kernel_vector", f)))

    def check(self, inputs, raw):
        inst, w_lsp, w_lr, transcript = raw
        direct = np.asarray(w_lsp, dtype=float).tobytes()
        split = np.asarray(transcript.output, dtype=float).tobytes()
        output = direct + np.asarray(w_lr, dtype=float).tobytes() + split + transcript.message.payload
        if split != direct:
            return OpCheck("protocol split at %d differs from the direct run" % inputs[1],
                           False, output)
        if transcript.message.nbits != LSP_BUDGET:
            return OpCheck("message is %d bits, budget %d" % (transcript.message.nbits,
                                                             LSP_BUDGET), False, output)
        miss = anv_loss(inst, w_lsp) > CONSTANTS.c1 or anv_loss(inst, w_lr) > CONSTANTS.c1
        return OpCheck(None, miss, output)


def certificate_verdicts(reports: dict) -> dict:
    """Pass/fail per certificate by the same rules as `nullstream verify`."""
    sing = reports["singular"].statistics
    return {
        "no_joint_sol": reports["no_joint_sol"].pass_fraction == 1.0,
        "sandwich": reports["sandwich"].pass_fraction >= 0.95,
        "singular": sing["violation_rate"] <= sing["prob_bound"] + 3 * sing["sigma_binomial"],
        "comorth": reports["comorth"].pass_fraction == 1.0,
        "marginal": reports["marginal"].pass_fraction == 1.0,
        "concentration": reports["concentration"].pass_fraction == 1.0,
    }


class Certify(Workload):
    name = "certify"
    # the verdict rules are statistical (sandwich >= 0.95, singular within
    # 3 sigma), so a rare seed may miss; allowance as for proj-separator
    quality_allowance = 0.1

    def stage(self, i):
        return op_seed(self.seed, i)

    def run(self, s, tracer):
        calls = (
            ("no_joint_sol", lambda: certify_no_joint_sol(
                64, JOINT_DELTA, CERT_TRIALS["no_joint_sol"], s)),
            ("sandwich", lambda: certify_sandwich(128, SANDWICH_T, CERT_TRIALS["sandwich"], s)),
            ("singular", lambda: singular_value_experiment(
                256, 256, SINGULAR_T, CERT_TRIALS["singular"], s)),
            ("comorth", lambda: comorth_check(32, CERT_TRIALS["comorth"], s)),
            ("marginal", lambda: sphere_marginal_tests(64, MARGINAL_SAMPLES, MARGINAL_CF, s)),
            ("concentration", lambda: sphere_concentration_test(64, CONCENTRATION_TRIALS, s)),
        )
        reports = {}
        for name, call in calls:
            with maybe_span(tracer, "verification." + name):
                reports[name] = call()
        if tracer is not None:
            joint = reports["no_joint_sol"].statistics
            tracer.add("verification.skipped", joint["skipped"])
            tracer.add("verification.joint_trials", joint["skipped"] + joint["counted"])
        return reports

    def check(self, s, reports):
        output = b"".join(report_to_json(r).encode("utf-8") for r in reports.values())
        verdicts = certificate_verdicts(reports)
        return OpCheck(None, not all(verdicts.values()), output)


WORKLOADS = {w.name: w for w in (SweepProj, ReduceD64, Certify)}


# ---------------------------------------------------------------------------
# fixed calls of the traced run


def acceptance_probe(tracer: Tracer, seed: int):
    """conditioned_acceptance_stats(64, 0.2, ...) at a fixed attempt count."""
    with tracer.span("instances.accept_stats"):
        accepted, attempts = conditioned_acceptance_stats(
            ANV_D, CONSTANTS.cf, ACCEPT_ATTEMPTS, op_seed(seed, -1))
    tracer.add("instances.accepted", accepted)
    tracer.add("instances.attempts", attempts)


def import_probe(tracer: Tracer, root: str, repeats: int = 3):
    """Wall time of `python -c "import nullstream.cli"`, median of repeats."""
    times = []
    for _ in range(repeats):
        with tracer.span("cli.import_probe") as idx:
            subprocess.run([sys.executable, "-c", "import nullstream.cli"], env=child_env(root),
                           cwd=root, check=True, timeout=120)
        times.append(tracer.spans[idx][3] - tracer.spans[idx][2])
    tracer.add("cli.import_s", sorted(times)[len(times) // 2])


def serialize_probe(tracer: Tracer, seed: int):
    """instance_to_json / instance_from_json on an instance of sweep-proj's
    size, the d=1024, m=1000 file of the README's gen-then-run flow."""
    inst = gen_lsp_margin(LSP_D, LSP_M, LSP_GAMMA, op_seed(seed, 0))
    with tracer.span("serialize.write"):
        text = instance_to_json(inst, 0)
    tracer.add("serialize.instance_bytes", len(text.encode("utf-8")))
    with tracer.span("serialize.read"):
        back, _ = instance_from_json(text)
    if back.xs.tobytes() != inst.xs.tobytes():
        raise RuntimeError("instance JSON did not round-trip")
