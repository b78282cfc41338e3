"""nullstream benchmark: one workload, one run.

usage (from the root of a checkout):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: sweep-proj, reduce-d64, certify (see README.md).  The
run builds its inputs from --seed, sets up (imports, input preparation, one
untimed warm-up op), then runs ops in a closed loop with one client for
--seconds, checks every op's outputs, and prints one metric per line followed
by a JSON record and, last, the result line

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 the loop
alternates traced and untraced ops, and the metrics are the per-layer ones
plus the tracing overhead (median traced op minus median untraced op).

Every process this script starts, itself included, runs with one BLAS and
OpenMP thread; they are set here, before numpy loads.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402

# ops whose outputs enter the printed digest: the warm-up op and this many
# timed ops, so two runs of one seed digest the same ops whatever their speed
DIGEST_OPS = 3
SETUP_SAMPLES = 3
# a tail percentile needs ten ops beyond it; below 2 * 10 ops it is the median
TAIL_BEYOND = 10

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("peak_rss_mb", "MB"),
)


def import_program():
    """Import nullstream from this checkout's src, or exit 2 if it is absent."""
    if not os.path.isfile(os.path.join(SRC, "nullstream", "__init__.py")):
        print("error: %s holds no nullstream package to benchmark" % SRC, file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import nullstream

    if os.path.dirname(os.path.dirname(os.path.abspath(nullstream.__file__))) != SRC:
        print("error: imported nullstream from %s, not %s" % (nullstream.__file__, SRC),
              file=sys.stderr)
        sys.exit(2)


def tail(latencies):
    """(value, percentile, ops beyond): the highest percentile with at least
    TAIL_BEYOND ops above it, or the median when there are too few ops."""
    xs = sorted(latencies)
    n = len(xs)
    if n >= 2 * TAIL_BEYOND:
        k = n - TAIL_BEYOND - 1
        return xs[k], 100.0 * (k + 1) / n, TAIL_BEYOND
    return statistics.median(xs), 50.0, n // 2


class Runner:
    """Runs ops of one workload and keeps their latencies and checks."""

    def __init__(self, workload):
        self.workload = workload
        self.latencies = []
        self.traced = []
        self.failures = []
        self.quality_misses = 0
        self.digests = []

    def op(self, i, tracer=None, record=True):
        """Stage, run and check op i; returns why it failed, or None."""
        w = self.workload
        inputs = w.stage(i)
        failure = check = start = end = None
        try:
            with contextlib.ExitStack() as stack:
                if tracer is not None:
                    w.tracing(stack, tracer)
                    root = tracer.begin("op")
                start = time.perf_counter()
                try:
                    raw = w.run(inputs, tracer)
                finally:
                    end = time.perf_counter()
                    if tracer is not None:
                        tracer.end(root)
            if tracer is not None:
                w.after_traced(inputs, raw, tracer)
            check = w.check(inputs, raw)
            failure = check.failure
        except Exception as exc:  # an op that raises is a failed op, not a crash
            failure = "%s: %s" % (type(exc).__name__, exc)
            traceback.print_exc(file=sys.stderr)
        finally:
            w.cleanup(inputs)
        if failure is not None:
            self.failures.append((i, failure))
        elif check.quality_miss:
            self.quality_misses += 1
        if len(self.digests) <= DIGEST_OPS:
            output = b"" if check is None else check.output
            self.digests.append(hashlib.sha256(output).digest())
        if record:
            self.latencies.append(0.0 if start is None else end - start)
            self.traced.append(tracer is not None)
        return failure

    def loop(self, seconds, tracer=None):
        """Closed loop until `seconds` have passed; odd ops are traced when a
        tracer is given."""
        start = time.perf_counter()
        i = 1
        while time.perf_counter() - start < seconds:
            self.op(i, tracer if tracer is not None and i % 2 else None)
            i += 1

    def digest(self):
        return hashlib.sha256(b"".join(self.digests)).hexdigest(), len(self.digests)


def setup_child(args):
    """Set up in a fresh process; returns its setup time."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=150, check=True)
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])["setup_s"]


def environment():
    import numpy
    import scipy

    env = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": None,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": git_commit(),
        "src_sha256": tree_digest(SRC),
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = "%s %s" % (blas.get("name"), blas.get("version"))
    except (KeyError, TypeError, ValueError):
        pass
    return env


def git_commit():
    """HEAD of the checkout's own .git, read without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def tree_digest(top):
    """sha256 over the paths and bytes of the .py files under `top`."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, top).encode())
                with open(path, "rb") as fh:
                    h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def end_to_end(runner, setup_s):
    lat = runner.latencies
    completed = len(lat) - len(runner.failures)
    value, pct, beyond = tail(lat)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": completed / sum(lat),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": value,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    extra = {"op_tail_pct": pct, "op_tail_ops_beyond": beyond}
    return metrics, extra


def per_layer(runner, sources):
    """Per-layer metrics from (label, tracer) sources, own ops first, plus the
    tracing overhead; returns {name: (value, unit, source)} and missing names."""
    import layers
    import workloads

    metrics = layers.per_layer_metrics(workloads.CERT_TRIALS)
    resolved, missing = layers.resolve(metrics, sources)
    traced = [t for t, on in zip(runner.latencies, runner.traced) if on]
    untraced = [t for t, on in zip(runner.latencies, runner.traced) if not on]
    if traced and untraced:
        overhead = (statistics.median(traced) - statistics.median(untraced)) * 1e3
        resolved["trace.overhead_ms_per_op"] = (overhead, "ms", "own")
    else:
        missing.append("trace.overhead_ms_per_op")
    return resolved, missing


def probes(args):
    """Tracers for the layers the workload's own ops do not reach: one traced
    op of every other in-process workload, then the fixed calls."""
    import workloads
    from spans import Tracer

    out = []
    workdir = os.path.join(ROOT, ".perfbench_tmp", "%d-probe" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    try:
        for name in ("sweep-proj", "reduce-d64", "certify"):
            if name == args.workload:
                continue
            tracer = Tracer()
            runner = Runner(workloads.WORKLOADS[name](args.seed, workdir, ROOT))
            failure = runner.op(1, tracer, record=False)
            if failure is not None:
                raise RuntimeError("probe op of %s failed: %s" % (name, failure))
            out.append(("probe:" + name, tracer))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    fixed = Tracer()
    workloads.acceptance_probe(fixed, args.seed)
    workloads.import_probe(fixed, ROOT)
    workloads.serialize_probe(fixed, args.seed)
    out.append(("fixed", fixed))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_program()
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r (have: %s)"
                     % (args.workload, ", ".join(workloads.WORKLOADS)))
    workdir = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(workdir)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, ROOT)
        runner = Runner(workload)
        warmup_failure = runner.op(0, record=False)
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            # a failing warm-up shows in the parent's own warm-up of the same op
            print(json.dumps({"setup_s": setup_s}))
            return 0

        if args.trace:
            tracer = Tracer()
            runner.loop(args.seconds, tracer)
            metrics, missing = per_layer(runner, [("own", tracer)] + probes(args))
            extra = {"sources": {k: v[2] for k, v in metrics.items()}, "missing": missing}
            if missing:
                raise RuntimeError("no traced source gave %s" % ", ".join(missing))
            metrics = {k: (v[0], v[1]) for k, v in metrics.items()}
        else:
            samples = [setup_s] + [setup_child(args) for _ in range(SETUP_SAMPLES - 1)]
            runner.loop(args.seconds)
            values, extra = end_to_end(runner, statistics.median(samples))
            extra["setup_samples_s"] = samples
            metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.join(ROOT, ".perfbench_tmp"))

    attempted = len(runner.latencies)
    failed = len(runner.failures)
    allowed = workload.quality_allowance * attempted
    correct = warmup_failure is None and failed == 0 and runner.quality_misses <= allowed
    digest, digest_ops = runner.digest()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": attempted,
        "fail_frac": failed / attempted,
        "quality_miss_frac": runner.quality_misses / attempted,
        "quality_allowance": workload.quality_allowance,
        "failures": runner.failures[:5],
        "warmup_failure": warmup_failure,
        "output_sha256": digest,
        "digest_ops": digest_ops,
        "environment": environment(),
    }
    record.update(extra)
    for name, (value, unit) in metrics.items():
        print("%-40s %14.6g %s" % (name, value, unit))
    print("fail_frac %.6g  quality_miss_frac %.6g  ops %d"
          % (record["fail_frac"], record["quality_miss_frac"], attempted))
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
