"""Statement lines of src/nullstream that no op of the named workloads runs.

usage (from the root of a checkout):
  python3 tools/traffic.py --workloads sweep-proj,reduce-d64,certify --ops 2 --seed 7

It imports nullstream from this checkout's src and the workloads of
perfbench/workloads.py as they are, untraced and unpatched, and runs ops
1..N of each named workload in this process, staged, run and checked as
perfbench/run.py does, in a temporary directory that is removed afterwards.
The ops run under sys.settrace and threading.settrace, which record every
line a frame of a src/nullstream module executes.  For each module it then
prints the statement lines inside functions (methods, lambdas and
comprehensions included) that no op executed, grouped by function, with
"(never called)" where none of a function's lines ran.  A def line and the
module-level code, which ran at import, are not counted.  An op that fails
is reported and the rest still run, so a failing path shows as unrun.

BLAS runs on one thread, as in perfbench/run.py.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import glob  # noqa: E402
import inspect  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def function_lines(path: str) -> dict:
    """{qualified name: set of statement lines} of every function compiled
    from the source file at path, each function's own def line left out."""
    with open(path, encoding="utf-8") as fh:
        top = compile(fh.read(), path, "exec")
    out = {}
    # (code, its qualified name's prefix), as co_qualname of Python 3.11 has it
    todo = [(c, "") for c in top.co_consts if inspect.iscode(c)]
    while todo:
        code, prefix = todo.pop()
        name = prefix + code.co_name
        function = code.co_flags & inspect.CO_OPTIMIZED
        inner = name + (".<locals>." if function else ".")
        todo.extend((c, inner) for c in code.co_consts if inspect.iscode(c))
        if not function:
            continue  # class bodies run at import
        lines = {line for _, _, line in code.co_lines() if line is not None}
        if not code.co_name.startswith("<"):
            lines.discard(code.co_firstlineno)
        if lines:
            out.setdefault(name, set()).update(lines)
    return out


def traced(paths, call) -> dict:
    """Run call() and return {path: set of lines executed} for the source
    files in paths, from every thread, the ones call starts included."""
    hits = {os.path.abspath(p): set() for p in paths}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def scope(frame, event, arg):
        return local if frame.f_code.co_filename in hits else None

    before = sys.gettrace(), threading.gettrace()
    threading.settrace(scope)
    sys.settrace(scope)
    try:
        call()
    finally:
        sys.settrace(before[0])
        threading.settrace(before[1])
    return hits


def _ranges(lines) -> str:
    runs = []
    for line in sorted(lines):
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join("%d" % a if a == b else "%d-%d" % (a, b) for a, b in runs)


def report(name: str, functions: dict, hit: set) -> list:
    """The printed lines for one module: a count, then one line per
    function with unrun lines, in source order."""
    total = sum(len(lines) for lines in functions.values())
    unrun = {f: lines - hit for f, lines in functions.items() if lines - hit}
    out = ["%s: %d of %d lines in functions unrun"
           % (name, sum(map(len, unrun.values())), total)]
    for f, lines in sorted(unrun.items(), key=lambda kv: min(kv[1])):
        never = " (never called)" if lines == functions[f] else ""
        out.append("  %s: %s%s" % (f, _ranges(lines), never))
    return out


def run_ops(classes, ops: int, seed: int):
    """Ops 1..ops of each workload class, as perfbench/run.py's Runner.op
    runs them untraced; prints each failure."""
    with tempfile.TemporaryDirectory(prefix="traffic-") as workdir:
        for cls in classes:
            w = cls(seed, workdir, ROOT)
            for i in range(1, ops + 1):
                inputs = w.stage(i)
                try:
                    check = w.check(inputs, w.run(inputs, None))
                    failure = check.failure
                except Exception as exc:  # a failed op leaves its path unrun
                    failure = "%s: %s" % (type(exc).__name__, exc)
                finally:
                    w.cleanup(inputs)
                if failure is not None:
                    print("%s op %d failed: %s" % (w.name, i, failure), file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default="sweep-proj,reduce-d64,certify")
    parser.add_argument("--ops", type=int, default=2)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    if args.ops < 1:
        parser.error("--ops must be at least 1")
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    import workloads

    names = args.workloads.split(",")
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        parser.error("unknown workload %s (have: %s)"
                     % (", ".join(unknown), ", ".join(workloads.WORKLOADS)))
    package = os.path.join(ROOT, "src", "nullstream")
    paths = sorted(glob.glob(os.path.join(package, "*.py")))
    classes = [workloads.WORKLOADS[n] for n in names]
    hits = traced(paths, lambda: run_ops(classes, args.ops, args.seed))
    for path in paths:
        print("\n".join(report(os.path.relpath(path, ROOT), function_lines(path), hits[path])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
