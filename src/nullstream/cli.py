"""Command-line front end: instance generation, budgeted runs, lemma
certification, and batch experiment sweeps.

Exit codes: 0 success, 1 verify criterion not met, 2 validation failure,
3 infeasible generation, 4 budget violation, 5 algorithm failure. CSV and
JSON output use LF newlines and 17-significant-digit floats throughout.
"""

import argparse
import csv
import hashlib
import io
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from itertools import product
from typing import Callable, NamedTuple

import numpy as np

from .algorithms import ALGORITHMS, build_algorithm
from .config import DEFAULTS
from .errors import (
    AcceptanceTooRare,
    BudgetViolation,
    DegenerateOutput,
    NotSeparableInProjection,
    NullstreamError,
    ValidationError,
)
from .instances import (
    AnvInstance,
    LrInstance,
    LspDataset,
    anv_loss,
    classification_error,
    first_coord_tail,
    gen_anv_conditioned,
    gen_anv_gaussian,
    gen_lr_from_anv,
    gen_lsp_from_anv,
    gen_lsp_hard,
    gen_lsp_margin,
    lr_loss,
    margin_of,
)
from .linalg import use_one_blas_thread
from .serialize import (
    csv_cell,
    dumps,
    instance_from_json,
    instance_to_json,
    json_float,
    json_int,
    report_to_csv,
    report_to_json,
)
from .streaming import SharedRandomness, run_one_pass_stats, shuffle
from .verification import (
    JOINT_C_EMP,
    certify_no_joint_sol,
    certify_sandwich,
    comorth_check,
    singular_value_experiment,
    sphere_concentration_test,
    sphere_marginal_tests,
)

METRIC_COLUMNS = ("loss", "error", "margin")
ORDERS = ("fixed", "shuffled")


def _anv_diagnostics(inst) -> list:
    lines = [
        "residual = %.3e" % float(np.abs(inst.vectors @ inst.witness).max()),
        "witness_first_coord = %.6f" % float(inst.witness[0]),
    ]
    if inst.cf is not None:
        lines.append("tail_estimate = %.3e" % first_coord_tail(inst.d, inst.cf))
    return lines


def _lsp_diagnostics(inst) -> list:
    achieved = margin_of(inst.witness, inst)
    return ["margin = %.6g" % inst.margin, "achieved_margin = %.6g" % achieved]


def _lr_diagnostics(inst) -> list:
    return [
        "residual = %.3e" % float(np.linalg.norm(inst.a @ inst.witness - inst.b)),
        "witness_norm = %.6f" % float(np.linalg.norm(inst.witness)),
    ]


class Kind(NamedTuple):
    """What the CLI does with one instance class."""

    name: str  # instance_type in reports
    samples: Callable  # instance -> its stream in fixed order
    diagnostics: Callable  # instance -> the lines `gen` prints
    metrics: Callable  # (instance, output) -> {metric column: value}


# The lambdas look the metric functions up when they run, so a rebound module
# name reaches every report.
KINDS = {
    AnvInstance: Kind("anv", lambda inst: list(inst.vectors), _anv_diagnostics,
                      lambda inst, w: {"loss": anv_loss(inst, w)}),
    LspDataset: Kind("lsp", lambda inst: inst.points(), _lsp_diagnostics, lambda inst, w: {
        "error": classification_error(w, inst), "margin": margin_of(w, inst)}),
    LrInstance: Kind("lr", lambda inst: list(zip(inst.a, inst.b)), _lr_diagnostics,
                     lambda inst, w: {"loss": lr_loss(inst, w)}),
}

# the sweep status and exit code of each deliberate failure that is not a
# validation failure; any other NullstreamError exits 2 and, in a sweep, is
# status "error" unless it is a ValidationError, which stops the sweep
FAILURES = {
    BudgetViolation: ("budget-violation", 4),
    DegenerateOutput: ("degenerate-output", 5),
    NotSeparableInProjection: ("not-separable", 5),
    AcceptanceTooRare: ("acceptance-too-rare", 3),
}


def _failure(exc: NullstreamError) -> tuple:
    return next((v for k, v in FAILURES.items() if isinstance(exc, k)), ("error", 2))


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValidationError("cannot read %s: %s" % (path, exc)) from exc


def _write_text(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError("cannot write %s: %s" % (path, exc)) from exc


def _csv_line(cells) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(cells)
    return out.getvalue()


def _open_csv(path: str, columns, key_width: int = 0):
    """Make `path` ready to take rows under the header `columns`.

    An existing file must start with that header. A last line without its
    newline was cut short by a kill mid-write, so it is truncated away.
    Returns the key tuples (first `key_width` cells) of the rows present and
    a function that appends one row and closes the file, writing the header
    together with the first row of a new file.
    """
    header = _csv_line(columns).encode("utf-8")
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        data = b""
    except OSError as exc:
        raise ValidationError("cannot read %s: %s" % (path, exc)) from exc
    kept = data[: data.rfind(b"\n") + 1]
    if not (kept.startswith(header) or not kept and header.startswith(data)):
        raise ValidationError("existing %s has different columns" % path)
    try:
        if len(kept) < len(data):
            os.truncate(path, len(kept))
        rows = csv.reader(io.StringIO(kept[len(header):].decode("utf-8"), newline=""))
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError("cannot resume %s: %s" % (path, exc)) from exc
    keys = {tuple(row[:key_width]) for row in rows if row}
    header_due = not kept

    def append(cells):
        nonlocal header_due
        line = _csv_line(cells).encode("utf-8")
        try:
            with open(path, "ab") as fh:
                fh.write(header + line if header_due else line)
        except OSError as exc:
            raise ValidationError("cannot write %s: %s" % (path, exc)) from exc
        header_due = False

    return keys, append


def _shuffle_seed(seed: int) -> int:
    # distinct derivation so a shuffled run never replays the per-sample
    # randomness stream the algorithms themselves draw from
    return int(SharedRandomness(seed).generator("order-shuffle").integers(1 << 63))


# ---------------------------------------------------------------------------
# gen


class Generator(NamedTuple):
    """What `gen` and a sweep know of one seeded generator."""

    make: Callable  # keyword parameters -> instance
    params: tuple  # (name, cast) in the order `gen` lists its flags
    help: str


# A generator may be given no max_attempts, and then takes its own default;
# every other parameter is required. The lambdas look the generators up when
# they run, so a rebound module name reaches every sweep.
OPTIONAL = {"max_attempts"}
GENERATORS = {
    "anv-gaussian": Generator(
        lambda **kw: gen_anv_gaussian(**kw), (("d", json_int), ("seed", json_int)),
        "gaussian rows with unit kernel witness",
    ),
    "anv-conditioned": Generator(
        lambda **kw: gen_anv_conditioned(**kw),
        (("d", json_int), ("seed", json_int), ("cf", json_float), ("max_attempts", json_int)),
        "unit rows whose kernel has first coordinate >= cf",
    ),
    "lsp-margin": Generator(
        lambda **kw: gen_lsp_margin(**kw),
        (("d", json_int), ("seed", json_int), ("m", json_int), ("gamma", json_float)),
        "unit points at an exact margin",
    ),
    "lsp-hard": Generator(
        lambda **kw: gen_lsp_hard(**kw)[0],
        (("d", json_int), ("seed", json_int), ("m", json_int), ("cf", json_float),
         ("c", json_float), ("max_attempts", json_int)),
        "separable points from a planted subspace",
    ),
}


def _generate(problem: str, opts: dict):
    """Build an instance from a generator name and a flat option dict.

    Every option must be consumed; leftovers are a validation error, raised
    before anything is built, so that misspelled experiment-grid keys fail
    loudly and at once. Integer parameters take only integers, so a
    fractional or boolean value is rejected, not truncated; real parameters
    take only finite numbers, not strings or booleans.
    """
    gen = GENERATORS.get(problem) if isinstance(problem, str) else None
    if gen is None:
        raise ValidationError("unknown problem %r" % (problem,))
    opts = dict(opts)
    kwargs = {}
    for key, cast in gen.params:
        if key in opts:
            try:
                kwargs[key] = cast(opts.pop(key))
            except (TypeError, ValueError) as exc:
                raise ValidationError("%s parameter %r: %s" % (problem, key, exc)) from exc
        elif key not in OPTIONAL:
            raise ValidationError("%s requires parameter %r" % (problem, key))
    if opts:
        raise ValidationError(
            "unknown parameters for %s: %s" % (problem, ", ".join(sorted(opts)))
        )
    return gen.make(**kwargs)


def cmd_gen(args) -> int:
    if args.problem in GENERATORS:
        params = GENERATORS[args.problem].params
        opts = {key: getattr(args, key) for key, _ in params if getattr(args, key) is not None}
        inst, seed = _generate(args.problem, opts), args.seed
    else:
        inner, _ = instance_from_json(_read_text(args.instance))
        if not isinstance(inner, AnvInstance):
            raise ValidationError("%s needs a null-vector instance file" % args.problem)
        if args.problem == "lsp-from-anv":
            inst, seed = gen_lsp_from_anv(inner, args.c4), 0
        else:
            inst, seed = gen_lr_from_anv(inner, args.seed), args.seed
    _write_text(args.out, instance_to_json(inst, seed))
    kind = KINDS[type(inst)]
    print("wrote %s" % args.out)
    print("type = %s  d = %d" % (kind.name, inst.d))
    for line in kind.diagnostics(inst):
        print(line)
    return 0


# ---------------------------------------------------------------------------
# run


def _run_report(inst, algorithm: str, budget_bits: int, seed: int, order: str) -> dict:
    kind = KINDS[type(inst)]
    # refuses an unknown name before any kind mismatch; constructors draw nothing
    alg = build_algorithm(algorithm, inst.d, seed)
    if type(inst) not in ALGORITHMS[algorithm].takes:
        accepted = [name for name, entry in ALGORITHMS.items() if type(inst) in entry.takes]
        raise ValidationError(
            "algorithm %s does not accept %s instances (try: %s)"
            % (algorithm, kind.name, ", ".join(accepted))
        )
    samples = kind.samples(inst)
    if order == "shuffled":
        samples = shuffle(samples, _shuffle_seed(seed))
    w, stats = run_one_pass_stats(alg, samples, budget_bits, seed)
    return {
        "instance_type": kind.name,
        "d": inst.d,
        "n_samples": len(samples),
        "algorithm": algorithm,
        "budget_bits": budget_bits,
        "seed": seed,
        "order": order,
        "max_used_bits": stats.max_used_bits,
        "metrics": kind.metrics(inst, w),
    }


RUN_CSV_COLUMNS = (
    "instance_type",
    "d",
    "n_samples",
    "algorithm",
    "budget_bits",
    "seed",
    "order",
    "max_used_bits",
) + METRIC_COLUMNS


def cmd_run(args) -> int:
    inst, _ = instance_from_json(_read_text(args.instance))
    report = _run_report(inst, args.alg, args.budget, args.seed, args.order)
    print(dumps(report))
    if args.csv:
        flat = dict(report, **{key: report["metrics"].get(key) for key in METRIC_COLUMNS})
        _, append = _open_csv(args.csv, RUN_CSV_COLUMNS)
        append([csv_cell(flat[c]) for c in RUN_CSV_COLUMNS])
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    report = args.certify(args)
    print(report_to_json(report), end="")
    if args.out_csv:
        _write_text(args.out_csv, report_to_csv(report))
    print(
        "%s: %s (pass_fraction = %s)"
        % (report.lemma_id, "PASS" if report.passed else "FAIL", report.pass_fraction),
        file=sys.stderr,
    )
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# experiment


EXPERIMENT_COLUMNS = ("trial", "seed", "status", "state_bits") + METRIC_COLUMNS
SPEC_KEYS = {"problem", "params", "grid", "trials", "seed", "order"}


def _load_spec(path: str) -> dict:
    import json

    try:
        doc = json.loads(_read_text(path))
    except ValueError as exc:
        raise ValidationError("malformed experiment spec: %s" % exc) from exc
    if not isinstance(doc, dict):
        raise ValidationError("experiment spec must be a JSON object")
    unknown = set(doc) - SPEC_KEYS
    if unknown:
        raise ValidationError("unknown spec fields: %s" % ", ".join(sorted(unknown)))
    for key in ("problem", "trials", "seed"):
        if key not in doc:
            raise ValidationError("experiment spec missing %r" % key)
    spec = {"params": {}, "grid": {}, "order": "fixed", **doc}
    if not isinstance(spec["params"], dict) or not isinstance(spec["grid"], dict):
        raise ValidationError("params and grid must be JSON objects")
    for key in ("trials", "seed"):
        try:
            json_int(spec[key])
        except TypeError as exc:
            raise ValidationError("%s: %s" % (key, exc)) from exc
    if spec["trials"] < 1:
        raise ValidationError("trials must be a positive integer")
    if spec["order"] not in ORDERS:
        raise ValidationError("order must be fixed or shuffled")
    if "seed" in spec["params"] or "seed" in spec["grid"]:
        raise ValidationError(
            "seed is derived per row from the spec's top-level seed; "
            "it cannot be a parameter or grid key"
        )
    overlap = set(spec["params"]) & set(spec["grid"])
    if overlap:
        raise ValidationError(
            "parameters listed both fixed and in grid: %s" % ", ".join(sorted(overlap))
        )
    for key, values in spec["grid"].items():
        if not isinstance(values, list) or not values:
            raise ValidationError("grid entry %r must be a non-empty list" % key)
    return spec


def _derived_seed(seed: int, cell_key: str, trial: int) -> int:
    digest = hashlib.sha256(
        ("%d|%s|%d" % (seed, cell_key, trial)).encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _run_experiment_row(spec, cell, cell_key, trial):
    seed = _derived_seed(spec["seed"], cell_key, trial)
    merged = dict(spec["params"])
    merged.update(cell)
    try:
        algorithm = merged.pop("algorithm")
        budget_bits = json_int(merged.pop("budget_bits"))
    except KeyError as exc:
        raise ValidationError("experiment spec missing %s" % exc) from exc
    except TypeError as exc:
        raise ValidationError("budget_bits: %s" % exc) from exc
    merged["seed"] = seed
    row = {"trial": trial, "seed": seed}
    try:
        inst = _generate(spec["problem"], merged)
        report = _run_report(inst, algorithm, budget_bits, seed, spec["order"])
    except ValidationError:
        raise
    except NullstreamError as exc:
        row["status"] = _failure(exc)[0]
        return row
    row.update(report["metrics"], status="ok", state_bits=report["max_used_bits"])
    return row


def cmd_experiment(args) -> int:
    spec = _load_spec(args.spec)
    grid_keys = sorted(spec["grid"])
    columns = tuple(grid_keys) + EXPERIMENT_COLUMNS
    done, append = _open_csv(args.out, columns, len(grid_keys) + 1)

    pending = []
    for combo in product(*(spec["grid"][k] for k in grid_keys)):
        cell = dict(zip(grid_keys, combo))
        cell_cells = [csv_cell(cell[k]) for k in grid_keys]
        cell_key = ",".join("%s=%s" % (k, v) for k, v in zip(grid_keys, cell_cells))
        for trial in range(spec["trials"]):
            if tuple(cell_cells + [str(trial)]) not in done:
                pending.append((cell_cells, cell, cell_key, trial))

    threads = os.environ.get("NULLSTREAM_THREADS", "1")
    try:
        threads = max(1, int(threads))
    except ValueError:
        raise ValidationError("NULLSTREAM_THREADS must be an integer")

    def work(item):
        return _run_experiment_row(spec, *item[1:])

    def commit(rows):
        # both maps yield rows in pending order, so the bytes do not depend
        # on the thread count, and each row is on disk before the next is
        # awaited, so a killed sweep leaves a prefix that a rerun resumes
        for (cell_cells, *_), row in zip(pending, rows):
            append(cell_cells + [csv_cell(row.get(c)) for c in EXPERIMENT_COLUMNS])

    if threads > 1 and len(pending) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            commit(pool.map(work, pending))
    else:
        commit(map(work, pending))
    print("%d rows appended to %s" % (len(pending), args.out))
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nullstream",
        description="Memory-bounded streaming testbed: generators, budgeted "
        "runs, lemma certificates, experiment sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen_sub = gen.add_subparsers(dest="problem", required=True)

    # gen defaults cf and c to the calibrated constants; a sweep names them
    gen_defaults = {"cf": DEFAULTS.constants.cf, "c": DEFAULTS.constants.c}
    for problem, generator in GENERATORS.items():
        p = gen_sub.add_parser(problem, help=generator.help)
        p.add_argument("--out", required=True, help="output JSON path")
        for key, cast in generator.params:
            p.add_argument(
                "--" + key.replace("_", "-"),
                dest=key,
                type=int if cast is json_int else float,
                required=key not in gen_defaults and key not in OPTIONAL,
                default=gen_defaults.get(key),
            )
        p.set_defaults(func=cmd_gen)

    def gen_chain(problem, help):
        p = gen_sub.add_parser(problem, help=help)
        p.add_argument("--out", required=True, help="output JSON path")
        p.add_argument("--instance", required=True, help="input instance JSON")
        p.set_defaults(func=cmd_gen)
        return p

    p = gen_chain("lsp-from-anv", "labeled pairs around kernel rows")
    p.add_argument("--c4", type=float, default=DEFAULTS.constants.c4)

    p = gen_chain("lr-from-anv", "equation system hiding one pinned row")
    p.add_argument("--seed", type=int, required=True)

    run = sub.add_parser("run", help="run an algorithm under a bit budget")
    run.add_argument("--instance", required=True)
    run.add_argument("--alg", required=True)
    run.add_argument("--budget", type=int, required=True)
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--order", choices=ORDERS, default="fixed")
    run.add_argument("--csv", default=None, help="append a flat row here")
    run.set_defaults(func=cmd_run)

    verify = sub.add_parser("verify", help="run a lemma certificate")
    verify_sub = verify.add_subparsers(dest="lemma", required=True)

    def verify_common(lemma, help, trials, certify):
        # marginal draws one sample set, so it takes no --trials
        p = verify_sub.add_parser(lemma, help=help)
        p.add_argument("--d", type=int, required=True)
        if trials:
            p.add_argument("--trials", type=int, default=trials)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out-csv", dest="out_csv", default=None)
        p.set_defaults(func=cmd_verify, certify=certify)
        return p

    p = verify_common("no-joint-sol", "joint eigenvalue certificate", 50, lambda a:
                      certify_no_joint_sol(a.d, a.delta, a.trials, a.seed, c_emp=a.c_emp))
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--c-emp", dest="c_emp", type=float, default=JOINT_C_EMP)

    p = verify_common("sandwich", "singular-value sandwich bounds on each half", 100, lambda a:
                      certify_sandwich(a.d, a.t, a.trials, a.seed))
    p.add_argument("--t", type=float, default=0.2)

    p = verify_common("singular", "gaussian singular value bounds", 1000, lambda a:
                      singular_value_experiment(a.d if a.n is None else a.n, a.d, a.t,
                                                a.trials, a.seed))
    p.add_argument("--n", type=int, default=None, help="rows (defaults to d)")
    p.add_argument("--t", type=float, default=3.0)

    p = verify_common("marginal", "first sphere coordinate law", None, lambda a:
                      sphere_marginal_tests(a.d, a.samples, a.cf, a.seed))
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--cf", type=float, default=DEFAULTS.constants.cf)

    verify_common("concentration", "projection norm concentration", 10_000, lambda a:
                  sphere_concentration_test(a.d, a.trials, a.seed))
    verify_common("comorth", "complement distance symmetry", 100, lambda a:
                  comorth_check(a.d, a.trials, a.seed))

    exp = sub.add_parser("experiment", help="run a parameter-grid sweep to CSV")
    exp.add_argument("--spec", required=True, help="JSON sweep description")
    exp.add_argument("--out", required=True, help="CSV output path")
    exp.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    # bytes promised at any OPENBLAS_NUM_THREADS; NULLSTREAM_THREADS is the
    # one parallelism setting
    use_one_blas_thread()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NullstreamError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return _failure(exc)[1]


if __name__ == "__main__":
    sys.exit(main())
