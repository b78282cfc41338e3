"""End-to-end tests of the command-line interface.

Commands are exercised through main(argv) in-process; exit codes and the
stdout/stderr split are part of the contract, so tests assert on both.
"""

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from nullstream import cli, errors
from nullstream.algorithms import kernel_budget_bits
from nullstream.cli import main
from nullstream.config import DEFAULTS
from nullstream.instances import gen_anv_conditioned, gen_lr_from_anv, gen_lsp_margin
from nullstream.serialize import instance_from_json, instance_to_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_anv(capsys, path, d=24, seed=7):
    code, _, _ = run_cli(
        capsys,
        "gen", "anv-conditioned", "--d", str(d), "--cf", "0.2",
        "--seed", str(seed), "--out", str(path),
    )
    assert code == 0
    return path


def test_gen_conditioned_writes_instance_and_diagnostics(tmp_path, capsys):
    out = tmp_path / "anv.json"
    code, stdout, _ = run_cli(
        capsys,
        "gen", "anv-conditioned", "--d", "24", "--cf", "0.2",
        "--seed", "7", "--out", str(out),
    )
    assert code == 0
    assert "residual" in stdout and "tail_estimate" in stdout
    inst, seed = instance_from_json(out.read_text())
    assert seed == 7
    assert inst.witness[0] >= 0.2
    assert np.abs(inst.vectors @ inst.witness).max() <= 1e-9


def test_gen_lsp_hard_margin_floor(tmp_path, capsys):
    out = tmp_path / "lsp.json"
    code, _, _ = run_cli(
        capsys,
        "gen", "lsp-hard", "--d", "16", "--m", "20", "--seed", "1", "--out", str(out),
    )
    assert code == 0
    inst, _ = instance_from_json(out.read_text())
    cst = DEFAULTS.constants
    assert inst.margin >= 0.9 * cst.cf * (cst.c / 4) / np.sqrt(16)


def test_gen_rare_acceptance_exits_3(tmp_path, capsys):
    code, _, stderr = run_cli(
        capsys,
        "gen", "anv-conditioned", "--d", "1024", "--cf", "0.2", "--seed", "0",
        "--max-attempts", "2", "--out", str(tmp_path / "x.json"),
    )
    assert code == 3
    assert "tail" in stderr


def test_gen_underflowing_tail_exits_3_before_drawing(tmp_path, capsys, monkeypatch):
    # at d 1024 the tail above 0.9 is below the smallest float: no attempt
    # could accept, so none is made
    def no_draw(*args, **kwargs):
        raise AssertionError("drew an attempt before checking the tail")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    out = tmp_path / "x.json"
    code, stdout, stderr = run_cli(
        capsys, "gen", "anv-conditioned", "--d", "1024", "--cf", "0.9", "--seed", "0",
        "--out", str(out),
    )
    assert code == 3
    assert stdout == ""
    assert stderr == "error: exact tail underflows to 0 at d=1024 cf=0.9; no attempt made\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("anv-conditioned", "--d", "16", "--max-attempts", "0"),
    ("lsp-hard", "--d", "16", "--m", "20", "--max-attempts", "-1"),
])
def test_gen_nonpositive_max_attempts_exit_2(tmp_path, capsys, argv):
    out = tmp_path / "x.json"
    code, _, stderr = run_cli(capsys, "gen", *argv, "--seed", "0", "--out", str(out))
    assert code == 2
    assert "max_attempts must be at least 1" in stderr
    assert not out.exists()


def test_gen_invalid_parameters_exit_2(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys,
        "gen", "lsp-margin", "--d", "8", "--m", "5", "--gamma", "1.5",
        "--seed", "0", "--out", str(tmp_path / "x.json"),
    )
    assert code == 2


@pytest.mark.parametrize("c4", ["nan", "inf", "0"])
def test_gen_lsp_from_anv_rejects_non_finite_c4(tmp_path, capsys, c4):
    inst_path = gen_anv(capsys, tmp_path / "anv.json", d=8)
    out = tmp_path / "lsp.json"
    code, stdout, stderr = run_cli(
        capsys, "gen", "lsp-from-anv", "--instance", str(inst_path), "--c4", c4, "--out", str(out)
    )
    assert (code, stdout) == (2, "")
    assert stderr.startswith("error: c4 must be a finite positive number")
    assert not out.exists()


def test_run_kernel_solver_reaches_budget_and_solves(tmp_path, capsys):
    inst_path = gen_anv(capsys, tmp_path / "anv.json")
    code, stdout, _ = run_cli(
        capsys,
        "run", "--instance", str(inst_path), "--alg", "offline-kernel",
        "--budget", str(kernel_budget_bits(24)), "--seed", "1",
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["metrics"]["loss"] < 1e-12
    assert report["max_used_bits"] == kernel_budget_bits(24)


def test_run_budget_violation_exits_4(tmp_path, capsys):
    inst_path = gen_anv(capsys, tmp_path / "anv.json")
    code, _, _ = run_cli(
        capsys,
        "run", "--instance", str(inst_path), "--alg", "offline-kernel",
        "--budget", str(64 * 24), "--seed", "1",
    )
    assert code == 4


def test_run_zero_on_equations_gives_cf_squared(tmp_path, capsys):
    anv = gen_anv(capsys, tmp_path / "anv.json")
    lr = tmp_path / "lr.json"
    code, _, _ = run_cli(
        capsys,
        "gen", "lr-from-anv", "--instance", str(anv), "--seed", "3", "--out", str(lr),
    )
    assert code == 0
    code, stdout, _ = run_cli(
        capsys, "run", "--instance", str(lr), "--alg", "zero",
        "--budget", "64", "--seed", "0",
    )
    assert code == 0
    assert json.loads(stdout)["metrics"]["loss"] == DEFAULTS.constants.cf**2


def test_run_malformed_instance_fields_exit_2(tmp_path, capsys):
    doc = json.loads(gen_anv(capsys, tmp_path / "anv.json").read_text())
    for field, value in (("vectors", [[1.0, 2.0], [3.0]]), ("d", "x")):
        bad = tmp_path / ("bad-%s.json" % field)
        bad.write_text(json.dumps(dict(doc, **{field: value})))
        code, _, stderr = run_cli(
            capsys, "run", "--instance", str(bad), "--alg", "random-unit",
            "--budget", "64", "--seed", "0",
        )
        assert code == 2
        assert stderr.startswith("error: ")


# ceil(b / 8) bytes past sys.maxsize: bytearray raises OverflowError at once
UNALLOCATABLE_BUDGET = 99999999999999999999999


def test_run_budget_past_the_address_space_exits_2(tmp_path, capsys):
    inst_path = gen_anv(capsys, tmp_path / "anv.json", d=8)
    code, stdout, stderr = run_cli(
        capsys, "run", "--instance", str(inst_path), "--alg", "random-unit",
        "--budget", str(UNALLOCATABLE_BUDGET), "--seed", "0",
    )
    assert code == 2 and stdout == ""
    assert stderr.splitlines() == [
        "error: a %d-bit state does not fit in this process's memory" % UNALLOCATABLE_BUDGET]


def test_experiment_budget_past_the_address_space_exits_2(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "problem": "anv-conditioned", "trials": 1, "seed": 0,
        "params": {"d": 8, "cf": 0.2, "algorithm": "random-unit",
                   "budget_bits": UNALLOCATABLE_BUDGET},
    }))
    code, _, stderr = run_cli(
        capsys, "experiment", "--spec", str(spec), "--out", str(tmp_path / "rows.csv"))
    assert code == 2
    assert stderr.splitlines() == [
        "error: a %d-bit state does not fit in this process's memory" % UNALLOCATABLE_BUDGET]


# a child process that caps its own address space at 2 GB once its imports
# are done, then runs with a budget of 2^60 bytes, which fits an index but
# not the cap, so bytearray raises MemoryError; the host never allocates it
MEMORY_CAPPED_RUN = """
import resource, sys
from nullstream.cli import main
resource.setrlimit(resource.RLIMIT_AS, (2 * 10**9, 2 * 10**9))
sys.exit(main(sys.argv[1:]))
"""


def test_run_budget_past_the_memory_cap_exits_2(tmp_path, capsys):
    inst_path = gen_anv(capsys, tmp_path / "anv.json", d=8)
    budget = 2**63 - 1
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", MEMORY_CAPPED_RUN, "run", "--instance", str(inst_path),
         "--alg", "random-unit", "--budget", str(budget), "--seed", "0"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == ["error: out of memory"]


@pytest.mark.parametrize("lemma,size", [("marginal", "--samples"), ("concentration", "--trials")])
def test_verify_size_past_the_memory_cap_exits_2(lemma, size):
    # 10^9 values of float64 are 8 GB, past the child's 2 GB cap, so the
    # draw raises MemoryError; that is a size refused, not a criterion failed
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", MEMORY_CAPPED_RUN, "verify", lemma, "--d", "64", size, "1000000000"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "error: Unable to allocate 7.45 GiB for an array with shape (1000000000,) "
        "and data type float64"]


# every failure from outside the lemmas is refused input: exit 2, nothing on
# stdout and one error: line that starts with what was refused, no traceback.
# Each memory probe asks for more than the capped child's 2 GB; each file
# probe hands a command an input file holding bytes that are not UTF-8, an
# integer past the interpreter's 4 300-digit limit or 200 000 open brackets;
# each OS probe reads or writes a path under a directory that does not exist
PAST_THE_CAP = "error: Unable to allocate "
LSP_PAST_THE_CAP = json.dumps({"problem": "lsp-margin", "trials": 1, "seed": 0, "params": {
    "d": 100_000, "m": 100_000, "gamma": 0.3, "algorithm": "random-unit", "budget_bits": 64}})
MEMORY_PROBES = {
    "no-joint-sol": ["verify", "no-joint-sol", "--d", "100000", "--trials", "1"],
    "sandwich": ["verify", "sandwich", "--d", "1000000000", "--trials", "1"],
    "singular": ["verify", "singular", "--d", "1000000000", "--trials", "1"],
    "marginal": ["verify", "marginal", "--d", "64", "--samples", "1000000000"],
    "concentration": ["verify", "concentration", "--d", "64", "--trials", "1000000000"],
    "comorth": ["verify", "comorth", "--d", "100000", "--trials", "1"],
    "gen": ["gen", "anv-gaussian", "--d", "100000", "--seed", "0", "--out", "{tmp}/anv.json"],
    "experiment": ["experiment", "--spec", "{file}", "--out", "{tmp}/rows.csv"],
}
FILE_PROBES = {
    "run": ["run", "--instance", "{file}", "--alg", "random-unit", "--budget", "64", "--seed", "0"],
    "gen": ["gen", "lsp-from-anv", "--instance", "{file}", "--out", "{tmp}/lsp.json"],
    "experiment": ["experiment", "--spec", "{file}", "--out", "{tmp}/rows.csv"],
}
BAD_FILES = {
    "non-utf8": (b'{"type": "\xff"}', "error: {file} is not UTF-8 text: "),
    "digits": (b'{"seed": ' + b"9" * 5000 + b"}", "error: malformed JSON: Exceeds the limit"),
    "nested": (b"[" * 200_000, "error: malformed JSON: maximum recursion depth exceeded"),
}
NO_SUCH_PATH = "error: [Errno 2] No such file or directory: '{tmp}/missing/anv.json'"
OS_PROBES = {
    "read": ["run", "--instance", "{tmp}/missing/anv.json", "--alg", "random-unit",
             "--budget", "64", "--seed", "0"],
    "write": ["gen", "anv-gaussian", "--d", "4", "--seed", "0", "--out", "{tmp}/missing/anv.json"],
}
BOUNDARY_PROBES = [
    pytest.param(argv, LSP_PAST_THE_CAP.encode(), PAST_THE_CAP, True, id="memory-" + name)
    for name, argv in MEMORY_PROBES.items()
] + [
    pytest.param(argv, data, first, False, id="%s-%s" % (command, bad))
    for command, argv in FILE_PROBES.items() for bad, (data, first) in BAD_FILES.items()
] + [
    pytest.param(argv, b"", NO_SUCH_PATH, False, id="os-" + name)
    for name, argv in OS_PROBES.items()
]


@pytest.mark.parametrize("argv,data,first,capped", BOUNDARY_PROBES)
def test_outside_failure_exits_2_with_one_error_line(argv, data, first, capped, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_bytes(data)
    argv = [arg.format(file=path, tmp=tmp_path) for arg in argv]
    if capped:
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", MEMORY_CAPPED_RUN, *argv],
                              env=env, capture_output=True, text=True, timeout=120)
        code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    else:
        code, stdout, stderr = run_cli(capsys, *argv)
    assert code == 2 and stdout == ""
    assert len(stderr.splitlines()) == 1
    assert stderr.startswith(first.format(file=path, tmp=tmp_path))


# the exit codes the cli module docstring documents
DOCUMENTED_EXIT = {
    errors.AcceptanceTooRare: 3,
    errors.BudgetViolation: 4,
    errors.DegenerateOutput: 5,
    errors.NotSeparableInProjection: 5,
}


def test_every_nullstream_error_exits_with_its_documented_code(capsys, monkeypatch):
    classes = [
        c for c in vars(errors).values()
        if isinstance(c, type) and issubclass(c, errors.NullstreamError)
    ]
    assert set(DOCUMENTED_EXIT) < set(classes)
    for klass in classes:
        def fail(args, klass=klass):
            raise klass("deliberate %s" % klass.__name__)

        monkeypatch.setattr(cli, "cmd_verify", fail)
        code, _, stderr = run_cli(capsys, "verify", "comorth", "--d", "4")
        assert code == DOCUMENTED_EXIT.get(klass, 2), klass
        assert stderr == "error: deliberate %s\n" % klass.__name__


def test_run_shuffled_is_deterministic_and_order_invariant_here(tmp_path, capsys):
    inst_path = gen_anv(capsys, tmp_path / "anv.json")
    argv = (
        "run", "--instance", str(inst_path), "--alg", "offline-kernel",
        "--budget", str(kernel_budget_bits(24)), "--seed", "5", "--order", "shuffled",
    )
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    code3, out3, _ = run_cli(
        capsys,
        "run", "--instance", str(inst_path), "--alg", "offline-kernel",
        "--budget", str(kernel_budget_bits(24)), "--seed", "5",
    )
    assert code3 == 0
    fixed = json.loads(out3)["metrics"]["loss"]
    assert json.loads(out1)["metrics"]["loss"] == pytest.approx(fixed, abs=1e-15)


def test_run_rejects_incompatible_algorithm(tmp_path, capsys):
    inst_path = gen_anv(capsys, tmp_path / "anv.json")
    code, _, stderr = run_cli(
        capsys,
        "run", "--instance", str(inst_path), "--alg", "offline-lstsq",
        "--budget", "99999", "--seed", "0",
    )
    assert code == 2
    assert "algorithm offline-lstsq does not accept anv instances (try: " in stderr
    code, _, stderr = run_cli(
        capsys,
        "run", "--instance", str(inst_path), "--alg", "no-such-thing",
        "--budget", "64", "--seed", "0",
    )
    assert code == 2
    assert "unknown algorithm 'no-such-thing'" in stderr
    assert "does not accept" not in stderr


# Every instance kind against every registered algorithm and one unknown name:
# the run, or the exact error text, of each pairing. None means the pairing runs.
UNKNOWN_BOGUS = ("unknown algorithm 'bogus' (have: offline-kernel, offline-lstsq, "
                 "offline-separator, proj-separator, random-unit, zero)")
DISPATCH = {
    ("anv", "zero"):
        "algorithm zero does not accept anv instances (try: random-unit, offline-kernel)",
    ("anv", "random-unit"): None,
    ("anv", "offline-kernel"): None,
    ("anv", "offline-lstsq"):
        "algorithm offline-lstsq does not accept anv instances (try: random-unit, offline-kernel)",
    ("anv", "offline-separator"):
        "algorithm offline-separator does not accept anv instances "
        "(try: random-unit, offline-kernel)",
    ("anv", "proj-separator"):
        "algorithm proj-separator does not accept anv instances (try: random-unit, offline-kernel)",
    ("anv", "bogus"): UNKNOWN_BOGUS,
    ("lsp", "zero"): None,
    ("lsp", "random-unit"): None,
    ("lsp", "offline-kernel"):
        "algorithm offline-kernel does not accept lsp instances "
        "(try: zero, random-unit, offline-separator, proj-separator)",
    ("lsp", "offline-lstsq"):
        "algorithm offline-lstsq does not accept lsp instances "
        "(try: zero, random-unit, offline-separator, proj-separator)",
    ("lsp", "offline-separator"): None,
    ("lsp", "proj-separator"): None,
    ("lsp", "bogus"): UNKNOWN_BOGUS,
    ("lr", "zero"): None,
    ("lr", "random-unit"): None,
    ("lr", "offline-kernel"):
        "algorithm offline-kernel does not accept lr instances "
        "(try: zero, random-unit, offline-lstsq)",
    ("lr", "offline-lstsq"): None,
    ("lr", "offline-separator"):
        "algorithm offline-separator does not accept lr instances "
        "(try: zero, random-unit, offline-lstsq)",
    ("lr", "proj-separator"):
        "algorithm proj-separator does not accept lr instances "
        "(try: zero, random-unit, offline-lstsq)",
    ("lr", "bogus"): UNKNOWN_BOGUS,
}
# the experiment generators of the anv and lsp kinds, at d = 8; no generator
# a sweep names makes lr instances
DISPATCH_PROBLEMS = {
    "anv": ("anv-conditioned", {"d": 8, "cf": 0.2}),
    "lsp": ("lsp-margin", {"d": 8, "m": 12, "gamma": 0.25}),
}
# enough for every state at d = 8 (proj-separator's is 77 464 bits)
DISPATCH_BUDGET = 100_000


@pytest.fixture(scope="module")
def dispatch_instances(tmp_path_factory):
    anv = gen_anv_conditioned(d=8, cf=0.2, seed=0)
    insts = {"anv": anv, "lsp": gen_lsp_margin(d=8, m=12, gamma=0.25, seed=0),
             "lr": gen_lr_from_anv(anv, 0)}
    paths = {}
    for kind, inst in insts.items():
        paths[kind] = tmp_path_factory.mktemp("dispatch") / (kind + ".json")
        paths[kind].write_text(instance_to_json(inst, 0))
    return paths


@pytest.mark.parametrize("kind, alg", sorted(DISPATCH), ids="-".join)
def test_run_dispatch_runs_or_names_the_mismatch(dispatch_instances, capsys, kind, alg):
    code, stdout, stderr = run_cli(
        capsys, "run", "--instance", str(dispatch_instances[kind]), "--alg", alg,
        "--budget", str(DISPATCH_BUDGET), "--seed", "0",
    )
    if DISPATCH[kind, alg] is None:
        assert code == 0 and stderr == ""
        assert json.loads(stdout)["algorithm"] == alg
    else:
        assert code == 2 and stdout == ""
        assert stderr.splitlines() == ["error: " + DISPATCH[kind, alg]]


@pytest.mark.parametrize("kind, alg", sorted(k for k in DISPATCH if k[0] in DISPATCH_PROBLEMS),
                         ids="-".join)
def test_experiment_dispatch_runs_or_names_the_mismatch(tmp_path, capsys, kind, alg):
    problem, params = DISPATCH_PROBLEMS[kind]
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "problem": problem, "trials": 1, "seed": 0,
        "params": {**params, "algorithm": alg, "budget_bits": DISPATCH_BUDGET},
    }))
    out = tmp_path / "rows.csv"
    code, _, stderr = run_cli(capsys, "experiment", "--spec", str(spec), "--out", str(out))
    if DISPATCH[kind, alg] is None:
        assert code == 0 and stderr == ""
        assert ",ok," in out.read_text()
    else:
        assert code == 2
        assert stderr.splitlines() == ["error: " + DISPATCH[kind, alg]]
        assert not out.exists()


@pytest.mark.parametrize("name", [["proj-separator"], {"proj-separator": 1}, None], ids=repr)
@pytest.mark.parametrize("where", ["params", "grid"])
def test_experiment_non_string_algorithm_exits_2(tmp_path, capsys, name, where):
    # a list or a dict is unhashable: no table lookup may raise a bare TypeError
    spec = {"problem": "lsp-margin", "trials": 1, "seed": 0,
            "params": {"d": 8, "m": 12, "gamma": 0.25, "budget_bits": DISPATCH_BUDGET}}
    if where == "params":
        spec["params"]["algorithm"] = name
    else:
        spec["grid"] = {"algorithm": [name]}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "rows.csv"
    code, stdout, stderr = run_cli(
        capsys, "experiment", "--spec", str(spec_path), "--out", str(out))
    assert code == 2 and stdout == ""
    assert stderr.splitlines() == [
        "error: unknown algorithm %r (have: offline-kernel, offline-lstsq, offline-separator, "
        "proj-separator, random-unit, zero)" % (name,)
    ]
    assert not out.exists()


def test_run_appends_csv_rows(tmp_path, capsys):
    inst_path = gen_anv(capsys, tmp_path / "anv.json")
    out_csv = tmp_path / "runs.csv"
    argv = (
        "run", "--instance", str(inst_path), "--alg", "random-unit",
        "--budget", "64", "--seed", "0", "--csv", str(out_csv),
    )
    assert run_cli(capsys, *argv)[0] == 0
    assert run_cli(capsys, *argv)[0] == 0
    lines = out_csv.read_text().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("instance_type,d,n_samples,algorithm,budget_bits")
    assert lines[1] == lines[2]


def test_verify_comorth_passes_and_writes_csv(tmp_path, capsys):
    out_csv = tmp_path / "com.csv"
    code, stdout, stderr = run_cli(
        capsys,
        "verify", "comorth", "--d", "16", "--trials", "20", "--out-csv", str(out_csv),
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["pass_fraction"] == 1.0
    assert "PASS" in stderr
    assert len(out_csv.read_text().splitlines()) == 21


def test_verify_singular_small_case_passes(capsys):
    code, stdout, _ = run_cli(
        capsys, "verify", "singular", "--d", "32", "--trials", "20",
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["statistics"]["violation_rate"] == 0.0


def test_verify_marginal_passes(capsys):
    code, stdout, _ = run_cli(
        capsys, "verify", "marginal", "--d", "64", "--samples", "50000",
    )
    assert code == 0
    assert json.loads(stdout)["statistics"]["ks_exact"] <= 0.01


def test_verify_failing_certificate_exits_1(capsys):
    # loose concentration at tiny d cannot meet the tight sandwich bounds
    code, stdout, stderr = run_cli(
        capsys, "verify", "sandwich", "--d", "16", "--t", "0.01", "--trials", "20",
    )
    assert code == 1
    assert "FAIL" in stderr
    assert json.loads(stdout)["pass_fraction"] < 0.95


def test_verify_invalid_dimension_exits_2(capsys):
    code, _, _ = run_cli(capsys, "verify", "no-joint-sol", "--d", "63", "--trials", "5")
    assert code == 2


@pytest.mark.parametrize("d", ["0", "-3"])
def test_verify_singular_with_d_below_1_exits_2_before_drawing(capsys, monkeypatch, d):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew before checking d")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    code, stdout, stderr = run_cli(capsys, "verify", "singular", "--d", d)
    assert code == 2
    assert stdout == ""
    assert stderr.splitlines() == ["error: need d >= 1"]


@pytest.mark.parametrize(
    "argv",
    [
        ("no-joint-sol", "--d", "16", "--trials", "0"),
        ("sandwich", "--d", "16", "--trials", "0"),
        ("singular", "--d", "16", "--trials", "0"),
        ("marginal", "--d", "16", "--samples", "0"),
        ("marginal", "--d", "16", "--samples", "-1"),
        ("concentration", "--d", "16", "--trials", "0"),
        ("comorth", "--d", "16", "--trials", "-2"),
    ],
    ids=lambda a: "%s%s" % (a[0], a[-1]),
)
def test_verify_without_trials_or_samples_exits_2(capsys, argv):
    code, stdout, stderr = run_cli(capsys, "verify", *argv)
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error: ") and "must be at least 1" in stderr


@pytest.mark.parametrize("trials", ["0", "-3", "5"])
def test_verify_marginal_takes_no_trials(capsys, trials):
    # the marginal draws one sample set; a --trials it ignored would pass
    with pytest.raises(SystemExit) as exc:
        main(["verify", "marginal", "--d", "16", "--samples", "20", "--trials", trials])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --trials" in captured.err


def test_verify_concentration_with_one_trial_exits_2(capsys):
    # one sample's std is 0, so its cap would pass without measuring anything
    code, stdout, stderr = run_cli(capsys, "verify", "concentration", "--d", "8", "--trials", "1")
    assert code == 2
    assert stdout == ""
    assert stderr.count("\n") == 1
    assert stderr.startswith("error: trials must be at least 2")
    assert "std of one sample is 0" in stderr


@pytest.mark.parametrize(
    "argv,param",
    [
        (("sandwich", "--t", "-3"), "t"),
        (("sandwich", "--t", "nan"), "t"),
        (("singular", "--t", "nan"), "t"),
        (("singular", "--t", "1"), "t"),
        (("singular", "--t", "inf"), "t"),
        (("no-joint-sol", "--c-emp", "nan"), "c_emp"),
        (("no-joint-sol", "--c-emp", "-0.5"), "c_emp"),
        (("no-joint-sol", "--c-emp", "0"), "c_emp"),
        (("no-joint-sol", "--delta", "-1"), "delta_threshold"),
        (("no-joint-sol", "--delta", "1"), "delta_threshold"),
        (("no-joint-sol", "--delta", "nan"), "delta_threshold"),
    ],
    ids=lambda a: "".join(a) if isinstance(a, tuple) else None,
)
def test_verify_rejects_bad_real_parameters(capsys, argv, param):
    code, stdout, stderr = run_cli(
        capsys, "verify", argv[0], "--d", "16", "--trials", "2", *argv[1:]
    )
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error: %s must be a finite number" % param)


@pytest.mark.parametrize("cf", ["nan", "inf", "-inf", "-0.1", "1.5"])
def test_verify_marginal_rejects_bad_cf_before_drawing(capsys, monkeypatch, cf):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew samples before checking cf")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    code, stdout, stderr = run_cli(
        capsys, "verify", "marginal", "--d", "64", "--samples", "100000", "--cf=" + cf
    )
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error: c_f must be a finite number in [0, 1)")


def test_verify_marginal_rejects_an_underflowing_tail_before_drawing(capsys, monkeypatch):
    # at d 2048 the tail above 0.9 is below the smallest float, so alpha =
    # -log(tail) / d would be inf and the report could not be written
    def no_draw(*args, **kwargs):
        raise AssertionError("drew samples before checking the tail")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    code, stdout, stderr = run_cli(
        capsys, "verify", "marginal", "--d", "2048", "--samples", "2000", "--cf", "0.9"
    )
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error: c_f 0.9: the exact tail at d = 2048 underflows to 0")


def test_run_lstsq_on_overflowing_rows_exits_2(tmp_path, capsys):
    # the loader's row-norm check turns such a file away before the solver
    # sees it; the solver's own overflow check is tested in test_algorithms
    inst_path = tmp_path / "lr.json"
    inst_path.write_text(json.dumps({
        "type": "lr", "d": 3, "params": {"m": 5},
        "vectors": (np.random.default_rng(0).standard_normal((5, 3)) * 1e200).tolist(),
        "targets": [1.0] * 5, "witness": [0.0] * 3, "seed": 0,
    }))
    with np.errstate(over="ignore"):
        code, stdout, stderr = run_cli(
            capsys,
            "run", "--instance", str(inst_path), "--alg", "offline-lstsq",
            "--budget", "100000", "--seed", "0",
        )
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error: ")


@pytest.mark.parametrize("kind, key, alg, message", [
    ("lr", "vectors", "offline-lstsq", "row norms must be at most 1"),
    ("lsp", "points", "offline-separator", "witness does not achieve the claimed margin"),
])
def test_run_on_huge_rows_prints_one_error_line(tmp_path, capsys, kind, key, alg, message):
    # their norms overflow; stderr carries the error line and no numpy warning
    inst = {
        "lr": {"type": "lr", "d": 3, "params": {"m": 2}, "targets": [0.0, 0.0],
               "witness": [0.0] * 3},
        "lsp": {"type": "lsp", "d": 3, "params": {"m": 2, "margin": 0.5},
                "labels": [1.0, 1.0], "witness": [1.0, 0.0, 0.0]},
    }[kind]
    inst.update({key: [[1e200] * 3, [1e200] * 3], "seed": 0})
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(inst))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, stderr = run_cli(
            capsys,
            "run", "--instance", str(inst_path), "--alg", alg,
            "--budget", "100000", "--seed", "0",
        )
    assert code == 2
    assert stdout == ""
    assert stderr.splitlines() == ["error: " + message]


# every command whose seed reaches a numpy generator; {anv} is a conditioned
# instance file and {out} a path that must stay unwritten
NEGATIVE_SEED_ARGV = [
    ["gen", "anv-gaussian", "--d", "8"],
    ["gen", "anv-conditioned", "--d", "8"],
    ["gen", "lsp-margin", "--d", "8", "--m", "4", "--gamma", "0.3"],
    ["gen", "lsp-hard", "--d", "8", "--m", "8"],
    ["gen", "lr-from-anv", "--instance", "{anv}"],
    ["verify", "no-joint-sol", "--d", "8", "--trials", "1"],
    ["verify", "sandwich", "--d", "8", "--trials", "1"],
    ["verify", "singular", "--d", "8", "--trials", "1"],
    ["verify", "marginal", "--d", "8", "--samples", "10"],
    ["verify", "concentration", "--d", "8", "--trials", "10"],
    ["verify", "comorth", "--d", "8", "--trials", "1"],
    ["run", "--instance", "{anv}", "--alg", "random-unit", "--budget", "1000"],
]


@pytest.mark.parametrize("argv", NEGATIVE_SEED_ARGV,
                         ids=lambda a: "-".join(a[:2] if a[0] != "run" else ("run", a[4])))
def test_negative_seed_exits_2_with_one_error_line(tmp_path, capsys, argv):
    anv = str(gen_anv(capsys, tmp_path / "anv.json"))
    out = tmp_path / "out.json"
    argv = [a.format(anv=anv) for a in argv] + ["--seed", "-1"]
    if argv[0] == "gen":
        argv += ["--out", str(out)]
    code, stdout, stderr = run_cli(capsys, *argv)
    assert code == 2
    assert stdout == ""
    assert "Traceback" not in stderr
    assert stderr.splitlines() == ["error: seed must be a non-negative integer, got -1"]
    assert not out.exists()


def test_negative_seed_still_runs_where_no_generator_takes_it(tmp_path, capsys):
    # run seeds shared randomness, which masks the seed to 64 bits
    anv = str(gen_anv(capsys, tmp_path / "anv.json"))
    code, stdout, _ = run_cli(
        capsys, "run", "--instance", anv, "--alg", "offline-kernel",
        "--budget", "300000", "--seed", "-1",
    )
    assert code == 0
    assert json.loads(stdout)["seed"] == -1


SWEEP = {
    "problem": "lsp-margin",
    "params": {"m": 30, "gamma": 0.25},
    "grid": {
        "d": [12, 16],
        "budget_bits": [40000, 512],
        "algorithm": ["offline-separator"],
    },
    "trials": 2,
    "seed": 11,
}


def test_experiment_sweep_rows_and_resume(tmp_path, capsys):
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps(SWEEP))
    out = tmp_path / "sweep.csv"
    code, stdout, _ = run_cli(capsys, "experiment", "--spec", str(spec), "--out", str(out))
    assert code == 0
    assert "8 rows" in stdout
    first = out.read_text()
    lines = first.splitlines()
    assert lines[0] == "algorithm,budget_bits,d,trial,seed,status,state_bits,loss,error,margin"
    assert len(lines) == 9
    statuses = [line.split(",")[5] for line in lines[1:]]
    assert statuses.count("ok") == 4
    assert statuses.count("budget-violation") == 4

    # rerun: nothing new, file untouched
    code, stdout, _ = run_cli(capsys, "experiment", "--spec", str(spec), "--out", str(out))
    assert code == 0
    assert "0 rows" in stdout
    assert out.read_text() == first


def test_experiment_single_cell_matches_run_command(tmp_path, capsys):
    spec = tmp_path / "one.json"
    spec.write_text(
        json.dumps(
            {
                "problem": "lsp-margin",
                "params": {"m": 30, "gamma": 0.25},
                "grid": {"d": [16], "budget_bits": [40000], "algorithm": ["offline-separator"]},
                "trials": 1,
                "seed": 4,
            }
        )
    )
    out = tmp_path / "one.csv"
    assert run_cli(capsys, "experiment", "--spec", str(spec), "--out", str(out))[0] == 0
    header, row = out.read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["status"] == "ok"
    seed = cells["seed"]

    inst_path = tmp_path / "inst.json"
    code, _, _ = run_cli(
        capsys,
        "gen", "lsp-margin", "--d", "16", "--m", "30", "--gamma", "0.25",
        "--seed", seed, "--out", str(inst_path),
    )
    assert code == 0
    code, stdout, _ = run_cli(
        capsys,
        "run", "--instance", str(inst_path), "--alg", "offline-separator",
        "--budget", "40000", "--seed", seed,
    )
    assert code == 0
    report = json.loads(stdout)
    assert float(cells["error"]) == report["metrics"]["error"]
    assert float(cells["margin"]) == report["metrics"]["margin"]
    assert int(cells["state_bits"]) == report["max_used_bits"]


def test_experiment_calls_the_module_names_a_profiler_rebinds(tmp_path, capsys, monkeypatch):
    # perfbench times a sweep by rebinding these names on nullstream.cli; a
    # table that captured the functions at import would bypass the spans
    called = []

    def spy(name):
        original = getattr(cli, name)

        def wrapper(*args, **kwargs):
            called.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, name, wrapper)

    names = ("gen_lsp_margin", "build_algorithm", "run_one_pass_stats", "shuffle",
             "classification_error", "margin_of")
    for name in names:
        spy(name)
    spec = tmp_path / "one.json"
    spec.write_text(json.dumps({
        "problem": "lsp-margin",
        "params": {"d": 8, "m": 12, "gamma": 0.25, "algorithm": "zero", "budget_bits": 64},
        "trials": 1, "seed": 4, "order": "shuffled",
    }))
    out = tmp_path / "one.csv"
    assert run_cli(capsys, "experiment", "--spec", str(spec), "--out", str(out))[0] == 0
    assert sorted(set(called)) == sorted(names)
    assert ",ok," in out.read_text()


def test_experiment_parallel_matches_serial(tmp_path, capsys, monkeypatch):
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps(SWEEP))
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    assert run_cli(capsys, "experiment", "--spec", str(spec), "--out", str(serial))[0] == 0
    monkeypatch.setenv("NULLSTREAM_THREADS", "4")
    assert run_cli(capsys, "experiment", "--spec", str(spec), "--out", str(parallel))[0] == 0
    assert parallel.read_text() == serial.read_text()


def test_experiment_malformed_spec_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    out = tmp_path / "out.csv"
    bad.write_text("{not json")
    assert run_cli(capsys, "experiment", "--spec", str(bad), "--out", str(out))[0] == 2
    bad.write_text(json.dumps({**SWEEP, "surprise": 1}))
    assert run_cli(capsys, "experiment", "--spec", str(bad), "--out", str(out))[0] == 2
    bad.write_text(json.dumps({**SWEEP, "grid": {"d": []}}))
    assert run_cli(capsys, "experiment", "--spec", str(bad), "--out", str(out))[0] == 2
    missing = dict(SWEEP)
    missing["grid"] = {"d": [12]}  # no budget anywhere
    bad.write_text(json.dumps(missing))
    assert run_cli(capsys, "experiment", "--spec", str(bad), "--out", str(out))[0] == 2
    # integer parameters take JSON integers only: no strings, fractions or booleans
    for key, value in (("budget_bits", "abc"), ("budget_bits", 1.5), ("d", "x"), ("d", True)):
        bad.write_text(json.dumps({**SWEEP, "grid": {**SWEEP["grid"], key: [value]}}))
        assert run_cli(capsys, "experiment", "--spec", str(bad), "--out", str(out))[0] == 2
    for change in ({"params": {"m": 30.0, "gamma": 0.25}}, {"trials": True}, {"seed": False}):
        bad.write_text(json.dumps({**SWEEP, **change}))
        assert run_cli(capsys, "experiment", "--spec", str(bad), "--out", str(out))[0] == 2
    # real parameters take finite JSON numbers only: no strings, booleans or infinities
    for gamma in ("0.25", True, float("inf"), 10**400):
        bad.write_text(json.dumps({**SWEEP, "params": {"m": 30, "gamma": gamma}}))
        code, _, err = run_cli(capsys, "experiment", "--spec", str(bad), "--out", str(out))
        assert code == 2 and "'gamma'" in err
    # each row's seed is derived from the top-level seed, never taken from a cell
    for change in ({"params": {**SWEEP["params"], "seed": 5}},
                   {"grid": {**SWEEP["grid"], "seed": [1, 2]}}):
        bad.write_text(json.dumps({**SWEEP, **change}))
        code, _, err = run_cli(capsys, "experiment", "--spec", str(bad), "--out", str(out))
        assert code == 2 and "seed" in err
    for key in ("cf", "c"):
        params = {"m": 30, "cf": 0.2, "c": 1.0, key: "0.5"}
        bad.write_text(json.dumps({**SWEEP, "problem": "lsp-hard", "params": params}))
        code, _, err = run_cli(capsys, "experiment", "--spec", str(bad), "--out", str(out))
        assert code == 2 and "%r" % key in err
    # a misspelled algorithm is named as unknown, not as a kind mismatch
    bad.write_text(json.dumps({**SWEEP, "grid": {**SWEEP["grid"], "algorithm": ["bogus"]}}))
    code, _, err = run_cli(capsys, "experiment", "--spec", str(bad), "--out", str(out))
    assert code == 2 and "unknown algorithm 'bogus'" in err
    assert not out.exists()


def test_experiment_unknown_parameter_fails_before_generation(tmp_path, capsys, monkeypatch):
    # cf 0.9 at d 64 never accepts in 2 attempts, so a generation would end in
    # an acceptance-too-rare row; the misspelled key must be named first
    built = []
    monkeypatch.setattr(cli, "gen_anv_conditioned", lambda **kw: built.append(kw))
    spec = tmp_path / "spec.json"
    out = tmp_path / "out.csv"
    spec.write_text(json.dumps({
        "problem": "anv-conditioned",
        "params": {"d": 64, "cf": 0.9, "max_attempts": 2, "zzz": 1,
                   "algorithm": "offline-kernel", "budget_bits": 300000},
        "trials": 1, "seed": 1,
    }))
    code, _, err = run_cli(capsys, "experiment", "--spec", str(spec), "--out", str(out))
    assert code == 2 and "zzz" in err
    assert built == []
    assert not out.exists()


def _whole_sweep(tmp_path, capsys):
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps(SWEEP))
    whole = tmp_path / "whole.csv"
    assert run_cli(capsys, "experiment", "--spec", str(spec), "--out", str(whole))[0] == 0
    return spec, whole.read_bytes()


@pytest.mark.parametrize("threads", [None, "2"])
def test_experiment_interrupted_sweep_keeps_done_rows_and_resumes(
    tmp_path, capsys, monkeypatch, threads
):
    spec, whole = _whole_sweep(tmp_path, capsys)
    lines = whole.splitlines(keepends=True)
    if threads is not None:
        monkeypatch.setenv("NULLSTREAM_THREADS", threads)
    out = tmp_path / "sweep.csv"
    real = cli._run_experiment_row
    for k in (1, 5):
        # fail on the row that lands on line k + 1, whichever thread runs it
        kill_seed = lines[1 + k].split(b",")[4].decode()

        def killed(*args):
            row = real(*args)
            if str(row["seed"]) == kill_seed:
                raise RuntimeError("killed")
            return row

        monkeypatch.setattr(cli, "_run_experiment_row", killed)
        with pytest.raises(RuntimeError):
            main(["experiment", "--spec", str(spec), "--out", str(out)])
        assert out.read_bytes() == b"".join(lines[: 1 + k])
        monkeypatch.setattr(cli, "_run_experiment_row", real)
        code, stdout, _ = run_cli(capsys, "experiment", "--spec", str(spec), "--out", str(out))
        assert code == 0
        assert stdout.startswith("%d rows appended" % (len(lines) - 1 - k))
        assert out.read_bytes() == whole
        out.unlink()


def test_experiment_resume_drops_a_line_cut_mid_write(tmp_path, capsys):
    spec, whole = _whole_sweep(tmp_path, capsys)
    out = tmp_path / "sweep.csv"
    lines = whole.splitlines(keepends=True)
    line_end = len(b"".join(lines[:4]))
    after_key = line_end + len(b",".join(lines[4].split(b",")[:4])) + 1
    # inside the header; at a line end; after a row's key cells; inside a float
    for cut in (9, line_end, after_key, len(whole) - 3):
        out.write_bytes(whole[:cut])
        assert run_cli(capsys, "experiment", "--spec", str(spec), "--out", str(out))[0] == 0
        assert out.read_bytes() == whole, cut
    # a file that is not a cut-short sweep is refused and left as it is
    out.write_bytes(b"not,a,sweep")
    assert run_cli(capsys, "experiment", "--spec", str(spec), "--out", str(out))[0] == 2
    assert out.read_bytes() == b"not,a,sweep"
