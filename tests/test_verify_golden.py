"""Golden bytes of the certificates at their default thresholds and of the
two separator algorithms.

`nullstream verify` prints a report whose statistics carry every threshold
it was judged against (c_emp, the sandwich bounds, the spectral envelope
fractions, the KS and std caps), so the stdout digest of each lemma pins
those values along with the verdict; at d = 16 and 2000 samples the marginal
test misses its KS cap, so that case pins a FAIL.  Three cases change a
threshold: at delta 0.99 every no-joint-sol trial is skipped, so its pass
fraction is 0.0 and it fails; sandwich at t = 0.01 passes 13 of 20 trials and
fails, and at t = 0.13 passes 19 of 20 and meets its 0.95 rule.  The separator outputs pin the
quantization range and pass limits through the separator each run returns.
The sandwich, singular, no-joint-sol, concentration and marginal bytes are
also compared across one and two BLAS threads, and so are those of a
d = 1024 `gen` and sweep and of `verify comorth` at d = 128, which differed
before the CLI pinned one thread.
"""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import nullstream
from nullstream.algorithms import build_algorithm, proj_state_bits, separator_budget_bits
from nullstream.cli import main, report_to_json
from nullstream.config import DEFAULTS
from nullstream.instances import gen_lsp_margin
from nullstream.streaming import run_one_pass
from nullstream.verification import (
    certify_no_joint_sol,
    certify_sandwich,
    comorth_check,
    sphere_marginal_tests,
)

# argv after "verify" -> (exit code, sha256 of stdout)
VERIFY_CASES = {
    ("no-joint-sol", "--d", "16", "--trials", "6", "--seed", "3"):
        (0, "3a7dd220af2935f13d2c1ab62238921a726e6fa8fe057d47190f2d5a2b1e0a39"),
    ("sandwich", "--d", "16", "--trials", "6", "--seed", "3"):
        (0, "5075213488aeee83e3c8d957f0c692b1299403272310a96fd732e47f455675a8"),
    ("singular", "--d", "12", "--trials", "20", "--seed", "3"):
        (0, "129276cc128a419ef76798bfe94e93285302fc6535118cb1fa70b1b7c217521e"),
    ("marginal", "--d", "16", "--samples", "2000", "--seed", "3"):
        (1, "4fefb927f9f214868447464f935b89fefc2671fbd7524261241a0fed13e769cf"),
    ("concentration", "--d", "16", "--trials", "500", "--seed", "3"):
        (0, "41b63213e90cb8c8b17754bc778e86dbcd9c79d474e262cdac6d186c5c3ddeb4"),
    ("comorth", "--d", "12", "--trials", "10", "--seed", "3"):
        (0, "9b76d9ee2dbda9c8f0c00b9bd2747b2bd7dfe5d82902047219b1ff953301ff99"),
    ("no-joint-sol", "--d", "8", "--delta", "0.99", "--trials", "3"):
        (1, "91458cd28a2fc2da115e6514ed209666b3ca0537acae4798cf656397df7d19db"),
    ("sandwich", "--d", "16", "--t", "0.01", "--trials", "20", "--seed", "3"):
        (1, "acf4fb7b9366501fe669156c354368f2705031da708226c7e0a60b26efb095c3"),
    ("sandwich", "--d", "16", "--t", "0.13", "--trials", "20", "--seed", "2"):
        (0, "76ca2fe4c6037af524a3a1e7c39e4219d495bf7d4d3ded047650345d23343695"),
}


def _case_id(argv):
    # a case at the default thresholds is named by its lemma alone
    flags = dict(zip(argv[1::2], argv[2::2]))
    return " ".join([argv[0]] + ["%s %s" % (k, flags[k]) for k in ("--delta", "--t") if k in flags])


@pytest.mark.parametrize("argv", sorted(VERIFY_CASES), ids=_case_id)
def test_verify_stdout_at_default_thresholds(argv, capsys):
    code = main(["verify", *argv])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode("utf-8")).hexdigest()) == VERIFY_CASES[argv]


# sha256 of report_to_json at the certify workload's sizes, made before the
# certificates factored their trials in stacks: 50 no-joint-sol trials at
# d = 64 span seven chunks of up to 8, 100 comorth trials at d = 32 are
# stacked by k, and the marginal's 100 000 samples cross a block of the
# screened KS statistic
REPORT_CASES = {
    ("no-joint-sol", 0): "1afffe630b62c2348f5d29fc1fff4e8c7ab7a35d879427cf5e376b3850d467e2",
    ("no-joint-sol", 7): "121a04c1552267c8832f3c25b8351ef4542a33512012edc964ffcc0d439e9d12",
    ("comorth", 0): "445638565252e66819a48b6d1cc4c8240dcc0dec05c5f658500312e9b5e45b41",
    ("comorth", 7): "019050cd4d50b8d73356bf3e2d626920471009428b98e1b3adfc64a425526d66",
    ("marginal", 0): "b27822d0b6509a31f071162d7e8fc1ca3cb3596c787b3a8907bf8050e14ef31d",
    ("marginal", 7): "c9b0908cd56a358d24299c7205c8ad43d84763f6c889b3092219eb3ecad3fd67",
}
REPORTS = {
    "no-joint-sol": lambda seed: certify_no_joint_sol(64, 0.5, 50, seed),
    "comorth": lambda seed: comorth_check(32, 100, seed),
    "marginal": lambda seed: sphere_marginal_tests(64, 100_000, 0.2, seed),
}


@pytest.mark.parametrize("case", sorted(REPORT_CASES), ids=str)
def test_report_bytes_at_the_certify_workload_sizes(case):
    lemma, seed = case
    digest = hashlib.sha256(report_to_json(REPORTS[lemma](seed)).encode("utf-8")).hexdigest()
    assert digest == REPORT_CASES[case]


# the sandwich verdicts on their own, apart from the rho bytes the digests
# above also cover: argv after "verify" -> (exit code, trials that failed)
SANDWICH_VERDICTS = {
    ("sandwich", "--d", "16", "--trials", "6", "--seed", "3"): (0, ()),
    ("sandwich", "--d", "16", "--t", "0.01", "--trials", "20", "--seed", "3"):
        (1, (0, 3, 4, 7, 9, 14, 19)),
    ("sandwich", "--d", "16", "--t", "0.13", "--trials", "20", "--seed", "2"): (0, (7,)),
}


@pytest.mark.parametrize("argv", sorted(SANDWICH_VERDICTS), ids=_case_id)
def test_sandwich_verdict_per_trial(argv, capsys):
    code = main(["verify", *argv])
    rows = json.loads(capsys.readouterr().out)["trial_rows"]
    expected_code, failed = SANDWICH_VERDICTS[argv]
    trials = int(argv[argv.index("--trials") + 1])
    assert code == expected_code
    assert [r["passed"] for r in rows] == [t not in failed for t in range(trials)]


def test_sandwich_verdict_per_trial_at_acceptance_size():
    # criterion 7's run: every one of its 100 trials passes
    r = certify_sandwich(128, 0.2, 100, seed=0)
    assert r.passed
    assert [row["passed"] for row in r.trial_rows] == [True] * 100


SRC = os.path.dirname(os.path.dirname(os.path.abspath(nullstream.__file__)))


def _cli_stdout(threads, *argv, cwd=None):
    """stdout of `nullstream <argv>` in a fresh process at that many OpenBLAS
    threads."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-m", "nullstream.cli", *argv], env=env, cwd=cwd,
                          capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _verify_stdout_at_one_and_two_blas_threads(*argv):
    return [_cli_stdout(threads, "verify", *argv) for threads in ("1", "2")]


@pytest.mark.parametrize("d", [64, 128, 256, 512])
def test_verify_sandwich_bytes_do_not_depend_on_blas_threads(d):
    # OpenBLAS splits a large SVD, eigh or pivoted QR across threads, which
    # rounds differently; the chi halves form no matrix, and dlasq1 does no
    # matrix product to split (the dense halves' SVDs differed at d = 512)
    one, two = _verify_stdout_at_one_and_two_blas_threads(
        "sandwich", "--d", str(d), "--t", "0.2", "--trials", "20")
    assert one == two


def test_verify_singular_bytes_do_not_depend_on_blas_threads():
    # no dense matrix is formed, and dlasq1 does no matrix product to split
    one, two = _verify_stdout_at_one_and_two_blas_threads(
        "singular", "--d", "256", "--trials", "20")
    assert one == two


@pytest.mark.parametrize("argv", [
    ("no-joint-sol", "--d", "128", "--trials", "5"),
    ("concentration", "--d", "256", "--trials", "2000"),
    ("marginal", "--d", "256", "--samples", "20000"),
], ids=lambda argv: argv[0])
def test_verify_certificate_bytes_do_not_depend_on_blas_threads(argv):
    one, two = _verify_stdout_at_one_and_two_blas_threads(*argv)
    assert one == two


def test_cli_bytes_do_not_depend_on_blas_threads(tmp_path):
    # at two threads OpenBLAS splits gen_lsp_margin's 700 x 1024 gemv, the
    # dorgqr of the 1024 x 600 projection basis and comorth's QRs at
    # d = 128, each of which rounds differently; `nullstream` runs numpy's
    # bundled OpenBLAS on one thread whatever OPENBLAS_NUM_THREADS says
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({
        "problem": "lsp-margin",
        "params": {"m": 700, "gamma": 0.3},
        "grid": {"d": [1024], "budget_bits": [5760664], "algorithm": ["proj-separator"]},
        "trials": 2,
        "seed": 0,
    }))
    runs = []
    for threads in ("1", "2"):
        cwd = tmp_path / threads
        cwd.mkdir()
        stdout = [
            _cli_stdout(threads, "gen", "lsp-margin", "--d", "1024", "--m", "700",
                        "--gamma", "0.3", "--seed", "1", "--out", "inst.json", cwd=cwd),
            _cli_stdout(threads, "experiment", "--spec", str(spec), "--out", "sweep.csv",
                        cwd=cwd),
            _cli_stdout(threads, "verify", "comorth", "--d", "128", "--trials", "20", cwd=cwd),
        ]
        files = {f: hashlib.sha256((cwd / f).read_bytes()).hexdigest()
                 for f in ("inst.json", "sweep.csv")}
        runs.append((stdout, files))
    assert runs[0] == runs[1]


D, M, GAMMA = 16, 40, 0.25
SEP = DEFAULTS.separator

BUDGETS = {
    "offline-separator": separator_budget_bits(D, M),
    "proj-separator": proj_state_bits(min(SEP.dprime, D), SEP.subsample, SEP.quant_bits),
}

# (algorithm, seed) -> sha256 of the output vector's float64 bytes
SEPARATOR_CASES = {
    ("offline-separator", 1): "a70d5ab6c5a5171f9363746c43b4b9156b6267f4807d729c2b38303b8f1eeabb",
    ("offline-separator", 2): "36d6ad4bf41a81da6a5e297264da7925c043ca83140811ba1a1541b7c925cbfe",
    ("proj-separator", 1): "57fc15c0cf382c31d2688b622cc2f1873c41d92870ab0b0b96214612d339ee49",
    ("proj-separator", 2): "84ffbc5c40c2828ac9bdd8e7d92d087cf86a8b60bd1870bce4dc92f3eb150de6",
}


@pytest.mark.parametrize("case", sorted(SEPARATOR_CASES), ids=str)
def test_separator_output_bytes(case):
    name, seed = case
    ds = gen_lsp_margin(D, M, GAMMA, seed)
    w = run_one_pass(build_algorithm(name, D, seed), ds.points(), BUDGETS[name], seed)
    digest = hashlib.sha256(np.ascontiguousarray(w, dtype=float).tobytes()).hexdigest()
    assert digest == SEPARATOR_CASES[case]
