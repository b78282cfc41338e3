"""Golden bytes of the sphere-marginal certificate.

The cases sit at the edges of the row blocks (2**16 // d rows) that an
earlier dense draw used, which is 16384 rows at d = 4, 1024 at d = 64 and 65
at d = 1000: for each d one row below a block, exactly one block, one row
past it, and three and a half blocks.  d = 64 with 100 000 samples is the
benchmark size, the one case that passes its KS caps.  The certificate now
draws each coordinate as x / sqrt(x^2 + R), two draws per sample whatever d,
so the cases pin that draw at a spread of sample counts.

Each case has three digests.  The whole-report digest covers every byte the
certificate prints, the closed-form exact tail and alpha included.  The
sample digest covers only what the samples decide (the two KS statistics,
the empirical tail, the sample count and the trial rows), so a change to the
exact tail alone leaves it as it is.  The verdict digest covers the whole
report except ks_exact, the one statistic the exact-CDF oracle decides, with
the verdict itself added, so a change of oracle that keeps every verdict
leaves it as it is.  The verify-marginal case is the `nullstream verify
marginal` golden run.

The certificate's oracle is the closed form first_coord_cdf, a finite sum
of positive terms.  Two test-only references check it: scipy's betainc, on
451 points of [-1, 1] at nine d, and the trapezoid grid the closed form
replaced, whose digests pin its bytes.  It must also agree with the
elementary laws at d = 2, 3 and 4, and with its own Taylor line next to
x = 0, where the tail's 1 - x^2 orientation loses digits.
"""

import hashlib
import math

import numpy as np
import pytest

from nullstream import instances
from nullstream.cli import main
from nullstream.config import DEFAULTS
from nullstream.serialize import dumps, report_to_json
from nullstream.verification import first_coord_cdf, sphere_marginal_tests

CF, SEED = 0.2, 3

# (d, samples) -> sha256 of report_to_json(sphere_marginal_tests(d, samples, CF, SEED))
MARGINAL_CASES = {
    (4, 16383): "6badc0fe6f1a9853a6cb163933a1aa3199482d681c16689b52cf49d46947870d",
    (4, 16384): "1a59b8334e1a21ab0d627078c9fad91131922dfca2e6fe4db78db4d8a65a1102",
    (4, 16385): "4ef7b18098496405bfc7e19d4ab90689fb38ddcf832de8175ce5f3bf9385c890",
    (4, 57344): "d8177c5cf511f200b556b17f7467e57c430d2d173097846510c8beaea0391b2e",
    (64, 1023): "a3d67e961158799935c5ba9d138577ab1ff263b22574c1e7cf1a7224b141f872",
    (64, 1024): "cd801aeb990fcedea50c5b974e6fb2d233f373b4f7b3db2fd39200a2d08d537a",
    (64, 1025): "337483afff485b71222211198e45af5e197152215369557696d7fb3ff17588df",
    (64, 3584): "bdca63fb28b305c470828a5f6f950c7f00875cb32f6cd13e89a205a751fe14e4",
    (64, 100000): "47237e7aa0a5d14af52f602639d64d40c86904b0f10e603458ffcea53b8a3a3b",
    (1000, 64): "c6bed243265b3fbf73ff0c2b9b9eb0e9d6f7dcb9f1dce972196874eb093a58dd",
    (1000, 65): "4dbf6b196fca8a853ca9878ae8d0764e3537daa8a1bbaa37606e6cfef67a3ab9",
    (1000, 66): "7c3572cb662242e2a3f6e2d29e72fc9356a5066d10fc803dd58ca425a447a2ab",
    (1000, 227): "dec7fdd2a174ee533962104ea550aaa4d2c9cae4baef0ae07858876fb6cf3367",
}


@pytest.mark.parametrize("case", sorted(MARGINAL_CASES), ids=lambda c: "d%d-n%d" % c)
def test_sphere_marginal_report_bytes(case):
    d, samples = case
    report = sphere_marginal_tests(d, samples, CF, SEED)
    digest = hashlib.sha256(report_to_json(report).encode("utf-8")).hexdigest()
    assert digest == MARGINAL_CASES[case]


# (d, samples) -> sha256 of the sample-derived fields of the same report
SAMPLE_CASES = {
    (4, 16383): "1c6397a7a1044ce363e3a957293952ae4db02cb9ac3623bea3d6d4c6190254c8",
    (4, 16384): "b84b9219bcb2f0a2893a91213eb4c4185ceabb94d106117b5da1f6a7498eeeb5",
    (4, 16385): "a1b192236599eb21e68d2f26b09709a3addf83b4f8ad69cfe5222de868704ca3",
    (4, 57344): "f4b7a98f00710198862a2fdf38262038f95a7705c03f9e555d149c20c7a262a4",
    (64, 1023): "1b69a77ed055f42adeceb40bdc3224ddc15a20220ead9213f74f301f78112c7a",
    (64, 1024): "a071d1fbfc49b3c4fbf3912f80f273c3feed54354a642558d6c569eef79ceba1",
    (64, 1025): "bab902d2c33c7e88bf34ef226f3e0b1185aefd515f2572528e2bbd96f7ddde55",
    (64, 3584): "6282bfc8bd81c6a6f34fb9bd4c6af657e8818723209b69174fa5b8d2c3ec0b79",
    (64, 100000): "1103d3d744f30965a256f65145f7034119ef63db35b9fb5692ea978d3b9e209e",
    (1000, 64): "3607a1b56518f62fc15d16ad018f46b5a5b3864fde15ee3a172b59c0ba139ad8",
    (1000, 65): "9d368590baf04c1664937b110d4e011e5bed1a45cde795b59bcbf1c1cd89a6e6",
    (1000, 66): "5c9944664e564e86d2915b3a638ac74fe293c3e3aaf6deabfc86690c04ea5282",
    (1000, 227): "fe85cdc17ad505fceb26829f8cf28cc5e979ae8c777a50312b40455501162c51",
}
VERIFY_SAMPLES = "fb6905381afb89fc31fcac96351a4cca1887bd008359d990fc2b428cbfced36a"

CDF_GRID_POINTS = 200_001


def first_coord_cdf_grid(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Numerically integrated CDF of the first coordinate of a uniform unit
    vector, on a dense grid; the quadrature reference for the closed form."""
    # the trapezoid rule cdf = [0, cumsum(diff(xs) * 0.5 * (pdf[1:] + pdf[:-1]))]
    # / total, one in-place ufunc per operation (products swap their operands,
    # which IEEE multiplication allows bit for bit), so three grid arrays are
    # held at once: xs, pdf (which becomes the cdf) and the steps
    xs = np.linspace(-1.0, 1.0, CDF_GRID_POINTS)
    pdf = np.multiply(xs, xs)
    np.subtract(1.0, pdf, out=pdf)
    np.clip(pdf, 0.0, None, out=pdf)
    np.power(pdf, (d - 3) / 2.0, out=pdf)
    steps = np.add(pdf[1:], pdf[:-1])
    width = np.subtract(xs[1:], xs[:-1], out=pdf[:-1])
    width *= 0.5
    steps *= width
    cdf = pdf
    cdf[0] = 0.0
    np.cumsum(steps, out=cdf[1:])
    cdf /= cdf[-1]
    return xs, cdf


# d -> sha256 of first_coord_cdf_grid(d)'s xs bytes followed by its cdf bytes
GRID_CASES = {
    4: "d3e3daa87108c3c07920a9b1edfab14eb5c6f01829633d970c7e2a76bec4da2a",
    16: "561e0806ba3c8b54a073197ce259c244703dbe7b7af7bd28345ef8dd752a8c0f",
    64: "d296869b93fd7d34243047986b95986d454c861eb0dc4140e93a579aa9b8be0f",
    1000: "f13ef84318b4456d5d7706af0825b7b9492b3a1470b31bd5ab24c3ae82d89662",
}


def _sample_digest(report):
    doc = {k: report.statistics[k] for k in ("ks_exact", "ks_normal", "emp_tail", "samples")}
    doc["trial_rows"] = list(report.trial_rows)
    return hashlib.sha256(dumps(doc).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", sorted(SAMPLE_CASES), ids=lambda c: "d%d-n%d" % c)
def test_sphere_marginal_sample_bytes(case):
    d, samples = case
    assert _sample_digest(sphere_marginal_tests(d, samples, CF, SEED)) == SAMPLE_CASES[case]


def test_verify_marginal_sample_bytes():
    # `nullstream verify marginal --d 16 --samples 2000 --seed 3` at the default cf
    report = sphere_marginal_tests(16, 2000, DEFAULTS.constants.cf, 3)
    assert _sample_digest(report) == VERIFY_SAMPLES


@pytest.mark.parametrize("d", sorted(GRID_CASES))
def test_cdf_grid_bytes(d):
    xs, cdf = first_coord_cdf_grid(d)
    assert hashlib.sha256(xs.tobytes() + cdf.tobytes()).hexdigest() == GRID_CASES[d]


# (d, samples) -> sha256 of the verdict and of the same report without ks_exact
VERDICT_CASES = {
    (4, 16383): "59610b3c0301f2acd22b398641aaccca681fb14832012b46865c3b7fc8e67477",
    (4, 16384): "d151437b61c93b5daeef77b9bd9893f8225d7765c12b869d53164c57dc85ce22",
    (4, 16385): "c051bb0d691f3fe89c65d10d27974b2329c6a94eee00adafc5256e946e0e2f85",
    (4, 57344): "56146c4c37e09313c84ba185f04d7c1dfd63bcee0e89e2ec31112606e2cea03b",
    (64, 1023): "bade552364926a8d613bdb42a45e54d79746461a8f07a24bbdabba7ae7708786",
    (64, 1024): "dce642c7dc6a83c221157763ba7dc253b2e4fb8d7f4bf31106754808e51aa320",
    (64, 1025): "bf6c520adacc2692162897de3890caa5f9a25963483f7628f257e4ede29ede67",
    (64, 3584): "46d9c45009f1ac1a162a814d239b10fcc4dede0fde9642ff58e319fd5fafbfaa",
    (64, 100000): "ed8b10bbfbd5e73ddf70a5cd4d0f297597990646e41ba50b5347879114c7b423",
    (1000, 64): "7788a0185745e599312af1955d57001f259e72f393fb71f144cc0f21631fff4c",
    (1000, 65): "911951e402f5785439903c0496d65ecb0d6faa79e1836889991a0406c683f4a8",
    (1000, 66): "1cc0667db763679634647ee4979a97d269fac51ec10a952ff6e500f24c4d3169",
    (1000, 227): "d1c3c1c9f539d03f20be3352463512f9ef991ec2c7ca1effd085793aa7d7f1d0",
}
# the verify-marginal run: (exit code, verdict digest)
VERIFY_VERDICT = (1, "e28c52572b3be80f91988d17e6fb188e63ed41777539a221dade8a08b1e9dd1f")


def _verdict_digest(report):
    doc = {
        "passed": report.passed,
        "statistics": {k: v for k, v in report.statistics.items() if k != "ks_exact"},
        "trial_rows": [{k: v for k, v in r.items() if k != "ks_exact"} for r in report.trial_rows],
    }
    return hashlib.sha256(dumps(doc).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", sorted(VERDICT_CASES), ids=lambda c: "d%d-n%d" % c)
def test_sphere_marginal_verdict_bytes(case):
    d, samples = case
    assert _verdict_digest(sphere_marginal_tests(d, samples, CF, SEED)) == VERDICT_CASES[case]


def test_verify_marginal_verdict(capsys):
    code = main(["verify", "marginal", "--d", "16", "--samples", "2000", "--seed", "3"])
    capsys.readouterr()
    report = sphere_marginal_tests(16, 2000, DEFAULTS.constants.cf, 3)
    assert (code, _verdict_digest(report)) == VERIFY_VERDICT


@pytest.mark.parametrize("d", sorted(GRID_CASES))
def test_closed_form_cdf_matches_the_quadrature_grid(d):
    # off the grid's nodes, so the reference is interpolated as the
    # certificate once used it; the worst gap measured is 5.9e-9 at d = 4
    xs, cdf = first_coord_cdf_grid(d)
    x = np.linspace(-1.0, 1.0, 100_003)
    assert np.abs(first_coord_cdf(d, x) - np.interp(x, xs, cdf)).max() <= 1e-8


ELEMENTARY_LAWS = {
    2: lambda x: 0.5 + np.arcsin(x) / math.pi,
    3: lambda x: (1.0 + x) / 2.0,
    4: lambda x: 0.5 + (x * np.sqrt(1.0 - x * x) + np.arcsin(x)) / math.pi,
}


@pytest.mark.parametrize("d", sorted(ELEMENTARY_LAWS))
def test_closed_form_cdf_matches_elementary_laws(d):
    x = np.linspace(-1.0, 1.0, 20_001)
    assert np.abs(first_coord_cdf(d, x) - ELEMENTARY_LAWS[d](x)).max() <= 1e-15


# d -> the largest |F - scipy's| allowed on 451 points of [-1, 1]; against
# 40-digit mpmath the finite sum errs by up to 5.9e-15 at d = 1024 and
# scipy's betainc by 4.6e-16
CDF_GAP_BOUNDS = {2: 1e-15, 3: 1e-15, 4: 1e-15, 5: 1e-15, 16: 1e-15, 64: 1e-15, 65: 1e-15,
                  256: 1e-14, 1024: 1e-14}


def _gap_from_betainc(cdf, d):
    import scipy.special

    x = np.linspace(-1.0, 1.0, 451)
    ref = 0.5 * (1.0 + np.sign(x) * scipy.special.betainc(0.5, (d - 1) / 2, x * x))
    return np.abs(cdf(d, x) - ref).max()


@pytest.mark.parametrize("d", sorted(CDF_GAP_BOUNDS))
def test_closed_form_cdf_matches_scipy_betainc(d):
    assert _gap_from_betainc(first_coord_cdf, d) <= CDF_GAP_BOUNDS[d]


@pytest.mark.parametrize("d", [d for d in sorted(CDF_GAP_BOUNDS) if d >= 4])
def test_cdf_check_catches_the_coefficients_of_d_minus_2(monkeypatch, d):
    # the planted defect: the finite sum run on the coefficient table of
    # m - 2 in place of m = d - 2
    table = instances._reduction_coefficients
    monkeypatch.setattr(instances, "_reduction_coefficients", lambda m: table(m - 2))
    assert _gap_from_betainc(first_coord_cdf, d) > CDF_GAP_BOUNDS[d]


def _tail_oriented_cdf(d, x):
    # the planted defect: F from the tail's form (1/2) I_{1-x^2}((d-1)/2, 1/2)
    import scipy.special

    tail = 0.5 * scipy.special.betainc((d - 1) / 2, 0.5, (1.0 - x) * (1.0 + x))
    return np.where(x >= 0, 1.0 - tail, tail)


def _gap_from_taylor_line(cdf, d):
    # max |F(x) - 1/2 - x f(0)| over 0 < |x| <= 1e-7, with the density at 0
    # f(0) = Gamma(d/2) / (sqrt(pi) Gamma((d-1)/2)); the cubic term is below
    # 1e-20 there
    f0 = math.exp(math.lgamma(d / 2) - math.lgamma((d - 1) / 2)) / math.sqrt(math.pi)
    mag = np.logspace(-20.0, -7.0, 131)
    x = np.concatenate([-mag[::-1], mag])
    return np.abs(cdf(d, x) - 0.5 - x * f0).max()


@pytest.mark.parametrize("d", [2, 4, 8, 64, 1024])
def test_closed_form_cdf_keeps_its_digits_near_zero(d):
    assert _gap_from_taylor_line(first_coord_cdf, d) <= 1e-14
    # the check catches the tail's orientation, which errs by 5e-9 to 1.3e-7
    assert _gap_from_taylor_line(_tail_oriented_cdf, d) > 1e-14
