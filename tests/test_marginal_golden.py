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

The certificate's oracle is the closed form first_coord_cdf.  The trapezoid
grid it replaced stays here as a test-only reference: the grid digests pin
its bytes, and the closed form must agree with it, with the elementary laws
at d = 2, 3 and 4, and with its own Taylor line next to x = 0, where the
tail's 1 - x^2 orientation loses digits.
"""

import hashlib
import math

import numpy as np
import pytest

from nullstream.cli import main
from nullstream.config import DEFAULTS
from nullstream.serialize import dumps, report_to_json
from nullstream.verification import first_coord_cdf, sphere_marginal_tests

CF, SEED = 0.2, 3

# (d, samples) -> sha256 of report_to_json(sphere_marginal_tests(d, samples, CF, SEED))
MARGINAL_CASES = {
    (4, 16383): "7274644f8b4008a323e929e34ef879af9789c2418f40bf0156ede70d9669e700",
    (4, 16384): "fc3908ddc0c273d6412dc38788f54e3211f946e9e4e50ac507b296feafbaf18d",
    (4, 16385): "d58aa32cef9c879f2037416e4b979eaf3179d4347945a5ce441ecc1c32aff43e",
    (4, 57344): "ca3e0e1bc8485b6ce2fb97f00c1faefe0ff0823e360a1e30b5aacbc4daf01403",
    (64, 1023): "0d887b5a3b7c25d8bdcc477b1e7154c51447610f4221d36867fc5ecf20b3de55",
    (64, 1024): "194903d208289d5f0c223aee417e9876bdbdf049fd26f004312713d4301c9efe",
    (64, 1025): "62c1c83d97b73a4ec396fc49e6ddbb13986f65521d4a0802e7438d026fa94f0d",
    (64, 3584): "45c6043179d21c757fc2c9a4e77090c0b7cec96f9884943cc62a9ace94837124",
    (64, 100000): "d25b16ef49c91f307b4939ced1dbe8d9de8709061c75982f5d87da14b470fd30",
    (1000, 64): "e33cae60196a30fbc50dd14504b59cf81648f1b8478f40a08578264baf557619",
    (1000, 65): "b4fe25a7db61a81e7d3b9763142a4779c4f7fc2514bc64f50cece66359f9554d",
    (1000, 66): "7ccfdeab5fd3ba051f997076cc7c1255397f89749f2dd4511064038c455b9da8",
    (1000, 227): "317ec6bf850f5d88ff7e22d2d1eb5ed103ac25066787ce5878bdd33b5f05fbb2",
}


@pytest.mark.parametrize("case", sorted(MARGINAL_CASES), ids=lambda c: "d%d-n%d" % c)
def test_sphere_marginal_report_bytes(case):
    d, samples = case
    report = sphere_marginal_tests(d, samples, CF, SEED)
    digest = hashlib.sha256(report_to_json(report).encode("utf-8")).hexdigest()
    assert digest == MARGINAL_CASES[case]


# (d, samples) -> sha256 of the sample-derived fields of the same report
SAMPLE_CASES = {
    (4, 16383): "50f2e4ec137d88013927e3ce84fdf71f2d0693001a0ed4f108b415ccf22fbd8b",
    (4, 16384): "0ce8a5d2126386e3144e5f967277bdf3f0afd4a3893c2b1d76ad463d4b0429fc",
    (4, 16385): "d1bb14014eade133de2b7ad6686f08ab20769964644903a7822a39ae9bc988cf",
    (4, 57344): "f4b7a98f00710198862a2fdf38262038f95a7705c03f9e555d149c20c7a262a4",
    (64, 1023): "79a20b82514a49a69de7110050bade625a1ce4e98783406a5ab447ca3f48bcd0",
    (64, 1024): "0e8bf9e12cd2b6f54910ab1b33b884d35e184412ed596aef60baed07f4a8010a",
    (64, 1025): "397ed4a5e853eb76fe07c94196a9b1884f7abf2927e0a91e293e534b162fcd09",
    (64, 3584): "6282bfc8bd81c6a6f34fb9bd4c6af657e8818723209b69174fa5b8d2c3ec0b79",
    (64, 100000): "d8b689ebccce7cadddee82fb8e43e9129e0fb38b20ccb1d166faf2edb0494f43",
    (1000, 64): "123a28030c0e1597fbbc4e4ac95e04deef8cba231d23fec994cd9a5c9aaddacd",
    (1000, 65): "9d368590baf04c1664937b110d4e011e5bed1a45cde795b59bcbf1c1cd89a6e6",
    (1000, 66): "3bd7295a9806a4766a7e2a0cfe0e51ef2efb138f50546e1e8636291522225174",
    (1000, 227): "c906071e24f44a434443011c5a64fe548f6d76a578016d347b947eff324de770",
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
    (4, 16383): "347f3ff9435c9d9a9cb246367f5d0e984bd0f2ee30b9fe8ccf77332c744e8827",
    (4, 16384): "285ec4fa177789a9d1790147ca5cebc8f3f00260fd154a30632570e0eb0b3075",
    (4, 16385): "b3a2f0a52457df9358193a8bcf00bfaf8e677379d993f96748af8dc551334a0c",
    (4, 57344): "13eedbb3d986da4cdf424ff2d9e070e9bb5d1b741895587019d63f5bfe597680",
    (64, 1023): "af9cbeb51452157d27baf34eccd34dd3620ff3d0619e08c912e03a7d57d46be1",
    (64, 1024): "0321ca2cf7b7ff3d1aeb17951e74c9d36e04185e691c734431690591ac2f9021",
    (64, 1025): "f7fc6345d847a2543d90d13d585cbada1bf522e4acd5a0b39f2858d0e958e6f1",
    (64, 3584): "3b05f046f32287036c6256fc9b9821604766d6d07ca03c12abdf0a2809b0e484",
    (64, 100000): "153d4b4cfdf0a52d6fa6c44b9597083819e5a46cbf7bf6289529badb1e31e5bd",
    (1000, 64): "335770e4ede9c378debc0b0c28876322defb0faab142e21aa2dd3348c23bf161",
    (1000, 65): "5e36a80651594fce314cc9aa4e339c209abef4842964b1f7381b4628152f0693",
    (1000, 66): "b59749cadc61fbe501ef6becc3fac561da970ce52fedd882a1cbfb5236d86247",
    (1000, 227): "d87c38b8ecf019efb1f541f4dd4ef713d5c0acfe8aa2abfc62776bcf86eaf00a",
}
# the verify-marginal run: (exit code, verdict digest)
VERIFY_VERDICT = (1, "1625b21a9d15ac9da5fb84b722f44e934c9b08be4e197c98a78655b1e6b0977a")


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
