"""Golden bytes of the sphere-marginal certificate at row-block edges.

The certificate draws its Gaussian rows in blocks of 2**16 // d rows, which
is 16384 rows at d = 4, 1024 at d = 64 and 65 at d = 1000.  For each d the
cases sit one row below a block, at exactly one block, one row past it, and
three and a half blocks (several blocks ending in a partial one); d = 64 with
100 000 samples is the benchmark size, the one case that passes its KS caps.

Each case has two digests.  The whole-report digest covers every byte the
certificate prints, the closed-form exact tail and alpha included.  The
sample digest covers only what the samples decide (the two KS statistics,
the empirical tail, the sample count and the trial rows); its values are
those of a draw of the whole samples x d matrix at once, so any blocked draw
must reproduce them exactly, and a change to the exact tail alone leaves
them as they are.  The verdict digest covers the whole report except
ks_exact, the one statistic the exact-CDF oracle decides, with the verdict
itself added, so a change of oracle that keeps every verdict leaves it as it
is.  The verify-marginal case is the `nullstream verify marginal` golden run.

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
    (4, 16383): "e6215f0e36b55635eca26df0f7d9aeb42a6deb755cd260fa596f5f1614cc4526",
    (4, 16384): "1ff86751e5934c79bc655d8ea428d3afeae14cd10991b6d60fcc4e0b0b8a7c0c",
    (4, 16385): "c98ed00209e54bbe658aee4d4fc490d8569f7a915809baf25983fb2eb352be3c",
    (4, 57344): "67ed0970b112b2f6190261d0eda53e5c9b2c333ceb8630cdae6e6fdc5a6a59e8",
    (64, 1023): "4c76c3adf197a3759b07f54f57c99d0a15023c28625b8f84e0c148ee59178655",
    (64, 1024): "b72cbac910455be39e322890df63ef826b7e4a5550e009fe2e36c94f514b3f19",
    (64, 1025): "563b2149a79456812f4ebe056d0900fdb895421fd57d170e2ddc783a767b0710",
    (64, 3584): "0f85cd3cb6c9fd05363a0c834b29429b90a1aa5de5b259436e11d90ed8e1d8df",
    (64, 100000): "2767fe82c2d9ccb6ec754d8d636e05f7deee644d44758ab76196538e345be0b8",
    (1000, 64): "e9d7a61d394209d660fa3e96ffa02e4167314244050ff170c324f7d0062f25a4",
    (1000, 65): "23198011549a5c7974f4080df2fe3f3c35e1f29da76fa3f79df72d59c72046ff",
    (1000, 66): "a951400c9b3ba78d6616d865dabc00458d692f291b96747001a743c750061eec",
    (1000, 227): "145c82b07adb245bad1e2766ef05bc1c68ec7cd3898650e4f62ab23676fc3c05",
}


@pytest.mark.parametrize("case", sorted(MARGINAL_CASES), ids=lambda c: "d%d-n%d" % c)
def test_sphere_marginal_report_bytes(case):
    d, samples = case
    report = sphere_marginal_tests(d, samples, CF, SEED)
    digest = hashlib.sha256(report_to_json(report).encode("utf-8")).hexdigest()
    assert digest == MARGINAL_CASES[case]


# (d, samples) -> sha256 of the sample-derived fields of the same report
SAMPLE_CASES = {
    (4, 16383): "bbd481ad7f74d79f85b586256524ecf016dd2e612a918b2ee41b8133470faa81",
    (4, 16384): "96f338f387e141e5cbf45e921a2dc88bd9b2e39c21edfaf4a632885617a331ff",
    (4, 16385): "d2c08a3914d1c80c146c82a3e95f1f99d8e55d6a2af8f733cec709779a323ae6",
    (4, 57344): "6196b0d06fb81cb3043b6084ee7d57f9da87f732345614f947e2d79385187abf",
    (64, 1023): "da43754268b8c09fd605dd24312f741f75fdf77af1a7ee3b889aba9fdab2e479",
    (64, 1024): "19489ece6dea079c90dfb81d2b8f38215b4f2ee283010ed27fbb8f25ce9f73d0",
    (64, 1025): "da8f97b28d61c7b5980dce936a3330fae8aabb08f754cfc00afddeeafeecb69e",
    (64, 3584): "1b74d3637381bf77ba8551191d2547bcf63cc8b52b0e28dfaf0dd01386d5c836",
    (64, 100000): "2011998d7345490417b4d81ae5a936bd6985c6317e31659c4e931c9f43a4f436",
    (1000, 64): "a0e61d7d6ae61fd772358b886894ea847b5994e12e819755f4cf90b45ce7b8b7",
    (1000, 65): "4652b4b8a395096ba4a6771409763ebb4b9bc4bdfb3f5aabe303f7f61344ef90",
    (1000, 66): "08830700af1fa4bd15b2b7010721913d943b311c7046134b517c28606cc6a0d9",
    (1000, 227): "0ab01ed433acc052c18768f625754f6d428dcc6cafbeea79b98c29256c7bc3f4",
}
VERIFY_SAMPLES = "fd8f7382e320028fbffceec7e406fcc8b7d76d7198554baf50f098b25f5b086f"

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
    (4, 16383): "459ed07a2c609af4352166e388db1d563ef8e97158b66b26bfc7cd6d908870de",
    (4, 16384): "5a810f2a7859c783d7274f2f1278bd8eb712d3c04f2054984c2864f8debb8c87",
    (4, 16385): "f12838785a630239d4ea648e4f5d233bfc181e91d17891719e54c8c8dea41a80",
    (4, 57344): "39d906c39e2057cb0a1d3d789cceb34887d582b3fe054bcec4047c431fe84fc3",
    (64, 1023): "d7562a2ca59b8e6c123765f31bc626995a414e249a91b687ba6031af3fc86cc0",
    (64, 1024): "30a448f10f6eece7553eab8add4457e275b7d4b2a630fd1745ea58cd7ab78255",
    (64, 1025): "e95cb628537dbee87e3410960cc324575067a53b9b4320c8387f640211b9b4f9",
    (64, 3584): "c98ffd40b41f63ddc3e4330d61eb89bd58c1906a513ff6c2e9e08207d10125ec",
    (64, 100000): "9575b6a7610a3d8e7cb7a0e7bcf8ea2e6580f7d37811bd162221bce01ae7fb89",
    (1000, 64): "337674a25d7072afba836827f506013913034ad7c9903a9d4e25ee0f91f432a8",
    (1000, 65): "12b5f7b7939c60742e00a7b4158305620eb5df23530051d8db26be31609b3101",
    (1000, 66): "66b99db7dd569be5ab8f01d9d9ea9bb4cd96e98f3788ab5ffb9ed42e9c3f849f",
    (1000, 227): "5ac391b663bf372487e0579b679b5872435b37feffdfc472d364fe8a2dbf0119",
}
# the verify-marginal run: (exit code, verdict digest)
VERIFY_VERDICT = (1, "5b6b8516c7433e1da29cdf1e928d62a8273de64ef138df1c04fb6983fc2371f9")


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
