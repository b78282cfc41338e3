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
them as they are.  The grid digests pin the quadrature oracle's bytes.  The
verify-marginal case is the `nullstream verify marginal` golden run.
"""

import hashlib

import pytest

from nullstream.config import DEFAULTS
from nullstream.serialize import dumps, report_to_json
from nullstream.verification import first_coord_cdf_grid, sphere_marginal_tests

CF, SEED = 0.2, 3

# (d, samples) -> sha256 of report_to_json(sphere_marginal_tests(d, samples, CF, SEED))
MARGINAL_CASES = {
    (4, 16383): "5429f1293e08e7c7c7129cc8f06d03ebf30abd2c18c8cb58a3cc466ddde4c4ab",
    (4, 16384): "7f257a8b367153b9b76e42b15d50f04e123dd5626044998f081b2583588f4cc9",
    (4, 16385): "9aa62906483f0b10a1dd9bded2c3bad8434d0aedcc7c4dbf64c515b2a24a58b4",
    (4, 57344): "07274371a3dad454633e64519e483649f65028f6a00d8228697f75989bc26f95",
    (64, 1023): "3206775171e03c700a9ac2ae293ff31e7db73cd6106a33a37354ea0d06ac6376",
    (64, 1024): "60507679dc5d47e0df29b2251a81c7027dc8c8c9af71c1a681a6bc3767664408",
    (64, 1025): "c8970fe41d447741745307293ac63f966e3f35650e442b6f4eef40def1d80cb1",
    (64, 3584): "cc9813d656d05c4c2b81324cda5b58c9274351393bbfc670c2f490b56a5631a7",
    (64, 100000): "57cb6e93d55da6ae70b41a23928a84c264e9ffe00b46e423a690f95606d47857",
    (1000, 64): "a499fd9e7b987d206a504360141573fb62f4e8a2a8f55a982378c075b0910828",
    (1000, 65): "729b6f19adfbfbcea12f45ff86c4509833312c8d252b2c7879d6ec8cd4d2ee48",
    (1000, 66): "abd0e2579a1349b2642301fce4a5d592d40fc6e5f925608cab33dcace8568496",
    (1000, 227): "6d7f4b9197eb64c96cdf0a130c8a790e921bc033db888faa76f6acb073166763",
}


@pytest.mark.parametrize("case", sorted(MARGINAL_CASES), ids=lambda c: "d%d-n%d" % c)
def test_sphere_marginal_report_bytes(case):
    d, samples = case
    report = sphere_marginal_tests(d, samples, CF, SEED)
    digest = hashlib.sha256(report_to_json(report).encode("utf-8")).hexdigest()
    assert digest == MARGINAL_CASES[case]


# (d, samples) -> sha256 of the sample-derived fields of the same report
SAMPLE_CASES = {
    (4, 16383): "77ca383e4b4160a0398bdebdaa3b0f67834cdb5f9ce3f3d9404cd00dc64fb804",
    (4, 16384): "8810090a3366864e4785f66fb264bfd894f2fe0b02e1c80a89d21d3ef8fb7d64",
    (4, 16385): "abba92a4baef5d87a8e2bb4a00aa785d7417c02efdb697e741dfde8e61e85034",
    (4, 57344): "46a7aabf6a68e7622f80f1e1446c88a16573562c1b99c158f9ca16ddd68e6f96",
    (64, 1023): "522f94b162c198750e16d0296fedaf0d4d459307e2c8fafef5798afaed9294ea",
    (64, 1024): "67b0b7c21d3df5677e517c4bef79c8d3da11a187fdff51236e81b881e15524cc",
    (64, 1025): "f6206977514f5e8fed63d16595fb8c933370e1d7baa2f466c5fcc6a72d9c0a9d",
    (64, 3584): "79ef5b667ce393a5388800d9365f3615d62e9127c507a8a1ce354523bc46b6d6",
    (64, 100000): "51f2b2785505c2eafc2051c8c2bed869528f4db4733e53bebc509340d7f1e5e6",
    (1000, 64): "f08c934f6105f2f63e664a3fe3ab7223fca0a7d054e0d3b5cd0e87848f89cde6",
    (1000, 65): "de55634e4bd88a689975000c02b05a81c25d3526f88a3a71b9454eb727db1117",
    (1000, 66): "c648a97e67f8c1e19f07ce7e0ff8d5d954858fe9415378f2ec0eed4aed6f5bee",
    (1000, 227): "5b55747f554a1e2fedf586805951816844bbe3a53e6bd2ce2e90145c7752b86a",
}
VERIFY_SAMPLES = "18100775b753c9c254ca550fb4f9f03909602266c72299cd91f787dcfe273d04"

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
