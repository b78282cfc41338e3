"""Golden bytes of the sphere-marginal certificate at row-block edges.

The certificate draws its Gaussian rows in blocks of 2**16 // d rows, which
is 16384 rows at d = 4, 1024 at d = 64 and 65 at d = 1000.  For each d the
cases sit one row below a block, at exactly one block, one row past it, and
three and a half blocks (several blocks ending in a partial one); d = 64 with
100 000 samples is the benchmark size, the one case that passes its KS caps.
The hashes were computed by drawing the whole samples x d matrix at once, so
any blocked draw must reproduce them exactly.
"""

import hashlib

import pytest

from nullstream.serialize import report_to_json
from nullstream.verification import sphere_marginal_tests

CF, SEED = 0.2, 3

# (d, samples) -> sha256 of report_to_json(sphere_marginal_tests(d, samples, CF, SEED))
MARGINAL_CASES = {
    (4, 16383): "e345a52fdc235bc57dca23a8479dd7204f41c843a871c182d3961ec873c1b550",
    (4, 16384): "5a77ea87254bdca04f51c92dd6ee6898f8d39294f6406fe379ed3082b4380ed9",
    (4, 16385): "da6446c968dd5431e666da611344ba5451fa08561720ef25fd2c966d566f3c2e",
    (4, 57344): "d91cc96de7c1b879c016391abca78f4a6c8231a7819548477cb95edaddbb501a",
    (64, 1023): "4922979b9e7d8da582f941d7fda008361d238bd65e3f342ee485edc325a78722",
    (64, 1024): "9742ff51d517d9db9783ddb3364c1c012ce96503bd9ca266c09c1b29b44889fc",
    (64, 1025): "0681ba133c523db2c1a7bdc03ab79b7c54050d786673e9fd71eee465e3934815",
    (64, 3584): "9f356ff245e9988b76a2312af69135b0bdd69ebd319b66cc1b798ca5c133d0cd",
    (64, 100000): "81a815570a2d2fe0414243f25b47dd675a131142250612ddf1a62ee41bde8572",
    (1000, 64): "2ed64dc4c02c23211e1261a17b086f6e2292988c16786561b36e014599f3ee56",
    (1000, 65): "0758589a5c1756ceb5c1fdf1ff682caa268f92b2b2a0e864102c6f9249023228",
    (1000, 66): "ecf4f31611771b262bc86c9ee07bb6153848cf4c353b57f5c8a132ce14b7c7ac",
    (1000, 227): "b676ae684ad36ca952d55b558e1fb2d4c94e3bd6e36ec7c9d72e0bf4dd145ed7",
}


@pytest.mark.parametrize("case", sorted(MARGINAL_CASES), ids=lambda c: "d%d-n%d" % c)
def test_sphere_marginal_report_bytes(case):
    d, samples = case
    report = sphere_marginal_tests(d, samples, CF, SEED)
    digest = hashlib.sha256(report_to_json(report).encode("utf-8")).hexdigest()
    assert digest == MARGINAL_CASES[case]
