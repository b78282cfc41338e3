"""Golden bytes of gen_lsp_margin at d = 1024, around its row-block edges.

Large arrays are reduced and edited in blocks of 2**16 values, which is 64
rows at d = 1024.  The cases sit one row below a block, at exactly one
block, one row past it, and at three blocks plus a partial one.  The hashes
were computed from the whole-matrix expressions (one m x d temporary per
step), so any blocked or in-place construction must reproduce them exactly.
"""

import hashlib

import numpy as np
import pytest

from nullstream.instances import gen_lsp_margin

D, GAMMA, SEED = 1024, 0.3, 5

# m -> sha256 of the bytes of xs, then ys, then the witness
LSP_MARGIN_CASES = {
    63: "e9e720ca271f71fcd9c49c62105f150a14e9557ebe08fecb3a0f640a4edb721c",
    64: "6b412d1894a76d850b8b3998a296629afc3b3a865a5ebe564d4d502518b6b709",
    65: "a1675b185955c49bdd53ffa6e77e1149a5577d94a4da243aa564b718eed2889e",
    200: "7808fa522a17586af6ef8e71e00363e54c22fef8b611365537ebb4a92ae0feec",
}


@pytest.mark.parametrize("m", sorted(LSP_MARGIN_CASES))
def test_gen_lsp_margin_bytes(m):
    ds = gen_lsp_margin(D, m, GAMMA, SEED)
    h = hashlib.sha256()
    for a in (ds.xs, ds.ys, ds.witness):
        h.update(np.ascontiguousarray(a).tobytes())
    assert h.hexdigest() == LSP_MARGIN_CASES[m]
    assert ds.margin == GAMMA
