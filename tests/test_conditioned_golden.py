"""Golden bytes of the rejection-sampled families.

Every conditioned instance is the first accepted attempt of a seeded
rejection loop, so its bytes pin which attempt accepted, every random draw
before it, and the returned witness.  The acceptance counts pin each
attempt's decision.  The values were computed with the plain SVD decision
on every attempt; any faster way of deciding must reproduce them exactly.

cf = 1e-13 lies below linalg.SIGN_SCAN_TOL, where a negative sign does not
by itself decide a rejection.  The d = 200 counts use cf values whose
instances would take hundreds of attempts each.
"""

import hashlib

import numpy as np
import pytest

from nullstream.instances import (
    conditioned_acceptance_stats,
    gen_anv_conditioned,
    gen_lsp_hard,
)


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


# (d, cf, seeds) -> sha256 over each seed's vectors and witness, in seed order
INSTANCE_CASES = {
    (8, 1e-13, 200):
        "99d1ce7b98d1ea9c2b0dbbe0eef0c16b0828428e20d48405c9b87f883464e9de",
    (8, 0.05, 200):
        "e88c52f4c7e125d7076c292d72f407c111aa79a3ed7dec9e84d19eced833e9ac",
    (8, 0.2, 200):
        "44c3e812c829e62562c37d3ea8baa653b6441234bafc3f920fbb84497c5b8405",
    (8, 0.5, 200):
        "f878712e1e9fb16941809a71ce1223ea198609e60519133169250e132756e010",
    (64, 1e-13, 40):
        "3457b33c7a9560645df06ae3d016285973dcefff3c76c02afa50b48899a2c2b9",
    (64, 0.05, 40):
        "7cf1865c899950d93f06a7e779ff7104174c604cb317df3ab5599044eb691bfd",
    (64, 0.2, 40):
        "2653a4922b6f6bcb14462c716df3e38664d39c7aff24d788c2431ad69dcbf6e3",
    (200, 1e-13, 8):
        "58b118f32231b7393f6c61dd5d4207480101bc8da22d6688f926e5661594dd67",
    (200, 0.05, 8):
        "fc69ad9c4c122fcdf7f0e3d81bdc98919590cb1d652ef414d865affc42d8a7a5",
}


@pytest.mark.parametrize("case", sorted(INSTANCE_CASES), ids=str)
def test_conditioned_instance_bytes(case):
    d, cf, seeds = case
    arrays = []
    for s in range(seeds):
        inst = gen_anv_conditioned(d, cf, seed=s)
        arrays += [inst.vectors, inst.witness]
    assert _digest(arrays) == INSTANCE_CASES[case]


# (d, cf, attempts, seed) -> accepted
ACCEPT_CASES = {
    (8, 1e-13, 2000, 1): 1021,
    (8, 0.05, 2000, 2): 895,
    (8, 0.2, 2000, 3): 605,
    (8, 0.5, 2000, 4): 184,
    (64, 1e-13, 600, 5): 285,
    (64, 0.05, 600, 6): 230,
    (64, 0.2, 600, 7): 32,
    (64, 0.5, 600, 8): 0,
    (200, 1e-13, 60, 9): 33,
    (200, 0.05, 60, 10): 15,
    (200, 0.2, 60, 11): 1,
    (200, 0.5, 60, 12): 0,
}


@pytest.mark.parametrize("case", sorted(ACCEPT_CASES), ids=str)
def test_conditioned_acceptance_counts(case):
    d, cf, attempts, seed = case
    assert conditioned_acceptance_stats(d, cf, attempts, seed) == (ACCEPT_CASES[case], attempts)


# seed -> sha256 over the dataset (points, labels, witness, margin) and both bases
LSP_HARD_CASES = {
    1: "ff7e2ca2ba6de30f3ba76876a1361e703093187e0e4d50f434a097996f0a9845",
    2: "a5042a10aa536a93c0199e4c37a46e5816804590a9c7aa2ba696298a82f8a211",
}


@pytest.mark.parametrize("seed", sorted(LSP_HARD_CASES))
def test_lsp_hard_bytes(seed):
    ds, v, u = gen_lsp_hard(16, 20, 0.2, 0.2, seed)
    digest = _digest([ds.xs, ds.ys, ds.witness, [ds.margin], v.basis, u.basis])
    assert digest == LSP_HARD_CASES[seed]
