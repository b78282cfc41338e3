"""Golden state bytes: the exact bit format every state-carrying algorithm
writes.

Each case streams a fixed seeded sample list through one algorithm,
preparing the samples and editing one state in place the way the runner
does, and pins the budget, the peak
used_bits and the sha256 of the final payload.  The ProjectionSeparator cases
run longer than the reservoir so that replacement runs, and cover byte-aligned
8/16/32-bit slots, unaligned packed slots, and aligned and unaligned raw
float64 slots.
"""

import hashlib

import numpy as np
import pytest

from nullstream.algorithms import (
    OfflineKernelSolver,
    OfflineLstsqSolver,
    OfflineSeparatorSolver,
    ProjectionSeparator,
    ZeroPredictor,
    kernel_budget_bits,
    lstsq_budget_bits,
    proj_state_bits,
    separator_budget_bits,
)
from nullstream.streaming import BitState, SharedRandomness, prepared


def _final_state(alg, samples, budget, seed):
    shared = SharedRandomness(seed)
    state = BitState(budget)
    peak = 0
    for i, sample in enumerate(prepared(alg, 1, samples, shared), start=1):
        alg.update(i, sample, state, shared)
        peak = max(peak, state.used_bits)
    return hashlib.sha256(state.payload).hexdigest(), peak


def _vectors(seed, n, d):
    return list(np.random.default_rng(seed).standard_normal((n, d)))


def _labeled(seed, n, d):
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((n, d))
    ys = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    return [(x, float(y)) for x, y in zip(xs, ys)]


def _equations(seed, n, d):
    rng = np.random.default_rng(seed)
    return [(row, float(t)) for row, t in zip(rng.standard_normal((n, d)), rng.standard_normal(n))]


BASELINE_CASES = {
    "zero": (lambda: ZeroPredictor(8), lambda: _vectors(1, 5, 8), 40, 32,
             "6a8814853bd214d9f0faf8d19724d53383fd0084a9471f67b989d47e225aa1a8"),
    "offline-kernel": (OfflineKernelSolver, lambda: _vectors(2, 7, 8), kernel_budget_bits(8), 3648,
                       "622d28cbc764e09f5f049a6dd6fd7872caed8ec79f1be87f871f994f9ad2514c"),
    "offline-lstsq": (OfflineLstsqSolver, lambda: _equations(3, 20, 6), lstsq_budget_bits(6) + 5, 1792,
                      "0faad4c6989d40de8984f6f857751b0d25848a9b5e057da4d91ba17a8796acec"),
    "offline-separator": (OfflineSeparatorSolver, lambda: _labeled(4, 12, 5), separator_budget_bits(5, 12),
                          4672, "19a5c96de418e1eec44ad92c786504b08db7ecfb71dbc14fc7c4f245050f777f"),
}


@pytest.mark.parametrize("name", sorted(BASELINE_CASES))
def test_solver_state_bytes_pinned(name):
    cls, samples, budget, peak, digest = BASELINE_CASES[name]
    assert _final_state(cls(), samples(), budget, seed=5) == (digest, peak)


# (d', slots, quant_bits): aligned 16/8/32-bit, unaligned packed, aligned
# and unaligned raw float64
PROJ_CASES = {
    (16, 8, 16): (64 + 8 + 8 * 16 * 16, "3c061239655eb6f9c0f2b3146bc162100e56925bdfe4190d4788b3fce2300fcd"),
    (16, 8, 8): (64 + 8 + 8 * 16 * 8, "3b15015991801fb70de63a61798178ba976089b8babc5e4023feab9ff6606194"),
    (5, 8, 32): (64 + 8 + 8 * 5 * 32, "fd7c5c512c61cff58534ec6ddff73f812ca4d4aeed7071ac1882f71ee2025f7d"),
    (11, 7, 5): (64 + 7 + 7 * 11 * 5, "d01a23675176a267da827e7e5b21b3be8dd06233e22c7f1ace6f1731c3a5653a"),
    (9, 8, 0): (64 + 8 + 8 * 9 * 64, "fc8b5114806134952aa91487a021ad63db07ed690bd8f3919abd20da59a1514a"),
    (9, 7, 0): (64 + 7 + 7 * 9 * 64, "ad9246e6992c7ed76b73e7b239b5590e3f908295d3a7e45a991acb905954aaeb"),
}


@pytest.mark.parametrize("config", sorted(PROJ_CASES))
def test_projection_separator_state_bytes_pinned(config):
    dprime, slots, quant_bits = config
    budget, digest = PROJ_CASES[config]
    assert proj_state_bits(dprime, slots, quant_bits) == budget
    alg = ProjectionSeparator(24, dprime=dprime, subsample_size=slots, quant_bits=quant_bits, seed=3)
    samples = _labeled(100 + dprime + slots + quant_bits, 3 * slots + 5, 24)
    assert _final_state(alg, samples, budget, seed=17) == (digest, budget)
