"""Tests for the problem reductions.

The quantitative soundness claims are exercised three ways: through the exact
offline solvers, through constant-output dummies (no guarantee, known loss),
and with witnesses perturbed to sit just inside the loss boundary.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nullstream.algorithms import (
    OfflineLstsqSolver,
    OfflineSeparatorSolver,
    ZeroPredictor,
    lstsq_budget_bits,
    separator_budget_bits,
)
from nullstream.config import DEFAULTS
from nullstream.errors import DegenerateOutput, ValidationError
from nullstream.instances import (
    anv_loss,
    gen_anv_conditioned,
    gen_anv_gaussian,
)
from nullstream.reductions import ReductionConfig, anv_via_lr, anv_via_lsp
from nullstream.streaming import (
    OnePassAlgorithm,
    one_pass_to_protocol,
    run_one_pass,
    run_one_pass_stats,
    run_protocol,
)

C = DEFAULTS.constants
CFG = ReductionConfig.from_constants(C)


class ConstantOutput(OnePassAlgorithm):
    """Ignores the stream entirely; finalize returns a fixed vector."""

    def __init__(self, vec):
        self.vec = np.asarray(vec, dtype=float)

    def update(self, i, sample, state, shared):
        return state

    def finalize(self, state, shared):
        return self.vec.copy()


class RecordingSink(OnePassAlgorithm):
    """Test spy: logs every (inner index, sample) it is fed."""

    def __init__(self):
        self.log = []

    def update(self, i, sample, state, shared):
        self.log.append((i, sample))
        return state

    def finalize(self, state, shared):
        return np.ones(1)


def test_reduction_config_defaults_and_validation():
    cfg = ReductionConfig(c4=0.3, cf=0.2)
    assert_allclose(cfg.norm_floor, 0.1)
    assert_allclose(CFG.c4, np.sqrt(C.c1))
    with pytest.raises(ValidationError):
        ReductionConfig(c4=-1.0, cf=0.2)


@pytest.mark.parametrize("field", ["c4", "cf"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0])
def test_reduction_config_requires_finite_positive_constants(field, value):
    # a NaN c4 once made anv_via_lsp return an all-NaN vector through the
    # offline separator and a BudgetViolation through the proj-separator
    with pytest.raises(ValidationError, match="finite and positive"):
        ReductionConfig(**{"c4": 0.3, "cf": 0.2, field: value})


# ---------------------------------------------------------------------------
# separation route


def test_lsp_route_offline_separator_meets_loss_bound():
    for seed in range(5):
        inst = gen_anv_conditioned(50, C.cf, seed=seed)
        budget = separator_budget_bits(50, 2 * 49)
        alg = anv_via_lsp(OfflineSeparatorSolver(), CFG)
        w = run_one_pass(alg, list(inst.vectors), budget, seed=100 + seed)
        assert_allclose(np.linalg.norm(w), 1.0, rtol=1e-12)
        assert anv_loss(inst, w) <= C.c1


def test_lsp_route_constant_separator_has_no_guarantee():
    # a separator that ignores the data leaves the mean squared scores at the
    # chance level, far above c1
    d = 200
    losses = []
    for seed in range(50):
        inst = gen_anv_gaussian(d, seed=seed)
        alg = anv_via_lsp(ConstantOutput(3.0 * np.eye(d)[0]), CFG)
        w = run_one_pass(alg, list(inst.vectors), 64, seed=seed)
        assert_allclose(np.linalg.norm(w), 1.0, rtol=1e-12)  # normalization applied
        losses.append(anv_loss(inst, w))
    assert abs(np.mean(losses) - (d - 1) / d) < 0.05


def test_lsp_route_state_bits_match_inner_alone():
    from nullstream.instances import gen_lsp_from_anv

    inst = gen_anv_conditioned(24, C.cf, seed=3)
    budget = separator_budget_bits(24, 2 * 23)
    _, wrapped = run_one_pass_stats(
        anv_via_lsp(OfflineSeparatorSolver(), CFG), list(inst.vectors), budget, seed=9
    )
    ds = gen_lsp_from_anv(inst, C.c4)
    _, inner = run_one_pass_stats(OfflineSeparatorSolver(), ds.points(), budget, seed=9)
    assert wrapped.max_used_bits == inner.max_used_bits


def test_lsp_route_feeds_interleaved_pairs():
    inst = gen_anv_conditioned(8, C.cf, seed=1)
    spy = RecordingSink()
    run_one_pass(anv_via_lsp(spy, CFG), list(inst.vectors), 64, seed=2)
    assert [i for i, _ in spy.log] == list(range(1, 15))
    shift = C.c4 / np.sqrt(8)
    for k in range(7):
        (xp, yp) = spy.log[2 * k][1]
        (xm, ym) = spy.log[2 * k + 1][1]
        assert yp == 1.0 and ym == -1.0
        assert_allclose(xp - inst.vectors[k], shift * np.eye(8)[0], atol=1e-12)
        assert_allclose(xm - inst.vectors[k], -shift * np.eye(8)[0], atol=1e-12)


def test_lsp_route_zero_inner_output_degenerate():
    inst = gen_anv_conditioned(8, C.cf, seed=1)
    alg = anv_via_lsp(ConstantOutput(np.zeros(8)), CFG)
    with pytest.raises(DegenerateOutput):
        run_one_pass(alg, list(inst.vectors), 64, seed=2)


def test_lsp_route_protocol_split_matches_one_pass():
    inst = gen_anv_conditioned(16, C.cf, seed=7)
    budget = separator_budget_bits(16, 2 * 15)

    def build():
        return anv_via_lsp(OfflineSeparatorSolver(), CFG)

    direct = run_one_pass(build(), list(inst.vectors), budget, seed=5)
    proto = one_pass_to_protocol(build(), split_index=6)
    vecs = list(inst.vectors)
    tr = run_protocol(proto, vecs[:6], vecs[6:], budget, seed=5)
    assert np.array_equal(direct, tr.output)


# ---------------------------------------------------------------------------
# regression route


def test_lr_route_offline_lstsq_is_exact():
    for seed in range(5):
        inst = gen_anv_conditioned(50, C.cf, seed=seed)
        alg = anv_via_lr(OfflineLstsqSolver(), CFG, seed=seed)
        w = run_one_pass(alg, list(inst.vectors), lstsq_budget_bits(50), seed=300 + seed)
        assert anv_loss(inst, w) < 1e-10
        assert_allclose(np.linalg.norm(w), 1.0, rtol=1e-12)


def test_lr_route_zero_predictor_degenerate():
    inst = gen_anv_conditioned(16, C.cf, seed=2)
    alg = anv_via_lr(ZeroPredictor(), CFG, seed=0)
    with pytest.raises(DegenerateOutput):
        run_one_pass(alg, list(inst.vectors), 64, seed=1)


def test_lr_route_inserts_exactly_one_pinned_equation():
    d = 12
    inst = gen_anv_conditioned(d, C.cf, seed=4)
    spy = RecordingSink()
    run_one_pass(anv_via_lr(spy, CFG, seed=3), list(inst.vectors), 64, seed=8)
    assert [i for i, _ in spy.log] == list(range(1, d + 1))
    pinned = [
        k for k, (_, (row, t)) in enumerate(spy.log) if t == C.cf and row[0] == 1.0
    ]
    assert len(pinned) == 1
    homogeneous = [t for _, (_, t) in spy.log if t == 0.0]
    assert len(homogeneous) == d - 1


def test_lr_route_insertion_position_uniform():
    # position observed through a spy over many wrapper seeds
    d = 10
    inst = gen_anv_conditioned(d, C.cf, seed=6)
    vecs = list(inst.vectors)
    counts = np.zeros(d, dtype=int)
    for trial in range(10_000):
        spy = RecordingSink()
        run_one_pass(anv_via_lr(spy, CFG, seed=trial), vecs, 64, seed=trial)
        pos = next(k for k, (_, (row, t)) in enumerate(spy.log) if t == C.cf)
        counts[pos] += 1
    assert counts.sum() == 10_000
    for c in counts:
        assert abs(c - 1000) <= 130


def test_lr_route_boundary_perturbed_witness_keeps_anv_bound():
    # any vector with lr loss at the proof's threshold, after normalization,
    # has squared scores at most c1 on the original instance
    d = 40
    rng = np.random.default_rng(5)
    for seed in range(10):
        inst = gen_anv_conditioned(d, C.cf, seed=seed)
        witness_lr = C.cf * inst.witness / inst.witness[0]
        rows = np.vstack([inst.vectors, np.eye(d)[0]])
        bound = min(C.c1 * C.cf**2 / 4.0, C.cf**2 / 4.0)
        u = rng.standard_normal(d)
        u /= np.linalg.norm(u)
        delta = np.sqrt(0.999 * bound) / np.linalg.norm(rows @ u)
        v = witness_lr + delta * u
        # residual against the full equation system sits just inside the bound
        resid = np.sum((rows @ v - np.concatenate([np.zeros(d - 1), [C.cf]])) ** 2)
        assert resid <= bound
        assert np.linalg.norm(v) >= C.cf / 2.0
        alg = anv_via_lr(ConstantOutput(v), CFG, seed=seed)
        w = run_one_pass(alg, list(inst.vectors), 64, seed=seed)
        assert anv_loss(inst, w) <= C.c1


def test_lr_route_protocol_split_matches_one_pass():
    inst = gen_anv_conditioned(20, C.cf, seed=9)

    def build():
        return anv_via_lr(OfflineLstsqSolver(), CFG, seed=2)

    budget = lstsq_budget_bits(20)
    direct = run_one_pass(build(), list(inst.vectors), budget, seed=13)
    vecs = list(inst.vectors)
    for split in (0, 7, 19):
        proto = one_pass_to_protocol(build(), split_index=split)
        tr = run_protocol(proto, vecs[:split], vecs[split:], budget, seed=13)
        assert np.array_equal(direct, tr.output)


def _pinned_position(alg, vecs, seed):
    """Where the wrapper inserted the pinned equation, seen by its spy."""
    alg.inner.log.clear()
    run_one_pass(alg, vecs, 64, seed=seed)
    return next(k for k, (_, (_, t)) in enumerate(alg.inner.log) if t == C.cf)


def test_lr_route_position_follows_shared_seed():
    # the position is a function of the shared seed, not of the wrapper: one
    # object reused under two shared seeds inserts where a fresh wrapper
    # does under each
    vecs = list(gen_anv_conditioned(10, C.cf, seed=6).vectors)
    fresh = {s: _pinned_position(anv_via_lr(RecordingSink(), CFG), vecs, s) for s in (1, 3)}
    assert fresh[1] != fresh[3]
    reused = anv_via_lr(RecordingSink(), CFG)
    for s in (1, 3, 1):
        assert _pinned_position(reused, vecs, s) == fresh[s]


def test_lr_route_protocol_split_matches_one_pass_at_every_index():
    d = 8
    vecs = list(gen_anv_conditioned(d, C.cf, seed=3).vectors)
    budget = lstsq_budget_bits(d)
    direct = run_one_pass(anv_via_lr(OfflineLstsqSolver(), CFG, seed=4), vecs, budget, seed=11)
    for split in range(len(vecs) + 1):
        proto = one_pass_to_protocol(anv_via_lr(OfflineLstsqSolver(), CFG, seed=4), split)
        tr = run_protocol(proto, vecs[:split], vecs[split:], budget, seed=11)
        assert tr.output.tobytes() == direct.tobytes()
