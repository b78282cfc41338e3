"""Tests for the concrete one-pass algorithms.

Oracles: exact kernel / least-squares solves recomputed offline with numpy,
the chi-square mean for the random-unit baseline, the classical perceptron
mistake bound, and brute-force multinomial statistics for the reservoir.
"""

import hashlib
import itertools
import math
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import nullstream
from nullstream.algorithms import (
    OfflineKernelSolver,
    OfflineLstsqSolver,
    OfflineSeparatorSolver,
    ProjectionSeparator,
    REGISTRY,
    RandomUnitPredictor,
    ZeroPredictor,
    _dequantize,
    _quantize,
    build_algorithm,
    kernel_budget_bits,
    lstsq_budget_bits,
    perceptron,
    perceptron_with_stats,
    proj_state_bits,
    separator_budget_bits,
)
from nullstream.config import DEFAULTS
from nullstream.errors import (
    BudgetViolation,
    DegenerateOutput,
    DimensionMismatch,
    NotSeparableInProjection,
    ValidationError,
)
from nullstream.instances import (
    anv_loss,
    classification_error,
    gen_anv_conditioned,
    gen_anv_gaussian,
    gen_lr_from_anv,
    gen_lsp_from_anv,
    gen_lsp_margin,
    lr_loss,
)
from nullstream.linalg import BLOCK_VALUES
from nullstream.reductions import ReductionConfig, anv_via_lr, anv_via_lsp
from nullstream.streaming import (
    BitState,
    Message,
    OnePassAlgorithm,
    Protocol,
    SharedRandomness,
    one_pass_to_protocol,
    prepared,
    run_one_pass,
    run_one_pass_stats,
    run_protocol,
)

CF = DEFAULTS.constants.cf
C4 = DEFAULTS.constants.c4

SOLVER_TOL = 1e-12


# ---------------------------------------------------------------------------
# baselines


def test_zero_predictor_outputs_zeros():
    inst = gen_anv_conditioned(16, CF, seed=0)
    out = run_one_pass(ZeroPredictor(16), list(inst.vectors), 64, seed=1)
    assert out.shape == (16,)
    assert np.all(out == 0.0)


def test_zero_predictor_lr_loss_is_cf_squared():
    inst = gen_lr_from_anv(gen_anv_conditioned(32, CF, seed=2), seed=2)
    samples = list(zip(inst.a, inst.b))
    out = run_one_pass(ZeroPredictor(32), samples, 64, seed=1)
    assert_allclose(lr_loss(inst, out), CF**2, rtol=1e-12)


def test_random_unit_is_unit_and_seed_deterministic():
    inst = gen_anv_conditioned(16, CF, seed=0)
    a = run_one_pass(RandomUnitPredictor(16, 7), list(inst.vectors), 64, seed=1)
    b = run_one_pass(RandomUnitPredictor(16, 7), list(inst.vectors), 64, seed=99)
    c = run_one_pass(RandomUnitPredictor(16, 8), list(inst.vectors), 64, seed=1)
    assert_allclose(np.linalg.norm(a), 1.0, rtol=1e-12)
    assert np.array_equal(a, b)  # run seed does not matter, constructor seed does
    assert not np.array_equal(a, c)


# (d, seed) -> sha256 of the random-unit output's float64 bytes
RANDOM_UNIT_CASES = {
    (1, 0): "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712",
    (2, 7): "3ed907a3020e5efa235ca7feafab0e84b1f2d57887dbef119905bc704dcad5a6",
    (16, 3): "ab1d8182874ae407905d4189b68dd785dd2aeed7ba99b5807192e8e63110250e",
    (64, 12345): "f19598a700ad58f06423e938ed78fe4369fa0aeb5072d4f0ebad708de107914d",
    (1000, 2**40): "cf326d0bf90cf73105c1dc7be76de261951aa4c31427218060e44e6204ff4e7d",
}


@pytest.mark.parametrize("d, seed", sorted(RANDOM_UNIT_CASES))
def test_random_unit_output_bytes(d, seed):
    w = build_algorithm("random-unit", d, seed).finalize(BitState(1), SharedRandomness(0))
    assert w.dtype == np.float64 and w.shape == (d,)
    assert hashlib.sha256(w.tobytes()).hexdigest() == RANDOM_UNIT_CASES[(d, seed)]


def test_random_unit_mean_loss_matches_chi_square_oracle():
    # E (w^T theta)^2 = 1/d per vector, d-1 vectors
    d = 200
    inst = gen_anv_gaussian(d, seed=5)
    losses = [
        anv_loss(inst, run_one_pass(RandomUnitPredictor(d, s), list(inst.vectors), 64, seed=s))
        for s in range(100)
    ]
    assert abs(np.mean(losses) - (d - 1) / d) < 0.05


# ---------------------------------------------------------------------------
# offline solvers


def test_kernel_solver_exact_on_gaussian_instance():
    inst = gen_anv_gaussian(32, seed=3)
    out, stats = run_one_pass_stats(
        OfflineKernelSolver(), list(inst.vectors), kernel_budget_bits(32), seed=1
    )
    assert anv_loss(inst, out) < SOLVER_TOL
    assert stats.max_used_bits == kernel_budget_bits(32)


def test_kernel_solver_budget_violation_at_64d():
    inst = gen_anv_gaussian(32, seed=3)
    with pytest.raises(BudgetViolation):
        run_one_pass(OfflineKernelSolver(), list(inst.vectors), 64 * 32, seed=1)


def test_kernel_solver_rejects_dimension_change():
    samples = [np.ones(4), np.ones(5)]
    with pytest.raises(DimensionMismatch):
        run_one_pass(OfflineKernelSolver(), samples, 10**5, seed=1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_kernel_solver_refuses_a_crafted_nonfinite_message(bad):
    # party 2 rebuilds its state from message bytes no runner checked, so a
    # NaN or an infinity planted there reaches kernel_vector at finalize
    d = 4
    honest = one_pass_to_protocol(OfflineKernelSolver(), d - 1)

    def send(input1, budget_bits, shared):
        state = BitState(budget_bits, honest.send(input1, budget_bits, shared).payload)
        OfflineKernelSolver.layout(d - 1, d).write(state, "vectors", [bad], start=5)
        return Message(nbits=budget_bits, payload=state.payload)

    crafted = Protocol(send=send, output=honest.output)
    vectors = list(np.random.default_rng(7).standard_normal((d - 1, d)))
    with pytest.raises(ValidationError, match="NaN or an infinity"):
        run_protocol(crafted, vectors, [], kernel_budget_bits(d), seed=1)


def _crafted(alg, split, layout, field, bad, start):
    # party 1's honest message with one value of field overwritten by bad
    honest = one_pass_to_protocol(alg, split)

    def send(input1, budget_bits, shared):
        state = BitState(budget_bits, honest.send(input1, budget_bits, shared).payload)
        layout.write(state, field, [bad], start=start)
        return Message(nbits=budget_bits, payload=state.payload)

    return Protocol(send=send, output=honest.output)


@pytest.mark.parametrize("field", ["gram", "moment"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_lstsq_solver_refuses_a_crafted_nonfinite_message(field, bad):
    # unchecked, pinv raises numpy's bare LinAlgError on a NaN in gram and
    # returns NaNs for an infinity there or anything non-finite in moment
    d = 4
    crafted = _crafted(OfflineLstsqSolver(), 3, OfflineLstsqSolver.layout(d), field, bad, 1)
    rows = np.random.default_rng(7).standard_normal((3, d)) / 4
    with pytest.raises(ValidationError, match="NaN or an infinity"):
        run_protocol(crafted, [(r, 0.1) for r in rows], [], lstsq_budget_bits(d), seed=1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_offline_separator_refuses_a_crafted_nonfinite_message(bad):
    # unchecked, the perceptron scores no mistake on the poisoned row and
    # returns a finite separator of the others
    d, n = 4, 6
    x = np.random.default_rng(7).standard_normal((n, d))
    points = [(p, 1.0 if p[0] > 0 else -1.0) for p in x]
    layout = OfflineSeparatorSolver.layout(n, d)
    crafted = _crafted(OfflineSeparatorSolver(), n, layout, "rows", bad, 2 * (d + 1) + 1)
    with pytest.raises(ValidationError, match="NaN or an infinity"):
        run_protocol(crafted, points, [], separator_budget_bits(d, n), seed=1)


def _refuses_crafted_dimensions(alg, layout, field, start, input1, budget):
    # party 1's honest message at d = 8 with its header's d set to 9, then
    # to 2^32 - 1, where np.zeros(d) would take 32 GiB and the d' x d
    # projection draw 16 GiB a row; d + 1 goes first, so code that does not
    # refuse it fails there, before the larger d is tried
    for bad in (9, 2**32 - 1):
        crafted = _crafted(alg, len(input1), layout, field, bad, start)
        with pytest.raises(ValidationError, match="state holds dimension %d, the run's is 8" % bad):
            run_protocol(crafted, input1, [], budget, seed=1)


def test_zero_predictor_refuses_a_crafted_header_dimension():
    layout = ZeroPredictor.LAYOUT
    _refuses_crafted_dimensions(ZeroPredictor(8), layout, "d", 0, [np.ones(8)], layout.nbits)


def test_projection_separator_refuses_a_crafted_header_dimension():
    alg = ProjectionSeparator(8, 6, 5, 8, seed=0)
    points = [(np.ones(8), 1.0), (-np.ones(8), -1.0)]
    budget = proj_state_bits(6, 5, 8)
    _refuses_crafted_dimensions(alg, alg.layout(6, 5, 8), "header", 1, points, budget)


def test_projection_for_refuses_a_dimension_other_than_the_runs():
    alg = ProjectionSeparator(8, 6, 5, 8, seed=0)
    with pytest.raises(ValidationError, match="state holds dimension 9, the run's is 8"):
        alg.projection_for(9, SharedRandomness(0))


def test_zero_predictor_keeps_the_empty_state_output():
    # a state nothing was written to holds d = 0, and finalizes as before
    assert run_one_pass(ZeroPredictor(8), [], 32, seed=1).shape == (0,)


# party 2 finalizing a header that claims d = 2^32 - 1, in a child whose
# address space is capped at 2 GB once its imports are done: a finalize
# that allocated what the header says would raise MemoryError there, and
# the host never allocates it
CRAFTED_HEADER_RUN = """
import resource, sys
import numpy as np
from nullstream.algorithms import ProjectionSeparator, ZeroPredictor
from nullstream.streaming import BitState, Message, SharedRandomness, one_pass_to_protocol

if sys.argv[1] == "zero":
    alg, layout, field, start = ZeroPredictor(8), ZeroPredictor.LAYOUT, "d", 0
    input1 = [np.ones(8)]
else:
    alg = ProjectionSeparator(8, 6, 5, 8, seed=0)
    layout, field, start = alg.layout(6, 5, 8), "header", 1
    input1 = [(np.ones(8), 1.0), (-np.ones(8), -1.0)]
protocol = one_pass_to_protocol(alg, len(input1))
state = BitState(layout.nbits, protocol.send(input1, layout.nbits, SharedRandomness(1)).payload)
layout.write(state, field, [2**32 - 1], start=start)
resource.setrlimit(resource.RLIMIT_AS, (2 * 10**9, 2 * 10**9))
try:
    protocol.output([], Message(layout.nbits, state.payload), layout.nbits, SharedRandomness(1))
except Exception as e:
    print(type(e).__name__)
"""


@pytest.mark.parametrize("name", ["zero", "proj"])
def test_crafted_header_dimension_is_refused_under_a_memory_cap(name):
    src = os.path.dirname(os.path.dirname(nullstream.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", CRAFTED_HEADER_RUN, name],
                          env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "DimensionMismatch\n", "")


def test_scalar_samples_are_refused():
    # a scalar has no length; 2-D samples keep the layout's own message
    for alg in (OfflineKernelSolver(), ZeroPredictor(1)):
        with pytest.raises(ValidationError, match="a sample must be a vector, got the scalar 1.0"):
            run_one_pass(alg, [1.0], 100000, 0)
    with pytest.raises(ValidationError, match="lie outside field vectors"):
        run_one_pass(OfflineKernelSolver(), [np.ones((2, 2))], 100000, 0)


def test_lstsq_solver_matches_offline_least_squares():
    inst = gen_lr_from_anv(gen_anv_conditioned(32, CF, seed=4), seed=4)
    samples = list(zip(inst.a, inst.b))
    out, stats = run_one_pass_stats(OfflineLstsqSolver(), samples, lstsq_budget_bits(32), seed=1)
    assert lr_loss(inst, out) < SOLVER_TOL
    oracle = np.linalg.lstsq(inst.a, inst.b, rcond=None)[0]
    assert_allclose(out, oracle, atol=1e-8)
    assert stats.max_used_bits == lstsq_budget_bits(32)


def test_lstsq_solver_budget_violation_at_64d():
    inst = gen_lr_from_anv(gen_anv_conditioned(32, CF, seed=4), seed=4)
    with pytest.raises(BudgetViolation):
        run_one_pass(OfflineLstsqSolver(), list(zip(inst.a, inst.b)), 64 * 32, seed=1)


def test_lstsq_solver_clips_to_unit_ball():
    # single equation 0.1 * w_1 = 0.5: min-norm solution has norm 5
    samples = [(np.array([0.1, 0.0]), 0.5)]
    out = run_one_pass(OfflineLstsqSolver(), samples, lstsq_budget_bits(2), seed=1)
    assert_allclose(np.linalg.norm(out), 1.0, rtol=1e-12)
    assert out[0] > 0


@pytest.mark.parametrize("d", [2, 3, 8])
def test_lstsq_solver_rejects_overflowing_sums(d):
    # finite rows near 1e200 overflow the Gram triangle; unchecked, pinv gives
    # NaN at d = 2 and raises numpy's LinAlgError at d >= 3
    rows = np.random.default_rng(0).standard_normal((d + 2, d)) * 1e200
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        ValidationError, match="overflowed at equation 1"
    ):
        run_one_pass(OfflineLstsqSolver(), [(r, 1.0) for r in rows], lstsq_budget_bits(d), seed=1)


def _lstsq_state(d, gram_diagonal, moment):
    # a message party 2 could be sent: finite sums of one equation, the Gram
    # matrix gram_diagonal * I and every moment entry equal
    layout = OfflineLstsqSolver.layout(d)
    state = BitState(layout.nbits)
    layout.write(state, "header", [1, d])
    layout.write(state, "gram", (gram_diagonal * np.eye(d))[np.triu_indices(d)])
    layout.write(state, "moment", np.full(d, moment))
    return state


@pytest.mark.filterwarnings("error")
def test_lstsq_finalize_on_crafted_finite_sums_warns_nothing():
    # unchecked, pinv(1e-300 I) @ 1e300 overflowed in matmul and printed two
    # warnings before an all-NaN output, and the 1e200 solution's norm
    # overflowed in dot and printed one before the zero vector
    with pytest.raises(ValidationError, match="overflows"):
        OfflineLstsqSolver().finalize(_lstsq_state(4, 1e-300, 1e300), None)
    w = OfflineLstsqSolver().finalize(_lstsq_state(4, 1e-100, 1e100), None)
    assert w.tolist() == [0.5] * 4


def test_lstsq_solver_shuffled_order_same_solution():
    inst = gen_lr_from_anv(gen_anv_conditioned(16, CF, seed=6), seed=6)
    samples = list(zip(inst.a, inst.b))
    a = run_one_pass(OfflineLstsqSolver(), samples, lstsq_budget_bits(16), seed=1)
    b = run_one_pass(OfflineLstsqSolver(), samples[::-1], lstsq_budget_bits(16), seed=1)
    assert_allclose(a, b, atol=1e-9)


def test_offline_separator_separates_pair_dataset():
    ds = gen_lsp_from_anv(gen_anv_conditioned(16, CF, seed=5), C4)
    out = run_one_pass(
        OfflineSeparatorSolver(), ds.points(), separator_budget_bits(16, ds.n), seed=1
    )
    assert classification_error(out, ds) == 0.0
    assert_allclose(np.linalg.norm(out), 1.0, rtol=1e-12)


@pytest.mark.parametrize("label", [0.0, 3.0, 0.5, -2.0])
def test_offline_separator_rejects_labels_other_than_plus_minus_one(label):
    # finalize folds each label into its point, which is exact only for +-1
    x = np.ones(4)
    with pytest.raises(ValidationError, match="labels must be"):
        run_one_pass(
            OfflineSeparatorSolver(), [(x, 1.0), (x, label)], separator_budget_bits(4, 2), seed=1
        )


@pytest.mark.parametrize("label", [0.0, 3.0, 0.5, -2.0])
def test_proj_separator_rejects_labels_other_than_plus_minus_one(label):
    # the label bit stores y > 0, so any other label would be silently recast
    x = np.ones(4)
    budget = proj_state_bits(2, 3, 8)
    counter = UpdateCounter(ProjectionSeparator(4, 2, 3, 8))
    with pytest.raises(ValidationError, match="labels must be"):
        run_one_pass(counter, [(x, 1.0), (-x, label)], budget, seed=1)
    # prepare rejects the label before any update of its block writes
    assert counter.calls == 0
    with pytest.raises(ValidationError, match="labels must be"):
        ProjectionSeparator(4, 2, 3, 8).prepare(1, [(x, label)], SharedRandomness(0))


def test_offline_solvers_empty_stream_degenerate():
    with pytest.raises(DegenerateOutput):
        run_one_pass(OfflineSeparatorSolver(), [], 1024, seed=1)
    with pytest.raises(DegenerateOutput):
        run_one_pass(OfflineLstsqSolver(), [], 1024, seed=1)


def test_offline_solvers_budget_below_header_is_budget_violation():
    # a budget too small for the [u32 count][u32 d] header itself
    x = np.ones(4)
    for alg, sample in (
        (OfflineKernelSolver(), x),
        (OfflineLstsqSolver(), (x, 1.0)),
        (OfflineSeparatorSolver(), (x, 1.0)),
    ):
        with pytest.raises(BudgetViolation):
            run_one_pass(alg, [sample], 16, seed=1)


# ---------------------------------------------------------------------------
# perceptron


def signed_points(ds):
    """The rows y * x the perceptron reads."""
    return ds.xs * ds.ys[:, None]


def test_perceptron_axis_pair_one_pass():
    e1 = np.array([1.0, 0.0])
    # (e1, +1) and (-e1, -1), both signed to e1
    w = perceptron(np.array([e1, e1]), max_passes=10)
    assert_allclose(w, e1, atol=1e-12)


def test_perceptron_contradictory_labels_raise():
    e1 = np.array([1.0, 0.0])
    with pytest.raises(NotSeparableInProjection):
        perceptron(np.array([e1, -e1]), max_passes=50)


def test_perceptron_empty_raises():
    with pytest.raises(ValidationError):
        perceptron(np.empty((0, 2)), max_passes=5)


def test_perceptron_mistake_bound_on_margin_dataset():
    # classical bound: updates <= (max ||x|| / gamma)^2
    for seed in range(5):
        ds = gen_lsp_margin(32, 60, 0.25, seed=seed)
        w, updates = perceptron_with_stats(signed_points(ds), max_passes=1000)
        bound = (np.linalg.norm(ds.xs, axis=1).max() / 0.25) ** 2
        assert updates <= bound
        assert classification_error(w, ds) == 0.0


# (source, seed) -> (update count, sha256 of w.tobytes()): the labeled pairs
# anv_via_lsp feeds OfflineSeparatorSolver at d=64, and one wide margin set.
# A single flipped mistake decision changes both.
PERCEPTRON_GOLDEN = {
    ("anv-pairs", 0): (5134, "d6a04bdef25135fd9cf2c9c621299c49fc8613794859e04832390088d2cbfe77"),
    ("anv-pairs", 1): (1938, "1919d835a8426cc70a4f3223ce2407528e11179d1f7e846e11bd1c4a29905fd9"),
    ("anv-pairs", 2): (5006, "85385d6c00fe2dc9f3801c58dd8744b009c831b5a7b236291a4bee5d37d5a2a2"),
    ("margin", 0): (2, "2a9e536d5e9387faef414b956ea424838cd74b3c01a947d9db3810cbaf3b2d30"),
}


@pytest.mark.parametrize("source,seed", sorted(PERCEPTRON_GOLDEN))
def test_perceptron_output_pinned(source, seed):
    if source == "anv-pairs":
        ds = gen_lsp_from_anv(gen_anv_conditioned(64, CF, seed=seed), C4)
    else:
        ds = gen_lsp_margin(600, 600, 0.3, seed=seed)
    w, updates = perceptron_with_stats(
        signed_points(ds), max_passes=OfflineSeparatorSolver().max_passes
    )
    assert (updates, hashlib.sha256(w.tobytes()).hexdigest()) == PERCEPTRON_GOLDEN[source, seed]


def pair_perceptron(points, max_passes):
    """The perceptron as it was over (x, y) pairs, kept as the oracle for the
    signed-row one: it scores x and tests score(x) * y <= 0."""
    points = list(points)
    xs = np.array([np.asarray(x, dtype=float) for x, _ in points])
    ys = np.array([float(y) for _, y in points])
    rows = [(x, y, y * x) for x, y in zip(xs, ys)]
    w = np.zeros(xs.shape[1])
    score = w.dot
    total = 0
    for _ in range(max_passes):
        mistakes = 0
        for x, y, yx in rows:
            if score(x) * y <= 0:
                w += yx
                mistakes += 1
        total += mistakes
        if mistakes == 0:
            return w / np.linalg.norm(w), total
    raise NotSeparableInProjection("no separator after %d passes" % max_passes)


def _pair_sets(d, seed):
    """(xs, ys) sets at dimension d: Gaussian points under labels from a
    witness, and under random labels (separable while n <= d, mostly not
    past it); and small-integer points whose scores tie at exactly 0, with
    -0.0 for half their zeros."""
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((80, d))
    yield xs, np.where(xs @ rng.standard_normal(d) > 0, 1.0, -1.0)
    yield xs[:d], rng.choice([-1.0, 1.0], size=min(d, 80))
    yield xs, rng.choice([-1.0, 1.0], size=80)
    ints = rng.integers(-2, 3, size=(320, d)).astype(float)
    ints[(ints == 0) & (rng.random(ints.shape) < 0.5)] = -0.0
    w = rng.integers(-2, 3, size=d).astype(float)
    w[0] = 1.0
    scores = ints @ w
    keep = scores != 0
    yield ints[keep], np.where(scores[keep] > 0, 1.0, -1.0)


@pytest.mark.parametrize("d", [2, 64, 600])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_signed_perceptron_matches_pair_loop_bit_for_bit(d, seed):
    for xs, ys in _pair_sets(d, seed):
        try:
            expected = pair_perceptron(zip(xs, ys), 300)
        except NotSeparableInProjection:
            with pytest.raises(NotSeparableInProjection):
                perceptron_with_stats(xs * ys[:, None], 300)
            continue
        w, updates = perceptron_with_stats(xs * ys[:, None], 300)
        assert updates == expected[1]
        assert w.tobytes() == expected[0].tobytes()


def test_signed_perceptron_ties_at_zero_are_mistakes():
    # integer rows keep every score exact.  w = 0 scores row 1 at 0, and in
    # pass 2 w = (0, 1) scores rows 1 and 2 at 0 (row 1 through its -0.0):
    # each tie is a mistake, as score(x) * y = 0 was for the pairs (-row, -1)
    signed = np.array([[1.0, -0.0], [-1.0, 1.0], [0.0, 1.0]])
    expected = pair_perceptron(zip(-signed, [-1.0, -1.0, -1.0]), 10)
    w, updates = perceptron_with_stats(signed, 10)
    assert (updates, w.tobytes()) == (expected[1], expected[0].tobytes())
    assert updates == 5


# ---------------------------------------------------------------------------
# projection separator


def test_quantize_round_trip_within_half_step():
    rng = np.random.default_rng(0)
    for qb in (1, 5, 8, 16):
        v = rng.uniform(-4.0, 4.0, size=200)
        err = np.abs(_dequantize(_quantize(v, qb, 4.0), qb, 4.0) - v)
        assert err.max() <= 4.0 / ((1 << qb) - 1) + 1e-12


def test_quantize_clips_to_range():
    v = np.array([-100.0, 100.0])
    q = _quantize(v, 8, 4.0)
    assert q[0] == 0 and q[1] == 255
    assert_allclose(_dequantize(q, 8, 4.0), [-4.0, 4.0], atol=1e-12)


@pytest.mark.parametrize("quant_bits", [0, 1, 5, 8, 16, 32])
def test_finalize_block_read_matches_whole_field_read(quant_bits):
    # kept one below, at and one past a row block of BLOCK_VALUES values
    dprime = 600
    rows = BLOCK_VALUES // dprime
    alg = ProjectionSeparator(1024, dprime, 2 * rows + 1, quant_bits, seed=0)
    layout = alg.layout(dprime, alg.subsample, quant_bits)
    rng = np.random.default_rng(quant_bits)
    payload = bytearray(rng.bytes((layout.nbits + 7) // 8))
    payload[-1] &= 0xFF << (-layout.nbits % 8) & 0xFF  # bits past nbits stay 0
    state = BitState(layout.nbits, payload)
    if not quant_bits:  # finite coordinates; the random bytes hold NaNs
        layout.write(state, "coords", rng.standard_normal(alg.subsample * dprime))
    for kept in (rows - 1, rows, rows + 1, 2 * rows + 1):
        whole = layout.read(state.payload, "coords", 0, kept * dprime)
        if quant_bits:
            whole = _dequantize(whole, quant_bits, alg.quant_range)
        labels = np.where(layout.read(state.payload, "labels", 0, kept), 1.0, -1.0)
        expected = whole.reshape(kept, dprime) * labels[:, None]
        got = alg._signed_points(state.payload, kept)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


def test_lossless_projection_fixture_separates():
    # dataset lives in the first 6 coordinates, with a margin along the third
    d, dp = 20, 6
    rng = np.random.default_rng(7)
    w = np.zeros(d)
    w[2] = 1.0
    pts = []
    for _ in range(30):
        x = np.zeros(d)
        x[:dp] = rng.standard_normal(dp)
        y = 1.0 if x @ w > 0 else -1.0
        x += 0.3 * y * w  # give it a real margin
        pts.append((x, y))
    # dprime = d: the projection is a rotation, so nothing is lost
    alg = ProjectionSeparator(d, dprime=d, subsample_size=30, quant_bits=0, seed=0)
    out = run_one_pass(alg, pts, proj_state_bits(d, 30, 0), seed=3)
    assert all(y * (out @ x) > 0 for x, y in pts)


def test_preimage_identity_quantization_off():
    # lifted separator scores equal projected-space scores exactly
    ds = gen_lsp_margin(48, 40, 0.3, seed=2)
    alg = ProjectionSeparator(48, dprime=24, subsample_size=40, quant_bits=0, seed=5)
    budget = proj_state_bits(24, 40, 0)
    shared = SharedRandomness(11)
    state = BitState(budget)
    for i, s in enumerate(alg.prepare(1, ds.points(), shared), start=1):
        alg.update(i, s, state, shared)
    layout = ProjectionSeparator.layout(24, 40, 0)
    stored = layout.read(state.payload, "coords").reshape(40, 24)
    labels = np.where(layout.read(state.payload, "labels"), 1.0, -1.0)
    proj = alg.projection_for(48, shared)
    w_p = perceptron(stored * labels[:, None], 500)
    w_hat = proj.basis.T @ w_p
    scale = math.sqrt(48 / 24)
    for x, _ in ds.points():
        assert abs(w_hat @ x - w_p @ (proj.basis @ x)) <= 1e-10
    # and the stored coordinates are exactly the scaled projections
    assert_allclose(stored[0], scale * (proj.basis @ ds.xs[0]), rtol=1e-12)


def test_projection_separator_full_run_small():
    ds = gen_lsp_margin(64, 120, 0.3, seed=4)
    alg = ProjectionSeparator(64, dprime=40, subsample_size=120, quant_bits=16, seed=4)
    out, stats = run_one_pass_stats(alg, ds.points(), proj_state_bits(40, 120, 16), seed=9)
    assert_allclose(np.linalg.norm(out), 1.0, rtol=1e-12)
    assert classification_error(out, ds) <= 0.1
    assert stats.max_used_bits == proj_state_bits(40, 120, 16)


def test_projection_separator_budget_accounting_configs():
    # declared formula equals measured peak for aligned, unaligned and raw modes
    ds = gen_lsp_margin(32, 25, 0.3, seed=1)
    for dp, sub, qb in [(16, 8, 16), (11, 7, 5), (9, 4, 0)]:
        alg = ProjectionSeparator(32, dprime=dp, subsample_size=sub, quant_bits=qb, seed=2)
        declared = proj_state_bits(dp, sub, qb)
        _, stats = run_one_pass_stats(alg, ds.points(), declared, seed=3)
        assert stats.max_used_bits == declared
        assert abs(stats.max_used_bits - declared) <= 8  # one byte of slack allowed


def test_projection_separator_budget_violation():
    ds = gen_lsp_margin(32, 10, 0.3, seed=1)
    alg = ProjectionSeparator(32, dprime=16, subsample_size=10, quant_bits=16, seed=2)
    with pytest.raises(BudgetViolation):
        run_one_pass(alg, ds.points(), proj_state_bits(16, 10, 16) - 1, seed=3)


def test_projection_separator_count_overflow_is_budget_violation():
    # a seen-count at the u32 maximum has no room for one more sample
    alg = ProjectionSeparator(4, dprime=2, subsample_size=2, quant_bits=8, seed=0)
    budget = proj_state_bits(2, 2, 8)
    payload = bytearray((budget + 7) // 8)
    payload[:8] = (2**32 - 1).to_bytes(4, "big") + (4).to_bytes(4, "big")
    shared = SharedRandomness(0)
    (sample,) = alg.prepare(1, [(np.ones(4), 1.0)], shared)
    with pytest.raises(BudgetViolation):
        alg.update(1, sample, BitState(budget, bytes(payload)), shared)


def test_projection_separator_rejects_dprime_above_ambient():
    ds = gen_lsp_margin(8, 5, 0.3, seed=1)
    alg = ProjectionSeparator(8, dprime=16, subsample_size=5, quant_bits=16, seed=2)
    with pytest.raises(DimensionMismatch):
        run_one_pass(alg, ds.points(), proj_state_bits(16, 5, 16), seed=3)


def test_projection_separator_empty_stream_degenerate():
    alg = ProjectionSeparator(4, dprime=4, subsample_size=4, quant_bits=16, seed=2)
    with pytest.raises(DegenerateOutput):
        run_one_pass(alg, [], proj_state_bits(4, 4, 16), seed=3)


def test_projection_separator_protocol_split_matches_one_pass():
    ds = gen_lsp_margin(32, 40, 0.3, seed=6)
    budget = proj_state_bits(20, 40, 16)

    def build():
        return ProjectionSeparator(32, dprime=20, subsample_size=40, quant_bits=16, seed=6)

    direct = run_one_pass(build(), ds.points(), budget, seed=21)
    proto = one_pass_to_protocol(build(), split_index=17)
    pts = ds.points()
    tr = run_protocol(proto, pts[:17], pts[17:], budget, seed=21)
    assert np.array_equal(direct, tr.output)


def test_reservoir_subsets_uniform():
    # 10^4 runs keeping 3 of 10; all 120 subsets within 4 sigma of uniform
    counts = Counter()
    stream = [(np.array([float(k)]), 1.0) for k in range(1, 11)]
    budget = proj_state_bits(1, 3, 0)
    layout = ProjectionSeparator.layout(1, 3, 0)
    for run in range(10_000):
        alg = ProjectionSeparator(1, dprime=1, subsample_size=3, quant_bits=0, seed=0)
        shared = SharedRandomness(run)
        state = BitState(budget)
        for i, s in enumerate(alg.prepare(1, stream, shared), start=1):
            alg.update(i, s, state, shared)
        kept = frozenset(int(round(abs(v))) for v in layout.read(state.payload, "coords"))
        assert len(kept) == 3
        counts[kept] += 1
    n, p = 10_000, 1 / 120
    sigma = math.sqrt(n * p * (1 - p))
    for subset in itertools.combinations(range(1, 11), 3):
        c = counts.get(frozenset(subset), 0)
        assert abs(c - n * p) <= 4 * sigma


def test_projection_separator_error_nonincreasing_in_dprime():
    # sanity property: more projected dimensions never hurt on average
    dps = [8, 32, 128]
    means = []
    for dp in dps:
        errs = []
        for seed in range(20):
            ds = gen_lsp_margin(256, 400, 0.2, seed=seed)
            alg = ProjectionSeparator(256, dprime=dp, subsample_size=200, quant_bits=16, seed=seed)
            try:
                w = run_one_pass(alg, ds.points(), proj_state_bits(dp, 200, 16), seed=500 + seed)
                errs.append(classification_error(w, ds))
            except NotSeparableInProjection:
                errs.append(1.0)
        means.append(np.mean(errs))
    assert means[0] >= means[1] >= means[2]


@settings(deadline=None, max_examples=25)
@given(
    qb=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_quantization_error_bounded_by_half_step(qb, seed):
    rng = np.random.default_rng(seed)
    v = rng.uniform(-4.0, 4.0, size=64)
    back = _dequantize(_quantize(v, qb, 4.0), qb, 4.0)
    assert np.abs(back - v).max() <= 4.0 / ((1 << qb) - 1) + 1e-12


# ---------------------------------------------------------------------------
# registry


def test_registry_builds_every_algorithm():
    for name in REGISTRY:
        alg = build_algorithm(name, d=16, seed=0)
        assert hasattr(alg, "update") and hasattr(alg, "finalize")


def test_registry_unknown_name():
    with pytest.raises(ValidationError):
        build_algorithm("does-not-exist", d=16, seed=0)


@pytest.mark.parametrize("name", [["zero"], {"zero": 1}, None], ids=repr)
def test_registry_refuses_a_name_that_is_not_a_string(name):
    # a list or a dict is unhashable, yet is refused like any unknown name
    have = ("(have: offline-kernel, offline-lstsq, offline-separator, proj-separator, "
            "random-unit, zero)")
    with pytest.raises(ValidationError) as info:
        build_algorithm(name, d=16, seed=0)
    assert str(info.value) == "unknown algorithm %r %s" % (name, have)


def test_registry_proj_separator_caps_dprime_at_d():
    alg = build_algorithm("proj-separator", d=16, seed=0)
    assert alg.dprime == 16


# ---------------------------------------------------------------------------
# non-finite samples


class UpdateCounter(OnePassAlgorithm):
    """Counts the update calls that reach the wrapped algorithm."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def prepare(self, first_index, samples, shared):
        return prepared(self.inner, first_index, samples, shared)

    def update(self, i, sample, state, shared):
        self.calls += 1
        return self.inner.update(i, sample, state, shared)

    def finalize(self, state, shared):
        return self.inner.finalize(state, shared)


ND = 8
CFG = ReductionConfig.from_constants(DEFAULTS.constants)

# name -> (algorithm factory, sample form, budget); a vector stream, or pairs
# whose label the runner must check as well
STREAM_ALGORITHMS = {
    "zero": (lambda: build_algorithm("zero", ND, 0), "vector", 32),
    "random-unit": (lambda: build_algorithm("random-unit", ND, 0), "vector", 8),
    "offline-kernel": (lambda: build_algorithm("offline-kernel", ND, 0), "vector", kernel_budget_bits(ND)),
    "offline-lstsq": (lambda: build_algorithm("offline-lstsq", ND, 0), "pair", lstsq_budget_bits(ND)),
    "offline-separator": (
        lambda: build_algorithm("offline-separator", ND, 0), "pair", separator_budget_bits(ND, 4)
    ),
    "proj-separator": (
        lambda: build_algorithm("proj-separator", ND, 0),
        "pair",
        proj_state_bits(ND, DEFAULTS.separator.subsample, DEFAULTS.separator.quant_bits),
    ),
    "anv-via-lsp": (
        lambda: anv_via_lsp(OfflineSeparatorSolver(), CFG), "vector", separator_budget_bits(ND, 8)
    ),
    "anv-via-lr": (lambda: anv_via_lr(OfflineLstsqSolver(), CFG), "vector", lstsq_budget_bits(ND)),
}
NONFINITE_CASES = [
    (name, part, bad)
    for name, (_, form, _) in STREAM_ALGORITHMS.items()
    for part in (("vector", "label") if form == "pair" else ("vector",))
    for bad in (math.nan, math.inf, -math.inf)
]


@pytest.mark.parametrize("name,part,bad", NONFINITE_CASES)
def test_runner_rejects_nonfinite_samples_before_update(name, part, bad):
    make, form, budget = STREAM_ALGORITHMS[name]
    rng = np.random.default_rng(3)
    samples = [rng.standard_normal(ND) for _ in range(4)]
    if form == "pair":
        samples = [(x, 1.0 if k % 2 else -1.0) for k, x in enumerate(samples)]
    if part == "vector":
        x = np.array(samples[2][0] if form == "pair" else samples[2])
        x[5] = bad
        samples[2] = (x, samples[2][1]) if form == "pair" else x
    else:
        samples[2] = (samples[2][0], bad)
    counter = UpdateCounter(make())
    with pytest.raises(ValidationError, match="sample 3 holds a NaN or an infinity"):
        run_one_pass(counter, samples, budget, seed=1)
    assert counter.calls == 2
    for split in (1, 3):  # the bad sample on party 2's side, then party 1's
        proto = one_pass_to_protocol(make(), split)
        with pytest.raises(ValidationError, match="sample 3 holds a NaN or an infinity"):
            run_protocol(proto, samples[:split], samples[split:], budget, seed=1)
