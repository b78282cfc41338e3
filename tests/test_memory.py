"""Traced-allocation guards for the large-array paths at benchmark size.

Each path holds its m x d (or d' x d) array once: the array is edited in
place or reduced in fixed row blocks, so the traced peak stays a small
multiple of the output.  The whole-matrix formulas these replaced peaked at
about 4.0x (gen_lsp_margin) and 4.3x (projection_for) the bound below.
The certificates that factor their trials in stacks hold one chunk's
stacks at a time, so their peaks do not grow with the trial count.
sphere_concentration_test draws one value per trial from the exact law;
its dense draw held the trials x d array and its projection, 7.9 MiB at
10 000 x 64.  proj-separator's finalize peaked 8.5 MiB
above its inputs when the perceptron took (x, y) pairs: the kept points
were held three times over (dequantized, copied, signed row by row) next
to the whole-field integer read of coords.
"""

import tracemalloc

from nullstream.algorithms import build_algorithm, proj_state_bits
from nullstream.instances import gen_lsp_margin
from nullstream.streaming import STEP_BLOCK, BitState, SharedRandomness, _advance
from nullstream.verification import (
    certify_no_joint_sol,
    comorth_check,
    sphere_concentration_test,
    sphere_marginal_tests,
)

MIB = 2**20


def traced_peak(fn):
    """(fn(), the most bytes its numpy and Python allocations held at once)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_gen_lsp_margin_peak_is_its_points_plus_a_quarter():
    gen_lsp_margin(64, 10, 0.3, 1)  # first-call caches
    ds, peak = traced_peak(lambda: gen_lsp_margin(1024, 1000, 0.3, 8))
    assert peak <= 1.25 * ds.xs.nbytes


def test_fresh_projection_peak_is_at_most_twice_its_basis():
    shared = SharedRandomness(3)
    build_algorithm("proj-separator", 64, 0).projection_for(64, shared)  # first-call caches
    alg = build_algorithm("proj-separator", 1024, 0)
    proj, peak = traced_peak(lambda: alg.projection_for(1024, shared))
    assert proj.basis.shape == (600, 1024)
    assert peak <= 2 * proj.basis.nbytes


def test_concentration_peak_is_its_draw_and_the_std_deviations():
    # one value per trial, and np.std's array of deviations from the mean;
    # nothing grows with d
    d, trials = 64, 10_000
    sphere_concentration_test(8, 10, 1)  # first-call caches
    _, peak = traced_peak(lambda: sphere_concentration_test(d, trials, 3))
    draw = trials * 8
    assert peak <= 2 * draw + 16 * 2**10


def test_proj_streaming_peak_is_its_payload_plus_one_block():
    # prepare projects one STEP_BLOCK x d block of samples at a time into a
    # STEP_BLOCK x d' block of coordinates, dropped once the run's updates
    # are done; nothing else grows with the stream
    d = 1024
    alg = build_algorithm("proj-separator", d, 0)
    shared = SharedRandomness(3)
    alg.projection_for(d, shared)  # the basis is cached before the stream starts
    points = gen_lsp_margin(d, 1000, 0.3, 2).points()
    budget = proj_state_bits(alg.dprime, alg.subsample, alg.quant_bits)
    _advance(alg, points[:STEP_BLOCK], BitState(budget), shared, 1)  # first-call caches
    state, peak = traced_peak(lambda: _advance(alg, points, BitState(budget), shared, 1))
    assert peak <= len(state.payload) + STEP_BLOCK * (d + alg.dprime) * 8 + MIB


def test_proj_finalize_peak_is_its_signed_points_plus_two_mib():
    d = 1024
    alg = build_algorithm("proj-separator", d, 0)
    shared = SharedRandomness(3)
    state = BitState(proj_state_bits(alg.dprime, alg.subsample, alg.quant_bits))
    points = gen_lsp_margin(d, alg.subsample, 0.3, 2).points()
    for i, sample in enumerate(alg.prepare(1, points, shared), start=1):
        alg.update(i, sample, state, shared)
    alg.finalize(state, shared)  # first-call caches; the basis stays cached
    w, peak = traced_peak(lambda: alg.finalize(state, shared))
    assert w.shape == (d,)
    signed_points = alg.subsample * alg.dprime * 8
    assert peak <= signed_points + 2 * MIB


def test_marginal_peak_is_under_seven_sample_arrays():
    d, samples = 64, 100_000
    sphere_marginal_tests(8, 10, 0.2, 1)  # first-call imports
    _, peak = traced_peak(lambda: sphere_marginal_tests(d, samples, 0.2, 3))
    # the exact CDF is one array over the sorted samples, filled in place
    assert peak <= 7 * samples * 8


def test_stacked_certificates_peak_under_the_marginal():
    # certify's largest traced moment is the marginal's exact CDF and KS
    # terms; no-joint-sol and comorth at their certify sizes stay under it,
    # so their stacks cannot raise certify's peak
    sphere_marginal_tests(8, 10, 0.2, 1)  # first-call imports
    certify_no_joint_sol(16, 0.5, 2, 1)
    comorth_check(8, 3, 1)
    _, marginal = traced_peak(lambda: sphere_marginal_tests(64, 100_000, 0.2, 3))
    _, joint = traced_peak(lambda: certify_no_joint_sol(64, 0.5, 50, 0))
    _, comorth = traced_peak(lambda: comorth_check(32, 100, 0))
    assert max(joint, comorth) < marginal


def test_no_joint_sol_peak_at_large_d_is_one_chunk():
    # at d = 512 a chunk is one trial, whose stacks are V1 and V2, U, the
    # d x d projector sum and V1's complete QR; four trials peak at four
    # d x d arrays, where one stack of all four would hold several times that
    d = 512
    certify_no_joint_sol(16, 0.0, 2, 1)  # first-call caches
    r, peak = traced_peak(lambda: certify_no_joint_sol(d, 0.0, 4, 0))
    assert r.statistics["counted"] == 4
    assert peak <= 4 * d * d * 8
