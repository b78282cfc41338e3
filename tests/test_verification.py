"""Tests for the lemma certificates.

Controls are chosen so the analytics force the outcome: identical subspace
pairs must produce a zero eigenvalue, orthonormal-row matrices must give
ratio exactly one, the sandwich's singular values match a generalized
eigensolve of its two quadratic forms.  The marginal's closed-form CDF is
checked against the quadrature grid in test_marginal_golden.
"""

import copy
import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.stats
from numpy.testing import assert_allclose
from scipy.special import ndtr

from nullstream import linalg, verification
from nullstream.errors import DimensionMismatch, EmptyList, ValidationError
from nullstream.instances import first_coord_cdf, first_coord_tail
from nullstream.linalg import haar_frame, orthonormalize, sample_grassmannian
from nullstream.verification import (
    LemmaReport,
    _ks_statistic,
    certify_no_joint_sol,
    certify_sandwich,
    comorth_check,
    joint_sol_lambda_min,
    sandwich_bounds,
    sandwich_extremes,
    singular_value_experiment,
    sphere_concentration_test,
    sphere_marginal_tests,
)

DEGENERATE_TOL = 1e-10


# case -> (certifier call, trial rows, rows judged, rows passed, verdict);
# the sandwich pair straddles its 0.95 rule, every trial of the second
# no-joint-sol case is skipped, and the marginal misses its KS cap
CERTIFIER_CASES = {
    "no-joint-sol": (lambda: certify_no_joint_sol(16, 0.5, 6, seed=3), 6, 3, 3, True),
    "no-joint-sol-all-skipped":
        (lambda: certify_no_joint_sol(8, 0.99, 3, seed=0), 3, 0, 0, False),
    "sandwich-19-of-20": (lambda: certify_sandwich(16, 0.13, 20, seed=2), 20, 20, 19, True),
    "sandwich-13-of-20": (lambda: certify_sandwich(16, 0.01, 20, seed=3), 20, 20, 13, False),
    "singular": (lambda: singular_value_experiment(8, 8, 1.2, 40, seed=0), 40, 40, 40, True),
    "marginal": (lambda: sphere_marginal_tests(16, 2000, 0.2, seed=3), 1, 1, 0, False),
    "concentration": (lambda: sphere_concentration_test(16, 500, seed=3), 1, 1, 1, True),
    "comorth": (lambda: comorth_check(12, 10, seed=3), 10, 10, 10, True),
}


@pytest.mark.parametrize("case", list(CERTIFIER_CASES))
def test_pass_fraction_is_the_share_of_judged_rows_that_passed(case):
    certify, rows, judged, passes, verdict = CERTIFIER_CASES[case]
    r = certify()
    assert len(r.trial_rows) == rows
    assert sum("passed" in row for row in r.trial_rows) == judged
    assert sum(bool(row.get("passed")) for row in r.trial_rows) == passes
    assert r.pass_fraction == (passes / judged if judged else 0.0)
    assert r.passed is verdict


def test_singular_verdict_is_the_violation_rate_within_three_sigma():
    r = singular_value_experiment(8, 8, 1.2, 40, seed=0)
    s = r.statistics
    assert s["violation_rate"] == 1.0 - r.pass_fraction
    assert r.passed == (s["violation_rate"] <= s["prob_bound"] + 3 * s["sigma_binomial"])


def test_report_holds_its_verdict_and_derives_its_pass_fraction():
    rows = ({"trial": 0, "passed": True}, {"trial": 1, "skipped": True},
            {"trial": 2, "passed": False}, {"trial": 3, "passed": True})
    r = LemmaReport(lemma_id="x", d=8, trials=4, passed=False, statistics={}, seed=0,
                    trial_rows=rows)
    assert r.pass_fraction == 2 / 3
    assert r.passed is False
    assert LemmaReport(lemma_id="x", d=8, trials=1, passed=False, statistics={},
                       seed=0).pass_fraction == 0.0
    assert "pass_fraction" not in {f.name for f in dataclasses.fields(LemmaReport)}


# ---------------------------------------------------------------------------
# joint-solution certificate


def test_no_joint_sol_at_calibrated_point():
    r = certify_no_joint_sol(64, 0.5, 50, seed=0)
    assert r.pass_fraction == 1.0
    assert r.statistics["counted"] + r.statistics["skipped"] == 50
    assert r.statistics["counted"] > 0
    assert r.statistics["min_lambda_min"] >= r.statistics["threshold"]


def test_no_joint_sol_equal_pair_control_is_degenerate():
    # V2 = V1 leaves the kernel of V1 + U as an escape direction
    rng = np.random.default_rng(3)
    v1 = sample_grassmannian(32, 64, rng)
    u = sample_grassmannian(31, 64, rng)
    assert joint_sol_lambda_min([v1, v1, u]) <= DEGENERATE_TOL


def test_two_subspace_pair_always_degenerate():
    # dims sum to d-1, so a common null vector always exists
    for seed in range(5):
        rng = np.random.default_rng(seed)
        v = sample_grassmannian(16, 32, rng)
        u = sample_grassmannian(15, 32, rng)
        assert joint_sol_lambda_min([v, u]) <= DEGENERATE_TOL


def test_joint_sol_lambda_min_of_a_singleton_is_zero():
    # a proper subspace leaves its complement as an escape direction
    s = sample_grassmannian(3, 7, np.random.default_rng(23))
    assert joint_sol_lambda_min([s]) <= DEGENERATE_TOL


def test_joint_sol_lambda_min_of_complementary_axes_is_one():
    e = np.eye(2)
    lam = joint_sol_lambda_min([orthonormalize([e[0]]), orthonormalize([e[1]])])
    assert_allclose(lam, 1.0, atol=1e-12)


def test_joint_sol_lambda_min_refuses_empty_and_mixed_lists():
    with pytest.raises(EmptyList):
        joint_sol_lambda_min([])
    rng = np.random.default_rng(0)
    with pytest.raises(DimensionMismatch):
        joint_sol_lambda_min([sample_grassmannian(2, 8, rng), sample_grassmannian(2, 9, rng)])


@pytest.mark.parametrize("d", [8, 16, 64, 128])
def test_joint_sol_lambda_min_is_the_eigh_reference(d):
    # the reference forms the eigenvectors too and clamps at 0 alike
    rng = np.random.default_rng(d)
    for _ in range(5):
        subs = [sample_grassmannian(k, d, rng) for k in (d // 2, d // 2, d // 2 - 1)]
        m = sum(s.basis.T @ s.basis for s in subs)
        reference = max(float(np.linalg.eigh(m)[0][0]), 0.0)
        assert abs(joint_sol_lambda_min(subs) - reference) <= 1e-13


# sha256 of joint_sol_lambda_min over 17 triples (V1, V2, U) of 32, 32 and
# 31 rows at d = 64, one list at a time, made by the code before it took stacks
JOINT_STACK_PIN = "5fe820c18ecd99bc7f3706b8d897f1dbab358f55194da939adbdeab0f0d693de"


def test_stacked_joint_sol_lambda_min_equals_the_one_list_calls():
    draws = np.random.default_rng(5).standard_normal((3, 17, 32, 64))
    stacks = [linalg.haar_frames(g.copy().transpose(0, 2, 1)) for g in draws]
    stacks[2] = np.ascontiguousarray(stacks[2][:, :31])
    lam = verification.joint_sol_lambda_mins(stacks)
    one = [joint_sol_lambda_min([linalg.Subspace(64, b.shape[0], b) for b in triple])
           for triple in zip(*stacks)]
    assert lam.tolist() == one
    assert hashlib.sha256(lam.tobytes()).hexdigest() == JOINT_STACK_PIN


def test_no_joint_sol_probe_frame_is_the_haar_frame_of_its_draw(monkeypatch):
    # the probe's frames in V1-perp coordinates, drawn in one stacked call a
    # chunk: probe_dim orthonormal rows a counted trial, whose bytes are
    # haar_frame's of that trial's own Gaussian draw, whose law the Haar
    # tests in test_linalg judge
    stacked, frames = verification.sample_grassmannians, []

    def recorded(k, d, rngs):
        draws = [copy.deepcopy(rng).standard_normal((k, d)) for rng in rngs]
        out = stacked(k, d, rngs)
        if (k, d) == (2, 16):
            frames.extend(zip(draws, out))
        return out

    monkeypatch.setattr(verification, "sample_grassmannians", recorded)
    r = certify_no_joint_sol(32, 0.5, 6, seed=3)
    assert len(frames) == r.statistics["counted"] > 0
    for draw, frame in frames:
        assert frame.shape == (2, 16) == draw.shape
        assert np.abs(frame @ frame.T - np.eye(2)).max() <= 1e-13
        assert haar_frame(np.array(draw.T, order="F")).basis.tobytes() == frame.tobytes()


def test_no_joint_sol_rejects_odd_dimension():
    with pytest.raises(ValidationError):
        certify_no_joint_sol(63, 0.5, 10, seed=0)


def test_no_joint_sol_reports_probe_statistics():
    r = certify_no_joint_sol(32, 0.2, 20, seed=1)
    if r.statistics["counted"]:
        assert 0.0 <= r.statistics["probe_min"] <= 1.0


# ---------------------------------------------------------------------------
# sandwich certificate


def test_sandwich_bounds_match_reference_values():
    lower, upper = sandwich_bounds(0.2)
    assert_allclose(lower, 0.2926, atol=5e-4)
    assert_allclose(upper, 43.56, atol=0.03)


def test_sandwich_bounds_reject_large_t():
    with pytest.raises(ValidationError):
        sandwich_bounds(0.5)


def test_real_parameters_checked_at_their_bounds():
    # the library rejects what the CLI rejects, and accepts each bound itself
    t_min = math.sqrt(2 * math.log(2))
    assert singular_value_experiment(8, 8, t_min, 2, 0).statistics["prob_bound"] <= 1.0
    assert certify_sandwich(8, 0.0, 2, 0).statistics["t"] == 0.0
    assert certify_no_joint_sol(8, 0.0, 2, 0).statistics["delta_threshold"] == 0.0
    bad = [
        (r"^t ", lambda: sandwich_bounds(-1e-9)),
        (r"^t ", lambda: singular_value_experiment(8, 8, math.nextafter(t_min, 0.0), 2, 0)),
        (r"^t ", lambda: singular_value_experiment(8, 8, -5.0, 2, 0)),
        (r"^delta_threshold ", lambda: certify_no_joint_sol(8, math.inf, 2, 0)),
        (r"^c_emp ", lambda: certify_no_joint_sol(8, 0.5, 2, 0, c_emp=-math.inf)),
    ]
    for message, call in bad:
        with pytest.raises(ValidationError, match=message):
            call()


def test_sandwich_at_calibrated_point():
    r = certify_sandwich(128, 0.2, 100, seed=0)
    assert r.pass_fraction >= 0.95
    assert r.statistics["lower"] <= r.statistics["min_rho"]
    assert r.statistics["max_rho"] <= r.statistics["upper"]


def test_sandwich_orthonormal_rows_give_unit_ratio():
    # P_V + P_U equals G^T G exactly when the rows are orthonormal
    rng = np.random.default_rng(7)
    g = orthonormalize(rng.standard_normal((31, 32))).basis
    rho_min, rho_max = _dense_extremes(g, 16)
    assert_allclose([rho_min, rho_max], [1.0, 1.0], atol=1e-9)


def _dense_extremes(g, rows_v):
    # the certifier's formula on the SVDs of a dense draw's two row blocks
    return sandwich_extremes(np.linalg.svd(g[:rows_v], compute_uv=False),
                             np.linalg.svd(g[rows_v:], compute_uv=False))


def _pencil_extremes(g, rows_v):
    # the reference: the generalized eigenproblem of the two quadratic forms,
    # reduced to an orthonormal basis of the row space, where both are definite
    v = orthonormalize(g[:rows_v])
    u = orthonormalize(g[rows_v:])
    rowspace = orthonormalize(g)
    vb = v.basis @ rowspace.basis.T
    ub = u.basis @ rowspace.basis.T
    gb = g @ rowspace.basis.T
    eigs = scipy.linalg.eigh(vb.T @ vb + ub.T @ ub, gb.T @ gb, eigvals_only=True)
    return float(eigs[0]), float(eigs[-1])


def _first_half_only(g, rows_v):
    # planted defect: the singular values of V's rows alone
    s = np.linalg.svd(g[:rows_v], compute_uv=False)
    return float(s[0] ** -2), float(s[-1] ** -2)


def _matches_pencil(extremes):
    for d in (8, 16, 32, 128):
        for seed in range(5):
            g = np.random.default_rng((seed, d)).standard_normal((d - 1, d)) / math.sqrt(d)
            expected = _pencil_extremes(g, d // 2)
            if not np.allclose(extremes(g, d // 2), expected, rtol=1e-12, atol=0):
                return False
    return True


def test_sandwich_extremes_match_the_pencil_reference():
    assert _matches_pencil(_dense_extremes)
    assert not _matches_pencil(_first_half_only)


def test_sandwich_extremes_bound_random_directions():
    # Monte-Carlo over the row space never escapes the closed-form extremes
    d = 32
    rng = np.random.default_rng(11)
    g = rng.standard_normal((d - 1, d)) / math.sqrt(d)
    rho_min, rho_max = _dense_extremes(g, d // 2)
    v = orthonormalize(g[: d // 2])
    u = orthonormalize(g[d // 2 :])
    rowspace = orthonormalize(g)
    c = rng.standard_normal((10_000, d - 1))
    c /= np.linalg.norm(c, axis=1, keepdims=True)
    vecs = c @ rowspace.basis
    num = np.linalg.norm(vecs @ v.basis.T, axis=1) ** 2 + np.linalg.norm(vecs @ u.basis.T, axis=1) ** 2
    den = np.linalg.norm(vecs @ g.T, axis=1) ** 2
    rho = num / den
    assert rho.min() >= rho_min - 1e-9
    assert rho.max() <= rho_max + 1e-9


# The certifier's chi-bidiagonal halves against the dense reference, the
# halves' SVDs of a (d-1) x d draw with N(0, 1/d) entries: a two-sample KS
# test on rho_min and rho_max at d = 16, SAME_LAW_TRIALS trials a side from
# fixed seeds, each feature judged at SAME_LAW_ALPHA.  The planted control
# draws both halves with d - 1 columns instead of d, and the test must
# reject it.
SAME_LAW_TRIALS = 3000
SAME_LAW_ALPHA = 1e-3


def _sandwich_same_law_pvalues(d):
    rng = np.random.default_rng(1)
    dense = np.array([_dense_extremes(rng.standard_normal((d - 1, d)) / math.sqrt(d), d // 2)
                      for _ in range(SAME_LAW_TRIALS)])
    rows = certify_sandwich(d, 0.2, SAME_LAW_TRIALS, seed=2).trial_rows
    chi = np.array([(r["rho_min"], r["rho_max"]) for r in rows])
    return {k: scipy.stats.ks_2samp(dense[:, i], chi[:, i]).pvalue
            for i, k in enumerate(("rho_min", "rho_max"))}


def test_sandwich_chi_halves_have_the_dense_law():
    # alpha = 1e-3 per feature
    pvalues = _sandwich_same_law_pvalues(16)
    assert min(pvalues.values()) > SAME_LAW_ALPHA, pvalues


def test_sandwich_same_law_check_rejects_halves_one_column_short(monkeypatch):
    # alpha = 1e-3 per feature; the control's halves are k x (d - 1)
    draw = verification.gaussian_singular_values
    monkeypatch.setattr(verification, "gaussian_singular_values",
                        lambda n, k, rng: draw(n - 1, k, rng))
    pvalues = _sandwich_same_law_pvalues(16)
    assert min(pvalues.values()) <= SAME_LAW_ALPHA, pvalues


# ---------------------------------------------------------------------------
# singular values


def test_singular_value_sandwich_frequency():
    r = singular_value_experiment(128, 128, 3.0, 200, seed=0)
    allowed = r.statistics["prob_bound"] + 3 * math.sqrt(
        r.statistics["prob_bound"] * (1 - r.statistics["prob_bound"]) / 200
    )
    assert r.statistics["violation_rate"] <= allowed


def test_singular_value_tall_matrix_min_bound():
    r = singular_value_experiment(128, 64, 3.0, 200, seed=1)
    lo = math.sqrt(128) - math.sqrt(64) - 3.0
    hits = sum(1 for row in r.trial_rows if row["sigma_min"] >= lo)
    assert hits / 200 >= 0.97


def test_singular_value_quantile_envelope():
    r = singular_value_experiment(128, 128, 3.0, 100, seed=2)
    for tau in (50, 75, 90):
        assert r.statistics["envelope_frac_ratio_%d" % tau] >= 0.99


def test_singular_value_rejects_wide_matrix():
    with pytest.raises(ValidationError):
        singular_value_experiment(64, 128, 3.0, 10, seed=0)


# ---------------------------------------------------------------------------
# sphere marginals


def test_sphere_marginal_at_calibrated_point():
    r = sphere_marginal_tests(64, 100_000, 0.2, seed=0)
    assert r.pass_fraction == 1.0
    assert r.statistics["ks_exact"] <= 0.01
    assert r.statistics["ks_normal"] <= 0.03
    # empirical tail within 4 sigma of the exact (closed-form) tail
    p = r.statistics["exact_tail"]
    sigma = math.sqrt(p * (1 - p) / 100_000)
    assert abs(r.statistics["emp_tail"] - p) <= 4 * sigma


def test_ks_statistic_matches_scipy_kstest_bit_for_bit():
    # ks_normal is _ks_statistic on the normal CDF; scipy.stats is only the
    # oracle here, and kstest takes its D from ndtr, so ndtr feeds both
    import scipy.stats

    rng = np.random.default_rng(17)
    sizes = [1, 1, 2, 3] + [int(n) for n in rng.integers(4, 5000, 196)]
    for case, n in enumerate(sizes):
        z = rng.standard_normal(n) * rng.uniform(0.5, 2.0) + rng.uniform(-0.5, 0.5)
        if case % 3 == 0:
            z = np.round(z, 1)  # ties
        z.sort()
        expected = scipy.stats.kstest(z, "norm").statistic
        assert _ks_statistic(z, ndtr) == expected, (case, n)


def test_normal_cdf_matches_ndtr():
    # the marginal's normal reference is libm's erfc, block by block
    z = np.linspace(-40.0, 40.0, 200_001)
    assert np.abs(verification._normal_cdf(z) - ndtr(z)).max() <= 3e-16


def test_normal_cdf_screen_is_within_its_stated_error():
    # Abramowitz and Stegun 7.1.26 bounds erfc's error by 1.5e-7, so Phi's
    # by 7.5e-8; 6.97e-8 is reached on this grid
    z = np.linspace(-40.0, 40.0, 2_000_001)
    err = np.abs(verification._normal_cdf_screen(z) - verification._normal_cdf(z)).max()
    assert err <= 7.5e-8 < verification.KS_SCREEN_EPS


def _unscreened_ks_normal(z):
    return _ks_statistic(z, verification._normal_cdf)


@pytest.mark.parametrize("d", [16, 64, 256])
def test_screened_ks_normal_is_the_unscreened_statistic(d):
    # the marginal's own samples, 100 000 of them over two blocks
    for seed in range(10):
        coords = verification._first_coords(d, 100_000, verification._trial_rng(seed, 0))
        coords.sort()
        z = math.sqrt(d) * coords
        assert verification._ks_normal(z).hex() == _unscreened_ks_normal(z).hex(), seed


def test_screened_ks_normal_is_the_unscreened_statistic_at_small_sizes():
    rng = np.random.default_rng(29)
    for n in (1, 2, 3, 10, 1000):
        z = np.sort(rng.standard_normal(n))
        assert verification._ks_normal(z).hex() == _unscreened_ks_normal(z).hex(), n


def _near_tie(n, seed):
    # every rank's exact deviation is 1/(2n) up to a jitter of 1e-10, far
    # below the screen's error, so the jitter alone decides the maximum
    from scipy.special import ndtri

    jitter = np.random.default_rng(seed).uniform(-1e-10, 1e-10, n)
    return ndtri((np.arange(1, n + 1) - 0.5) / n + jitter)


def test_screened_ks_normal_is_exact_on_near_ties():
    for seed in range(5):
        z = _near_tie(1000, seed)
        assert verification._ks_normal(z).hex() == _unscreened_ks_normal(z).hex(), seed


def test_screen_without_its_margin_misses_near_ties(monkeypatch):
    # planted control: with no margin only the screened maximum's rank is
    # evaluated exactly, and on a near-tie that is not the exact maximum's
    monkeypatch.setattr(verification, "KS_SCREEN_EPS", 0.0)
    for seed in range(5):
        z = _near_tie(1000, seed)
        assert verification._ks_normal(z) != _unscreened_ks_normal(z), seed


def _whole_array_marginal(d, samples, c_f, seed):
    # the marginal's statistics with every step taken over the whole sample
    # at once: one chi-square draw, one CDF array, one normal reference
    rng = verification._trial_rng(seed, 0)
    x = rng.standard_normal(samples)
    r = rng.chisquare(d - 1, samples)
    r += x * x
    np.sqrt(r, out=r)
    x /= r
    x.sort()
    i = np.arange(1, samples + 1)

    def ks(f):
        return float(np.maximum(np.abs(f - i / samples), np.abs(f - (i - 1) / samples)).max())

    return {
        "ks_exact": ks(first_coord_cdf(d, x)),
        "ks_normal": ks(verification._normal_cdf(math.sqrt(d) * x)),
        "emp_tail": float(np.mean(x >= c_f)),
    }


def test_blocked_marginal_is_the_whole_array_statistic_bit_for_bit():
    # 100 000 samples span many SAMPLE_BLOCKs, so R's blocked draw and the
    # blocked CDF and KS terms are checked against one pass over the whole
    assert 100_000 > 10 * verification.SAMPLE_BLOCK
    for seed in range(5):
        stats = sphere_marginal_tests(64, 100_000, 0.2, seed).statistics
        expected = _whole_array_marginal(64, 100_000, 0.2, seed)
        assert {k: stats[k].hex() for k in expected} == {k: v.hex() for k, v in expected.items()}


def test_exact_tail_decays_exponentially_in_dimension():
    tails = [first_coord_tail(d, 0.2) for d in (16, 32, 64, 128, 256)]
    logs = np.log(tails)
    assert np.all(np.diff(logs) < 0)


def test_sphere_marginal_rejects_tiny_dimension():
    with pytest.raises(ValidationError):
        sphere_marginal_tests(3, 100, 0.2, seed=0)


# The certifier's chi-form coordinate x / sqrt(x^2 + R) against the dense
# reference, the first coordinate of normalized N(0, I_d) rows: a two-sample
# KS test at d = 16 on MARGINAL_SAME_LAW_SAMPLES samples a side from fixed
# seeds, judged at SAME_LAW_ALPHA.  The planted control draws R from
# chi^2_{d-5}, the coordinate of d' = d - 4, and the test must reject it.
MARGINAL_SAME_LAW_SAMPLES = 20_000


def _marginal_same_law_pvalue(d, chi_d):
    g = np.random.default_rng(1).standard_normal((MARGINAL_SAME_LAW_SAMPLES, d))
    dense = g[:, 0] / np.linalg.norm(g, axis=1)
    chi = verification._first_coords(chi_d, MARGINAL_SAME_LAW_SAMPLES, np.random.default_rng(2))
    return scipy.stats.ks_2samp(dense, chi).pvalue


def test_sphere_marginal_chi_form_has_the_dense_law():
    # alpha = 1e-3
    assert _marginal_same_law_pvalue(16, 16) > SAME_LAW_ALPHA


def test_marginal_same_law_check_rejects_four_dimensions_short():
    # alpha = 1e-3; the control's coordinate is that of d' = 12
    assert _marginal_same_law_pvalue(16, 12) <= SAME_LAW_ALPHA


@pytest.mark.parametrize("d,samples", [(64, 100_000), (256, 20_000)])
def test_sphere_marginal_working_memory_is_not_samples_times_d(d, samples):
    # one whole samples x d draw and its squares would take 99 MB and 78 MB
    sphere_marginal_tests(d, 10, 0.2, seed=0)  # lazy imports before tracing
    tracemalloc.start()
    try:
        sphere_marginal_tests(d, samples, 0.2, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


# ---------------------------------------------------------------------------
# sphere concentration


def test_concentration_std_cap():
    r = sphere_concentration_test(64, 10_000, seed=0)
    assert r.pass_fraction == 1.0
    assert r.statistics["std"] <= 3.0 / math.sqrt(64)


def test_concentration_mean_near_half_power():
    r = sphere_concentration_test(128, 10_000, seed=1)
    assert abs(r.statistics["mean"] - math.sqrt(0.5)) <= 0.05


def test_concentration_std_halving_ratios():
    stds = [sphere_concentration_test(d, 10_000, seed=2).statistics["std"] for d in (64, 128, 256)]
    for a, b in zip(stds, stds[1:]):
        assert 0.5 <= b / a <= 0.9


# The certifier's sqrt(Beta(d/4, d/4)) draw against the dense reference: the
# norms of normalized N(0, I_d) rows projected by one product onto a
# Grassmannian subspace of dimension k.  A two-sample KS test at
# CONCENTRATION_SAME_LAW_SAMPLES samples a side from fixed seeds, judged at
# SAME_LAW_ALPHA.  The planted control projects onto a subspace of
# dimension 5d/8 instead of d/2, and the test must reject it.
CONCENTRATION_SAME_LAW_SAMPLES = 4000


def _concentration_same_law_pvalue(d, k):
    rng = np.random.default_rng(1)
    sub = sample_grassmannian(k, d, rng)
    ys = rng.standard_normal((CONCENTRATION_SAME_LAW_SAMPLES, d))
    ys /= np.linalg.norm(ys, axis=1, keepdims=True)
    dense = np.linalg.norm(ys @ sub.basis.T, axis=1)
    beta = verification._projection_norms(d, CONCENTRATION_SAME_LAW_SAMPLES,
                                          np.random.default_rng(2))
    return scipy.stats.ks_2samp(dense, beta).pvalue


@pytest.mark.parametrize("d", [16, 64])
def test_concentration_beta_form_has_the_dense_law(d):
    # alpha = 1e-3; and the report's statistics are those of this draw
    assert _concentration_same_law_pvalue(d, d // 2) > SAME_LAW_ALPHA
    f = verification._projection_norms(d, 500, verification._trial_rng(3, 0))
    stats = sphere_concentration_test(d, 500, seed=3).statistics
    assert (stats["std"], stats["mean"]) == (float(np.std(f)), float(np.mean(f)))


@pytest.mark.parametrize("d", [16, 64])
def test_concentration_same_law_check_rejects_a_five_eighths_subspace(d):
    # alpha = 1e-3
    assert _concentration_same_law_pvalue(d, 5 * d // 8) <= SAME_LAW_ALPHA


# ---------------------------------------------------------------------------
# complement symmetry and reproducibility


def test_comorth_at_calibrated_point():
    r = comorth_check(32, 100, seed=0)
    assert r.pass_fraction == 1.0
    assert r.statistics["max_deviation"] <= 1e-8


def test_reports_reproducible_from_seed():
    a = certify_no_joint_sol(32, 0.2, 10, seed=5)
    b = certify_no_joint_sol(32, 0.2, 10, seed=5)
    c = certify_no_joint_sol(32, 0.2, 10, seed=6)
    assert a == b
    assert a.trial_rows == b.trial_rows
    assert a != c
