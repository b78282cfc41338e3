import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import lapack
import scipy.special
import scipy.stats
from numpy.testing import assert_allclose

from nullstream import instances, linalg
from nullstream.errors import (
    AcceptanceTooRare,
    DimensionMismatch,
    NotUnit,
    ValidationError,
)
from nullstream.instances import (
    AnvInstance,
    DEFAULT_MAX_ATTEMPTS,
    GAUSSIAN_RAW,
    HOPELESS,
    LrInstance,
    LspDataset,
    SPHERE_CONDITIONED,
    anv_loss,
    classification_error,
    conditioned_acceptance_stats,
    first_coord_tail,
    gen_anv_conditioned,
    gen_anv_gaussian,
    gen_lr_from_anv,
    gen_lsp_from_anv,
    gen_lsp_hard,
    lr_loss,
    margin_of,
    sample_dv,
)


def exact_tail(d, cf):
    # independent closed form: T^2 ~ Beta(1/2, (d-1)/2), symmetric T
    return 0.5 * (1.0 - scipy.special.betainc(0.5, (d - 1) / 2.0, cf**2))


def marginal_cdf(d):
    def cdf(t):
        t = np.clip(np.asarray(t, dtype=float), -1.0, 1.0)
        inner = scipy.special.betainc(0.5, (d - 1) / 2.0, t**2)
        return 0.5 * (1.0 + np.sign(t) * inner)

    return cdf


def test_gen_anv_gaussian_2d_cross():
    inst = gen_anv_gaussian(2, seed=4)
    g = inst.vectors[0]
    cross = np.array([-g[1], g[0]])
    cross /= np.linalg.norm(cross)
    assert_allclose(abs(inst.witness @ cross), 1.0, atol=1e-12)
    assert abs(inst.witness @ g) < 1e-12


def test_gen_anv_gaussian_row_norm_concentration():
    inst = gen_anv_gaussian(100, seed=8)
    mean_sq = np.mean(np.linalg.norm(inst.vectors, axis=1) ** 2) / 100
    assert abs(mean_sq - 1.0) < 0.2


def test_gen_anv_gaussian_witness_residual():
    inst = gen_anv_gaussian(50, seed=15)
    assert np.abs(inst.vectors @ inst.witness).max() < 1e-10
    ns = scipy.linalg.null_space(inst.vectors)[:, 0]
    assert_allclose(abs(ns @ inst.witness), 1.0, atol=1e-9)


def test_first_coord_tail_matches_closed_form():
    for d, cf in [(2, 0.3), (10, 0.2), (64, 0.2), (64, 0.5), (256, 0.1)]:
        assert_allclose(first_coord_tail(d, cf), exact_tail(d, cf), rtol=1e-10)


def quadrature_tail(d, cf):
    # independent reference: the density (1 - t^2)^((d-3)/2) with t = sin(phi),
    # integrated to a relative 1e-13 with no absolute floor, so a tiny tail
    # is not swamped; a missed tolerance warns, and the warning fails the test
    import scipy.integrate

    def integrand(phi):
        return math.cos(phi) ** (d - 2)

    opts = dict(epsabs=0.0, epsrel=1e-13, limit=200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        num, _ = scipy.integrate.quad(integrand, math.asin(cf), math.pi / 2, **opts)
        den, _ = scipy.integrate.quad(integrand, -math.pi / 2, math.pi / 2, **opts)
    return num / den


@pytest.mark.parametrize("d", [2, 16, 64, 256, 1024, 2048])
def test_first_coord_tail_matches_tight_quadrature(d):
    # quadrature at its default absolute tolerance (1.5e-8) loses small tails:
    # 2e-10 relative at (64, 0.9), 1e-4 at (1024, 0.2), 5e-2 at (2048, 0.5);
    # tails that are not normal floats (cf = 0.9 at d >= 1024) are left out
    checked = 0
    for cf in (0.0, 0.1, 0.2, 0.3, 0.5, 0.9):
        ref = quadrature_tail(d, cf)
        if ref >= sys.float_info.min:
            assert_allclose(first_coord_tail(d, cf), ref, rtol=1e-12, atol=0.0)
            checked += 1
    assert checked >= 5


@pytest.mark.parametrize("m", [0, 1, 2, 3, 62, 63, 1022, 1023, 4998])
def test_reduction_coefficients_are_the_exact_ratios_rounded_once(m):
    # the table cuts its integer ratio to RATIO_BITS bits as it grows; the
    # reference keeps every a_j = 1 / (j W_j) exact until its one rounding
    scale = Fraction(1) if m % 2 else Fraction(2.0 / math.pi)
    first = 2 - m % 2
    ratio, exact = Fraction(1), []
    for j in range(first, m + 1, 2):
        if j > first:
            ratio *= Fraction(j - 2, j - 1)
        exact.append(float(ratio * scale))
    assert instances._reduction_coefficients(m) == tuple(exact)


# the tail against scipy's betainc, relative: scipy itself strays from
# 50-digit mpmath by up to 9.3e-14 at these d and by 1.6e-13 at d = 2048
TAIL_DS = (2, 3, 4, 5, 8, 16, 64, 65, 256, 1000, 1024)
TAIL_CFS = (0.0, 0.01, 0.03, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 0.99)
# where scipy's tail is subnormal (850..857 at cf = 0.9, 4895..4945 at
# cf = 0.5) or 0, first_coord_tail returns 0.0; the d just below keeps a
# normal tail
TAIL_FLUSHED = ((850, 0.9), (857, 0.9), (858, 0.9), (2048, 0.9), (4895, 0.5), (4945, 0.5),
                (4946, 0.5))
TAIL_NORMAL_EDGE = ((849, 0.9), (4894, 0.5))


def _betainc_tail(d, cf):
    return 0.5 * scipy.special.betainc((d - 1) / 2, 0.5, (1.0 - cf) * (1.0 + cf))


def _tail_gaps(tail):
    gaps = []
    for d in TAIL_DS:
        for cf in TAIL_CFS:
            ref = _betainc_tail(d, cf)
            if ref >= sys.float_info.min:
                gaps.append(abs(tail(d, cf) / ref - 1.0))
    return gaps


def test_first_coord_tail_matches_scipy_betainc():
    gaps = _tail_gaps(first_coord_tail)
    assert len(gaps) >= 100
    assert max(gaps) <= 1e-13
    for d, cf in TAIL_FLUSHED:
        assert _betainc_tail(d, cf) < sys.float_info.min
        assert first_coord_tail(d, cf) == 0.0
    for d, cf in TAIL_NORMAL_EDGE:
        ref = _betainc_tail(d, cf)
        assert ref >= sys.float_info.min
        assert abs(first_coord_tail(d, cf) / ref - 1.0) <= 1e-13


def test_tail_check_catches_the_tail_of_d_minus_2():
    # the planted defect: the series and complement of d - 2
    gaps = _tail_gaps(lambda d, cf: first_coord_tail(max(d - 2, 2), cf))
    assert max(gaps) > 1e-13


def test_first_coord_tail_monotone_in_cf():
    vals = [first_coord_tail(32, cf) for cf in (0.0, 0.1, 0.3, 0.6, 0.9)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert_allclose(vals[0], 0.5, atol=1e-12)


def test_gen_anv_conditioned_postconditions():
    inst = gen_anv_conditioned(64, 0.2, seed=3)
    assert inst.witness[0] >= 0.2
    assert_allclose(np.linalg.norm(inst.vectors, axis=1), 1.0, atol=1e-10)
    assert np.abs(inst.vectors @ inst.witness).max() <= 1e-9
    assert abs(np.linalg.norm(inst.witness) - 1.0) <= 1e-10


def test_gen_anv_conditioned_tiny_cf_accepts_quickly_and_is_uniform():
    # the conditioning event approaches a sign coin independent of the
    # vectors, so accepted vectors stay exactly uniform on the sphere
    firsts = []
    for s in range(40):
        inst = gen_anv_conditioned(16, 1e-9, seed=s, max_attempts=64)
        firsts.extend(inst.vectors[:, 0])
    stat = scipy.stats.kstest(firsts, marginal_cdf(16)).statistic
    assert stat < 0.05


def test_gen_anv_conditioned_acceptance_rate_matches_tail():
    accepted, attempts = conditioned_acceptance_stats(64, 0.2, 2000, seed=11)
    rate = accepted / attempts
    oracle = first_coord_tail(64, 0.2)
    assert oracle / 2 <= rate <= oracle * 2


def test_gen_anv_conditioned_too_rare():
    with pytest.raises(AcceptanceTooRare) as info:
        gen_anv_conditioned(64, 0.9, seed=0, max_attempts=8)
    assert info.value.tail_estimate is not None
    assert info.value.tail_estimate < 1e-20


def _no_attempt(*args, **kwargs):
    raise AssertionError("an attempt was drawn")


@pytest.mark.parametrize("call", [
    lambda: gen_anv_conditioned(1024, 0.9, seed=0),
    lambda: gen_lsp_hard(1024, 1024, 0.9, 0.2, seed=0),
    lambda: gen_anv_conditioned(5000, 0.5, seed=0, max_attempts=3),
], ids=["anv-1024", "lsp-hard-1024", "anv-5000"])
def test_conditioned_generators_refuse_an_underflowing_tail_before_drawing(monkeypatch, call):
    for name in ("_conditioned_attempt", "_accepted_witness", "sample_grassmannian"):
        monkeypatch.setattr(instances, name, _no_attempt)
    with pytest.raises(AcceptanceTooRare, match="underflows to 0") as info:
        call()
    assert info.value.tail_estimate == 0.0


@pytest.mark.parametrize("call", [
    lambda: gen_anv_conditioned(1024, 0.5, seed=0),
    lambda: gen_lsp_hard(1024, 1024, 0.5, 0.2, seed=0),
], ids=["anv", "lsp-hard"])
def test_conditioned_generators_refuse_a_hopeless_tail_before_drawing(monkeypatch, call):
    # the tail is 3.1e-66, so 20 000 attempts would accept with probability
    # 6e-62; the draws would take about 30 minutes
    for name in ("_conditioned_attempt", "_accepted_witness", "sample_grassmannian"):
        monkeypatch.setattr(instances, name, _no_attempt)
    with pytest.raises(AcceptanceTooRare, match="no attempt made") as info:
        call()
    assert info.value.tail_estimate == first_coord_tail(1024, 0.5)
    assert 3.0e-66 < info.value.tail_estimate < 3.2e-66


def _draws_an_attempt(d, cf, max_attempts=DEFAULT_MAX_ATTEMPTS):
    try:
        gen_anv_conditioned(d, cf, seed=0, max_attempts=max_attempts)
    except AssertionError:  # _no_attempt was called
        return True
    except AcceptanceTooRare:
        return False
    raise AssertionError("neither drew nor refused")


def test_conditioned_generator_refuses_only_below_hopeless(monkeypatch):
    # at the default max_attempts and cf = 0.5, d = 200 has
    # max_attempts * tail = 4.1e-10 and draws.  The refusal starts at the
    # first d whose bound (1/2)(1 - cf^2)^((d-1)/2) puts the product under
    # HOPELESS: every d it refuses has max_attempts * tail under HOPELESS,
    # the first is within the bound's factor of 30 below it, and more
    # attempts there draw again
    monkeypatch.setattr(instances, "_conditioned_attempt", _no_attempt)
    assert DEFAULT_MAX_ATTEMPTS * first_coord_tail(200, 0.5) >= HOPELESS
    drawn = [d for d in range(200, 300) if _draws_an_attempt(d, 0.5)]
    first_refused = drawn[-1] + 1
    assert drawn == list(range(200, first_refused))
    for d in (first_refused, 299):
        assert DEFAULT_MAX_ATTEMPTS * first_coord_tail(d, 0.5) < HOPELESS
    assert DEFAULT_MAX_ATTEMPTS * first_coord_tail(first_refused, 0.5) * 30 >= HOPELESS
    assert _draws_an_attempt(first_refused, 0.5, max_attempts=2 * DEFAULT_MAX_ATTEMPTS)


def test_reduction_draw_never_computes_the_tail(monkeypatch):
    # reduce-d64's draw at (64, 0.2): max_attempts times the bound is about
    # 2 800, far above HOPELESS, so no series is paid before the attempts
    def no_tail(*args):
        raise AssertionError("the tail was computed")

    monkeypatch.setattr(instances, "first_coord_tail", no_tail)
    inst = gen_anv_conditioned(64, 0.2, seed=0)
    assert inst.witness[0] >= 0.2


def test_underflow_screen_bounds_the_tail_from_above():
    # the refusal calls first_coord_tail only when max_attempts times
    # (1/2)(1 - cf^2)^((d-1)/2) is below HOPELESS, which is sound because
    # that bound is never below the tail; it is also close to it, within 30x
    # at these points
    d = np.arange(2, 2996, 7)[:, None]
    cf = np.linspace(0.0, 0.98, 50)[None, :]
    tail = 0.5 * scipy.special.betainc((d - 1) / 2, 0.5, (1.0 - cf) * (1.0 + cf))
    bound = 0.5 * ((1.0 - cf) * (1.0 + cf)) ** ((d - 1) / 2)
    assert np.all(tail <= bound)
    for d, cf in [(1024, 0.5), (2048, 0.5), (4096, 0.3)]:
        assert first_coord_tail(d, cf) * 30 >= 0.5 * (1.0 - cf * cf) ** ((d - 1) / 2)


@pytest.mark.parametrize("call", [
    lambda: gen_anv_conditioned(16, 0.2, seed=0, max_attempts=0),
    lambda: gen_anv_conditioned(16, 0.2, seed=0, max_attempts=-1),
    lambda: gen_lsp_hard(16, 20, 0.2, 0.2, seed=0, max_attempts=0),
    lambda: conditioned_acceptance_stats(1, 0.2, 5, seed=0),
    lambda: conditioned_acceptance_stats(8, 1.5, 5, seed=0),
    lambda: conditioned_acceptance_stats(8, -0.5, 5, seed=0),
    lambda: conditioned_acceptance_stats(8, 0.0, 5, seed=0),
    lambda: conditioned_acceptance_stats(8, float("nan"), 5, seed=0),
    lambda: conditioned_acceptance_stats(8, 0.2, 0, seed=0),
    lambda: conditioned_acceptance_stats(8, 0.2, -3, seed=0),
])
def test_conditioned_sampler_rejects_invalid_parameters(call):
    with pytest.raises(ValidationError):
        call()


def _seeded_attempt_rows(d, seed):
    """The vectors and sign that _conditioned_attempt draws from this seed."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d - 1, d))
    return g / np.linalg.norm(g, axis=1, keepdims=True), 1.0 if rng.random() < 0.5 else -1.0


@pytest.mark.parametrize("d", [8, 64])
def test_rejection_screen_falls_through_at_the_threshold(d):
    # cf set to the SVD's own witness coordinate: the screen must leave the
    # decision to kernel_vector, which accepts; one ulp higher rejects
    checked = 0
    for s in range(60):
        thetas, sign = _seeded_attempt_rows(d, s)
        if sign < 0:
            continue
        w = linalg.kernel_vector(thetas)
        assert not instances._rejection_certain(thetas, 1.0, w[0])
        rows, accepted = instances._conditioned_attempt(d, w[0], np.random.default_rng(s))
        assert rows.tobytes() == thetas.tobytes()
        assert accepted is not None and accepted.tobytes() == w.tobytes()
        above = np.nextafter(w[0], 1.0)
        assert instances._conditioned_attempt(d, above, np.random.default_rng(s))[1] is None
        checked += 1
    assert checked >= 20


def _scipy_screen(rows, cf):
    """The QR screen as it was computed through scipy.linalg.lapack:
    (certain rejection, q, r_inv)."""
    n, d = rows.shape
    qr, tau, _, info = lapack.dgeqrf(rows.T, lwork=32 * d)
    assert info == 0
    last = np.zeros((d, 1))
    last[-1] = 1.0
    q = lapack.dormqr("L", "N", qr, tau, last, lwork=1)[0][:, 0]
    r_inv, info = lapack.dtrtri(qr[:n])
    assert info == 0
    r_inv_norm = np.linalg.norm(r_inv)
    gamma = d * d * instances.EPS * np.linalg.norm(rows)
    if not gamma * r_inv_norm <= 0.5:
        return False, q, r_inv
    band = instances.SCREEN_SAFETY * math.sqrt(2.0) * (np.linalg.norm(rows @ q) + gamma) / (
        1.0 / r_inv_norm - gamma
    )
    return abs(q[0]) + band < cf, q, r_inv


@pytest.mark.parametrize("d", [16, 64, 128])
def test_rejection_screen_bytes_equal_the_scipy_lapack_path(d):
    decisions = []
    for s in range(200):
        thetas, _ = _seeded_attempt_rows(d, s)
        cf = (0.05, 0.2, 0.5)[s % 3]
        certain, q, r_inv = _scipy_screen(thetas, cf)
        got_q, got_r_inv = linalg.householder_kernel(thetas)
        assert got_q.tobytes() == q.tobytes()
        assert got_r_inv.tobytes() == r_inv.tobytes()
        assert instances._rejection_certain(thetas, 1.0, cf) == certain
        decisions.append(certain)
    # both decisions occur, so the comparison covers each
    assert 0 < sum(decisions) < len(decisions)


def test_rejection_screen_at_the_threshold_for_stacked_bases():
    rng = np.random.default_rng(4)
    for _ in range(20):
        stacked = np.vstack([linalg.sample_grassmannian(8, 16, rng).basis,
                             linalg.sample_grassmannian(7, 16, rng).basis])
        w = linalg.kernel_vector(stacked)
        assert instances._accepted_witness(stacked, 1.0, w[0]).tobytes() == w.tobytes()
        assert instances._accepted_witness(stacked, 1.0, np.nextafter(w[0], 1.0)) is None


def test_negative_sign_screen_stays_off_at_or_below_sign_scan_tol():
    # a kernel whose first coordinate (-5e-13) is below the sign scan's
    # tolerance keeps its negative first coordinate, so sign -1 accepts a
    # cf under that tolerance; above the tolerance sign -1 always rejects
    d = 8
    v = np.zeros(d)
    v[0], v[1], v[2] = -5e-13, 0.6, 0.8
    q, _ = scipy.linalg.qr(v[:, None], mode="full")
    rows = q[:, 1:].T
    assert -linalg.kernel_vector(rows)[0] >= 1e-13
    tol = linalg.SIGN_SCAN_TOL
    assert not instances._rejection_certain(rows, -1.0, tol)
    assert instances._accepted_witness(rows, -1.0, 1e-13) is not None
    assert instances._rejection_certain(rows, -1.0, np.nextafter(tol, 1.0))


def test_anv_loss_witness_is_null():
    for inst in (gen_anv_gaussian(30, seed=1), gen_anv_conditioned(30, 0.2, seed=1)):
        assert anv_loss(inst, inst.witness) < 1e-18


def test_anv_loss_random_unit_mean():
    rng = np.random.default_rng(5)
    d = 100
    inst = gen_anv_gaussian(d, seed=9)
    losses = [anv_loss(inst, linalg.sample_uniform_sphere(d, rng)) for _ in range(100)]
    assert abs(np.mean(losses) - (d - 1) / d) < 0.2


def test_anv_loss_requires_unit():
    inst = gen_anv_gaussian(10, seed=2)
    with pytest.raises(NotUnit):
        anv_loss(inst, 0.5 * inst.witness)


def test_gen_lsp_from_anv_hand_case():
    inst = AnvInstance(
        variant=SPHERE_CONDITIONED,
        d=2,
        vectors=np.array([[0.0, 1.0]]),
        witness=np.array([1.0, 0.0]),
        cf=1.0,
    )
    c4 = 0.3
    ds = gen_lsp_from_anv(inst, c4)
    s = c4 / math.sqrt(2)
    assert_allclose(ds.xs, [[s, 1.0], [-s, 1.0]], atol=1e-15)
    assert_allclose(ds.ys, [1.0, -1.0])
    assert_allclose(ds.margin, s / math.sqrt(1 + s**2), atol=1e-15)


@pytest.mark.parametrize("c4", [math.nan, math.inf, 0.0, -0.3])
def test_gen_lsp_from_anv_requires_finite_positive_c4(c4):
    inst = gen_anv_conditioned(8, 0.2, seed=3)
    with pytest.raises(ValidationError, match="c4 must be a finite positive number"):
        gen_lsp_from_anv(inst, c4)


def test_gen_lsp_from_anv_witness_margin():
    d, cf, c4 = 100, 0.2, 0.3
    inst = gen_anv_conditioned(d, cf, seed=21)
    ds = gen_lsp_from_anv(inst, c4)
    assert ds.n == 2 * (d - 1)
    assert classification_error(ds.witness, ds) == 0.0
    assert margin_of(ds.witness, ds) >= 0.9 * cf * c4 / math.sqrt(d)
    # pairs are interleaved +, - per vector
    assert np.all(ds.ys[0::2] == 1.0) and np.all(ds.ys[1::2] == -1.0)


def test_any_separator_gives_small_anv_loss():
    # a slightly perturbed witness still separates; the pair construction then
    # forces its squared scores on the vectors below c4^2
    rng = np.random.default_rng(33)
    d, cf, c4 = 64, 0.2, 0.3
    inst = gen_anv_conditioned(d, cf, seed=7)
    ds = gen_lsp_from_anv(inst, c4)
    for _ in range(5):
        w = inst.witness + 1e-3 * rng.standard_normal(d)
        w /= np.linalg.norm(w)
        assert classification_error(w, ds) == 0.0
        assert anv_loss(inst, w) <= c4**2


def test_sample_dv_enumerable_case():
    s = linalg.orthonormalize([np.array([0.0, 1.0])])
    seen = set()
    for t in range(200):
        x, y = sample_dv(s, 0.4, seed=t)
        seen.add((round(x[0], 12), round(x[1], 12), y))
    shift = 0.1 / math.sqrt(2)
    expect = {
        (round(shift, 12), 1.0, 1.0),
        (round(shift, 12), -1.0, 1.0),
        (round(-shift, 12), 1.0, -1.0),
        (round(-shift, 12), -1.0, -1.0),
    }
    assert seen == expect


def test_sample_dv_label_balance():
    rng = np.random.default_rng(17)
    s = linalg.sample_grassmannian(8, 16, rng)
    ys = [sample_dv(s, 0.2, rng)[1] for _ in range(10**4)]
    assert abs(np.mean(np.array(ys) == 1.0) - 0.5) < 0.02


@pytest.mark.parametrize(
    "k_frac,alpha",
    [(1.0, 1.0), (0.5, 0.6)],
)
def test_sample_dv_projected_std(k_frac, alpha):
    # std of sqrt(d) * w.x' is alpha * sqrt(d/k) for ||Proj_S w|| = alpha
    rng = np.random.default_rng(23)
    d = 256
    k = int(d * k_frac)
    s = linalg.sample_grassmannian(k, d, rng)
    u_in = s.basis[0]
    if alpha < 1.0:
        perp = linalg.complements(s.basis[None])[0]
        u_out = linalg.sample_uniform_subsphere(linalg.Subspace(d, d - k, perp), rng)
        w = alpha * u_in + math.sqrt(1 - alpha**2) * u_out
    else:
        w = u_in
    c = 0.2
    vals = []
    for _ in range(10**4):
        x, y = sample_dv(s, c, rng)
        xprime = x.copy()
        xprime[0] -= y * (c / 4) / math.sqrt(d)
        vals.append(math.sqrt(d) * (w @ xprime))
    oracle = alpha * math.sqrt(d / k)
    assert abs(np.std(vals) - oracle) < 0.05 * oracle


def test_gen_lsp_hard_requires_even_d():
    with pytest.raises(ValidationError):
        gen_lsp_hard(7, 16, 0.2, 0.2, seed=0)
    with pytest.raises(ValidationError):
        gen_lsp_hard(16, 8, 0.2, 0.2, seed=0)


def test_gen_lsp_hard_structure_and_margin():
    d, m, cf, c = 64, 256, 0.2, 0.2
    ds, v, u = gen_lsp_hard(d, m, cf, c, seed=5)
    assert v.dim == d // 2 and u.dim == d // 2 - 1
    assert ds.n == 2 * m
    w = ds.witness
    assert w[0] >= cf
    assert np.abs(v.basis @ w).max() < 1e-9
    assert np.abs(u.basis @ w).max() < 1e-9
    assert ds.margin >= 0.9 * cf * (c / 4) / math.sqrt(d)
    assert classification_error(w, ds) == 0.0


def test_in_subspace_separator_misclassifies_fresh_draws():
    # any candidate aligned with V must err on a constant fraction of fresh
    # draws around V; Monte-Carlo oracle with the candidate inside V
    rng = np.random.default_rng(41)
    d = 256
    v = linalg.sample_grassmannian(d // 2, d, rng)
    w = v.basis[0]
    wrong = 0
    n = 2000
    for _ in range(n):
        x, y = sample_dv(v, 0.2, rng)
        wrong += int((w @ x) * y <= 0)
    assert wrong / n >= 0.05


def test_gen_lr_from_anv_solution_and_bounds():
    inst = gen_anv_conditioned(50, 0.2, seed=19)
    lr = gen_lr_from_anv(inst, seed=2)
    assert np.linalg.norm(lr.a @ lr.witness - lr.b) <= 1e-10
    assert np.linalg.norm(lr.witness) <= 1.0 + 1e-12
    assert np.linalg.norm(lr.a, axis=1).max() <= 1.0 + 1e-12
    assert lr_loss(lr, lr.witness) < 1e-18


def test_gen_lr_zero_predictor_loss():
    inst = gen_anv_conditioned(32, 0.2, seed=29)
    lr = gen_lr_from_anv(inst, seed=3)
    assert_allclose(lr_loss(lr, np.zeros(32)), 0.2**2, atol=1e-15)


def test_gen_lr_insertion_position_uniform():
    inst = gen_anv_conditioned(10, 0.2, seed=31)
    counts = np.zeros(10, dtype=int)
    basis_row = np.eye(10)[0]
    for s in range(10**4):
        lr = gen_lr_from_anv(inst, seed=s)
        pos = int(np.argmax(lr.b))
        assert np.array_equal(lr.a[pos], basis_row)
        counts[pos] += 1
    assert np.all(np.abs(counts - 1000) <= 130)


def test_margin_and_error_trivials():
    inst = gen_anv_conditioned(20, 0.2, seed=37)
    ds = gen_lsp_from_anv(inst, 0.3)
    assert margin_of(ds.witness, ds) > 0
    assert classification_error(-ds.witness, ds) == 1.0
    with pytest.raises(DimensionMismatch):
        margin_of(np.zeros(3), ds)


def _spoiled(arr):
    out = np.array(arr, dtype=float)
    out.flat[-1] = np.nan
    return out


_ANV = gen_anv_conditioned(8, 0.2, seed=1)
_LSP = gen_lsp_from_anv(_ANV, 0.3)
_LR = gen_lr_from_anv(_ANV, seed=2)
NON_FINITE = {
    "anv-vectors": lambda: AnvInstance(_ANV.variant, 8, _spoiled(_ANV.vectors), _ANV.witness, 0.2),
    "anv-witness": lambda: AnvInstance(_ANV.variant, 8, _ANV.vectors, _spoiled(_ANV.witness), 0.2),
    "anv-cf": lambda: AnvInstance(_ANV.variant, 8, _ANV.vectors, _ANV.witness, np.nan),
    "lsp-points": lambda: LspDataset(_spoiled(_LSP.xs), _LSP.ys, _LSP.witness, _LSP.margin),
    "lsp-margin": lambda: LspDataset(_LSP.xs, _LSP.ys, _LSP.witness, np.nan),
    "lr-rows": lambda: LrInstance(_spoiled(_LR.a), _LR.b, _LR.witness),
    "lr-targets": lambda: LrInstance(_LR.a, _spoiled(_LR.b), _LR.witness),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_instances_reject_non_finite_values(case):
    # every comparison with NaN is false, so no other check catches these
    with pytest.raises(ValidationError):
        NON_FINITE[case]()


def test_lsp_rejects_nan_margin_of_huge_point():
    # near 1e308 both the norm and the score overflow, and the margin inf/inf
    # is NaN, which once passed the check; this point's true margin is 0.14
    xs = np.zeros((2, 100))
    xs[0], xs[1, 0] = 1.7e308, 1.0
    w = np.zeros(100)
    w[:2] = 2**-0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="margin"):
            LspDataset(xs, np.ones(2), w, 0.5)


@pytest.mark.parametrize("d", [8, 16, 64])
def test_generator_fuzz_invariants(d):
    # constructors re-validate the TYPE invariants on every build
    for s in range(100):
        gen_anv_gaussian(d, seed=s)
        inst = gen_anv_conditioned(d, 0.2, seed=s)
        gen_lsp_from_anv(inst, 0.3)
        gen_lr_from_anv(inst, seed=s)
    for s in range(25):
        gen_lsp_hard(d if d % 2 == 0 else d + 1, d + 2, 0.2, 0.2, seed=s)


def test_conditioned_pool_matches_unconditioned_marginal():
    # coordinates orthogonal to the first-axis/witness plane keep the plain
    # sphere marginal; rejection sampling does not distort them
    d = 64
    pooled = []
    s = 0
    while len(pooled) < 10**5:
        inst = gen_anv_conditioned(d, 0.2, seed=1000 + s)
        s += 1
        e1 = np.eye(d)[0]
        plane = linalg.orthonormalize([e1, inst.witness])
        rest = linalg.complements(plane.basis[None])[0]
        pooled.extend((inst.vectors @ rest.T).ravel())
    stat = scipy.stats.kstest(pooled, marginal_cdf(d)).statistic
    assert stat <= 0.03
