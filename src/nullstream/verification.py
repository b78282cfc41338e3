"""Numerical certificates for the geometric facts behind the lower bounds.

Every "for all unit v" claim is certified through a spectral reduction
(smallest eigenvalue of a projector sum, or the extreme singular values of
each half of a Gaussian matrix), never through sampling over v, so a pass is
exact up to the eigen- or singular-value solver.  Monte-Carlo enters only
where the claims themselves are probabilistic (violation frequencies,
sampling distributions).

Where a statistic sees a Gaussian matrix or vector only through a law known
in closed form, that law is drawn instead of the dense data: the singular
values of a Gaussian matrix (singular, and each half of sandwich) from the
chi-bidiagonal law, a sphere coordinate as x / sqrt(x^2 + chi^2_{d-1}), and
a projected sphere point's norm as sqrt(Beta(d/4, d/4)).  The dense draws
have the same laws and are the tests' references.

Each trial draws from its own generator, _trial_rng(seed, trial), in a
fixed order, so the no-joint-sol and comorth certificates draw a chunk of
trials and factor them together in stacks (linalg's stacked kernels) of at
most BLOCK_VALUES values, or of one trial where a trial's d x d arrays are
larger; every report byte is that of the trials taken one at a time.  The
sphere marginal holds one array of its samples' size, the sorted
coordinates: the chi-square part, the exact CDF and the KS terms are formed
SAMPLE_BLOCK values at a time, and the normal reference scales the sample
in place.  Its KS distance to the normal law screens every rank with a
numpy Phi within 7.5e-8 and takes libm's exact Phi only at the ranks within
2e-6 of the screened maximum, so it is the exact statistic bit for bit.

Each certifier returns a LemmaReport carrying its verdict; per-trial rows
ride along for CSV export, and the pass fraction is derived from them.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, EmptyList, ValidationError
from .instances import first_coord_cdf, first_coord_tail
from .linalg import (
    BLOCK_VALUES,
    check_seed,
    chordal_distances,
    complements,
    gaussian_singular_values,
    sample_grassmannians,
)

COMORTH_TOL = 1e-8
# calibrated thresholds: the joint certificate's projection floor, the band
# the spectral quantile ratios are counted in, the concentration std cap in
# units of 1/sqrt(d), and the sphere marginal's KS caps
JOINT_C_EMP = 0.05
SIGMA_ENVELOPE = (0.3, 3.0)
STD_CAP = 3.0
KS_NORMAL_MAX = 0.03
KS_EXACT_MAX = 0.01


@dataclass(frozen=True)
class LemmaReport:
    """One certificate run: its verdict, decided by the certifier that made
    it, and one dict per trial.  pass_fraction is derived from the rows that
    carry "passed" (a skipped trial carries none)."""

    lemma_id: str
    d: int
    trials: int
    passed: bool
    statistics: dict
    seed: int
    trial_rows: tuple = field(default=(), compare=False)

    @property
    def pass_fraction(self) -> float:
        """The share of judged trial rows that passed; 0.0 with none."""
        rows = [r for r in self.trial_rows if "passed" in r]
        return sum(1.0 for r in rows if r["passed"]) / len(rows) if rows else 0.0


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng((check_seed(int(seed)), int(trial)))


# a chunk's generators are held until its trials are factored, about 1.7 KB
# each, so a chunk holds at most this many (0.4 MiB) whatever its stacks take
CHUNK_TRIALS = 256


def _trial_chunks(trials: int, size: int) -> list:
    """The trial indices in runs of size, or of CHUNK_TRIALS if that is
    smaller (the last run may be shorter), each drawn and factored
    together."""
    size = min(size, CHUNK_TRIALS)
    return [range(start, min(start + size, trials)) for start in range(0, trials, size)]


def _need_some(name: str, count: int):
    # a certificate over no trials or samples has nothing to report
    if count < 1:
        raise ValidationError("%s must be at least 1" % name)


def _need_real(name: str, value: float, valid: bool, rule: str):
    # valid is the parameter's own range test; NaN fails every comparison
    if not (math.isfinite(value) and valid):
        raise ValidationError("%s must be a finite number %s, got %r" % (name, rule, value))


@contextlib.contextmanager
def _fits(name: str, count: int):
    # a sample count whose arrays this process cannot allocate is refused
    # like any other invalid size, not reported as a failed criterion
    try:
        yield
    except MemoryError:
        raise ValidationError(
            "%s = %d does not fit in this process's memory" % (name, count)
        ) from None


# ---------------------------------------------------------------------------
# joint-solution certificate


def certify_no_joint_sol(
    d: int,
    delta_threshold: float,
    trials: int,
    seed: int,
    c_emp: float = JOINT_C_EMP,
) -> LemmaReport:
    """Certify that far-apart subspace triples leave no small-projection unit
    vector: lambda_min(P_V1 + P_V2 + P_U) >= 3 c_emp^2 forces the largest of
    the three projection norms to at least c_emp for every unit v.

    Trials whose (V1, V2) pair lands closer than delta_threshold * d/2 in
    squared chordal distance are skipped: the claim's hypothesis is not met.
    A probe statistic (smallest projection onto V2 of a random low-dimensional
    subspace of V1-perp) is reported but not asserted.
    """
    if d % 2 or d < 8:
        raise ValidationError("need even d >= 8")
    _need_some("trials", trials)
    _need_real("delta_threshold", delta_threshold, 0.0 <= delta_threshold < 1.0, "in [0, 1)")
    _need_real("c_emp", c_emp, c_emp > 0.0, "above 0")
    rows = []
    threshold = 3.0 * c_emp * c_emp
    half, probe_dim = d // 2, max(1, d // 16)
    # a chunk's largest arrays, the projector sums and the product added to
    # them, hold 2 d^2 values a trial
    for trials_at in _trial_chunks(trials, max(1, BLOCK_VALUES // (2 * d * d))):
        rngs = [_trial_rng(seed, t) for t in trials_at]
        # V1 of each trial, then V2 of each: one stack, and per generator the
        # same two draws in the same order
        v = sample_grassmannians(half, d, rngs * 2)
        dist2 = [float(x) ** 2 for x in chordal_distances(v[: len(rngs)], v[len(rngs) :])]
        chunk_rows = [{"trial": t, "skipped": True, "dist2": x} for t, x in zip(trials_at, dist2)]
        kept = [i for i, x in enumerate(dist2) if not x < delta_threshold * d / 2.0]
        if kept:
            # the counted trials' V1 and V2, and no other draw of the chunk
            v1, v2 = v[kept], v[[len(rngs) + i for i in kept]]
            del v
            # drawn after the skip: a skipped trial never uses U or the
            # probe, and a counted one draws U and then the probe's frame
            # in V1-perp coordinates from its generator either way
            kept_rngs = [rngs[i] for i in kept]
            u = sample_grassmannians(half - 1, d, kept_rngs)
            coeff = sample_grassmannians(probe_dim, d - half, kept_rngs)
            lam = joint_sol_lambda_mins([v1, v2, u])
            probe_basis = coeff @ complements(v1)
            probe = np.linalg.svd(v2 @ probe_basis.transpose(0, 2, 1), compute_uv=False)
            for i, lam_i, probe_i in zip(kept, lam.tolist(), probe.min(axis=1).tolist()):
                chunk_rows[i].update(skipped=False, lambda_min=lam_i, probe_min_proj=probe_i,
                                     passed=bool(lam_i >= threshold))
        rows += chunk_rows
    counted = [r for r in rows if not r["skipped"]]
    stats = {
        "counted": float(len(counted)),
        "skipped": float(len(rows) - len(counted)),
        "threshold": threshold,
        "delta_threshold": float(delta_threshold),
        "c_emp": float(c_emp),
    }
    if counted:
        stats["min_lambda_min"] = min(r["lambda_min"] for r in counted)
        stats["mean_lambda_min"] = float(np.mean([r["lambda_min"] for r in counted]))
        stats["probe_min"] = min(r["probe_min_proj"] for r in counted)
        stats["probe_mean"] = float(np.mean([r["probe_min_proj"] for r in counted]))
    return LemmaReport(
        lemma_id="no-joint-sol",
        d=d,
        trials=trials,
        passed=bool(counted) and all(r["passed"] for r in counted),
        statistics=stats,
        seed=seed,
        trial_rows=tuple(rows),
    )


def joint_sol_lambda_mins(stacks) -> np.ndarray:
    """Smallest eigenvalue of sum_i P_i, clamped at 0, from the eigenvalues
    alone, for each index of a stack: stacks holds one s x k_i x d stack of
    orthonormal row bases per term of the sum.  It is the min over unit v of
    sum_i ||Proj_i(v)||^2, so it is 0 iff some unit vector escapes every
    subspace of that index."""
    stacks = list(stacks)
    if not stacks:
        raise EmptyList("need at least one subspace")
    count, _, d = stacks[0].shape
    m = np.zeros((count, d, d))
    for b in stacks:
        if b.shape[2] != d:
            raise DimensionMismatch("mixed ambient dimensions")
        if b.shape[1]:
            m += b.transpose(0, 2, 1) @ b
    return np.maximum(np.linalg.eigvalsh(m)[:, 0], 0.0)


def joint_sol_lambda_min(subspaces) -> float:
    """joint_sol_lambda_mins of one list of subspaces."""
    return float(joint_sol_lambda_mins([s.basis[None] for s in subspaces])[0])


# ---------------------------------------------------------------------------
# quadratic-form sandwich certificate


def sandwich_bounds(t: float) -> tuple[float, float]:
    """Bounds on the sandwich ratio when each half of G has at most d/2 rows:
    1/(1 + s)^2 and 1/(1 - s)^2 with s = (1 + t) sqrt(1/2), the reciprocal
    squares of the Gaussian singular-value bounds 1 -+ s on each half."""
    _need_real("t", t, t >= 0.0, "of at least 0")
    s = (1.0 + t) * math.sqrt(0.5)
    if s >= 1.0:
        raise ValidationError("(1+t) sqrt(1/2) must be < 1 for a finite upper bound")
    return (1.0 + s) ** -2, (1.0 - s) ** -2


def sandwich_extremes(s1: np.ndarray, s2: np.ndarray) -> tuple[float, float]:
    """Extremal ratios of ||P_V x||^2 + ||P_U x||^2 over ||G x||^2 on the row
    space of G, from the singular values s1 and s2 (each in decreasing order)
    of the two row blocks G1 and G2 of G, where V spans G1's rows and U G2's.

    G has full row rank, so it maps its row space onto the space of y = G x,
    and with y = (y1, y2) the ratio is
    (y1^T (G1 G1^T)^-1 y1 + y2^T (G2 G2^T)^-1 y2) / ||y||^2.  Its extremes are
    those of blockdiag((G1 G1^T)^-1, (G2 G2^T)^-1): 1 / max sigma_max(Gi)^2
    and 1 / min sigma_min(Gi)^2.  The certificate thus checks a two-sided
    singular-value bound on each half (Vershynin 2012, Cor. 5.35).
    """
    return float(max(s1[0], s2[0]) ** -2), float(min(s1[-1], s2[-1]) ** -2)


def certify_sandwich(d: int, t: float, trials: int, seed: int) -> LemmaReport:
    """Certify the two-sided comparison between the projector-sum form and the
    Gram form of a Gaussian matrix G with independent N(0, 1/d) entries, d - 1
    rows and d columns, split after its first d/2 rows.

    The ratio's extremes depend on G only through each half's singular
    values, and a k x d half (k <= d) has those of its d x k transpose.  So
    each trial draws them from their exact law, the chi-bidiagonal one of
    linalg.gaussian_singular_values, first for the d/2 rows of G1 and then
    for the d/2 - 1 rows of G2, and scales both by 1/sqrt(d).  The dense
    draw of G with two SVDs has the same law and is the tests' reference.
    """
    if d % 2 or d < 8:
        raise ValidationError("need even d >= 8")
    _need_some("trials", trials)
    lower, upper = sandwich_bounds(t)
    rows = []
    scale = math.sqrt(d)
    for trial in range(trials):
        rng = _trial_rng(seed, trial)
        s1 = gaussian_singular_values(d, d // 2, rng) / scale
        s2 = gaussian_singular_values(d, d - 1 - d // 2, rng) / scale
        rho_min, rho_max = sandwich_extremes(s1, s2)
        rows.append(
            {
                "trial": trial,
                "rho_min": rho_min,
                "rho_max": rho_max,
                "passed": bool(lower <= rho_min and rho_max <= upper),
            }
        )
    stats = {
        "lower": lower,
        "upper": upper,
        "t": float(t),
        "min_rho": min(r["rho_min"] for r in rows),
        "max_rho": max(r["rho_max"] for r in rows),
    }
    return LemmaReport(
        lemma_id="sandwich",
        d=d,
        trials=trials,
        passed=sum(r["passed"] for r in rows) / trials >= 0.95,
        statistics=stats,
        seed=seed,
        trial_rows=tuple(rows),
    )


# ---------------------------------------------------------------------------
# singular-value concentration


def singular_value_experiment(N: int, d: int, t: float, trials: int, seed: int) -> LemmaReport:
    """Frequency of the sqrt(N) +- sqrt(d) +- t singular-value sandwich for
    standard Gaussian N x d matrices, plus mid-spectrum quantile ratios.

    Each trial draws the d singular values from their exact law, that of an
    upper bidiagonal matrix with independent chi_N, ..., chi_{N-d+1} on the
    diagonal and chi_{d-1}, ..., chi_1 above it (Silverstein 1985; Dumitriu
    and Edelman 2002), through linalg.gaussian_singular_values.  The dense
    draw with np.linalg.svd has the same law and is the tests' reference.
    """
    if d < 1:
        raise ValidationError("need d >= 1")
    if N < d:
        raise ValidationError("need N >= d")
    _need_some("trials", trials)
    _need_real(
        "t",
        t,
        t >= 0.0 and 2.0 * math.exp(-t * t / 2.0) <= 1.0,
        "of at least sqrt(2 ln 2) = 1.1774..., where the bound 2 exp(-t^2/2) is at most 1",
    )
    lo = math.sqrt(N) - math.sqrt(d) - t
    hi = math.sqrt(N) + math.sqrt(d) + t
    taus = (0.5, 0.75, 0.9)
    rows = []
    for trial in range(trials):
        s = gaussian_singular_values(N, d, _trial_rng(seed, trial))
        row = {
            "trial": trial,
            "sigma_min": float(s[-1]),
            "sigma_max": float(s[0]),
            "passed": bool(lo <= s[-1] and s[0] <= hi),
        }
        for tau in taus:
            idx = math.ceil(tau * d) - 1
            row["ratio_%d" % int(100 * tau)] = float(s[idx] / ((1 - tau) * math.sqrt(d)))
        rows.append(row)
    prob_bound = 2.0 * math.exp(-t * t / 2.0)
    sigma_bin = math.sqrt(prob_bound * (1 - prob_bound) / trials)
    stats = {
        "lower": lo,
        "upper": hi,
        "t": float(t),
        "violation_rate": 1.0 - sum(r["passed"] for r in rows) / trials,
        "prob_bound": prob_bound,
        "sigma_binomial": sigma_bin,
    }
    e_lo, e_hi = SIGMA_ENVELOPE
    for tau in taus:
        key = "ratio_%d" % int(100 * tau)
        vals = np.array([r[key] for r in rows])
        stats["median_" + key] = float(np.median(vals))
        stats["envelope_frac_" + key] = float(np.mean((e_lo <= vals) & (vals <= e_hi)))
    return LemmaReport(
        lemma_id="singular-values",
        d=d,
        trials=trials,
        passed=stats["violation_rate"] <= prob_bound + 3 * sigma_bin,
        statistics=stats,
        seed=seed,
        trial_rows=tuple(rows),
    )


# ---------------------------------------------------------------------------
# sphere marginals and concentration


# the marginal works on its sorted sample SAMPLE_BLOCK values at a time, so
# the temporaries of first_coord_cdf's O(d) passes and of _ks_deviations
# are 64 KiB each and stay in cache, and the sample is the one array of its
# size that the certificate holds
SAMPLE_BLOCK = BLOCK_VALUES // 8


def _ks_deviations(f: np.ndarray, i: np.ndarray, n: int) -> np.ndarray:
    # max(|F - i/n|, |F - (i-1)/n|) at the 1-based ranks i of a sorted sample
    return np.maximum(np.abs(f - i / n), np.abs(f - (i - 1) / n))


def _ks_statistic(sample: np.ndarray, cdf) -> float:
    # the largest deviation over blocks of SAMPLE_BLOCK values, with cdf
    # called on each block: a max is exact, so the blocks give the
    # whole-array D
    n = sample.shape[0]
    peaks = []
    for start in range(0, n, SAMPLE_BLOCK):
        f = cdf(sample[start : start + SAMPLE_BLOCK])
        peaks.append(_ks_deviations(f, np.arange(start + 1, start + f.shape[0] + 1), n).max())
    return float(np.max(peaks))


def _normal_cdf(z: np.ndarray) -> np.ndarray:
    """Phi(z) = erfc(-z / sqrt(2)) / 2, libm's erfc mapped over blocks of
    BLOCK_VALUES values; on [-40, 40] it is within 2.2e-16 of ndtr, the
    tests' reference."""
    phi = np.empty_like(z)
    for start in range(0, z.shape[0], BLOCK_VALUES):
        u = z[start : start + BLOCK_VALUES] / -math.sqrt(2.0)
        phi[start : start + u.shape[0]] = np.fromiter(map(math.erfc, u), float, u.shape[0])
    phi *= 0.5
    return phi


# Abramowitz and Stegun 7.1.26, erfc(x) ~ t (a1 + t (a2 + ... + t a5)) e^{-x^2}
# with t = 1 / (1 + p x) for x >= 0, within 1.5e-7: its coefficients a5..a1
_AS_P = 0.3275911
_AS_A = (1.061405429, -1.453152027, 1.421413741, -0.284496736, 0.254829592)
# ks_normal's screen keeps every rank whose screened deviation is within
# 2 KS_SCREEN_EPS of the screened maximum; the screen's Phi is within 7.5e-8
# of _normal_cdf, far inside KS_SCREEN_EPS
KS_SCREEN_EPS = 1e-6


def _normal_cdf_screen(z: np.ndarray) -> np.ndarray:
    """Phi(z) within 7.5e-8 (half of 7.1.26's bound on erfc), in numpy:
    Phi(z) = erfc(|z| / sqrt(2)) / 2 for z < 0, and 1 minus that for z >= 0.
    It holds three arrays of z's size."""
    x = np.abs(z)
    x *= math.sqrt(0.5)
    t = _AS_P * x
    t += 1.0
    np.reciprocal(t, out=t)
    phi = _AS_A[0] * t
    for a in _AS_A[1:]:
        phi += a
        phi *= t
    x *= x
    np.negative(x, out=x)
    phi *= np.exp(x, out=x)
    phi *= 0.5
    np.subtract(1.0, phi, out=phi, where=z >= 0.0)
    return phi


def _ks_normal(z: np.ndarray) -> float:
    """_ks_statistic(z, _normal_cdf) of a sorted z, bit for bit, with the
    exact Phi taken only near the maximum.  Every deviation is screened with
    _normal_cdf_screen, whose error moves it by less than KS_SCREEN_EPS, so
    the largest exact deviation is at a rank whose screened deviation is
    within 2 KS_SCREEN_EPS of the screened maximum; the exact Phi and the
    same per-rank formula are evaluated at those ranks alone.  A block keeps
    its ranks within 2 KS_SCREEN_EPS of the maximum so far, which can only
    rise, so no rank near the final maximum is dropped and no array of z's
    size is made."""
    n = z.shape[0]
    top, near, near_dev = -np.inf, [], []
    for start in range(0, n, SAMPLE_BLOCK):
        f = _normal_cdf_screen(z[start : start + SAMPLE_BLOCK])
        dev = _ks_deviations(f, np.arange(start + 1, start + f.shape[0] + 1), n)
        top = max(top, dev.max())
        keep = np.flatnonzero(dev >= top - 2.0 * KS_SCREEN_EPS)
        near.append(keep + start)
        near_dev.append(dev[keep])
    near = np.concatenate(near)[np.concatenate(near_dev) >= top - 2.0 * KS_SCREEN_EPS]
    return float(_ks_deviations(_normal_cdf(z[near]), near + 1, n).max())


def _first_coords(d: int, samples: int, rng: np.random.Generator) -> np.ndarray:
    # x / sqrt(x^2 + R), R ~ chi^2_{d-1} (see sphere_marginal_tests): the
    # normals are drawn whole and R one SAMPLE_BLOCK at a time, which draws
    # the same values as one call, and each block of x is divided in place
    x = rng.standard_normal(samples)
    for start in range(0, samples, SAMPLE_BLOCK):
        block = x[start : start + SAMPLE_BLOCK]
        r = rng.chisquare(d - 1, block.shape[0])
        r += block * block
        np.sqrt(r, out=r)
        block /= r
    return x


def sphere_marginal_tests(d: int, samples: int, c_f: float, seed: int) -> LemmaReport:
    """Empirical law of the first sphere coordinate against two references:
    the exact marginal in closed form (first_coord_cdf) and the N(0,1) limit
    of sqrt(d) times it.

    Each sample is x / sqrt(x^2 + R), with x standard normal and R an
    independent chi^2_{d-1}: the first coordinate of a normalized Gaussian
    vector in R^d, which is uniform on the sphere, without its other d - 1
    coordinates.  Normalizing dense Gaussian rows has the same law and is
    the tests' reference."""
    if d < 4:
        raise ValidationError("need d >= 4")
    _need_some("samples", samples)
    _need_real("c_f", c_f, 0.0 <= c_f < 1.0, "in [0, 1)")
    # alpha = -log(tail) / d needs a tail above 0, so an underflow is refused
    # before any sample is drawn
    exact_tail = first_coord_tail(d, c_f)
    if exact_tail == 0.0:
        raise ValidationError(
            "c_f %r: the exact tail at d = %d underflows to 0, so alpha is not finite" % (c_f, d)
        )
    with _fits("samples", samples):
        coords = _first_coords(d, samples, _trial_rng(seed, 0))
        coords.sort()
    ks_exact = _ks_statistic(coords, lambda block: first_coord_cdf(d, block))
    # the sample is sorted, so the count at or above c_f is a search; the
    # normal reference then scales the sample in place
    emp_tail = (samples - int(np.searchsorted(coords, c_f))) / samples
    coords *= math.sqrt(d)
    ks_normal = _ks_normal(coords)
    alpha = -math.log(exact_tail) / d
    passed = ks_exact <= KS_EXACT_MAX and ks_normal <= KS_NORMAL_MAX
    stats = {
        "ks_exact": ks_exact,
        "ks_normal": ks_normal,
        "ks_exact_max": KS_EXACT_MAX,
        "ks_normal_max": KS_NORMAL_MAX,
        "emp_tail": emp_tail,
        "exact_tail": exact_tail,
        "alpha": alpha,
        "samples": float(samples),
    }
    return LemmaReport(
        lemma_id="sphere-marginal",
        d=d,
        trials=1,
        passed=passed,
        statistics=stats,
        seed=seed,
        trial_rows=({"trial": 0, "passed": passed, "ks_exact": ks_exact, "ks_normal": ks_normal},),
    )


def _projection_norms(d: int, trials: int, rng: np.random.Generator) -> np.ndarray:
    # ||P y|| for uniform unit y and a fixed (d/2)-dimensional P, as the
    # square root of a Beta(d/4, d/4) draw (see sphere_concentration_test)
    f = rng.beta(d / 4, d / 4, trials)
    np.sqrt(f, out=f)
    return f


def sphere_concentration_test(d: int, trials: int, seed: int) -> LemmaReport:
    """Concentration of the 1-Lipschitz function y -> ||proj of y onto a fixed
    half-dimensional subspace||: its std over uniform y shrinks like 1/sqrt(d).

    For y = g / ||g||, g ~ N(0, I_d), and P onto any fixed k-dimensional
    subspace, ||P y||^2 = X / (X + Y) with independent X ~ chi^2_k and
    Y ~ chi^2_{d-k}: a Beta(k/2, (d - k)/2).  So each trial is the square
    root of one Beta(d/4, d/4) draw.  The dense draw (a Grassmannian
    subspace, normalized Gaussian rows, one product) has the same law and is
    the tests' reference."""
    if d % 2 or d < 4:
        raise ValidationError("need even d >= 4")
    _need_some("trials", trials)
    if trials == 1:
        # the cap bounds a std, and one sample's std is 0 whatever it is
        raise ValidationError("trials must be at least 2: the std of one sample is 0")
    with _fits("trials", trials):
        f = _projection_norms(d, trials, _trial_rng(seed, 0))
        std = float(np.std(f))
    mean = float(np.mean(f))
    passed = std <= STD_CAP / math.sqrt(d)
    stats = {
        "std": std,
        "mean": mean,
        "std_cap": STD_CAP,
        "cap_value": STD_CAP / math.sqrt(d),
        "mean_reference": math.sqrt(0.5),
    }
    return LemmaReport(
        lemma_id="sphere-concentration",
        d=d,
        trials=trials,
        passed=passed,
        statistics=stats,
        seed=seed,
        trial_rows=({"trial": 0, "passed": passed, "std": std},),
    )


# ---------------------------------------------------------------------------
# complement symmetry


def comorth_check(d: int, trials: int, seed: int) -> LemmaReport:
    """Chordal distance is invariant under taking orthogonal complements."""
    if d < 3:
        raise ValidationError("need d >= 3")
    _need_some("trials", trials)
    rows = []
    # a stack holds one k: U and V of up to `stack` trials, so their frames
    # together, or their complements together, hold at most 2 d^2 values a
    # trial.  Each trial's k is its generator's first draw, so a chunk draws
    # the k of d - 1 stacks' worth of trials, one stack a value of k on
    # average, and then factors each k's trials
    stack = max(1, BLOCK_VALUES // (2 * d * d))
    for trials_at in _trial_chunks(trials, (d - 1) * stack):
        rngs = [_trial_rng(seed, t) for t in trials_at]
        ks = [int(rng.integers(1, d)) for rng in rngs]
        dev = np.empty(len(rngs))
        for k in sorted(set(ks)):
            at_k = [i for i, ki in enumerate(ks) if ki == k]
            for start in range(0, len(at_k), stack):
                group = at_k[start : start + stack]
                # U of each trial, then V of each: per generator the same
                # two draws in the same order
                uv = sample_grassmannians(k, d, [rngs[i] for i in group] * 2)
                u, v = uv[: len(group)], uv[len(group) :]
                dev[group] = np.abs(chordal_distances(u, v)
                                    - chordal_distances(complements(u), complements(v)))
        for t, dev_t in zip(trials_at, dev.tolist()):
            rows.append({"trial": t, "deviation": dev_t, "passed": bool(dev_t <= COMORTH_TOL)})
    stats = {
        "max_deviation": max(r["deviation"] for r in rows),
        "tolerance": COMORTH_TOL,
    }
    return LemmaReport(
        lemma_id="comorth",
        d=d,
        trials=trials,
        passed=all(r["passed"] for r in rows),
        statistics=stats,
        seed=seed,
        trial_rows=tuple(rows),
    )
