"""Problem instance generators and evaluators.

Three families share one geometric core: a stream of vectors whose kernel
direction is the planted witness.

* approximate-null-vector (ANV): given the vectors themselves, output a unit
  vector nearly orthogonal to all of them;
* labeled pairs: each vector is split into a +/- pair shifted along the first
  axis, and any separator of the pairs is automatically a good ANV output;
* linear equations: the vectors become homogeneous equations with a single
  inhomogeneous first-axis equation hidden at a random position.

Conditioned instances demand the witness have a first coordinate of at least
cf.  That event is realized by exact rejection sampling; given the kernel, the
vectors are not uniform on the orthogonal subsphere (the conditional law
carries a determinant weight), so direct construction would silently bias.
The rejection stays exact: a sign-and-QR screen skips the SVD only for
attempts whose rejection is already certain, and every accepted witness is
the SVD's kernel_vector, so instances are the same bytes with or without it.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    AcceptanceTooRare,
    DegenerateInput,
    DimensionMismatch,
    NotUnit,
    RankDeficient,
    ValidationError,
)
from .linalg import (
    BLOCK_VALUES,
    SIGN_SCAN_TOL,
    check_seed,
    householder_kernel,
    kernel_vector,
    row_norms,
    sample_grassmannian,
    sample_uniform_sphere,
    sample_uniform_subsphere,
    Subspace,
)

GAUSSIAN_RAW = "gaussian-raw"
SPHERE_CONDITIONED = "sphere-conditioned"

WITNESS_RESIDUAL_TOL = 1e-9
UNIT_TOL = 1e-10
DEFAULT_MAX_ATTEMPTS = 20000
# the chance of any acceptance below which a conditioned generator refuses
# before its first attempt
HOPELESS = 2.0**-40
EPS = float(np.finfo(float).eps)
SCREEN_SAFETY = 4.0


def _finite(name: str, value) -> np.ndarray:
    """value as a float array; raises ValidationError if any entry is NaN or
    infinite (every comparison with NaN is false, so no later check would)."""
    out = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(out)):
        raise ValidationError("%s holds a non-finite value" % name)
    return out


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(check_seed(seed))


@dataclass(frozen=True, eq=False)
class AnvInstance:
    variant: str
    d: int
    vectors: np.ndarray
    witness: np.ndarray
    cf: float | None = None

    def __post_init__(self):
        v = _finite("vectors", self.vectors)
        w = _finite("witness", self.witness)
        if self.variant not in (GAUSSIAN_RAW, SPHERE_CONDITIONED):
            raise ValidationError("unknown variant %r" % (self.variant,))
        if v.shape != (self.d - 1, self.d) or w.shape != (self.d,):
            raise DimensionMismatch("vectors must be (d-1) x d with a d-vector witness")
        if abs(np.linalg.norm(w) - 1.0) > UNIT_TOL:
            raise NotUnit("witness must be unit")
        if np.abs(v @ w).max() > WITNESS_RESIDUAL_TOL:
            raise DegenerateInput("witness is not orthogonal to the vectors")
        if self.variant == SPHERE_CONDITIONED:
            if self.cf is None:
                raise ValidationError("conditioned instances carry cf")
            _finite("cf", self.cf)
            if np.abs(row_norms(v) - 1.0).max() > UNIT_TOL:
                raise NotUnit("conditioned vectors must be unit")
            if w[0] < self.cf:
                raise ValidationError("witness first coordinate below cf")
        object.__setattr__(self, "vectors", v)
        object.__setattr__(self, "witness", w)


@dataclass(frozen=True, eq=False)
class LspDataset:
    """Labeled points with a witness separating them at the claimed margin."""

    xs: np.ndarray
    ys: np.ndarray
    witness: np.ndarray
    margin: float

    def __post_init__(self):
        xs = _finite("points", self.xs)
        ys = np.asarray(self.ys, dtype=float)
        w = _finite("witness", self.witness)
        _finite("margin", self.margin)
        if xs.ndim != 2 or ys.shape != (xs.shape[0],) or w.shape != (xs.shape[1],):
            raise DimensionMismatch("points, labels and witness shapes disagree")
        if not np.all(np.isin(ys, (-1.0, 1.0))):
            raise ValidationError("labels must be +/-1")
        if self.margin <= 0:
            raise ValidationError("margin must be positive")
        # norms of points near 1e200 overflow to inf, and near 1e308 their
        # scores too, so a margin is 0 or NaN: both fail, with no numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            norms = row_norms(xs)
            if np.any(norms == 0):
                raise DegenerateInput("zero data point")
            if not np.min((xs @ w) * ys / norms) >= self.margin - 1e-12:
                raise ValidationError("witness does not achieve the claimed margin")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "witness", w)

    @property
    def n(self) -> int:
        return self.xs.shape[0]

    @property
    def d(self) -> int:
        return self.xs.shape[1]

    def points(self):
        return list(zip(self.xs, self.ys))


@dataclass(frozen=True, eq=False)
class LrInstance:
    """Rows of norm <= 1, targets of total norm <= 1, and a small solution."""

    a: np.ndarray
    b: np.ndarray
    witness: np.ndarray

    def __post_init__(self):
        a = _finite("rows", self.a)
        b = _finite("targets", self.b)
        w = _finite("witness", self.witness)
        if a.ndim != 2 or b.shape != (a.shape[0],) or w.shape != (a.shape[1],):
            raise DimensionMismatch("matrix, target and witness shapes disagree")
        # squares of finite values near 1e200 overflow to inf, which fails
        # these checks as it should; numpy's warning about it is not printed
        with np.errstate(over="ignore"):
            if row_norms(a).max() > 1 + 1e-12:
                raise ValidationError("row norms must be at most 1")
            if np.linalg.norm(b) > 1 + 1e-12:
                raise ValidationError("target norm must be at most 1")
            if np.linalg.norm(w) > 1 + 1e-12:
                raise ValidationError("witness norm must be at most 1")
        if np.linalg.norm(a @ w - b) > 1e-10:
            raise ValidationError("witness does not solve the system")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "witness", w)

    @property
    def d(self) -> int:
        return self.a.shape[1]


def gen_anv_gaussian(d: int, seed) -> AnvInstance:
    if d < 2:
        raise ValidationError("need d >= 2")
    rng = _as_rng(seed)
    for _ in range(2):
        vectors = rng.standard_normal((d - 1, d))
        try:
            w = kernel_vector(vectors)
        except RankDeficient:
            continue
        return AnvInstance(variant=GAUSSIAN_RAW, d=d, vectors=vectors, witness=w)
    raise RankDeficient("Gaussian draw was rank deficient twice in a row")


# ---------------------------------------------------------------------------
# the sphere marginal: T, the first coordinate of a uniform unit vector in
# R^d, has density proportional to (1 - t^2)^((d-3)/2), so T^2 is
# Beta(1/2, (d-1)/2) (Dagan, Kur and Shamir, arXiv 1902.03498).  With
# t = sin(theta) the law is cos^m(theta) d(theta) for m = d - 2, and the
# reduction formula for the integral of cos^j gives both the CDF and the tail
# as finite sums of positive terms.

TWO_OVER_PI = 2.0 / math.pi
# d cf^2 at or below which the tail is taken as 1/2 (1 - P(|T| <= cf)): the
# tail is above 0.15 there, so the complement keeps its relative digits, and
# above it the tail's own series converges within about 40 / cf^2 terms
TAIL_COMPLEMENT_MAX = 1.0
# bits kept in the numerator and denominator of each reduction coefficient
RATIO_BITS = 192


@functools.lru_cache(maxsize=8)
def _reduction_coefficients(m: int) -> tuple:
    """a_j = 1 / (j W_j), W_j the integral of cos^j over [0, pi/2], for
    j = 2 - m mod 2, 4 - m mod 2, ..., m.

    a_j = a_{j-2} (j - 2) / (j - 1) from a_1 = 1 or a_2 = 2/pi.  Each a_j is
    that product of ratios, times 2/pi (its double) for even j, held as an
    integer numerator and denominator and rounded once, by Python's
    correctly rounded integer division.  Both integers are cut to about
    RATIO_BITS bits as they grow, which moves the ratio by under 2^-180
    relative per step, far below the one rounding; exact integers would
    grow by a factor per coefficient and cost O(m^2), 8 s at d = 10^5."""
    first, (num, den) = (1, (1, 1)) if m % 2 else (2, TWO_OVER_PI.as_integer_ratio())
    coefs = []
    for j in range(first, m + 1, 2):
        if j > first:
            num *= j - 2
            den *= j - 1
            shift = min(num.bit_length(), den.bit_length()) - RATIO_BITS
            if shift > 0:
                num >>= shift
                den >>= shift
        coefs.append(num / den)
    return tuple(coefs)


def _central_mass(m: int, t: np.ndarray) -> np.ndarray:
    """P(|T| <= t) in R^(m + 2), elementwise over t >= 0, in a new array.

    With c^2 = (1 - t)(1 + t), it is t sum_j a_j c^(j-1) over the j of
    _reduction_coefficients(m), plus (2/pi) arcsin(t) for even m.  Every
    term is nonnegative, so nothing cancels; the sum is taken by Horner's
    rule in c^2, in place, at O(m) passes over t."""
    acc = np.subtract(1.0, t)
    c2 = np.add(1.0, t)
    c2 *= acc  # (1 - t)(1 + t) keeps the bits of 1 - t^2 as t nears 1
    coefs = _reduction_coefficients(m)
    acc.fill(coefs[-1] if coefs else 0.0)
    for a in coefs[-2::-1]:
        acc *= c2
        acc += a
    acc *= t
    if m % 2 == 0:
        # even j: c^(j-1) is c (c^2)^((j-2)/2)
        np.sqrt(c2, out=c2)
        acc *= c2
        np.arcsin(t, out=c2)
        c2 *= TWO_OVER_PI
        acc += c2
    return acc


def first_coord_cdf(d: int, x: np.ndarray) -> np.ndarray:
    """P(first coordinate of a uniform unit vector in R^d <= x), elementwise:
    F(x) = (1 + sign(x) P(|T| <= |x|)) / 2, from the finite sum of
    _central_mass.  It costs O(d) passes over x.

    Against 40-digit mpmath on 451 points of [-1, 1] it errs by at most
    1.1e-16 at d = 4, 5.3e-16 at d = 64, 1.9e-15 at d = 256 and 5.9e-15 at
    d = 1024 (absolute)."""
    f = _central_mass(d - 2, np.abs(x))
    np.copysign(f, x, out=f)  # f >= 0, so this is f * sign(x)
    f += 1.0
    f *= 0.5
    return f


def first_coord_tail(d: int, cf: float) -> float:
    """P(first coordinate of a uniform unit vector >= cf), in closed form.

    For d cf^2 > TAIL_COMPLEMENT_MAX it sums the series
      c^(m+1) / (2 W_m) sum_n [C(2n, n) / 4^n] c^(2n) / (m + 2n + 1),
    m = d - 2, c^2 = 1 - cf^2 (formed exactly, then rounded), which is the
    integral of sin^m from 0 to arcsin(c) over 2 W_m with sin^m expanded in
    the binomial series of (1 - s^2)^(-1/2).  Its terms are positive, so the
    tail keeps its relative digits down to the underflow edge: against
    50-digit mpmath over d from 2 to 2048 and cf from 0 to 0.99 it errs by at
    most 2.5e-14 relative.  Nearer the centre it is
    (1/2)(1 - P(|T| <= cf)).

    A tail below the smallest normal double, 2.2250738585072014e-308, is
    returned as 0.0: in subnormals it would carry too few digits to act on.
    """
    if d < 2 or not (0.0 <= cf < 1.0):
        raise ValidationError("need d >= 2 and 0 <= cf < 1")
    m = d - 2
    if d * cf * cf <= TAIL_COMPLEMENT_MAX:
        return 0.5 * (1.0 - float(_central_mass(m, np.array([cf]))[0]))
    # c^2 = 1 - cf^2 = num / den exactly, rounded once to c2, with c2_rest
    # the rounding's remainder
    p, q = cf.as_integer_ratio()
    num, den = q * q - p * p, q * q
    c2 = num / den
    a, b = c2.as_integer_ratio()
    c2_rest = (num * b - a * den) / (den * b)
    # the series stops once the rest, below term c^2 / cf^2, is under 2^-56
    # of the sum
    total, binom, n = 0.0, 1.0, 0
    while True:
        term = binom / (m + 2 * n + 1)
        total += term
        if term * c2 < total * (cf * cf) * 2.0**-56:
            break
        n += 1
        binom *= c2 * (2 * n - 1) / (2 * n)
    # 1 / (2 W_m) is m a_m / 2, and 1/pi at m = 0; c^(m+1) is taken from the
    # rounded c^2, corrected to first order by its remainder
    half_inv_w = m * _reduction_coefficients(m)[-1] / 2 if m else 1 / math.pi
    k = (m + 1) / 2
    tail = c2**k * (1.0 + k * c2_rest / c2) * half_inv_w * total
    return tail if tail >= sys.float_info.min else 0.0


def _check_conditioning(d: int, cf: float, name: str, count: int) -> None:
    if d < 2:
        raise ValidationError("need d >= 2")
    if not (0.0 < cf < 1.0):
        raise ValidationError("cf must lie in (0, 1)")
    if count < 1:
        raise ValidationError("%s must be at least 1, got %d" % (name, count))


def _rejection_certain(rows: np.ndarray, sign: float, cf: float) -> bool:
    """True only when sign * kernel_vector(rows)[0] < cf is already certain.

    It never computes the witness, so it can only reject; False means "run
    kernel_vector and decide from its witness".  Two screens:

    * Sign.  kernel_vector makes the first coordinate above SIGN_SCAN_TOL
      positive, so with sign -1 the witness's first coordinate is at most
      SIGN_SCAN_TOL, which is below any cf > SIGN_SCAN_TOL.
    * QR.  Let A = rows ((d-1) x d), v its exact unit kernel vector, sigma
      its (d-1)-th singular value, eps the machine epsilon and
      gamma = d^2 eps |A|_F.  The last column q of a complete Householder QR
      of A^T spans the kernel up to rounding, and
        - for every unit x, sin angle(x, v) <= |A x| / sigma, and for unit
          x, y, ||x[0]| - |y[0]|| <= sqrt(2) sin angle(x, y);
        - the SVD's kernel vector u is exact for A plus a perturbation of
          norm at most gamma, so |A u| <= gamma;
        - the computed R is exact for A^T plus a perturbation of norm at most
          gamma (Higham, Accuracy and Stability of Numerical Algorithms,
          Thm 19.4), so sigma >= sigma_min(R) - gamma >= 1/|R^-1|_F - gamma.
      Together, |u[0]| <= |q[0]| + sqrt(2) (|A q| + gamma) / (1/|R^-1|_F -
      gamma).  The sign scan leaves the witness's first coordinate at most
      |u[0]|, so |q[0]| plus that band below cf is a certain rejection.  The
      band is widened by SCREEN_SAFETY for the rounding in q's norm and in
      evaluating the band itself.  Unless gamma |R^-1|_F <= 1/2 (it fails
      for a singular or non-finite R too), the lower bound on sigma is not
      established and the screen decides nothing.
    """
    if sign < 0:
        return cf > SIGN_SCAN_TOL
    kernel = householder_kernel(rows)
    if kernel is None:
        return False
    q, r_inv = kernel
    # r_inv's strictly lower part holds Householder vectors; counting them
    # only enlarges the norm, which keeps the bound on sigma valid
    r_inv_norm = np.linalg.norm(r_inv)
    d = rows.shape[1]
    gamma = d * d * EPS * np.linalg.norm(rows)
    if not gamma * r_inv_norm <= 0.5:
        return False
    band = SCREEN_SAFETY * math.sqrt(2.0) * (np.linalg.norm(rows @ q) + gamma) / (
        1.0 / r_inv_norm - gamma
    )
    return abs(q[0]) + band < cf


def _accepted_witness(rows: np.ndarray, sign: float, cf: float):
    """sign * kernel_vector(rows) when its first coordinate is at least cf,
    else None (also when rows are rank deficient).  Only rejections that are
    already certain skip the SVD, so every witness and decision is exactly
    that of kernel_vector."""
    if _rejection_certain(rows, sign, cf):
        return None
    try:
        w = sign * kernel_vector(rows)
    except RankDeficient:
        return None
    return w if w[0] >= cf else None


def _conditioned_attempt(d: int, cf: float, rng: np.random.Generator):
    """One rejection attempt: the vectors and the accepted witness, or None.

    The kernel direction of uniform vectors is uniform on the sphere once its
    sign is randomized, so the acceptance probability is exactly the one-sided
    tail reported by first_coord_tail.
    """
    thetas = rng.standard_normal((d - 1, d))
    thetas /= row_norms(thetas)[:, None]
    sign = 1.0 if rng.random() < 0.5 else -1.0
    return thetas, _accepted_witness(thetas, sign, cf)


def _too_rare(d: int, cf: float, max_attempts: int) -> AcceptanceTooRare:
    tail = first_coord_tail(d, cf)
    return AcceptanceTooRare(
        "no acceptance in %d attempts; exact tail estimate %.3e at d=%d cf=%g"
        % (max_attempts, tail, d, cf),
        tail_estimate=tail,
    )


def _refuse_hopeless(d: int, cf: float, max_attempts: int) -> None:
    # max_attempts attempts accept with probability at most max_attempts *
    # tail, and the tail lies below (1/2)(1 - cf^2)^((d-1)/2); only when that
    # bound refuses is the closed form's series paid, for the report
    if max_attempts * 0.5 * ((1.0 - cf) * (1.0 + cf)) ** ((d - 1) / 2) < HOPELESS:
        tail = first_coord_tail(d, cf)
        if tail:
            why = ("exact tail %.3e at d=%d cf=%g: %d attempts would accept with "
                   "probability below 2^-40" % (tail, d, cf, max_attempts))
        else:
            why = "exact tail underflows to 0 at d=%d cf=%g" % (d, cf)
        raise AcceptanceTooRare(why + "; no attempt made", tail_estimate=tail)


def gen_anv_conditioned(
    d: int, cf: float, seed, max_attempts: int = DEFAULT_MAX_ATTEMPTS
) -> AnvInstance:
    _check_conditioning(d, cf, "max_attempts", max_attempts)
    _refuse_hopeless(d, cf, max_attempts)
    rng = _as_rng(seed)
    for _ in range(max_attempts):
        thetas, w = _conditioned_attempt(d, cf, rng)
        if w is not None:
            return AnvInstance(
                variant=SPHERE_CONDITIONED, d=d, vectors=thetas, witness=w, cf=cf
            )
    raise _too_rare(d, cf, max_attempts)


def conditioned_acceptance_stats(d: int, cf: float, attempts: int, seed) -> tuple[int, int]:
    """(accepted, attempts) over a fixed number of rejection attempts."""
    _check_conditioning(d, cf, "attempts", attempts)
    rng = _as_rng(seed)
    accepted = 0
    for _ in range(attempts):
        _, w = _conditioned_attempt(d, cf, rng)
        accepted += w is not None
    return accepted, attempts


def anv_loss(inst: AnvInstance, w) -> float:
    w = np.asarray(w, dtype=float)
    if w.shape != (inst.d,):
        raise DimensionMismatch("predictor has wrong dimension")
    if abs(np.linalg.norm(w) - 1.0) > 1e-6:
        raise NotUnit("anv_loss expects a unit predictor")
    sq = float(np.sum((inst.vectors @ w) ** 2))
    if inst.variant == GAUSSIAN_RAW:
        return sq / inst.d
    return sq


def gen_lsp_from_anv(inst: AnvInstance, c4: float) -> LspDataset:
    """Split each conditioned vector into a +/- pair shifted along e1.

    The witness is orthogonal to every vector, so its score on either point of
    pair i is exactly (first witness coordinate) * c4 / sqrt(d); any separator
    of the pairs must in turn have small squared scores on the vectors.
    """
    if inst.variant != SPHERE_CONDITIONED:
        raise ValidationError("labeled-pair reduction needs a conditioned instance")
    if not 0 < c4 < math.inf:
        raise ValidationError("c4 must be a finite positive number, got %r" % (c4,))
    d = inst.d
    shift = np.zeros(d)
    shift[0] = c4 / math.sqrt(d)
    xs = np.empty((2 * (d - 1), d))
    ys = np.empty(2 * (d - 1))
    xs[0::2] = inst.vectors + shift
    xs[1::2] = inst.vectors - shift
    ys[0::2] = 1.0
    ys[1::2] = -1.0
    margin = inst.cf * c4 / math.sqrt(d) / row_norms(xs).max()
    return LspDataset(xs=xs, ys=ys, witness=inst.witness, margin=margin)


def gen_lsp_margin(d: int, m: int, gamma: float, seed) -> LspDataset:
    """Unit points at exact margin gamma from a random witness hyperplane.

    Each point is y*gamma*w + sqrt(1-gamma^2)*z with z a uniform unit vector
    orthogonal to the witness w, so margin_of(w, ds) == gamma exactly and the
    dataset is as hard as its stated margin allows.

    The one m x d draw becomes the points in place, each outer product taken
    BLOCK_VALUES values at a time; every step is the elementwise operation
    of the whole-matrix formula, so the bytes are the same.
    """
    if d < 2 or m < 1:
        raise ValidationError("need d >= 2 and m >= 1")
    if not 0 < gamma < 1:
        raise ValidationError("gamma must lie in (0, 1)")
    rng = _as_rng(seed)
    w = sample_uniform_sphere(d, rng)
    g = rng.standard_normal((m, d))
    rows = max(1, BLOCK_VALUES // d)
    blocks = [slice(start, start + rows) for start in range(0, m, rows)]
    gw = g @ w
    for blk in blocks:
        g[blk] -= np.outer(gw[blk], w)
    g /= row_norms(g)[:, None]
    ys = np.where(rng.random(m) < 0.5, 1.0, -1.0)
    g *= math.sqrt(1.0 - gamma * gamma)
    for blk in blocks:
        g[blk] += gamma * np.outer(ys[blk], w)
    return LspDataset(xs=g, ys=ys, witness=w, margin=gamma)


def sample_dv(s: Subspace, c: float, seed) -> tuple[np.ndarray, float]:
    """One labeled draw: uniform point of the subsphere of s, shifted by
    +/- (c/4) e1 / sqrt(d) with the matching label."""
    if c <= 0:
        raise ValidationError("c must be positive")
    rng = _as_rng(seed)
    x = sample_uniform_subsphere(s, rng)
    y = 1.0 if rng.random() < 0.5 else -1.0
    x = x.copy()
    x[0] += y * (c / 4.0) / math.sqrt(s.ambient_dim)
    return x, y


def gen_lsp_hard(
    d: int,
    m: int,
    cf: float,
    c: float,
    seed,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> tuple[LspDataset, Subspace, Subspace]:
    """The two-subspace family: a conditioned pair (V, U) of dimensions d/2
    and d/2-1, with m labeled draws around V followed by m around U."""
    if d < 4 or d % 2:
        raise ValidationError("need even d >= 4")
    if m < d:
        raise ValidationError("need m >= d")
    _check_conditioning(d, cf, "max_attempts", max_attempts)
    _refuse_hopeless(d, cf, max_attempts)
    rng = _as_rng(seed)
    for _ in range(max_attempts):
        v = sample_grassmannian(d // 2, d, rng)
        u = sample_grassmannian(d // 2 - 1, d, rng)
        stacked = np.vstack([v.basis, u.basis])
        sign = 1.0 if rng.random() < 0.5 else -1.0
        w = _accepted_witness(stacked, sign, cf)
        if w is None:
            continue
        draws = [sample_dv(v, c, rng) for _ in range(m)] + [
            sample_dv(u, c, rng) for _ in range(m)
        ]
        xs = np.array([x for x, _ in draws])
        ys = np.array([y for _, y in draws])
        margin = float(np.min((xs @ w) * ys / row_norms(xs)))
        return LspDataset(xs=xs, ys=ys, witness=w, margin=margin), v, u
    raise _too_rare(d, cf, max_attempts)


def gen_lr_from_anv(inst: AnvInstance, seed) -> LrInstance:
    """Equations theta_i . w = 0 with the inhomogeneous equation e1 . w = cf
    hidden at a uniformly random row."""
    if inst.variant != SPHERE_CONDITIONED:
        raise ValidationError("equation reduction needs a conditioned instance")
    d = inst.d
    if inst.witness[0] < inst.cf:
        raise ValidationError("witness first coordinate below cf")
    rng = _as_rng(seed)
    pos = int(rng.integers(0, d))
    a = np.insert(inst.vectors, pos, np.eye(d)[0], axis=0)
    b = np.zeros(d)
    b[pos] = inst.cf
    witness = inst.cf * inst.witness / inst.witness[0]
    return LrInstance(a=a, b=b, witness=witness)


def lr_loss(inst: LrInstance, w) -> float:
    w = np.asarray(w, dtype=float)
    if w.shape != (inst.d,):
        raise DimensionMismatch("predictor has wrong dimension")
    r = inst.a @ w - inst.b
    return float(r @ r)


def margin_of(w, ds: LspDataset) -> float:
    w = np.asarray(w, dtype=float)
    if w.shape != (ds.d,):
        raise DimensionMismatch("separator has wrong dimension")
    return float(np.min((ds.xs @ w) * ds.ys / row_norms(ds.xs)))


def classification_error(w, ds: LspDataset) -> float:
    w = np.asarray(w, dtype=float)
    if w.shape != (ds.d,):
        raise DimensionMismatch("separator has wrong dimension")
    return float(np.mean((ds.xs @ w) * ds.ys <= 0))
