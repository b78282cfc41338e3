"""Concrete one-pass algorithms.

Baselines (zero, random unit), full-storage offline solvers, and the
random-projection separator that realizes the low-memory upper bound: keep a
uniform reservoir of projected, quantized points and separate them at the end
with a perceptron, lifting the result back through the projection transpose.

Each state-carrying algorithm declares its state format once, as the Layout
its code reads and writes (see the class docstrings); its budget function is
that layout's nbits, and every write through the layout checks that budget
and declares those bits, so the accounting and the format cannot disagree.

ALGORITHMS is the one table of the names `run` and `experiment` accept, each
with its constructor from (d, seed) and the instance classes it reads.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple

import numpy as np

from .config import DEFAULTS
from .errors import (
    DegenerateOutput,
    DimensionMismatch,
    NotSeparableInProjection,
    ValidationError,
)
from .instances import AnvInstance, LrInstance, LspDataset
from .linalg import BLOCK_VALUES, Subspace, check_seed, kernel_vector, sample_uniform_sphere
# the projection hands its fresh draw over to be factored in place; it is
# called through this module-level name, which a profiler may rebind
from .linalg import haar_frame as orthonormalize
from .streaming import STEP_BLOCK, Layout, OnePassAlgorithm, SharedRandomness, f64, uint


def _sample_vector(sample) -> np.ndarray:
    """The vector part of a sample: bare vectors, (x, label), (row, target)."""
    if isinstance(sample, (tuple, list)) and len(sample) == 2 and np.ndim(sample[1]) == 0:
        return np.asarray(sample[0], dtype=float)
    return np.asarray(sample, dtype=float)


# every solver state opens with [u32 count][u32 d]
_HEADER = uint(32, 2)
_HEADER_ONLY = Layout(header=_HEADER)


def _header(payload) -> tuple[int, int]:
    count, d = _HEADER_ONLY.read(payload, "header").tolist()
    return count, d


def _stored_count(payload, d: int) -> int:
    """The header's count, once the d it holds (if any) is checked against d."""
    count, dim = _header(payload)
    if count and dim != d:
        raise DimensionMismatch("sample dimension changed mid-stream")
    return count


def _append(state, layout, field: str, row: np.ndarray, d: int):
    """Store row after the count rows of field in a solver state whose
    format is layout(count, d), and count it in the header."""
    count = _stored_count(state.payload, d)
    grown = layout(count + 1, d)
    grown.write(state, "header", [count + 1, d])
    # the field holds count + 1 rows of one length
    grown.write(state, field, row, start=count * (grown.fields[field][2] // (count + 1)))


class ZeroPredictor(OnePassAlgorithm):
    """Remembers only the ambient dimension; outputs the zero vector.

    State: Layout(d=uint(32)).
    """

    LAYOUT = Layout(d=uint(32))

    def update(self, i, sample, state, shared):
        self.LAYOUT.write(state, "d", _sample_vector(sample).shape[0])
        return state

    def finalize(self, state, shared):
        return np.zeros(int(self.LAYOUT.read(state.payload, "d")[0]))


class RandomUnitPredictor(OnePassAlgorithm):
    """Ignores the stream; outputs a fixed random unit vector from its seed."""

    def __init__(self, d: int, seed: int):
        if d < 1:
            raise ValidationError("need d >= 1")
        self.d = int(d)
        self.seed = check_seed(int(seed))

    def update(self, i, sample, state, shared):
        return state

    def finalize(self, state, shared):
        return sample_uniform_sphere(self.d, np.random.default_rng(self.seed))


class OfflineKernelSolver(OnePassAlgorithm):
    """Stores every vector verbatim and finalizes with the exact kernel.

    State: layout(count, d) = Layout(header=uint(32, 2), vectors=f64(count * d)).
    """

    @staticmethod
    def layout(count: int, d: int) -> Layout:
        return Layout(header=_HEADER, vectors=f64(count * d))

    def update(self, i, sample, state, shared):
        vec = _sample_vector(sample)
        _append(state, self.layout, "vectors", vec, vec.shape[0])
        return state

    def finalize(self, state, shared):
        count, d = _header(state.payload)
        vectors = self.layout(count, d).read(state.payload, "vectors")
        return kernel_vector(vectors.reshape(count, d))


def kernel_budget_bits(d: int) -> int:
    return OfflineKernelSolver.layout(d - 1, d).nbits


@functools.lru_cache(maxsize=4)
def _upper_triangle(d: int) -> np.ndarray:
    """Flat indices of a d x d matrix's upper triangle, in row order."""
    rows, cols = np.triu_indices(d)
    flat = rows * d + cols
    flat.flags.writeable = False
    return flat


class OfflineLstsqSolver(OnePassAlgorithm):
    """Streams the normal equations of the system and solves them at the end.

    Accumulating the Gram matrix (upper triangle) and moment vector instead of
    raw rows keeps the state size independent of the stream length, and the
    finalize output pinv(Gram) @ moment equals the minimum-norm least-squares
    solution of the streamed system.  The result is clipped to the unit ball.

    State: layout(d) = Layout(header=uint(32, 2), gram=f64(d * (d + 1) // 2),
    moment=f64(d)), the Gram matrix's upper triangle in row order.
    """

    @staticmethod
    def layout(d: int) -> Layout:
        return Layout(header=_HEADER, gram=f64(d * (d + 1) // 2), moment=f64(d))

    def update(self, i, sample, state, shared):
        if not (isinstance(sample, (tuple, list)) and len(sample) == 2):
            raise ValidationError("equation samples are (row, target) pairs")
        row = np.asarray(sample[0], dtype=float)
        target = float(sample[1])
        d = row.shape[0]
        count = _stored_count(state.payload, d)
        # the all-zero initial state reads as a zero Gram matrix and moment
        layout = self.layout(d)
        gram = layout.read(state.payload, "gram") + np.outer(row, row).take(_upper_triangle(d))
        moment = layout.read(state.payload, "moment") + target * row
        # finite rows near 1e200 overflow the sums, and pinv cannot take them
        if not (np.isfinite(gram).all() and np.isfinite(moment).all()):
            raise ValidationError("least-squares sums overflowed at equation %d" % (count + 1))
        layout.write(state, "header", [count + 1, d])
        layout.write(state, "gram", gram)
        layout.write(state, "moment", moment)
        return state

    def finalize(self, state, shared):
        count, d = _header(state.payload)
        if count == 0:
            raise DegenerateOutput("no equations seen")
        layout = self.layout(d)
        moment = layout.read(state.payload, "moment")
        upper = layout.read(state.payload, "gram")
        # party 2 rebuilds its state from message bytes no runner checked, and
        # pinv raises numpy's bare LinAlgError on a NaN and returns NaNs on an
        # infinity, so both are refused before it
        if not (np.isfinite(upper).all() and np.isfinite(moment).all()):
            raise ValidationError("least-squares sums hold a NaN or an infinity")
        gram = np.zeros((d, d))
        gram.put(_upper_triangle(d), upper)
        gram = gram + np.triu(gram, 1).T
        # finite crafted sums can still overflow: pinv(1e-300 I) @ 1e300 is
        # inf, and (1e200, ...) is finite but its norm is not, so the
        # overflow is checked, not printed, and such a w is clipped through
        # its largest entry; honest sums meet neither
        with np.errstate(over="ignore", invalid="ignore"):
            w = np.linalg.pinv(gram, hermitian=True) @ moment
            norm = np.linalg.norm(w)
        if not np.isfinite(w).all():
            raise ValidationError("least-squares solution overflows")
        if norm == np.inf:
            w = w / np.abs(w).max()
            norm = np.linalg.norm(w)
        if norm > 1.0:
            w = w / norm
        return w


def lstsq_budget_bits(d: int) -> int:
    return OfflineLstsqSolver.layout(d).nbits


def perceptron_with_stats(signed, max_passes: int) -> tuple[np.ndarray, int]:
    """Perceptron over the rows y * x of signed, returning (unit separator,
    total update count)."""
    signed = np.ascontiguousarray(signed, dtype=float)
    if signed.ndim != 2:
        raise ValidationError("perceptron takes an (n, d) array of signed points")
    if signed.shape[0] == 0:
        raise ValidationError("perceptron needs at least one point")
    rows = list(signed)  # views, not copies: the loop skips numpy's row indexing
    w = np.zeros(signed.shape[1])
    score = w.dot  # stays bound to w: mistakes update w in place
    total = 0
    for _ in range(max_passes):
        mistakes = 0
        for row in rows:
            if score(row) <= 0:
                w += row
                mistakes += 1
        total += mistakes
        if mistakes == 0:
            return w / np.linalg.norm(w), total
    raise NotSeparableInProjection("no separator after %d passes" % max_passes)


def perceptron(signed, max_passes: int) -> np.ndarray:
    """Classic mistake-driven separator with deterministic cycling order.

    signed is an (n, d) array whose rows are y * x for labels y = +-1.
    Returns a unit vector scoring every row strictly positive, or raises
    NotSeparableInProjection once max_passes full cycles fail to converge.

    Each row is scored with w.dot(row): on contiguous float64 vectors that
    is the same ddot kernel as w @ x with less dispatch around it.  Scoring
    must stay that one ddot per row; a blocked matrix product sums in
    another order, and a single flipped sign changes the separator.

    Folding the label into the row decides every mistake exactly as scoring
    x and testing score(x) * y <= 0 does.  Negating a double is exact, and
    round-to-nearest rounds -a exactly as it rounds a, so every product,
    fused multiply-add and partial sum of ddot(w, -x) is the negation of the
    one in ddot(w, x), summed in the same order: ddot(w, -x) == -ddot(w, x)
    bit for bit.  The
    test therefore flips with y just as the product does, for +-0 (both
    pass) and NaN (neither passes) too.  A mistake adds the row itself, the
    same rounded values y * x adds.  This holds only for y = +-1; any other
    factor rounds the row.
    """
    return perceptron_with_stats(signed, max_passes)[0]


def _labeled(sample) -> tuple:
    """The point and label of a separator's sample, checked before any write."""
    if not (isinstance(sample, (tuple, list)) and len(sample) == 2):
        raise ValidationError("labeled samples are (x, y) pairs")
    x = np.asarray(sample[0], dtype=float)
    y = float(sample[1])
    if y not in (1.0, -1.0):
        # finalize folds the label into the point, exact only for +-1
        raise ValidationError("labels must be +/-1")
    return x, y


class OfflineSeparatorSolver(OnePassAlgorithm):
    """Stores every labeled point and separates them offline by perceptron.

    State: layout(count, d) = Layout(header=uint(32, 2),
    rows=f64(count * (d + 1))), each point's coordinates followed by its label.
    """

    max_passes = 10**5

    @staticmethod
    def layout(count: int, d: int) -> Layout:
        return Layout(header=_HEADER, rows=f64(count * (d + 1)))

    def update(self, i, sample, state, shared):
        x, y = _labeled(sample)
        _append(state, self.layout, "rows", np.append(x, y), x.shape[0])
        return state

    def finalize(self, state, shared):
        count, d = _header(state.payload)
        if count == 0:
            raise DegenerateOutput("no points seen")
        flat = self.layout(count, d).read(state.payload, "rows").reshape(count, d + 1)
        # a NaN scores no mistake, so the perceptron would pass over a row
        # holding one (or an infinity, which turns NaN once added) and
        # return a separator of the other rows
        if not np.isfinite(flat).all():
            raise ValidationError("stored points hold a NaN or an infinity")
        return perceptron(flat[:, :d] * flat[:, d:], self.max_passes)


def separator_budget_bits(d: int, n: int) -> int:
    return OfflineSeparatorSolver.layout(n, d).nbits


def _quantize(u: np.ndarray, qb: int, rng_half: float) -> np.ndarray:
    """Levels of u clipped to +-rng_half.

    The clip (np.minimum then np.maximum, which is what np.clip computes)
    makes the one new array and every later step runs in place on it,
    rounding exactly as round((clip(u) + rng_half) / (2 rng_half) * levels)
    does; u itself is left as it was.  Calling the ufuncs directly skips
    np.clip's Python layers.
    """
    levels = (1 << qb) - 1
    q = np.minimum(u, rng_half)
    np.maximum(q, -rng_half, out=q)
    q += rng_half
    q /= 2 * rng_half
    q *= levels
    return np.rint(q, out=q).astype(np.uint32)


def _dequantize(q: np.ndarray, qb: int, rng_half: float) -> np.ndarray:
    levels = (1 << qb) - 1
    return q.astype(float) / levels * (2 * rng_half) - rng_half


class ProjectionSeparator(OnePassAlgorithm):
    """One-pass separator: project, quantize, reservoir-sample, then separate.

    The projection matrix is a pure function of the shared randomness and the
    constructor seed, so it is regenerated on demand (and cached on the
    instance, which carries no sample information) rather than stored; the
    state holds only the sampled points.  prepare projects and quantizes a
    block of samples at a time and draws their reservoir values; update only
    keeps or drops the result.

    State: layout(dprime, subsample, quant_bits) = Layout(header=uint(32, 2),
    labels=uint(1, subsample), coords=uint(quant_bits, subsample * dprime)),
    with coords=f64(subsample * dprime) when quant_bits = 0.  The header holds
    the seen-count and the ambient d; slot j keeps its label bit (1 for +1)
    and coordinates j*dprime .. (j+1)*dprime-1, the quantized sqrt(d/d') P x
    clipped to +-quant_range.
    """

    # the clip applied before quantizing, and finalize's perceptron pass limit
    quant_range = 4.0
    max_passes = 500

    def __init__(
        self,
        dprime: int,
        subsample_size: int,
        quant_bits: int = 16,
        seed: int = 0,
    ):
        if dprime < 1 or subsample_size < 1:
            raise ValidationError("dprime and subsample_size must be positive")
        if quant_bits and not (1 <= quant_bits <= 32):
            raise ValidationError("quant_bits must be 0 (off) or 1..32")
        self.dprime = int(dprime)
        self.subsample = int(subsample_size)
        self.quant_bits = int(quant_bits)
        self.seed = int(seed)
        self._layout = self.layout(self.dprime, self.subsample, self.quant_bits)
        self._proj_cache = {}

    # -- projection ---------------------------------------------------------

    def projection_for(self, d: int, shared: SharedRandomness) -> Subspace:
        if self.dprime > d:
            raise DimensionMismatch("dprime exceeds ambient dimension")
        key = (shared.seed, d)
        if key not in self._proj_cache:
            rng = shared.generator("proj-separator", self.seed, d)
            self._proj_cache[key] = orthonormalize(rng.standard_normal((self.dprime, d)).T)
        return self._proj_cache[key]

    # -- state codec --------------------------------------------------------

    @staticmethod
    def layout(dprime: int, subsample: int, quant_bits: int) -> Layout:
        n = subsample * dprime
        coords = uint(quant_bits, n) if quant_bits else f64(n)
        return Layout(header=_HEADER, labels=uint(1, subsample), coords=coords)

    def _write_slot(self, state, j: int, y: float, coords: np.ndarray):
        self._layout.write(state, "labels", int(y > 0), start=j)
        self._layout.write(state, "coords", coords, start=j * self.dprime)

    def _signed_points(self, payload, kept: int) -> np.ndarray:
        """y * x for the first kept slots, dequantized, as one (kept, dprime)
        array: the rows finalize's perceptron reads.  coords are read and
        dequantized BLOCK_VALUES values' worth of rows at a time, so no
        whole-field integer copy is held next to it."""
        points = np.empty((kept, self.dprime))
        rows = max(1, BLOCK_VALUES // self.dprime)
        for lo in range(0, kept, rows):
            block = points[lo : lo + rows]
            q = self._layout.read(payload, "coords", lo * self.dprime, block.size)
            if self.quant_bits:
                q = _dequantize(q, self.quant_bits, self.quant_range)
            block[...] = q.reshape(block.shape)
        points *= np.where(self._layout.read(payload, "labels", 0, kept), 1.0, -1.0)[:, None]
        return points

    # -- streaming interface ------------------------------------------------

    def prepare(self, first_index, samples, shared):
        """(x, y, coords, keep, slot) for each labeled sample i: coords is
        the quantized sqrt(d/d') P x that update stores if the reservoir keeps
        the sample, and keep, slot are the shared values at 2i and 2i + 1
        that decide whether it does and where, drawn once for the run.

        Sample i sits in row (i-1) % STEP_BLOCK of a zero STEP_BLOCK x d
        block, one block per aligned run of STEP_BLOCK indices, and each
        block is projected by one product of that fixed shape.  A sample
        thus always meets the same arithmetic in the same row, and gets the
        same bits whichever samples it is prepared with: one at a time, a
        protocol party's run or the one-pass run's.
        """
        points = []
        for sample in samples:
            x, y = _labeled(sample)
            if points and x.shape[0] != points[0][0].shape[0]:
                raise DimensionMismatch("sample dimension changed mid-stream")
            points.append((x, y))
        if not points:
            return []
        d = points[0][0].shape[0]
        basis = self.projection_for(d, shared).basis
        coords = []
        while len(coords) < len(points):
            row = (first_index + len(coords) - 1) % STEP_BLOCK
            block = points[len(coords) : len(coords) + STEP_BLOCK - row]
            buf = np.zeros((STEP_BLOCK, d))
            for k, (x, _) in enumerate(block):
                buf[row + k] = x
            u = buf @ basis.T
            u *= math.sqrt(d / self.dprime)
            if self.quant_bits:
                u = _quantize(u, self.quant_bits, self.quant_range)
            coords.extend(u[row : row + len(block)])
        draws = iter(shared.values(2 * first_index, 2 * len(points)).tolist())
        return [(x, y, c, keep, slot) for (x, y), c, keep, slot in zip(points, coords, draws, draws)]

    def update(self, i, sample, state, shared):
        x, y, coords, keep, slot = sample
        d = x.shape[0]
        count = _stored_count(state.payload, d) + 1
        self._layout.write(state, "header", [count, d])
        if count <= self.subsample:
            self._write_slot(state, count - 1, y, coords)
        elif keep < self.subsample / count:
            self._write_slot(state, int(slot * self.subsample), y, coords)
        return state

    def finalize(self, state, shared):
        count, d = _header(state.payload)
        if count == 0:
            raise DegenerateOutput("no points seen")
        kept = min(count, self.subsample)
        w_p = perceptron(self._signed_points(state.payload, kept), self.max_passes)
        proj = self.projection_for(d, shared)
        w = proj.basis.T @ w_p
        return w / np.linalg.norm(w)


def proj_state_bits(dprime: int, subsample: int, quant_bits: int) -> int:
    return ProjectionSeparator.layout(dprime, subsample, quant_bits).nbits


class Algorithm(NamedTuple):
    """What `run` and a sweep know of one registered algorithm."""

    build: Callable  # (d, seed) -> a fresh instance
    takes: tuple  # the instance classes whose stream it reads


# REGISTRY, and each "(try: ...)" list `run` prints, keep this order
ALGORITHMS = {
    # the null-vector objective scores unit candidates only, so the zero
    # baseline is meaningful just for separators and regression
    "zero": Algorithm(lambda d, seed: ZeroPredictor(), (LspDataset, LrInstance)),
    "random-unit": Algorithm(RandomUnitPredictor, (AnvInstance, LspDataset, LrInstance)),
    "offline-kernel": Algorithm(lambda d, seed: OfflineKernelSolver(), (AnvInstance,)),
    "offline-lstsq": Algorithm(lambda d, seed: OfflineLstsqSolver(), (LrInstance,)),
    "offline-separator": Algorithm(lambda d, seed: OfflineSeparatorSolver(), (LspDataset,)),
    "proj-separator": Algorithm(lambda d, seed: ProjectionSeparator(
        dprime=min(DEFAULTS.separator.dprime, d), subsample_size=DEFAULTS.separator.subsample,
        quant_bits=DEFAULTS.separator.quant_bits, seed=seed,
    ), (LspDataset,)),
}
REGISTRY = tuple(ALGORITHMS)


def build_algorithm(name: str, d: int, seed: int) -> OnePassAlgorithm:
    """Registry constructor for the CLI-addressable algorithms; any name that
    is not a registered string, hashable or not, is a validation failure."""
    entry = ALGORITHMS.get(name) if isinstance(name, str) else None
    if entry is None:
        raise ValidationError(
            "unknown algorithm %r (have: %s)" % (name, ", ".join(sorted(ALGORITHMS)))
        )
    return entry.build(d, seed)
