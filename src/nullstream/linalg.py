"""Dense subspace and spectral primitives.

Subspaces are stored as orthonormal row bases.  Everything here is a pure
function of its arguments (randomness enters through an explicit numpy
Generator), dense, and O(d^3) at worst; the testbed targets d up to ~2048.
The few LAPACK routines np.linalg does not expose are called through ctypes
on numpy's own bundled OpenBLAS (see _load_lapack), once per slice of a
stack, with the scalar arguments converted once per stack.

The subspace kernels haar_frames, sample_grassmannians, complements and
chordal_distances take stacks of bases of one shape, s x k x d, and give
each slice the bytes it gets on its own; the caller bounds a stack's size.
haar_frame and sample_grassmannian are the first two's stacks of one, on
Subspace.
"""

from __future__ import annotations

import ctypes
import glob
import os
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateInput,
    DimensionMismatch,
    NullstreamError,
    RankDeficient,
    ValidationError,
    ZeroDimensional,
)

ORTHO_TOL = 1e-10
RANK_REL_TOL = 1e-10
SIGN_SCAN_TOL = 1e-12
# values a large array is reduced or edited at a time (512 KiB of doubles),
# so a pass over an m x d array holds O(m) beyond it rather than O(m * d)
BLOCK_VALUES = 2**16


@dataclass(frozen=True)
class Subspace:
    """A k-dimensional subspace of R^d, held as a k x d orthonormal row basis."""

    ambient_dim: int
    dim: int
    basis: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        if b.shape != (self.dim, self.ambient_dim):
            raise DimensionMismatch(
                "basis shape %s does not match (dim=%d, ambient_dim=%d)"
                % (b.shape, self.dim, self.ambient_dim)
            )
        if not (0 <= self.dim <= self.ambient_dim):
            raise DimensionMismatch("need 0 <= dim <= ambient_dim")
        if self.dim > 0:
            # an inf entry makes NaNs here, and NaN fails every comparison,
            # so a NaN or inf entry fails the test below without a warning
            with np.errstate(invalid="ignore"):
                gram = b @ b.T
            gram[np.diag_indices(self.dim)] -= 1.0
            if not (np.abs(gram, out=gram).max() <= ORTHO_TOL):
                raise DegenerateInput("basis rows are not orthonormal to 1e-10")
        object.__setattr__(self, "basis", b)


def _as_matrix(vectors) -> np.ndarray:
    m = np.asarray(vectors, dtype=float)
    if m.ndim == 1:
        m = m[None, :]
    if m.ndim != 2:
        raise DimensionMismatch("expected a list of vectors")
    return m


def row_norms(m: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a real 2-D array, BLOCK_VALUES values
    at a time.  For real input np.linalg.norm(m, axis=1) computes the same
    sqrt(add.reduce(m * m, axis=1)) and reduces each row on its own, so the
    bits match while the squares never take a second m x d array."""
    rows = max(1, BLOCK_VALUES // max(1, m.shape[1]))
    out = np.empty(m.shape[0])
    for start in range(0, m.shape[0], rows):
        blk = m[start : start + rows]
        np.sqrt(np.add.reduce(blk * blk, axis=1), out=out[start : start + rows])
    return out


def orthonormalize(vectors) -> Subspace:
    """Span of the given vectors as a Subspace; the argument is not written.

    Rank is decided by the SVD, by kernel_vector's rule: singular values at
    or below 1e-10 relative to the largest count as zero, and the basis is
    the leading rank rows of V^T.  A NaN or an infinity raises
    ValidationError.  No run path calls it; Grassmannian points and
    projection bases come from haar_frame.
    """
    m = _as_matrix(vectors)
    n, d = m.shape
    # the SVD raises numpy's bare LinAlgError on a NaN and may never return
    # on an infinity, so both are refused before it
    if not np.isfinite(m).all():
        raise ValidationError("orthonormalize: the vectors hold a NaN or an infinity")
    if n > d:
        raise DimensionMismatch("more vectors (%d) than ambient dimension (%d)" % (n, d))
    _, svals, vt = np.linalg.svd(m, full_matrices=False)
    if svals.size == 0 or svals[0] <= 0.0:
        raise DegenerateInput("all input vectors are numerically zero")
    rank = int(np.sum(svals > RANK_REL_TOL * svals[0]))
    return Subspace(ambient_dim=d, dim=rank, basis=vt[:rank])


def haar_frames(a: np.ndarray) -> np.ndarray:
    """A stack of Haar-distributed n-frames of R^d, n <= d, made from an
    s x d x n array of independent N(0, 1) draws, each slice Fortran-ordered
    (the transpose of an s x n x d C-ordered draw), that the caller hands
    over: the s x n x d stack of row bases returned is a's own memory
    transposed, and a must not be used afterwards.

    In the Householder QR A = Q R of a Gaussian A, step k's reflector is
    built from the trailing d - k entries of column k as the earlier
    reflectors left it, which is again N(0, I_{d-k}) and independent of them
    (G. W. Stewart, SIAM J. Numer. Anal. 17, 1980).  So column k's own
    entries k..d-1 are taken as that input, and dgeqrf's trailing updates
    are never made.  Each reflector is formed by dlarfg's rule, one dorgqr
    per slice forms Q, and each column of Q is multiplied by the sign of R's
    diagonal entry, which makes R's diagonal positive and Q Haar-distributed
    (F. Mezzadri, Notices AMS 54, 2007).  A frame has Q's law but does not
    span its draw.  It is orthonormal whatever a holds, so nothing detects
    rank.  Each slice's bytes are those of the slice on its own: the
    reductions run per column and the rest is elementwise.
    """
    # refused before any value of a is written
    _lapack_array("dorgqr", a)
    s, d, n = a.shape
    # xnorm_k, the norm of a[k+1:, k], a block of columns (BLOCK_VALUES
    # values of a slice) at a time: einsum sums the squares of the rows below
    # the block's diagonal without forming them, and only the block's
    # triangle is copied, to zero what lies on and above the diagonal
    xnorm = np.empty((s, n))
    cols = max(1, BLOCK_VALUES // max(1, d))
    for start in range(0, n, cols):
        stop = min(start + cols, n)
        rect, tri = a[:, stop:, start:stop], np.tril(a[:, start + 1 : stop, start:stop])
        xnorm[:, start:stop] = (np.einsum("sij,sij->sj", rect, rect)
                                + np.einsum("sij,sij->sj", tri, tri))
    np.sqrt(xnorm, out=xnorm)
    # dlarfg: beta = -sign(alpha) |(alpha, x)|, tau = (beta - alpha) / beta and
    # v = x / (alpha - beta); with x = 0 it is H = I (tau = 0, beta = alpha).
    # Its rescaling of a beta below the smallest normal number is left out,
    # since a Gaussian column is never that short
    alpha = a.diagonal(axis1=1, axis2=2)
    reflect = xnorm > 0.0
    beta = np.where(reflect, -np.copysign(np.hypot(alpha, xnorm), alpha), alpha)
    tau = np.divide(beta - alpha, beta, out=np.zeros((s, n)), where=reflect)
    # dorgqr reads only the strict lower triangle, so whole columns are
    # scaled; a column with tau = 0 keeps its (zero) entries
    a *= np.divide(1.0, alpha - beta, out=np.ones((s, n)), where=reflect)[:, None, :]
    # 32 columns of workspace, dorgqr's block size, is the size a query
    # returns, so none is made
    _lapack("dorgqr", d, n, n, a, max(1, d), tau, lwork=32 * max(1, n))
    # copysign is never 0, where np.sign of a zero diagonal entry would be
    a *= np.copysign(1.0, beta)[:, None, :]
    return a.transpose(0, 2, 1)


def haar_frame(a: np.ndarray) -> Subspace:
    """haar_frames of a stack of one: the frame of a d x n Fortran-ordered
    Gaussian draw, made in a's own memory, as a checked Subspace."""
    d, n = a.shape
    return Subspace(ambient_dim=d, dim=n, basis=haar_frames(a[None])[0])


def complements(bases: np.ndarray) -> np.ndarray:
    """The orthogonal complements of an s x k x d stack of orthonormal row
    bases, as an s x (d - k) x d stack of C-ordered row bases: the trailing
    columns of each basis's complete QR, one np.linalg.qr over the stack,
    which factors each slice as it would on its own."""
    s, k, d = bases.shape
    if k == 0:
        return np.tile(np.eye(d), (s, 1, 1))
    if k == d:
        return np.zeros((s, 0, d))
    q = np.linalg.qr(np.asarray_chkfinite(bases.transpose(0, 2, 1)), mode="complete").Q
    # np.linalg.qr returns Q in C order, so the transpose of its trailing
    # columns is a strided view; products with a strided basis round
    # differently, so the rows are copied to C order
    return np.ascontiguousarray(q[:, :, k:].transpose(0, 2, 1))


def kernel_vector(vectors) -> np.ndarray:
    """The unit vector orthogonal to d-1 independent vectors in R^d.

    Sign convention: the first coordinate exceeding 1e-12 in absolute value is
    made positive, so repeated runs agree exactly.
    """
    m = _as_matrix(vectors)
    n, d = m.shape
    if n != d - 1:
        raise DimensionMismatch("need d-1 vectors in R^d, got %d in R^%d" % (n, d))
    # the SVD raises numpy's bare LinAlgError on a NaN and may never return
    # on an infinity, so both are refused before it
    if not np.isfinite(m).all():
        raise ValidationError("kernel_vector: the vectors hold a NaN or an infinity")
    _, svals, vt = np.linalg.svd(m, full_matrices=True)
    if svals[-1] <= RANK_REL_TOL * svals[0]:
        raise RankDeficient(
            "input rank < d-1 (sigma_min/sigma_max = %.3e)" % (svals[-1] / svals[0])
        )
    w = vt[-1]
    for x in w:
        if abs(x) > SIGN_SCAN_TOL:
            if x < 0:
                w = -w
            break
    return w


def chordal_distances(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sqrt(sum sin^2 theta_i) over the principal angles of each pair of
    row bases in two s x k x d stacks of orthonormal bases.

    The singular values of the residual B_u - (B_u B_v^T) B_v = B_u (I - P_v)
    are the sines of the principal angles for equal-dim subspaces, so the
    sum of their squares is the residual's squared Frobenius norm, and no
    SVD is needed.  The residual keeps tiny angles accurate where arccos of
    a cosine near 1 loses half the significant digits.  Each residual is
    summed as one row of k d values, as np.sum sums a lone k x d residual.
    """
    if u.shape[2] != v.shape[2]:
        raise DimensionMismatch("ambient dimensions differ")
    if u.shape[1] != v.shape[1]:
        raise DimensionMismatch("chordal distance needs equal dims (%d vs %d)"
                                % (u.shape[1], v.shape[1]))
    resid = u - (u @ v.transpose(0, 2, 1)) @ v
    resid *= resid
    return np.sqrt(np.add.reduce(resid.reshape(resid.shape[0], -1), axis=1))


def check_seed(seed):
    """The seed, unchanged, if numpy's default_rng takes it; a negative seed
    is a ValidationError rather than numpy's bare ValueError."""
    if seed < 0:
        raise ValidationError("seed must be a non-negative integer, got %d" % seed)
    return seed


def sample_uniform_sphere(d: int, rng: np.random.Generator) -> np.ndarray:
    if d < 1:
        raise ZeroDimensional("sphere needs d >= 1")
    while True:
        g = rng.standard_normal(d)
        n = np.linalg.norm(g)
        if n > 0:
            return g / n


def sample_uniform_subsphere(s: Subspace, rng: np.random.Generator) -> np.ndarray:
    return s.basis.T @ sample_uniform_sphere(s.dim, rng)


def sample_grassmannians(k: int, d: int, rngs) -> np.ndarray:
    """An s x k x d stack of row bases of uniform (rotation-invariant) random
    k-dimensional subspaces of R^d, one k x d Gaussian draw from each of the
    s generators in rngs, in their order, and one haar_frames call."""
    if not (1 <= k <= d):
        raise DimensionMismatch("need 1 <= k <= d")
    g = np.empty((len(rngs), k, d))
    for rng, out in zip(rngs, g):
        rng.standard_normal(out=out)
    return haar_frames(g.transpose(0, 2, 1))


def sample_grassmannian(k: int, d: int, rng: np.random.Generator) -> Subspace:
    """Uniform (rotation-invariant) random k-dimensional subspace of R^d."""
    return Subspace(ambient_dim=d, dim=k, basis=sample_grassmannians(k, d, [rng])[0])


class _Lapack(NamedTuple):
    """The LAPACK the package calls: the OpenBLAS function that sets the
    thread count of the library the routines run in (None where that library
    is not found), its Fortran integer as a ctypes type, and each routine by
    name."""

    set_threads: Callable[[int], None] | None
    integer: type
    routines: dict


# each routine called, with its count of by-reference arguments and of
# one-letter character arguments, whose hidden lengths follow the rest
_ROUTINES = {
    "dorgqr": (9, 0),
    "dgeqrf": (8, 0),
    "dormqr": (13, 2),
    "dtrtri": (6, 2),
    "dlasq1": (5, 0),
}


def _prototype(name: str):
    refs, chars = _ROUTINES[name]
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * refs, *[ctypes.c_size_t] * chars)


def _thread_setter(lib: ctypes.CDLL, name: str):
    set_threads = getattr(lib, name)
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    return set_threads


def _load_lapack(numpy_file: str = np.__file__) -> _Lapack:
    """numpy's bundled OpenBLAS, found beside the numpy package as
    numpy.libs/libscipy_openblas64_*.so: the library that already serves
    every np.linalg call and matrix product, whose LAPACK routines are
    exported as scipy_<name>_64_ with 64-bit integers.

    Where it is not found (a numpy built against another BLAS), the routines
    come from the table scipy.linalg.cython_lapack exports to Cython, with
    32-bit integers: scipy's own LAPACK, the one scipy.linalg.qr and
    scipy.linalg.lapack call, whose threads are those of the OpenBLAS scipy
    bundles as scipy.libs/libscipy_openblas-*.so.
    """
    libs = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(numpy_file))),
                        "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        lib = ctypes.CDLL(path)
        return _Lapack(_thread_setter(lib, "scipy_openblas_set_num_threads64_"), ctypes.c_int64,
                       {name: _prototype(name)(("scipy_%s_64_" % name, lib)) for name in _ROUTINES})
    import scipy
    from scipy.linalg import cython_lapack

    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    routines = {}
    for name in _ROUTINES:
        capsule = cython_lapack.__pyx_capi__[name]
        routines[name] = _prototype(name)(get_pointer(capsule, get_name(capsule)))
    libs = os.path.join(os.path.dirname(os.path.dirname(scipy.__file__)), "scipy.libs")
    paths = sorted(glob.glob(os.path.join(libs, "libscipy_openblas-*.so")))
    set_threads = (_thread_setter(ctypes.CDLL(paths[0]), "scipy_openblas_set_num_threads")
                   if paths else None)
    return _Lapack(set_threads, ctypes.c_int, routines)


# chosen once, at import; nothing selects the fallback but its absence
_LAPACK = _load_lapack()


def _lapack_array(name: str, x: np.ndarray):
    """Raise ValueError unless x is a stack LAPACK name can take: float64
    slices along its first axis, each Fortran-contiguous."""
    if not (x.dtype == np.float64 and x.ndim >= 2 and x[0].flags.f_contiguous):
        raise ValueError("LAPACK %s takes contiguous float64 arrays" % name)


def _lapack(name: str, *args, lwork=None) -> list:
    """Call a LAPACK routine once per slice of its array arguments, which
    are stacks along their first axis, and return each call's info, raising
    ValueError when one reports an illegal argument.  Each argument goes by
    reference: an int as the library's integer and a one-letter str as a
    character, each converted to ctypes once for the whole stack, and an
    array slice as its data, which must be contiguous float64.  A stack of
    one slice serves every call, as the workspace does: with lwork, one of
    that many values and its size follow the arguments of every call.
    """
    if lwork is not None:
        args += (np.empty((1, max(1, lwork))), lwork)
    calls = max(x.shape[0] for x in args if isinstance(x, np.ndarray))
    keep = []
    # (address, step): slice i of a stack is at its address plus i steps,
    # and a scalar or a stack of one slice has step 0
    refs = []
    for x in args:
        if isinstance(x, np.ndarray):
            _lapack_array(name, x)
            if x.shape[0] not in (1, calls):
                raise ValueError("LAPACK %s takes stacks of one length" % name)
            refs.append((x.ctypes.data, x.strides[0] if x.shape[0] > 1 else 0))
        else:
            keep.append(ctypes.c_char(x.encode()) if isinstance(x, str) else _LAPACK.integer(x))
            refs.append((ctypes.addressof(keep[-1]), 0))
    chars = [1] * sum(isinstance(x, str) for x in args)
    info = _LAPACK.integer(0)
    infos = []
    for i in range(calls):
        _LAPACK.routines[name](*[base + i * step for base, step in refs],
                               ctypes.addressof(info), *chars)
        if info.value < 0:
            raise ValueError("illegal value in argument %d of LAPACK %s" % (-info.value, name))
        infos.append(info.value)
    return infos


def use_one_blas_thread():
    """Run the OpenBLAS that _lapack calls on one thread from here on, so
    factorizations round alike at any OPENBLAS_NUM_THREADS: numpy's bundled
    library, which also serves numpy's products, or on the fallback scipy's
    own.  Where the fallback finds no scipy OpenBLAS it pins nothing, and
    bytes are promised at one BLAS thread only."""
    if _LAPACK.set_threads is not None:
        _LAPACK.set_threads(1)


def householder_kernel(rows: np.ndarray):
    """(q, r_inv) for an n x d array of rows, n < d, from a complete
    Householder QR rows^T = Q R: q is Q's last column, which spans the kernel
    when n = d - 1, and r_inv the inverse of R's leading n x n triangle,
    whose strictly lower part still holds the Householder vectors.  None
    when LAPACK reports a failure, as for a singular R."""
    n, d = rows.shape
    qr = np.array(rows.T, order="F")
    tau = np.empty(n)
    # a workspace of 32 columns lets LAPACK take its blocked path
    if _lapack("dgeqrf", d, n, qr[None], d, tau[None], lwork=32 * d)[0]:
        return None
    q = np.zeros(d)
    q[-1] = 1.0
    _lapack("dormqr", "L", "N", d, 1, n, qr[None], d, tau[None], q[None], d, lwork=1)
    r_inv = np.array(qr[:n], order="F")
    if _lapack("dtrtri", "U", "N", n, r_inv[None], n)[0]:
        return None
    return q, r_inv


def gaussian_singular_values(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """The d singular values, in decreasing order, of an n x d matrix with
    independent N(0, 1) entries, drawn from their exact law without the matrix.

    Householder bidiagonalization of that matrix gives an upper bidiagonal B
    with independent entries B_ii ~ chi_{n-i+1} and B_{i,i+1} ~ chi_{d-i}:
    each reflection takes the rest of a column or row, still Gaussian and
    independent of what came before, to its norm (J. W. Silverstein, Ann.
    Probab. 13, 1985; I. Dumitriu and A. Edelman, J. Math. Phys. 43, 2002).
    One call draws those 2d - 1 values, and LAPACK dlasq1, the routine that
    gesdd ends in once it has reduced a matrix to B, returns B's singular
    values: O(d) draws and O(d^2) work, where the dense matrix takes n d
    draws and an O(n d^2) reduction.
    """
    if not n >= d >= 1:
        raise DimensionMismatch("need n >= d >= 1, got n=%d, d=%d" % (n, d))
    df = np.concatenate((np.arange(n, n - d, -1), np.arange(d - 1, 0, -1)))
    # B's diagonal, then its superdiagonal padded to the length d dlasq1 takes
    b = np.zeros(2 * d)
    b[:-1] = np.sqrt(rng.chisquare(df))
    # dlasq1(n, d, e, work, info): the singular values of the n x n upper
    # bidiagonal matrix with diagonal d and superdiagonal e, to high relative
    # accuracy, written over d in decreasing order; e (length n) and work
    # (length 4n) are workspace, and info is nonzero when it failed
    info, = _lapack("dlasq1", d, b[None, :d], b[None, d:], np.empty((1, 4 * d)))
    if info:
        raise NullstreamError("LAPACK dlasq1 failed with info = %d" % info)
    return b[:d]
