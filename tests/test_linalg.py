import ctypes
import glob
import hashlib
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from nullstream import linalg
from nullstream.errors import (
    DegenerateInput,
    DimensionMismatch,
    NullstreamError,
    RankDeficient,
    ValidationError,
    ZeroDimensional,
)
from nullstream.verification import first_coord_cdf

ATOL = 1e-10


def test_orthonormalize_already_orthonormal():
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    s = linalg.orthonormalize([e1, e2])
    assert s.dim == 2
    v = np.array([1.0, 2.0, 3.0])
    assert_allclose(s.basis.T @ (s.basis @ v), [1.0, 2.0, 0.0], atol=ATOL)


def test_orthonormalize_rank_deficient_input():
    e1 = np.array([1.0, 0.0, 0.0])
    s = linalg.orthonormalize([e1, 2 * e1])
    assert s.dim == 1
    assert_allclose(np.abs(s.basis[0]), e1, atol=ATOL)


def _qr_inputs():
    rng = np.random.default_rng(5)
    low = rng.standard_normal((40, 7)) @ rng.standard_normal((7, 90))
    return {
        "random": rng.standard_normal((30, 80)),
        "square": rng.standard_normal((50, 50)),
        "rank-deficient": low,
        "repeated-rows": np.vstack([low[:5], low[:5], 3.0 * low[:2]]),
        "one-row": rng.standard_normal((1, 20)),
    }


def test_orthonormalize_gaussian_rank_matches_svd_rank():
    # oracle: independent SVD rank count
    rng = np.random.default_rng(7)
    cases = {"gaussian-%d" % i: rng.standard_normal((5, 10)) for i in range(20)}
    cases.update(_qr_inputs())
    for name, m in cases.items():
        s = linalg.orthonormalize(m)
        assert s.dim == np.linalg.matrix_rank(m)
        if name in ("rank-deficient", "repeated-rows"):
            assert s.dim < m.shape[0]
        # span check: every input row is reproduced by projection
        for row in m:
            assert_allclose(s.basis.T @ (s.basis @ row), row,
                            rtol=0, atol=1e-12 * np.linalg.norm(row))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_orthonormalize_refuses_nan_or_inf_before_its_svd(bad):
    m = np.eye(4)[:3].copy()
    m[1, 2] = bad
    with pytest.raises(ValidationError, match="NaN or an infinity"):
        linalg.orthonormalize(m)


def test_orthonormalize_rejects_zero_input():
    with pytest.raises(DegenerateInput):
        linalg.orthonormalize(np.zeros((3, 6)))


def test_project_trivial_cases():
    s = linalg.orthonormalize([np.array([1.0, 0.0])])
    v = np.array([3.0, 4.0])
    assert_allclose(s.basis.T @ (s.basis @ v), [3.0, 0.0], atol=ATOL)
    full = linalg.orthonormalize(np.eye(5))
    v = np.arange(5.0)
    assert_allclose(full.basis.T @ (full.basis @ v), v, atol=ATOL)


def _complement(s):
    # complements of a stack of one, as a checked Subspace
    d = s.ambient_dim
    return linalg.Subspace(d, d - s.dim, linalg.complements(s.basis[None])[0])


def _chordal(u, v):
    # chordal_distances of one pair of subspaces
    return float(linalg.chordal_distances(u.basis[None], v.basis[None])[0])


def test_complement_small():
    s = linalg.orthonormalize([np.array([1.0, 0.0])])
    c = _complement(s)
    assert c.dim == 1
    assert_allclose(np.abs(c.basis[0]), [0.0, 1.0], atol=ATOL)


def test_complement_involution_and_orthogonality():
    rng = np.random.default_rng(3)
    s = linalg.sample_grassmannian(3, 8, rng)
    c = _complement(s)
    assert c.dim == 5
    assert np.abs(c.basis @ s.basis.T).max() < 1e-10
    cc = _complement(c)
    assert _chordal(cc, s) < 1e-8


def test_complement_edge_dims():
    full = linalg.orthonormalize(np.eye(4))
    c = _complement(full)
    assert c.dim == 0
    assert _complement(c).dim == 4


def test_kernel_vector_axis_cases():
    e = np.eye(3)
    assert_allclose(linalg.kernel_vector(e[:2]), e[2], atol=ATOL)
    assert_allclose(linalg.kernel_vector(e[1:]), e[0], atol=ATOL)


def test_kernel_vector_gaussian_residuals():
    # oracle: scipy null_space on the same matrix
    rng = np.random.default_rng(5)
    d = 20
    m = rng.standard_normal((d - 1, d))
    w = linalg.kernel_vector(m)
    assert abs(np.linalg.norm(w) - 1.0) < 1e-10
    assert np.abs(m @ w).max() < 1e-10
    ns = scipy.linalg.null_space(m)[:, 0]
    assert_allclose(np.abs(w @ ns), 1.0, atol=1e-9)


def test_kernel_vector_sign_convention():
    rng = np.random.default_rng(9)
    for _ in range(20):
        m = rng.standard_normal((7, 8))
        w = linalg.kernel_vector(m)
        lead = w[np.abs(w) > 1e-12][0]
        assert lead > 0


def test_kernel_vector_rank_deficient():
    m = np.zeros((3, 4))
    m[0, 0] = m[1, 1] = 1.0
    m[2] = m[0]
    with pytest.raises(RankDeficient):
        linalg.kernel_vector(m)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_kernel_vector_refuses_nan_or_inf_before_its_svd(bad):
    # numpy's SVD raises a bare LinAlgError on a NaN and may not return on an
    # infinity, so the refusal has to come first
    m = np.eye(4)[:3].copy()
    m[1, 2] = bad
    with pytest.raises(ValidationError, match="NaN or an infinity"):
        linalg.kernel_vector(m)


def test_chordal_distance_matches_planted_rotation():
    # one principal angle alpha, so the distance is sin(alpha)
    alpha = 0.3
    u = linalg.orthonormalize([np.array([1.0, 0.0, 0.0])])
    v = linalg.orthonormalize([np.array([np.cos(alpha), np.sin(alpha), 0.0])])
    assert_allclose(_chordal(u, v), np.sin(alpha), atol=1e-12)


def test_chordal_distance_dim_mismatch():
    u = linalg.orthonormalize([np.array([1.0, 0.0, 0.0])])
    v = linalg.orthonormalize(np.eye(3)[:2])
    with pytest.raises(DimensionMismatch):
        _chordal(u, v)


def test_chordal_distance_small_cases():
    e = np.eye(3)
    u = linalg.orthonormalize([e[0]])
    v = linalg.orthonormalize([e[1]])
    assert _chordal(u, u) == 0.0
    assert_allclose(_chordal(u, v), 1.0, atol=ATOL)


def _chordal_by_svd(u, v):
    # the reference: the residual's singular values are the sines of the
    # principal angles, clipped to [0, 1]
    resid = u.basis - (u.basis @ v.basis.T) @ v.basis
    sines = np.clip(np.linalg.svd(resid, compute_uv=False), 0.0, 1.0)
    return float(np.sqrt(np.sum(sines**2)))


@pytest.mark.parametrize("k, d", [(1, 2), (3, 8), (16, 32), (63, 64), (100, 256), (300, 1024)])
def test_chordal_distance_is_the_svd_formula(k, d):
    rng = np.random.default_rng(k + d)
    u = linalg.sample_grassmannian(k, d, rng)
    v = linalg.sample_grassmannian(k, d, rng)
    assert_allclose(_chordal(u, v), _chordal_by_svd(u, v), rtol=1e-14, atol=0)


@pytest.mark.parametrize("angle", [1e-3, 1e-6, 1e-9])
def test_chordal_distance_is_the_svd_formula_near_identical_subspaces(angle):
    # v is u with its span tilted by about angle, so every principal angle is
    # at most about angle and the distance is far below 1
    rng = np.random.default_rng(7)
    u = linalg.sample_grassmannian(12, 40, rng)
    v = linalg.orthonormalize(u.basis + angle * rng.standard_normal((12, 40)))
    dist = _chordal(u, v)
    assert 0.0 < dist < 100 * angle
    assert_allclose(dist, _chordal_by_svd(u, v), rtol=1e-14, atol=0)


@pytest.mark.parametrize("d", [8, 16, 32])
def test_chordal_complement_symmetry(d):
    rng = np.random.default_rng(100 + d)
    for _ in range(100):
        u = linalg.sample_grassmannian(d // 2, d, rng)
        v = linalg.sample_grassmannian(d // 2, d, rng)
        lhs = _chordal(u, v)
        rhs = _chordal(_complement(u), _complement(v))
        assert abs(lhs - rhs) <= 1e-8


def test_chordal_triangle_inequality():
    rng = np.random.default_rng(21)
    for _ in range(50):
        d = int(rng.integers(4, 21))
        k = int(rng.integers(1, d // 2 + 1))
        a = linalg.sample_grassmannian(k, d, rng)
        b = linalg.sample_grassmannian(k, d, rng)
        c = linalg.sample_grassmannian(k, d, rng)
        assert _chordal(a, c) <= (
            _chordal(a, b) + _chordal(b, c) + 1e-9
        )


def test_singular_value_decomposition_consistency():
    # ||M sum(lambda_i v_i)||^2 = sum(lambda_i^2 sigma_i^2) for right singular
    # vectors v_i, checked against numpy's SVD factors.
    rng = np.random.default_rng(19)
    m = rng.standard_normal((9, 6))
    _, svals, vt = np.linalg.svd(m, full_matrices=False)
    lam = rng.standard_normal(svals.size)
    v = vt.T @ lam
    lhs = np.linalg.norm(m @ v) ** 2
    rhs = np.sum(lam**2 * svals**2)
    assert abs(lhs - rhs) <= 1e-8 * max(1.0, rhs)


def test_sample_sphere_d1_signs():
    rng = np.random.default_rng(37)
    vals = [linalg.sample_uniform_sphere(1, rng)[0] for _ in range(200)]
    assert set(np.sign(vals)) == {-1.0, 1.0}
    assert all(abs(abs(v) - 1.0) < 1e-12 for v in vals)


def test_sample_sphere_coordinate_means():
    rng = np.random.default_rng(41)
    samples = np.array([linalg.sample_uniform_sphere(16, rng) for _ in range(10**5)])
    assert np.abs(samples.mean(axis=0)).max() < 0.02


def test_sample_subsphere_stays_in_span():
    rng = np.random.default_rng(43)
    s = linalg.orthonormalize(np.eye(4)[:2])
    for _ in range(50):
        x = linalg.sample_uniform_subsphere(s, rng)
        assert abs(np.linalg.norm(x) - 1.0) < 1e-12
        assert x[2] == 0.0 and x[3] == 0.0
    with pytest.raises(ZeroDimensional):
        linalg.sample_uniform_subsphere(_complement(linalg.orthonormalize(np.eye(3))), rng)


def test_sample_grassmannian_full_space():
    rng = np.random.default_rng(47)
    s = linalg.sample_grassmannian(4, 4, rng)
    assert _chordal(s, linalg.orthonormalize(np.eye(4))) < 1e-8


def test_sample_grassmannian_mean_squared_chordal():
    # E sum sin^2(theta_i) = k(d-k)/d for independent uniform pairs
    rng = np.random.default_rng(53)
    d = 40
    vals = []
    for _ in range(200):
        u = linalg.sample_grassmannian(d // 2, d, rng)
        v = linalg.sample_grassmannian(d // 2, d, rng)
        vals.append(_chordal(u, v) ** 2)
    mean = np.mean(vals)
    assert abs(mean - d / 4) < 0.1 * (d / 4)


def test_sample_grassmannian_line_angle_uniform():
    # angle between a uniform line in R^2 and e1 is uniform on [0, pi/2]
    rng = np.random.default_rng(59)
    e1 = linalg.orthonormalize([np.array([1.0, 0.0])])
    angles = [
        np.arccos(min(1.0, abs(linalg.sample_grassmannian(1, 2, rng).basis[0] @ e1.basis[0])))
        for _ in range(2000)
    ]
    stat = scipy.stats.kstest(angles, scipy.stats.uniform(loc=0.0, scale=np.pi / 2).cdf).statistic
    assert stat < 0.05


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 24))
def test_projection_idempotent_and_pythagoras(seed, d):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, d + 1))
    s = linalg.sample_grassmannian(k, d, rng)
    v = rng.standard_normal(d)
    c = _complement(s)
    p = s.basis.T @ (s.basis @ v)
    assert_allclose(s.basis.T @ (s.basis @ p), p, atol=1e-10)
    q = c.basis.T @ (c.basis @ v)
    assert abs(np.dot(p, p) + np.dot(q, q) - np.dot(v, v)) <= 1e-9
    assert np.linalg.norm(p) <= np.linalg.norm(v) + 1e-12


def _wide_range_matrix(rows, d, seed):
    # Gaussians scaled over 200 decades, so the sums of squares round often
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, d)) * 10.0 ** rng.uniform(-100, 100, (rows, d))


@pytest.mark.parametrize("d", [1, 3, 64, 1000, 1024])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_row_norms_match_numpy_norm_at_block_edges(d, offset):
    rows = max(1, linalg.BLOCK_VALUES // d) + offset
    m = _wide_range_matrix(rows, d, seed=d)
    assert np.array_equal(linalg.row_norms(m), np.linalg.norm(m, axis=1))


@pytest.mark.parametrize("rows", [1, 2, 5])
def test_row_norms_match_numpy_norm_past_one_block_per_row(rows):
    m = _wide_range_matrix(rows, linalg.BLOCK_VALUES + 3, seed=rows)
    assert np.array_equal(linalg.row_norms(m), np.linalg.norm(m, axis=1))


def test_row_norms_of_several_blocks_and_views():
    m = _wide_range_matrix(7 * (linalg.BLOCK_VALUES // 64) // 2, 64, seed=11)
    assert np.array_equal(linalg.row_norms(m), np.linalg.norm(m, axis=1))
    assert np.array_equal(linalg.row_norms(m[::3, 1:]), np.linalg.norm(m[::3, 1:], axis=1))
    assert np.array_equal(linalg.row_norms(m.T), np.linalg.norm(m.T, axis=1))
    assert linalg.row_norms(np.zeros((0, 4))).shape == (0,)


@pytest.mark.parametrize("d, k", [(2, 1), (10, 9), (32, 5), (64, 31), (128, 64)])
def test_complement_bytes_equal_scipy_full_qr(d, k):
    s = linalg.sample_grassmannian(k, d, np.random.default_rng(d + k))
    q, _ = scipy.linalg.qr(s.basis.T, mode="full")
    c = _complement(s)
    assert c.dim == d - k
    assert c.basis.flags.c_contiguous
    assert c.basis.tobytes() == q[:, k:].T.tobytes()


def _scipy_dlasq1():
    """dlasq1 from the table scipy.linalg.cython_lapack exports to Cython,
    with 32-bit integers."""
    from scipy.linalg import cython_lapack

    capsule = cython_lapack.__pyx_capi__["dlasq1"]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    int_p, double_p = ctypes.POINTER(ctypes.c_int), ctypes.POINTER(ctypes.c_double)
    return ctypes.CFUNCTYPE(None, int_p, double_p, double_p, double_p, int_p)(
        get_pointer(capsule, get_name(capsule)))


@pytest.mark.parametrize("n, d", [(1, 1), (3, 2), (48, 48), (64, 32), (300, 256)])
def test_gaussian_singular_values_bytes_equal_scipy_dlasq1(n, d):
    dlasq1 = _scipy_dlasq1()
    double_p = ctypes.POINTER(ctypes.c_double)
    df = np.concatenate((np.arange(n, n - d, -1), np.arange(d - 1, 0, -1)))
    for seed in range(20):
        b = np.zeros(2 * d)
        b[:-1] = np.sqrt(np.random.default_rng(seed).chisquare(df))
        info = ctypes.c_int(0)
        dlasq1(ctypes.byref(ctypes.c_int(d)), b[:d].ctypes.data_as(double_p),
               b[d:].ctypes.data_as(double_p), np.empty(4 * d).ctypes.data_as(double_p),
               ctypes.byref(info))
        assert info.value == 0
        s = linalg.gaussian_singular_values(n, d, np.random.default_rng(seed))
        assert s.tobytes() == b[:d].tobytes()


def _lapack_outputs():
    """The bytes of each LAPACK path in linalg on fixed inputs."""
    rng = np.random.default_rng(9)
    out = []
    out.append(linalg.sample_grassmannian(600, 1024, rng).basis.tobytes())
    rows = rng.standard_normal((63, 64))
    out += [x.tobytes() for x in linalg.householder_kernel(rows)]
    out.append(linalg.gaussian_singular_values(64, 32, rng).tobytes())
    return out


@pytest.fixture
def scipy_blas_on_one_thread():
    """scipy's own OpenBLAS on one thread, as conftest runs numpy's: at
    1024 x 600 each library splits dorgqr across threads, which rounds
    differently, so the two are compared at one thread each."""
    scipy_libs = os.path.join(os.path.dirname(os.path.dirname(scipy.__file__)), "scipy.libs")
    paths = glob.glob(os.path.join(scipy_libs, "libscipy_openblas*.so"))
    if not paths:
        yield
        return
    lib = ctypes.CDLL(paths[0])
    before = lib.scipy_openblas_get_num_threads()
    lib.scipy_openblas_set_num_threads(1)
    yield
    lib.scipy_openblas_set_num_threads(before)


def _fallback(tmp_path):
    # a numpy with no bundled OpenBLAS beside it: the routines come from
    # scipy.linalg's own LAPACK, with 32-bit integers
    return linalg._load_lapack(str(tmp_path / "numpy" / "__init__.py"))


def test_fallback_lapack_gives_the_same_bytes(monkeypatch, tmp_path, scipy_blas_on_one_thread):
    fallback = _fallback(tmp_path)
    assert fallback.integer is ctypes.c_int
    bundled = _lapack_outputs()
    monkeypatch.setattr(linalg, "_LAPACK", fallback)
    assert _lapack_outputs() == bundled
    linalg.use_one_blas_thread()


# a fresh interpreter at OPENBLAS_NUM_THREADS=2 that takes the fallback, pins
# it with use_one_blas_thread and prints the sha256 of each LAPACK output
FALLBACK_AT_TWO_THREADS = """
import hashlib, sys
from nullstream import linalg
linalg._LAPACK = linalg._load_lapack(sys.argv[1])
linalg.use_one_blas_thread()
from test_linalg import _lapack_outputs
for out in _lapack_outputs():
    print(hashlib.sha256(out).hexdigest())
"""


def test_fallback_bytes_do_not_depend_on_blas_threads(monkeypatch, tmp_path,
                                                       scipy_blas_on_one_thread):
    monkeypatch.setattr(linalg, "_LAPACK", _fallback(tmp_path))
    one = [hashlib.sha256(out).hexdigest() for out in _lapack_outputs()]
    src = os.path.dirname(os.path.dirname(linalg.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join([src, os.path.dirname(__file__)]))
    proc = subprocess.run(
        [sys.executable, "-c", FALLBACK_AT_TWO_THREADS, str(tmp_path / "numpy" / "__init__.py")],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == one


def test_lapack_refuses_a_strided_array():
    # haar_frame scales its draw in place before its one LAPACK call, so it
    # refuses a strided or non-float64 array before it writes a value
    draw = np.random.default_rng(0).standard_normal((8, 8))
    before = draw.copy()
    for a in (draw[:, ::2], np.asfortranarray(draw, dtype=np.float32)):
        with pytest.raises(ValueError, match="contiguous"):
            linalg.haar_frame(a)
    assert np.array_equal(draw, before)


@pytest.mark.parametrize("order", ["C", "F"])
def test_orthonormalize_leaves_its_argument_unchanged(order):
    m = np.array(_qr_inputs()["random"], order=order)
    before = m.copy()
    linalg.orthonormalize(m)
    assert np.array_equal(m, before)
    rows = m.tolist()
    linalg.orthonormalize(rows)
    assert rows == before.tolist()


@pytest.mark.parametrize("k, d", [(7, 40), (32, 64), (600, 1024)])
def test_sample_grassmannian_is_the_haar_frame_of_its_draw(k, d):
    # a k x d orthonormal basis made from exactly one k x d Gaussian draw,
    # the same bytes from the same draw; its law is the Haar tests' below
    rng = np.random.default_rng(3)
    s = linalg.sample_grassmannian(k, d, rng)
    assert s.dim == k and s.basis.shape == (k, d)
    assert np.abs(s.basis @ s.basis.T - np.eye(k)).max() <= 1e-13
    again = np.random.default_rng(3)
    frame = linalg.haar_frame(again.standard_normal((k, d)).T)
    assert frame.basis.tobytes() == s.basis.tobytes()
    assert rng.random() == again.random()


# (k, d) of the frames the certificates draw as stacks: comorth's at d = 32
# (k = 1, 16 and 31 of its 31 values), and no-joint-sol's at d = 64, its
# probe in V1-perp (4 x 32), U (31 x 64) and V (32 x 64); 17 frames, past
# two no-joint-sol chunks of 8 at d = 64.  The pins are the sha256 of 17 pairs (U_i, V_i) of
# per-subspace haar_frame bytes, U's complements, and the chordal distances
# of the pairs and of their complements, made one subspace at a time by the
# code before it took stacks
STACK_SHAPES = {
    (1, 32): "85ac1a0e45579623d6278d11af318b1c465b96e6da63e817cdf4adee8e811b3d",
    (16, 32): "3775ce8d50cf8870d428b0bc851c73e8e1f6313c2ba107cc13d8107b14babfef",
    (31, 32): "097201f9144d9d8e2939d4498bf7f73e581f92c7366786fca45991de14dc58b8",
    (4, 32): "51176359b0fc7c8a1245e99f43e2640a67ef74fee42be6f49232a3efeb1a278c",
    (31, 64): "0ea03c6e2da88654ab9286cb9d03deba0ddf225b058ad73281dff19f83c2c8be",
    (32, 64): "200a4dcb7b2f345350bb79023d484ee27ad88a91ecf20d49e428c4c605080690",
}
STACK = 17


def _one_at_a_time(draws):
    return [linalg.haar_frame(np.array(g.T, order="F")) for g in draws]


@pytest.mark.parametrize("k, d", sorted(STACK_SHAPES))
def test_stacked_kernels_equal_their_one_subspace_calls(k, d):
    draws = np.random.default_rng(k * d).standard_normal((2, STACK, k, d))
    u, v = _one_at_a_time(draws[0]), _one_at_a_time(draws[1])
    stacks = [linalg.haar_frames(g.copy().transpose(0, 2, 1)) for g in draws]
    assert [f.tobytes() for f in stacks[0]] == [s.basis.tobytes() for s in u]
    assert [f.tobytes() for f in stacks[1]] == [s.basis.tobytes() for s in v]
    perp = [linalg.complements(f) for f in stacks]
    assert [c.tobytes() for c in perp[0]] == [_complement(s).basis.tobytes() for s in u]
    assert all(c.flags.c_contiguous for c in perp[0])
    near = linalg.chordal_distances(*stacks)
    far = linalg.chordal_distances(*perp)
    assert near.tolist() == [_chordal(a, b) for a, b in zip(u, v)]
    assert far.tolist() == [_chordal(_complement(a), _complement(b))
                            for a, b in zip(u, v)]
    digest = hashlib.sha256()
    for s in u + v + [_complement(s) for s in u]:
        digest.update(s.basis.tobytes())
    digest.update(near.tobytes())
    digest.update(far.tobytes())
    assert digest.hexdigest() == STACK_SHAPES[k, d]


def test_sample_grassmannians_draws_as_the_one_subspace_calls():
    # one k x d draw from each generator, in their order, and the bytes of
    # sample_grassmannian from each generator on its own
    rngs = [np.random.default_rng((4, t)) for t in range(5)]
    again = [np.random.default_rng((4, t)) for t in range(5)]
    stack = linalg.sample_grassmannians(7, 40, rngs * 2)
    one = [linalg.sample_grassmannian(7, 40, rng) for rng in again * 2]
    assert [f.tobytes() for f in stack] == [s.basis.tobytes() for s in one]
    assert [rng.random() for rng in rngs] == [rng.random() for rng in again]
    with pytest.raises(DimensionMismatch):
        linalg.sample_grassmannians(41, 40, rngs)


# sha256 of each output of _lapack_outputs, made by the code before _lapack
# took stacks: the 600 x 1024 frame is a stack of one, as sweep-proj draws it
LAPACK_OUTPUT_PINS = [
    "7c7522f1b72cff5d5821c0e930871ce529256f2bb933e7bee43c038d97bbad39",
    "df96a3b4c321013f2d17000e9c685bff8590390f2acdea274d61dfb34a714e99",
    "f43a277abcf9cd3b1034332c653792396c6397d4990144aff0f37e1376c4717c",
    "1c7512553f2bfc9c996ce25a9e9df48613167d524ad975bde4396ed357fb607a",
]


def test_lapack_outputs_keep_their_bytes():
    assert [hashlib.sha256(out).hexdigest() for out in _lapack_outputs()] == LAPACK_OUTPUT_PINS


def test_lapack_refuses_stacks_of_two_lengths():
    # three 4 x 2 Fortran-ordered slices against two tau vectors: refused
    # before a call reads past the shorter stack
    a = np.zeros((3, 2, 4)).transpose(0, 2, 1)
    with pytest.raises(ValueError, match="one length"):
        linalg._lapack("dorgqr", 4, 2, 2, a, 4, np.zeros((2, 2)), lwork=64)


# the Haar test: over HAAR_DRAWS frames at (HAAR_K, HAAR_D), Q[0, 0] and
# Q[0, HAAR_K - 1] are each the first coordinate of a uniform unit vector in
# R^HAAR_D, which a KS test at level HAAR_ALPHA must not reject.  Q[0, 0]
# depends on the first Householder reflector alone, the last frame vector on
# every one of them
HAAR_K, HAAR_D, HAAR_DRAWS, HAAR_ALPHA = 3, 16, 4000, 1e-3


def _haar_pvalue(first_coords):
    return scipy.stats.kstest(first_coords, lambda x: first_coord_cdf(HAAR_D, x)).pvalue


def _draws():
    rng = np.random.default_rng(23)
    return [rng.standard_normal((HAAR_K, HAAR_D)) for _ in range(HAAR_DRAWS)]


def _first_and_last_vector_pvalues(frames):
    return (_haar_pvalue([f.basis[0, 0] for f in frames]),
            _haar_pvalue([f.basis[HAAR_K - 1, 0] for f in frames]))


def test_sample_grassmannian_frame_is_haar():
    rng = np.random.default_rng(23)
    frames = [linalg.sample_grassmannian(HAAR_K, HAAR_D, rng) for _ in range(HAAR_DRAWS)]
    first, last = _first_and_last_vector_pvalues(frames)
    assert first > HAAR_ALPHA and last > HAAR_ALPHA


def test_frame_with_one_householder_input_fails_the_haar_test():
    # the planted control: every reflector built from the draw's first
    # column.  The first frame vector is untouched and passes; the last one
    # is not Haar, and the test must reject it
    frames = [linalg.haar_frame(np.array(np.repeat(g[:1], HAAR_K, axis=0).T, order="F"))
              for g in _draws()]
    first, last = _first_and_last_vector_pvalues(frames)
    assert first > HAAR_ALPHA
    assert last <= HAAR_ALPHA


def test_frame_without_the_sign_fix_fails_the_haar_test():
    # the planted control: a Householder QR of the same draws without the
    # sign fix.  Q_00 = 1 - tau_0 = a_00 / R_00 depends on the first
    # reflector alone, and dlarfg sets R_00 = -sign(a_00) |a_0|, so Q_00 is
    # never positive, and the test must reject it
    q00 = np.array([np.linalg.qr(g.T).Q[0, 0] for g in _draws()])
    assert np.all(q00 < 0)
    assert _haar_pvalue(q00) <= HAAR_ALPHA


def test_subspace_rejects_a_basis_off_orthonormal_by_more_than_tolerance():
    basis = np.eye(3)[:2].copy()
    linalg.Subspace(ambient_dim=3, dim=2, basis=basis)
    basis[1, 1] = 1.0 + 1e-9
    with pytest.raises(DegenerateInput):
        linalg.Subspace(ambient_dim=3, dim=2, basis=basis)
    basis[1, 1] = 1.0
    basis[0, 1] = -1e-9
    with pytest.raises(DegenerateInput):
        linalg.Subspace(ambient_dim=3, dim=2, basis=basis)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_subspace_rejects_a_basis_holding_nan_or_inf(bad):
    # NaN > tol is False, so the check must be one that NaN fails
    basis = np.eye(3)[:2].copy()
    basis[0, 0] = bad
    with warnings.catch_warnings(), pytest.raises(DegenerateInput):
        warnings.simplefilter("error")  # the refusal is all it says
        linalg.Subspace(ambient_dim=3, dim=2, basis=basis)


@pytest.mark.parametrize("n, d", [(1, 1), (3, 2), (48, 48), (300, 256)])
def test_gaussian_singular_values_match_dense_svd_of_their_bidiagonal(n, d):
    # the same chi draws laid out as the explicit dense B: chi_n, ...,
    # chi_{n-d+1} on the diagonal, then chi_{d-1}, ..., chi_1 above it
    df = np.concatenate((np.arange(n, n - d, -1), np.arange(d - 1, 0, -1)))
    chi = np.sqrt(np.random.default_rng(d).chisquare(df))
    b = np.diag(chi[:d]) + np.diag(chi[d:], 1)
    s = linalg.gaussian_singular_values(n, d, np.random.default_rng(d))
    assert s.shape == (d,)
    assert_allclose(s, np.linalg.svd(b, compute_uv=False), rtol=1e-13, atol=0)


def test_gaussian_singular_values_raise_when_dlasq1_reports_failure(monkeypatch):
    # a routine that leaves garbage in d and sets info must not be read; it
    # takes its integers as the library's (64-bit on numpy's bundled OpenBLAS)
    int_p = ctypes.POINTER(linalg._LAPACK.integer)
    double_p = ctypes.POINTER(ctypes.c_double)

    def failing(n, d, e, work, info):
        d = ctypes.cast(d, double_p)
        for i in range(ctypes.cast(n, int_p)[0]):
            d[i] = np.nan
        ctypes.cast(info, int_p)[0] = 2

    monkeypatch.setitem(linalg._LAPACK.routines, "dlasq1", linalg._prototype("dlasq1")(failing))
    with pytest.raises(NullstreamError, match="info = 2"):
        linalg.gaussian_singular_values(8, 4, np.random.default_rng(0))


@pytest.mark.parametrize("n, d", [(0, 0), (3, 4), (5, -1)])
def test_gaussian_singular_values_need_n_at_least_d_at_least_1(n, d):
    with pytest.raises(DimensionMismatch):
        linalg.gaussian_singular_values(n, d, np.random.default_rng(0))


# The chi-bidiagonal draw against the dense reference, np.linalg.svd of an
# n x d standard Gaussian draw: a two-sample KS test on sigma_min, sigma_max
# and sigma_{d/2}, SAME_LAW_TRIALS trials a side from fixed seeds, each
# feature judged at SAME_LAW_ALPHA.  The planted control lowers the diagonal
# degrees by one (chi_{n-1}, ..., chi_{n-d}), and the test must reject it.
SAME_LAW_TRIALS = 3000
SAME_LAW_ALPHA = 1e-3


class _DiagonalDegreesOneLow:
    """A generator whose chisquare draws the first d degrees one lower;
    chi_0 is 0."""

    def __init__(self, rng, d):
        self.rng, self.d = rng, d

    def chisquare(self, df):
        df = np.array(df)
        df[: self.d] -= 1
        out = np.zeros(df.size)
        out[df > 0] = self.rng.chisquare(df[df > 0])
        return out


def _same_law_pvalues(n, d, chi_rng):
    dense_rng = np.random.default_rng(1)
    dense = np.array([np.linalg.svd(dense_rng.standard_normal((n, d)), compute_uv=False)
                      for _ in range(SAME_LAW_TRIALS)])
    chi = np.array([linalg.gaussian_singular_values(n, d, chi_rng)
                    for _ in range(SAME_LAW_TRIALS)])
    features = {"sigma_min": -1, "sigma_max": 0, "sigma_mid": d // 2 - 1}
    return {k: scipy.stats.ks_2samp(dense[:, i], chi[:, i]).pvalue for k, i in features.items()}


@pytest.mark.parametrize("n, d", [(16, 16), (24, 12)])
def test_gaussian_singular_values_have_the_dense_law(n, d):
    pvalues = _same_law_pvalues(n, d, np.random.default_rng(2))
    assert min(pvalues.values()) > SAME_LAW_ALPHA, pvalues


@pytest.mark.parametrize("n, d", [(16, 16), (24, 12)])
def test_same_law_check_rejects_diagonal_degrees_one_low(n, d):
    pvalues = _same_law_pvalues(n, d, _DiagonalDegreesOneLow(np.random.default_rng(2), d))
    assert min(pvalues.values()) <= SAME_LAW_ALPHA, pvalues
