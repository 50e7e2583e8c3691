import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pencildil import (ContainmentViolation, NotHermitian, NotPSD,
                       SubspaceBasis, numerical_rank, orthocomplement_within,
                       orthonormal_range, projector, psd_sqrt)
from pencildil import linalg
from pencildil.linalg import (canonicalize_phases, hermitian_eigen,
                              left_singular, norm_bounds, norm_exceeds,
                              singular_values, spec_norm)


def complex_matrices(max_dim=4):
    dims = st.tuples(st.integers(1, max_dim), st.integers(1, max_dim))
    return dims.flatmap(lambda s: hnp.arrays(
        np.float64, (s[0], s[1], 2),
        elements=st.floats(-5, 5, allow_nan=False)).map(
            lambda a: a[..., 0] + 1j * a[..., 1]))


def test_orthonormal_range_identity():
    b = orthonormal_range(np.eye(2), tol=1e-10)
    assert b.dim == 2
    np.testing.assert_allclose(projector(b), np.eye(2), atol=1e-12)


def test_orthonormal_range_single_column():
    b = orthonormal_range(np.array([[1.0], [0.0], [0.0]]))
    np.testing.assert_allclose(b.basis, [[1.0], [0.0], [0.0]], atol=1e-14)


def test_orthonormal_range_rank_one():
    # SVD of [[1,1],[1,1]] by hand: rank 1, unit vector (1,1)/sqrt(2)
    b = orthonormal_range(np.ones((2, 2)), tol=1e-10)
    assert b.dim == 1
    s = 1.0 / math.sqrt(2.0)
    np.testing.assert_allclose(b.basis, [[s], [s]], atol=1e-14)


def test_orthonormal_range_zero_matrix_and_empty():
    assert orthonormal_range(np.zeros((3, 3))).dim == 0
    assert orthonormal_range(np.zeros((3, 0))).dim == 0


def test_canonical_phase_is_real_positive():
    m = np.array([[1j], [0.5j]])
    b = orthonormal_range(m)
    i = int(np.argmax(np.abs(b.basis[:, 0])))
    val = b.basis[i, 0]
    assert abs(val.imag) < 1e-14 and val.real > 0


def loop_canonicalize_phases(b):
    """Reference: one column at a time."""
    b = np.array(b, dtype=complex)
    for j in range(b.shape[1]):
        col = b[:, j]
        i = int(np.argmax(np.abs(col)))
        v = col[i]
        if np.abs(v) > 0:
            b[:, j] = col * (np.conj(v) / np.abs(v))
    return b


def test_canonicalize_phases_matches_the_column_loop_bitwise():
    rng = np.random.default_rng(8)
    cases = [np.zeros((3, 0)), np.zeros((0, 0)),
             np.array([[-0.0 - 0.0j, 1.0], [0.0 - 0.0j, 2.0j]])]
    for n in range(1, 9):
        for k in range(1, 6):
            for scale in (1e-200, 1.0, 1e200):
                b = scale * (rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k)))
                b[:, rng.random(k) < 0.3] = 0.0  # zero columns
                b[:, rng.random(k) < 0.3] *= -0.0  # signed zeros
                cases.append(b)
    for b in cases:
        assert canonicalize_phases(b).tobytes() == loop_canonicalize_phases(b).tobytes()


def test_orthocomplement_simple():
    a = SubspaceBasis(3, np.eye(3)[:, :2])
    b = SubspaceBasis(3, np.eye(3)[:, :1])
    c = orthocomplement_within(a, b)
    np.testing.assert_allclose(np.abs(c.basis), np.eye(3)[:, 1:2], atol=1e-14)


def test_orthocomplement_two_dim_by_hand():
    s = 1.0 / math.sqrt(2.0)
    a = SubspaceBasis.full(2)
    b = SubspaceBasis(2, np.array([[s], [s]]))
    c = orthocomplement_within(a, b)
    # complement of span{(1,1)}/sqrt(2) in C^2 is span{(1,-1)}/sqrt(2)
    np.testing.assert_allclose(c.basis, [[s], [-s]], atol=1e-14)


def test_orthocomplement_equal_spaces_is_empty():
    a = SubspaceBasis.full(3)
    assert orthocomplement_within(a, a).dim == 0


def test_orthocomplement_rejects_outside_vectors():
    a = SubspaceBasis(3, np.eye(3)[:, :1])
    b = SubspaceBasis(3, np.eye(3)[:, 2:3])
    with pytest.raises(ContainmentViolation):
        orthocomplement_within(a, b)


def test_projector_examples():
    np.testing.assert_allclose(projector(SubspaceBasis.empty(2)), np.zeros((2, 2)))
    np.testing.assert_allclose(projector(SubspaceBasis(2, np.eye(2)[:, :1])),
                               np.diag([1.0, 0.0]))
    s = 1.0 / math.sqrt(2.0)
    p = projector(SubspaceBasis(2, np.array([[s], [s]])))
    np.testing.assert_allclose(p, [[0.5, 0.5], [0.5, 0.5]], atol=1e-14)


def test_psd_sqrt_examples():
    np.testing.assert_allclose(psd_sqrt(np.eye(3)), np.eye(3), atol=1e-12)
    np.testing.assert_allclose(psd_sqrt(np.diag([4.0, 0.0])), np.diag([2.0, 0.0]),
                               atol=1e-12)
    # spectral decomposition of [[2,1],[1,2]] by hand: eigenpairs
    # (3, (1,1)/sqrt2) and (1, (1,-1)/sqrt2), so the root is
    # [[(sqrt3+1)/2, (sqrt3-1)/2], [(sqrt3-1)/2, (sqrt3+1)/2]]
    r3 = math.sqrt(3.0)
    expected = 0.5 * np.array([[r3 + 1, r3 - 1], [r3 - 1, r3 + 1]])
    np.testing.assert_allclose(psd_sqrt(np.array([[2.0, 1.0], [1.0, 2.0]])),
                               expected, atol=1e-12)


def test_psd_sqrt_errors():
    with pytest.raises(NotPSD):
        psd_sqrt(np.diag([1.0, -1.0]), tol=1e-10)
    with pytest.raises(NotHermitian):
        psd_sqrt(np.array([[1.0, 1.0], [0.0, 1.0]]), tol=1e-10)


def test_numerical_rank_examples():
    assert numerical_rank(np.zeros((4, 4)), 1e-10) == 0
    assert numerical_rank(np.eye(5), 1e-10) == 5
    assert numerical_rank(np.ones((2, 2)), 1e-10) == 1


def test_bit_identical_determinism():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    b1 = orthonormal_range(m)
    b2 = orthonormal_range(m)
    assert np.array_equal(b1.basis, b2.basis)
    r1 = psd_sqrt(m.conj().T @ m, tol=1e-8)
    r2 = psd_sqrt(m.conj().T @ m, tol=1e-8)
    assert np.array_equal(r1, r2)


def kernel_matrices(rng):
    """Random complex matrices: empty, 1 x n, n x 1, square and oblong ones
    (past LAPACK's blocking crossover of 128 too), rank-deficient and
    1e-14-scaled."""
    def gauss(m, n):
        return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))

    shapes = [(0, 0), (0, 3), (3, 0), (1, 1), (1, 5), (5, 1), (2, 2), (6, 6),
              (7, 3), (3, 7), (12, 12), (40, 9), (300, 40), (130, 140)]
    for m, n in shapes:
        yield gauss(m, n)
        yield 1e-14 * gauss(m, n)
        if min(m, n) > 1:
            yield gauss(m, 1) @ gauss(1, n)  # rank one
            yield gauss(m, 2) @ gauss(2, n)
    for n in range(1, 9):
        for _ in range(20):
            yield gauss(n, int(rng.integers(1, 9)))


def compare_kernels_to_numpy():
    rng = np.random.default_rng(71)
    for m in kernel_matrices(rng):
        s = np.linalg.svd(m, compute_uv=False)
        assert np.array_equal(singular_values(m), s)
        assert spec_norm(m) == (float(s[0]) if m.size else 0.0)
        u, s_thin, _ = np.linalg.svd(m, full_matrices=False)
        got_u, got_s = left_singular(m)
        assert got_u.shape == u.shape
        assert np.array_equal(got_u, u) and np.array_equal(got_s, s_thin)
        if m.shape[0] == m.shape[1]:
            h = m + m.conj().T
            w, v = np.linalg.eigh(h)
            got_w, got_v = hermitian_eigen(h)
            assert np.array_equal(got_w, w) and np.array_equal(got_v, v)


def test_direct_kernels_equal_numpy_bitwise():
    # The kernels call the LAPACK routines numpy.linalg calls, with its
    # options and workspace, so every result is numpy's bit for bit.  That
    # holds with one BLAS thread, as CI and the benchmark run: scipy and
    # numpy each bring their own OpenBLAS, whose threaded products on
    # larger matrices round differently.  So the comparison runs in a
    # fresh process with the thread counts pinned.
    pinned = dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                            "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                            "VECLIB_MAXIMUM_THREADS"), "1")
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here), str(here.parent / "src"),
                            os.environ.get("PYTHONPATH", "")])
    code = "import test_linalg; test_linalg.compare_kernels_to_numpy()"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path, **pinned))
    assert proc.returncode == 0, proc.stderr


def test_direct_kernels_raise_when_lapack_fails():
    bad = np.full((3, 3), np.nan + 0j)
    for kernel in (spec_norm, singular_values, left_singular, hermitian_eigen):
        with pytest.raises(np.linalg.LinAlgError):
            kernel(bad)


@settings(max_examples=30, deadline=None)
@given(complex_matrices())
def test_projector_of_range_fixes_matrix(m):
    p = projector(orthonormal_range(m))
    assert spec_norm(p @ m - m) <= 1e-9 * max(1.0, spec_norm(m))


@settings(max_examples=30, deadline=None)
@given(complex_matrices())
def test_psd_sqrt_squares_back(m):
    g = m.conj().T @ m
    root = psd_sqrt(g, tol=1e-8 * max(1.0, spec_norm(g)))
    assert spec_norm(root @ root - g) <= 1e-9 * max(1.0, spec_norm(g))


@settings(max_examples=30, deadline=None)
@given(complex_matrices(max_dim=5), st.integers(0, 3))
def test_complement_is_orthogonal_to_second_space(m, k):
    a = orthonormal_range(m)
    if a.dim == 0:
        return
    k = min(k, a.dim)
    b = orthonormal_range(a.basis[:, :k]) if k else SubspaceBasis.empty(a.ambient_dim)
    c = orthocomplement_within(a, b)
    assert c.dim == a.dim - b.dim
    if b.dim and c.dim:
        assert spec_norm(c.basis.conj().T @ b.basis) <= 1e-10


@st.composite
def threshold_cases(draw):
    """A complex matrix up to 12 x 12 (empty ones too) and a cutoff: random,
    rank-one or zero, at a random scale or with spectral norm
    tol (1 - 1e-9), tol or tol (1 + 1e-9), where only the SVD decides."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows, cols = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    shape = draw(st.sampled_from(["random", "rank-one", "zero"]))
    m = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    if shape == "rank-one":
        u, v = rng.standard_normal((rows, 1)), rng.standard_normal((1, cols))
        m = (u + 1j * u[::-1]) @ (v - 2j * v)
    elif shape == "zero":
        m = np.zeros((rows, cols), dtype=complex)
    tol = draw(st.sampled_from([0.0, 1e-12, 1e-8, 1.0, 5.0]))
    norm = spec_norm(m)
    if norm > 0 and tol > 0 and draw(st.booleans()):
        m = m * (tol * (1.0 + draw(st.sampled_from([-1e-9, 0.0, 1e-9]))) / norm)
    else:
        m = m * 10.0 ** draw(st.integers(-14, 3))
    return m, tol


@settings(max_examples=200, deadline=None)
@given(threshold_cases())
def test_norm_exceeds_is_the_svd_comparison(case):
    m, tol = case
    assert norm_exceeds(m, tol) == (spec_norm(m) > tol)
    low, high = norm_bounds(m)
    assert low <= spec_norm(m) * (1 + 1e-12) and spec_norm(m) <= high * (1 + 1e-12)


def test_norm_exceeds_takes_the_svd_only_between_its_bounds(monkeypatch):
    calls = []
    real = linalg._gesdd

    def counting(m, compute_uv):
        calls.append(m.shape)
        return real(m, compute_uv)

    monkeypatch.setattr(linalg, "_gesdd", counting)
    rng = np.random.default_rng(7)
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    m /= np.linalg.norm(m, 2)  # spectral norm 1, largest entry below 1
    cases = [(2.0 * np.eye(3), 1.0, True),           # ||m||_F / sqrt(3) above tol
             (np.diag([1.0, 0.0, 0.0, 0.0]), 0.9, True),  # only max |m_ij| is
             (1e-3 * m, 1e-2, False),                # Frobenius norm below tol
             (np.zeros((4, 4)), 0.0, False),         # the zero matrix at tol 0
             (1e-300 * m, 0.0, True),                # tiny, but not zero
             (np.zeros((0, 3)), 0.0, False)]
    for matrix, tol, want in cases:
        assert norm_exceeds(matrix, tol) is want
    assert calls == []
    # ||m||_F / sqrt(5), max |m_ij| < 1 = ||m||_2 < ||m||_F: only the SVD
    # tells the two apart
    assert norm_exceeds(m, 1.0 - 1e-9) and not norm_exceeds(m, 1.0 + 1e-9)
    assert calls == [(5, 5), (5, 5)]


def test_norm_bounds_neither_underflow_nor_overflow():
    for scale in (1e-170, 1e170):
        low, high = norm_bounds(scale * np.ones((3, 3)))
        assert low == pytest.approx(math.sqrt(3) * scale, rel=1e-15)
        assert high == pytest.approx(3 * scale, rel=1e-15)


def test_norm_exceeds_treats_non_finite_entries_as_the_svd_does():
    def outcome(decide, m):
        try:
            return decide(m)
        except np.linalg.LinAlgError as err:
            return str(err)

    for bad in (np.full((2, 2), np.nan + 0j), np.full((2, 2), np.inf + 0j)):
        assert (outcome(lambda m: norm_exceeds(m, 1.0), bad)
                == outcome(lambda m: spec_norm(m) > 1.0, bad))
