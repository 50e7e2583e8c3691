"""Dense complex linear algebra and subspace calculus.

All functions are pure and deterministic: fixed LAPACK code paths and a
canonical phase convention for computed bases (in every basis column the
first entry of largest modulus is made real positive).  Tolerances are
threaded explicitly; there is no hidden global state.

The single-matrix kernels call LAPACK (``zgesdd``, ``zheevd``) directly
through ``scipy.linalg.lapack``, in complex128, the routines and options
``numpy.linalg`` calls, without its per-call dispatch, which at n <= 6
costs about as much as the factorization.  The batched stack kernels
(``spec_norms``, ``ranks``) stay on ``numpy.linalg``, which loops in C.
A spectral norm that is only compared with a cutoff is decided by
``norm_exceeds``, which takes the SVD only when cheaper bounds leave the
answer open.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas, lapack

from .errors import ContainmentViolation, NotHermitian, NotPSD, ShapeMismatch


# Default decision thresholds: the relative singular-value cutoff of rank
# and range decisions, the absolute bound on ||(I - P_A) B|| when B must lie
# in span(A), and the absolute asymmetry bound of a matrix required to be
# self-adjoint.
_RANK_TOL = 1e-10
_CONTAINMENT_TOL = 1e-9
_HERMITIAN_TOL = 1e-12

# Orthonormality of a SubspaceBasis is a structural invariant, not a knob.
_BASIS_GRAM_TOL = 1e-12
# Relative room that ``norm_exceeds`` leaves between a cheap bound and the
# cutoff: far above the round-off of the bounds and of the SVD.
_BOUND_GUARD = 1e-6


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-d complex array and reject non-finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ShapeMismatch(f"{name} must be 2-dimensional, got ndim={m.ndim}")
    if m.size and not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def _lapack_info(info: int, routine: str):
    """Raise ``np.linalg.LinAlgError`` when LAPACK reports a failure, as
    numpy does: no convergence (info > 0) or, on non-finite entries, a
    rejected argument."""
    if info:
        raise np.linalg.LinAlgError(f"{routine} failed (info {info})")


def _gesdd(m: np.ndarray, compute_uv: int) -> tuple[np.ndarray, np.ndarray]:
    """Thin ``zgesdd`` of a nonempty matrix: (U, s), U a dummy without uv.

    The workspace is LAPACK's optimal one, queried as ``numpy.linalg.svd``
    queries it: the routine picks its blocked or unblocked path by the
    workspace it is given, and the default minimum takes another path from
    numpy's on larger matrices.
    """
    rows, cols = m.shape
    work, info = lapack.zgesdd_lwork(rows, cols, compute_uv=compute_uv,
                                     full_matrices=0)
    _lapack_info(info, "zgesdd")
    u, s, _, info = lapack.zgesdd(m, compute_uv=compute_uv, full_matrices=0,
                                  lwork=int(work.real))
    _lapack_info(info, "zgesdd")
    return u, s


def spec_norm(m: np.ndarray) -> float:
    """Spectral norm, the largest singular value (equal to
    ``np.linalg.norm(m, 2)``); zero for matrices with an empty dimension."""
    m = np.asarray(m)
    if m.size == 0:
        return 0.0
    return float(_gesdd(m, 0)[1][0])


def norm_bounds(m) -> tuple[float, float]:
    """Bounds ||m||_F / sqrt(k) <= ||m||_2 <= ||m||_F, k = min(rows, cols),
    from one Frobenius norm; (0.0, 0.0) for an empty matrix.

    The Frobenius norm is BLAS ``dznrm2``, which scales its sum of squares,
    so tiny or huge entries neither underflow nor overflow it.
    """
    m = np.asarray(m)
    if m.size == 0:
        return 0.0, 0.0
    frobenius = float(blas.dznrm2(m.astype(complex, copy=False).ravel()))
    return frobenius / math.sqrt(min(m.shape)), frobenius


def bounds_exceed(low: float, high: float, tol: float) -> bool | None:
    """Whether a norm known to lie in [low, high] exceeds ``tol``, or None
    when the bounds, each widened by the relative guard 1e-6, leave it open
    or ``low`` is not finite."""
    if math.isfinite(low) and low * (1.0 - _BOUND_GUARD) > tol:
        return True
    if high * (1.0 + _BOUND_GUARD) <= tol:
        return False
    return None


def norm_exceeds(m, tol: float) -> bool:
    """Whether ``spec_norm(m) > tol``, taking the SVD only when bounds
    leave the answer open.

    The bounds are ``norm_bounds`` and then, as a second lower bound,
    max |m_ij| <= ||m||_2.  They are computed to a few units in the last
    place and the SVD's largest singular value to a few units times the
    dimension, so a bound clear of ``tol`` by the relative guard of 1e-6
    (``bounds_exceed``) gives the answer the SVD gives.  Only the band
    between the widened bounds, and non-finite entries (for which the SVD
    raises as ``spec_norm`` does), take the SVD.  At ``tol`` = 0 no matrix
    does: a nonzero entry exceeds it and the zero matrix does not.  An
    empty matrix has norm 0.
    """
    m = np.asarray(m)
    low, high = norm_bounds(m)
    decided = bounds_exceed(low, high, tol)
    if decided is None and m.size:
        decided = bounds_exceed(float(np.abs(m).max()), high, tol)
    return spec_norm(m) > tol if decided is None else decided


def singular_values(m: np.ndarray) -> np.ndarray:
    """Singular values in decreasing order; none for an empty matrix."""
    if m.size == 0:
        return np.zeros(0)
    return _gesdd(m, 0)[1]


def left_singular(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Left singular vectors and singular values of the thin SVD, those of
    ``np.linalg.svd(m, full_matrices=False)``; none for an empty matrix."""
    if m.size == 0:
        return np.zeros((m.shape[0], 0), dtype=complex), np.zeros(0)
    return _gesdd(m, 1)


def hermitian_eigen(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvectors of a Hermitian matrix from its
    lower triangle, those of ``np.linalg.eigh(h)``, by ``zheevd``.

    Its default workspaces are LAPACK's minimum for eigenvectors, which
    is at least the optimal one wherever the tridiagonal reduction blocks,
    so the path is numpy's.
    """
    if h.size == 0:
        return np.zeros(0), np.zeros(h.shape, dtype=complex)
    w, v, info = lapack.zheevd(h, compute_v=1, lower=1)
    _lapack_info(info, "zheevd")
    return w, v


def spec_norms(stack) -> np.ndarray:
    """Spectral norm of each matrix of a (G, m, n) stack, by one batched SVD.

    Pointwise equal to ``spec_norm``; zeros when the matrices are empty.
    """
    stack = np.asarray(stack)
    if stack.shape[-2] == 0 or stack.shape[-1] == 0:
        return np.zeros(stack.shape[:-2])
    return np.linalg.svd(stack, compute_uv=False)[..., 0]


def adjoints(stack) -> np.ndarray:
    """Conjugate transpose of each matrix of a (..., m, n) stack."""
    return np.conj(stack).swapaxes(-1, -2)


def canonicalize_phases(b: np.ndarray) -> np.ndarray:
    """Rotate each column so its first entry of largest modulus is real > 0.

    Zero columns are left as they are, signed zeros included.
    """
    b = np.array(b, dtype=complex)
    if b.shape[1] == 0:
        return b
    mag = np.abs(b)
    rows, cols = np.argmax(mag, axis=0), np.arange(b.shape[1])
    size = mag[rows, cols]
    turn = size > 0
    phase = np.conj(b[rows[turn], cols[turn]]) / size[turn]
    # a full phase operand, not a broadcast one: numpy rounds a product with
    # a broadcast factor differently on some shapes, and this rounds as the
    # product of one column with its scalar phase does
    full = np.repeat(phase[None], b.shape[0], axis=0)
    if turn.all():
        return b * full
    b[:, turn] = b[:, turn] * full
    return b


@dataclass(frozen=True, eq=False)
class SubspaceBasis:
    """Orthonormal basis of a subspace of C^ambient_dim (columns)."""

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=complex)
        if b.ndim != 2 or b.shape[0] != self.ambient_dim:
            raise ShapeMismatch(
                f"basis shape {b.shape} incompatible with ambient dim {self.ambient_dim}"
            )
        k = b.shape[1]
        if k > self.ambient_dim:
            raise ShapeMismatch("more basis vectors than ambient dimensions")
        gram = b.conj().T @ b
        if k and norm_exceeds(gram - np.eye(k), _BASIS_GRAM_TOL):
            raise ValueError("basis columns are not orthonormal")
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @classmethod
    def empty(cls, ambient_dim: int) -> "SubspaceBasis":
        return cls(ambient_dim, np.zeros((ambient_dim, 0), dtype=complex))

    @classmethod
    def full(cls, ambient_dim: int) -> "SubspaceBasis":
        return cls(ambient_dim, np.eye(ambient_dim, dtype=complex))


def orthonormal_range(m, tol: float = _RANK_TOL) -> SubspaceBasis:
    """Canonical orthonormal basis of the numerical column space of ``m``.

    Singular directions with sigma <= tol * sigma_max are discarded; the
    zero matrix yields the empty basis.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    m = as_matrix(m)
    n = m.shape[0]
    if m.shape[1] == 0:
        return SubspaceBasis.empty(n)
    u, s = left_singular(m)
    if s.size == 0 or s[0] <= 0.0:
        return SubspaceBasis.empty(n)
    keep = s > tol * s[0]
    return SubspaceBasis(n, canonicalize_phases(u[:, keep]))


def orthocomplement_within(a: SubspaceBasis, b: SubspaceBasis,
                           containment_tol: float = _CONTAINMENT_TOL
                           ) -> SubspaceBasis:
    """Orthonormal basis of span(a) minus span(b); requires b inside span(a)."""
    if a.ambient_dim != b.ambient_dim:
        raise ShapeMismatch("subspaces live in different ambient spaces")
    if b.dim > a.dim:
        raise ContainmentViolation("second subspace has larger dimension")
    if b.dim:
        leak = b.basis - a.basis @ (a.basis.conj().T @ b.basis)
        if norm_exceeds(leak, containment_tol):
            raise ContainmentViolation(
                f"subspace not contained in the first one (leak {spec_norm(leak):.3e})"
            )
    k = a.dim - b.dim
    if k == 0:
        return SubspaceBasis.empty(a.ambient_dim)
    residual = a.basis - b.basis @ (b.basis.conj().T @ a.basis)
    u, _ = left_singular(residual)
    # The complement has dimension exactly dim(a) - dim(b); keep that many
    # leading singular directions.
    return SubspaceBasis(a.ambient_dim, canonicalize_phases(u[:, :k]))


def projector(b: SubspaceBasis) -> np.ndarray:
    """Orthogonal projector basis * basis^H onto the subspace."""
    return b.basis @ b.basis.conj().T


def psd_sqrt(m, tol: float = _HERMITIAN_TOL) -> np.ndarray:
    """PSD square root by eigendecomposition; clips tiny negative eigenvalues.

    Raises NotHermitian when the asymmetry exceeds ``tol`` and NotPSD when
    an eigenvalue falls below ``-tol``.
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ShapeMismatch("psd_sqrt requires a square matrix")
    if m.shape[0] == 0:
        return m.copy()
    if norm_exceeds(m - m.conj().T, tol):
        asym = spec_norm(m - m.conj().T)
        raise NotHermitian(f"asymmetry {asym:.3e} exceeds tolerance {tol:.3e}")
    h = 0.5 * (m + m.conj().T)
    w, v = hermitian_eigen(h)
    if w[0] < -tol:
        raise NotPSD(f"eigenvalue {w[0]:.3e} below -{tol:.3e}")
    w = np.clip(w, 0.0, None)
    root = (v * np.sqrt(w)) @ v.conj().T
    return 0.5 * (root + root.conj().T)


def numerical_rank(m, tol: float = _RANK_TOL) -> int:
    """Number of singular values above tol * sigma_max (0 for the zero matrix)."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    m = as_matrix(m)
    s = singular_values(m)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


def ranks(stack, tol: float = _RANK_TOL) -> np.ndarray:
    """``numerical_rank`` of each matrix of a (G, m, n) stack, by one batched SVD."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    stack = np.asarray(stack)
    if stack.shape[-2] == 0 or stack.shape[-1] == 0:
        return np.zeros(stack.shape[:-2], dtype=int)
    s = np.linalg.svd(stack, compute_uv=False)
    return np.count_nonzero(s > tol * s[..., :1], axis=-1)
