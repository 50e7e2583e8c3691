"""Linear outer spectral factor of the defect I - T(lam)^H T(lam).

For a contractive pencil the defect is the degree-1 trigonometric symbol
R(lam) = r0 + lam*c + conj(lam)*c^H with r0 = I - a0^H a0 - a1^H a1 and
c = -a0^H a1.  The factor F(lam) = f0 + lam*f1 with F^H F = R has
X = f0^H f0 equal to the maximal solution of X = r0 - c^H X^+ c, the
Bauer fixed point (the block-Cholesky recursion of the tridiagonal block
Toeplitz symbol).  That equation is X + A^H X^{-1} A = Q with A = c and
Q = r0; it is solved by structure-preserving doubling (Guo & Lancaster,
Math. Comp. 68 (1999); Meini, Math. Comp. 71 (2002)), whose k-th iterate is
the Bauer iterate 2^k - 1, so the limit is the same maximal solution and
hence the outer factor.  Doubling converges quadratically for strictly
contractive pencils and linearly, halving the error each step, when the
defect is singular on the circle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NoConvergence, NotContractive, NotPSD, ShapeMismatch
from .linalg import (adjoints, as_matrix, numerical_rank, orthonormal_range,
                     psd_sqrt, ranks, spec_norm, spec_norms)
from .pencil import DEFAULT_GRID, LinearPencil, classify, evaluate_all, unit_circle_grid

# Coefficient matching f0^H f0 + f1^H f1 = r0, f0^H f1 = c must hold to
# this accuracy for the factor to be accepted.
_MATCH_TOL = 1e-8
# Roots of det(f0 + z f1) strictly inside |z| < 1 - _ROOT_SLACK disqualify
# the factor as outer.
_ROOT_SLACK = 1e-8
_PINV_RTOL = 1e-10


@dataclass(frozen=True, eq=False)
class GramCoefficients:
    """Coefficients of the defect symbol r0 + lam*c + conj(lam)*c^H."""

    r0: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        r0 = as_matrix(self.r0, "r0")
        c = as_matrix(self.c, "c")
        if r0.shape != c.shape or r0.shape[0] != r0.shape[1]:
            raise ShapeMismatch("Gram coefficients must be square and equal-shape")
        if spec_norm(r0 - r0.conj().T) > 1e-12:
            raise ValueError("r0 must be self-adjoint")
        object.__setattr__(self, "r0", r0)
        object.__setattr__(self, "c", c)

    @property
    def dim(self) -> int:
        return self.r0.shape[0]

    def symbols(self, lams) -> np.ndarray:
        """Symbol values at every lam, stacked as a (G, dim, dim) array."""
        lams = np.asarray(lams, dtype=complex)[:, None, None]
        return self.r0 + lams * self.c + np.conj(lams) * self.c.conj().T


@dataclass(frozen=True, eq=False)
class FejerRieszFactor:
    """Linear factor (f0, f1) mapping H into the factor space Y."""

    f0: np.ndarray
    f1: np.ndarray

    def __post_init__(self):
        f0 = as_matrix(self.f0, "f0")
        f1 = as_matrix(self.f1, "f1")
        if f0.shape != f1.shape:
            raise ShapeMismatch("factor coefficients must have equal shape")
        object.__setattr__(self, "f0", f0)
        object.__setattr__(self, "f1", f1)

    @property
    def dim_y(self) -> int:
        return self.f0.shape[0]

    @property
    def dim_h(self) -> int:
        return self.f0.shape[1]

    def as_pencil(self) -> LinearPencil:
        return LinearPencil(self.f0, self.f1)

    def __call__(self, lam: complex) -> np.ndarray:
        return self.f0 + lam * self.f1


def gram_coefficients(t: LinearPencil, grid_size: int = DEFAULT_GRID,
                      tol: float = 1e-10) -> GramCoefficients:
    """Expand I - T(lam)^H T(lam) into (r0, c); requires a contractive T."""
    if t.shape[0] != t.shape[1]:
        raise ShapeMismatch("dilation theory requires a square pencil")
    verdict = classify(t, grid_size=grid_size, tol=tol)
    if not verdict.is_contractive:
        raise NotContractive(
            f"pencil is not contractive (grid max norm {verdict.max_norm_on_grid:.6f})"
        )
    n = t.shape[0]
    r0 = np.eye(n) - t.a0.conj().T @ t.a0 - t.a1.conj().T @ t.a1
    c = -t.a0.conj().T @ t.a1
    return GramCoefficients(0.5 * (r0 + r0.conj().T), c)


def _psd_pinv(x: np.ndarray, rtol: float = _PINV_RTOL) -> np.ndarray:
    """Pseudo-inverse of a PSD matrix with a relative eigenvalue cutoff."""
    w, v = np.linalg.eigh(0.5 * (x + x.conj().T))
    if w.size == 0:
        return x.copy()
    cutoff = rtol * max(w[-1], 0.0)
    inv = np.where(w > cutoff, 1.0 / np.where(w > cutoff, w, 1.0), 0.0)
    return (v * inv) @ v.conj().T


def outer_roots(f: FejerRieszFactor) -> np.ndarray:
    """Finite zeros of det(f0 + z f1), compressed to a square pencil.

    For square f0 this is the exact root set; for strictly rectangular
    factors the pencil is compressed onto the row space of f0 first, so the
    result is a surrogate rather than a full outerness certificate.
    """
    r = f.dim_y
    if r == 0:
        return np.zeros(0, dtype=complex)
    if f.dim_h == r:
        a, b = f.f0, f.f1
    else:
        w = orthonormal_range(f.f0.conj().T).basis
        a, b = f.f0 @ w, f.f1 @ w
    vals = scipy.linalg.eigvals(a, -b)
    return vals[np.isfinite(vals)]


def bauer_factorize(g: GramCoefficients, tol: float = 1e-12,
                    max_iter: int = 100,
                    grid_size: int = DEFAULT_GRID) -> FejerRieszFactor:
    """Outer factor of the defect symbol via the Bauer fixed point.

    The Bauer iteration X_{k+1} = r0 - c^H X_k^+ c from X_0 = r0 converges
    to X = f0^H f0 for the outer factor.  Its iterates are computed by
    doubling: from A_0 = c, X_0 = r0, P_0 = 0 each step sets
    W = (X_k - P_k)^+, X_{k+1} = X_k - A_k^H W A_k, P_{k+1} = P_k + A_k W A_k^H
    and A_{k+1} = A_k W A_k, which makes X_k the Bauer iterate 2^k - 1.  It
    stops when the step norm falls below ``tol``; ``max_iter`` counts
    doubling steps.  The factor space Y is the numerical range of the limit,
    so dim Y can be strictly smaller than dim H when the defect is
    rank-deficient.  Raises NotPSD when the symbol dips below -tol on the
    grid and NoConvergence (carrying the last step norm) when max_iter is
    exhausted, when the coefficients do not match the defect, or when
    det(f0 + z f1) has a root inside the disk.  Boundary-singular symbols
    converge linearly (``0.5 + 0.5*lam`` takes 38 steps).
    """
    if g.dim:
        grid = unit_circle_grid(grid_size)
        lowest = np.linalg.eigvalsh(g.symbols(grid))[:, 0]
        bad = np.flatnonzero(lowest < -tol)
        if bad.size:
            k = bad[0]
            raise NotPSD(f"defect symbol has eigenvalue {lowest[k]:.3e} "
                         f"at lam={grid[k]:.4f}")

    n = g.dim
    x, a, p = g.r0, g.c, np.zeros_like(g.c)
    step = 0.0
    converged = False
    for _ in range(max_iter):
        w = _psd_pinv(x - p)
        x_next = x - a.conj().T @ w @ a
        p = p + a @ w @ a.conj().T
        a = a @ w @ a
        x_next = 0.5 * (x_next + x_next.conj().T)
        p = 0.5 * (p + p.conj().T)
        step = spec_norm(x_next - x)
        x = x_next
        if step <= tol:
            converged = True
            break
    if not converged:
        raise NoConvergence(
            f"doubling iteration stalled at step norm {step:.3e} after "
            f"{max_iter} steps",
            residual=step,
        )

    rank = numerical_rank(x, _PINV_RTOL) if spec_norm(x) > 0 else 0
    root = psd_sqrt(x, tol=1e-10 * max(1.0, spec_norm(x)))
    if rank == 0:
        factor = FejerRieszFactor(np.zeros((0, n)), np.zeros((0, n)))
        return factor
    if rank == n:
        f0 = root  # PSD square coefficient: canonical gauge
    else:
        basis = orthonormal_range(x).basis
        f0 = basis.conj().T @ root
    f1, *_ = np.linalg.lstsq(f0.conj().T, g.c, rcond=None)
    factor = FejerRieszFactor(f0, f1)

    match = max(
        spec_norm(f0.conj().T @ f0 + f1.conj().T @ f1 - g.r0),
        spec_norm(f0.conj().T @ f1 - g.c),
    )
    if match > _MATCH_TOL:
        raise NoConvergence(
            f"factor coefficients do not match the defect (residual {match:.3e})",
            residual=match,
        )
    roots = outer_roots(factor)
    inside = roots[np.abs(roots) < 1.0 - _ROOT_SLACK]
    if inside.size:
        raise NoConvergence(
            f"computed factor is not outer: root at |z|={np.abs(inside).min():.6f}",
            residual=float(1.0 - np.abs(inside).min()),
        )
    return factor


def factorization_residuals(t: LinearPencil, f: FejerRieszFactor,
                            lams) -> np.ndarray:
    """||F(lam)^H F(lam) - (I - T(lam)^H T(lam))|| at each lam."""
    if f.dim_h != t.shape[1]:
        raise ShapeMismatch("factor and pencil act on different spaces")
    tv = evaluate_all(t, lams)
    fv = evaluate_all(f.as_pencil(), lams)
    return spec_norms(adjoints(fv) @ fv - (np.eye(t.shape[1]) - adjoints(tv) @ tv))


def verify_factorization(t: LinearPencil, f: FejerRieszFactor,
                         grid_size: int = DEFAULT_GRID) -> float:
    """Max grid residual of F(lam)^H F(lam) - (I - T(lam)^H T(lam))."""
    return float(factorization_residuals(t, f, unit_circle_grid(grid_size))
                 .max(initial=0.0))


def outer_surrogate_check(f: FejerRieszFactor, grid_size: int = DEFAULT_GRID,
                          tol: float = 1e-10) -> bool:
    """Pointwise surjectivity onto Y on the grid: rank F(lam) = dim Y.

    This is the consequence of outerness consumed by the minimality
    argument.  It is necessary but not sufficient for outerness; the root
    location check in bauer_factorize is the stronger certificate.
    """
    if f.dim_y == 0:
        return True
    values = evaluate_all(f.as_pencil(), unit_circle_grid(grid_size))
    return bool(np.all(ranks(values, tol) == f.dim_y))
