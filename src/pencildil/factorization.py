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
from scipy.linalg import lapack

from .errors import NoConvergence, NotContractive, NotPSD, ShapeMismatch
from .linalg import (adjoints, as_matrix, hermitian_eigen, norm_exceeds,
                     orthonormal_range, psd_sqrt, singular_values, spec_norm,
                     spec_norms)
from .pencil import (DEFAULT_GRID, LinearPencil, candidate_indices, classify,
                     evaluate_all, full_rank_on_grid, unit_circle_grid)

# Coefficient matching f0^H f0 + f1^H f1 = r0, f0^H f1 = c must hold to
# this accuracy for the factor to be accepted.
_MATCH_TOL = 1e-8
# Roots of det(f0 + z f1) strictly inside |z| < 1 - _ROOT_SLACK disqualify
# the factor as outer.
_ROOT_SLACK = 1e-8
_PINV_RTOL = 1e-10
# ``bauer_factorize`` skips its NotPSD scan when 1 - u^2, u the grid peak
# bound of ``classify``, clears the scan's cut -tol by this much.
_SCAN_ROOM = 1e-10


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
        if norm_exceeds(r0 - r0.conj().T, 1e-12):
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
    """Expand I - T(lam)^H T(lam) into (r0, c); requires a contractive T.

    The result also keeps, outside its fields, the grid size and the bound
    on the grid peak of ||T|| from ``classify``'s verdict, from which
    ``bauer_factorize`` may know its NotPSD scan cannot fail.
    """
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
    g = GramCoefficients(0.5 * (r0 + r0.conj().T), c)
    object.__setattr__(g, "_peak_bound", (grid_size, verdict._peak_bound))
    return g


def _psd_pinv(x: np.ndarray, rtol: float = _PINV_RTOL) -> np.ndarray:
    """Pseudo-inverse of a PSD matrix with a relative eigenvalue cutoff."""
    if x.size == 0:
        return x.copy()
    w, v = hermitian_eigen(0.5 * (x + x.conj().T))
    cutoff = rtol * max(w[-1], 0.0)
    inv = np.where(w > cutoff, 1.0 / np.where(w > cutoff, w, 1.0), 0.0)
    return (v * inv) @ v.conj().T


def outer_roots(f: FejerRieszFactor) -> np.ndarray:
    """Finite zeros of det(f0 + z f1), compressed to a square pencil.

    For square f0 this is the exact root set; for strictly rectangular
    factors the pencil is compressed onto the row space of f0 first, so the
    result is a surrogate rather than a full outerness certificate.  The
    roots are alpha / beta of ``zggev`` on (f0, -f1), as
    ``scipy.linalg.eigvals`` computes them; infinite roots (beta = 0) are
    left out.  A failed QZ iteration raises ``np.linalg.LinAlgError``.
    """
    r = f.dim_y
    if r == 0:
        return np.zeros(0, dtype=complex)
    if f.dim_h == r:
        a, b = f.f0, f.f1
    else:
        w = orthonormal_range(f.f0.conj().T).basis
        a, b = f.f0 @ w, f.f1 @ w
    # the optimal workspace, queried as scipy.linalg.eigvals queries it
    work = lapack.zggev(a, -b, compute_vl=0, compute_vr=0, lwork=-1)[-2]
    alpha, beta, *_, info = lapack.zggev(a, -b, compute_vl=0, compute_vr=0,
                                         lwork=int(work[0].real))
    if info:
        raise np.linalg.LinAlgError(f"zggev failed (info {info})")
    finite = beta != 0
    vals = alpha[finite] / beta[finite]
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
    converge linearly (``0.5 + 0.5*lam`` takes 38 steps).  A ``grid_size``
    below 1 raises ValueError.  The step and match norms are only compared
    with their cutoffs (``linalg.norm_exceeds``); the exact norm is computed
    for the message of the error that reports it.

    The NotPSD scan evaluates only the ``candidate_indices`` of the symbol
    plus tol * I, the grid points where it may dip below -tol; the first
    failing candidate, which its message names, is the first failing grid
    point.  It is skipped when ``g`` comes from ``gram_coefficients`` on a
    grid of ``grid_size`` points and u, the bound on the grid peak of
    ||T(lam)|| that ``classify`` computed there (the peak itself, or
    gamma (1 + 1e-12) on its flat-norm route), has 1 - u^2 >= -tol + 1e-10.
    Then the scan could not have raised.  At a grid point lam_k the exact
    symbol is I - T(lam_k)^H T(lam_k), whose smallest eigenvalue is
    1 - ||T(lam_k)||^2 >= 1 - u^2, up to the relative round-off of the
    computed norm that u bounds (about 1e-15).  The scan sees R(lam_k) built
    from the rounded r0 and c, each within about (n + 2) eps
    (1 + ||a0||^2 + ||a1||^2) of the exact coefficient, and ``eigvalsh``
    adds about n eps ||R||.  The coefficients are bounded by the circle
    peak of ||T||, at most u / (1 - pi / grid_size) by the Lipschitz bound,
    so for n in the thousands these errors stay below 1e-11, a tenth of the
    room.  Every eigenvalue the scan could compute is therefore at least
    -tol + 1e-10 - 1e-11 > -tol.  A ``GramCoefficients`` built directly
    carries no bound and is always scanned.
    """
    if grid_size < 1:
        raise ValueError("grid_size must be at least 1")
    peak_grid, peak = getattr(g, "_peak_bound", (None, None))
    settled = peak_grid == grid_size and 1.0 - peak * peak >= _SCAN_ROOM - tol
    if g.dim and not settled:
        found = candidate_indices(g.r0 + tol * np.eye(g.dim), g.c, grid_size)
        lams = unit_circle_grid(grid_size)[found]
        lowest = np.linalg.eigvalsh(g.symbols(lams))[:, 0]
        bad = np.flatnonzero(lowest < -tol)
        if bad.size:
            k = bad[0]
            raise NotPSD(f"defect symbol has eigenvalue {lowest[k]:.3e} "
                         f"at lam={lams[k]:.4f}")

    n = g.dim
    x, a, p = g.r0, g.c, np.zeros_like(g.c)
    converged = False
    for _ in range(max_iter):
        w = _psd_pinv(x - p)
        x_next = x - a.conj().T @ w @ a
        p = p + a @ w @ a.conj().T
        a = a @ w @ a
        x_next = 0.5 * (x_next + x_next.conj().T)
        p = 0.5 * (p + p.conj().T)
        last = x_next - x
        x = x_next
        if not norm_exceeds(last, tol):
            converged = True
            break
    if not converged:
        step = spec_norm(last) if max_iter > 0 else 0.0
        raise NoConvergence(
            f"doubling iteration stalled at step norm {step:.3e} after "
            f"{max_iter} steps",
            residual=step,
        )

    s = singular_values(x)
    norm = float(s[0]) if s.size else 0.0
    rank = int(np.count_nonzero(s > _PINV_RTOL * norm)) if norm > 0 else 0
    root = psd_sqrt(x, tol=1e-10 * max(1.0, norm))
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

    gram_gap = f0.conj().T @ f0 + f1.conj().T @ f1 - g.r0
    cross_gap = f0.conj().T @ f1 - g.c
    if norm_exceeds(gram_gap, _MATCH_TOL) or norm_exceeds(cross_gap, _MATCH_TOL):
        match = max(spec_norm(gram_gap), spec_norm(cross_gap))
        raise NoConvergence(
            f"factor coefficients do not match the defect (residual {match:.3e})",
            residual=match,
        )
    roots = outer_roots(factor)
    inside = roots[np.abs(roots) < 1.0 - _ROOT_SLACK]
    if inside.size:
        depth = float(1.0 - np.abs(inside).min())
        raise NoConvergence(
            f"computed factor is not outer: root at 1 - |z| = {depth:.3e}",
            residual=depth,
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


def outer_surrogate_check(f: FejerRieszFactor, grid_size: int = DEFAULT_GRID,
                          tol: float = 1e-10) -> bool:
    """Pointwise surjectivity onto Y on the grid: rank F(lam) = dim Y.

    This is the consequence of outerness consumed by the minimality
    argument.  It is necessary but not sufficient for outerness; the root
    location check in bauer_factorize is the stronger certificate.  The
    rank test is ``full_rank_on_grid``: only the ``rank_candidates`` of F,
    the grid points where its smallest singular value may be small enough,
    are ranked, with the answer of the whole grid.  A ``grid_size`` below 1
    raises ValueError.
    """
    if grid_size < 1:
        raise ValueError("grid_size must be at least 1")
    if f.dim_y == 0:
        return True
    return full_rank_on_grid(f.as_pencil(), f.dim_y, tol, grid_size)
