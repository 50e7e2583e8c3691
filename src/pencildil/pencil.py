"""Linear operator pencils A0 + lambda*A1 and their classification.

A pencil is classified over the unit circle: contractive means
T(lam)^H T(lam) <= I for all |lam| = 1, isometric means equality, unitary
additionally T(lam) T(lam)^H = I.  Isometry and unitarity are decided
on the coefficients by ``isometry_defect`` (a bound for all lam at once);
contractivity is a grid decision with a Lipschitz certificate.  A grid is
evaluated as one stacked (G, rows, cols) array and decided by batched
LAPACK calls, pointwise equal to evaluating it one lambda at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import CapExceeded, ShapeMismatch
from .linalg import as_matrix, spec_norm, spec_norms
from .words import Letters, grouped_sums

DEFAULT_GRID = 256
WORD_LENGTH_CAP = 10


def unit_circle_grid(n: int) -> np.ndarray:
    """n equispaced points exp(2*pi*i*k/n), k = 0..n-1."""
    return np.exp(2j * np.pi * np.arange(n) / n)


@dataclass(frozen=True, eq=False)
class LinearPencil:
    """Pair of equal-shape complex matrices representing a0 + lam*a1."""

    a0: np.ndarray
    a1: np.ndarray

    def __post_init__(self):
        a0 = as_matrix(self.a0, "a0")
        a1 = as_matrix(self.a1, "a1")
        if a0.shape != a1.shape:
            raise ShapeMismatch(f"coefficient shapes differ: {a0.shape} vs {a1.shape}")
        object.__setattr__(self, "a0", a0)
        object.__setattr__(self, "a1", a1)

    @property
    def shape(self) -> tuple[int, int]:
        return self.a0.shape

    def __call__(self, lam: complex) -> np.ndarray:
        return evaluate(self, lam)


def evaluate(p: LinearPencil, lam: complex) -> np.ndarray:
    """Pointwise value a0 + lam*a1 (lam unrestricted; circle grids elsewhere)."""
    return p.a0 + lam * p.a1


def evaluate_all(p: LinearPencil, lams) -> np.ndarray:
    """Values a0 + lam*a1 at every lam, stacked as a (G, rows, cols) array."""
    lams = np.asarray(lams, dtype=complex)
    return p.a0 + lams[:, None, None] * p.a1


def isometry_defect(p: LinearPencil) -> float:
    """||D|| + 2||C||, D = a0^H a0 + a1^H a1 - I, C = a0^H a1.

    T(lam)^H T(lam) - I = D + lam*C + conj(lam)*C^H has the Fourier
    coefficients D and C, so its maximum M over |lam| = 1 is at least
    max(||D||, ||C||) and the returned bound lies in [M, 3M]: zero exactly
    for isometric pencils, and a pass holds on the whole circle.  The
    pencil (a0^H, a1^H) equals T(lam)^H at conj(lam), which bounds
    T T^H - I the same way.
    """
    a0, a1 = p.a0, p.a1
    gram = a0.conj().T @ a0 + a1.conj().T @ a1 - np.eye(p.shape[1])
    return spec_norm(gram) + 2.0 * spec_norm(a0.conj().T @ a1)


class PencilKind(Enum):
    UNITARY = "unitary"
    ISOMETRIC = "isometric"
    CONTRACTIVE = "contractive"
    NONE = "none"


@dataclass(frozen=True)
class PencilClass:
    """Classification verdict with the grid norm statistics behind it."""

    kind: PencilKind
    certified: bool
    margin: float
    max_norm_on_grid: float

    @property
    def is_contractive(self) -> bool:
        return self.kind is not PencilKind.NONE


def classify(p: LinearPencil, grid_size: int = DEFAULT_GRID,
             tol: float = 1e-10) -> PencilClass:
    """Classify a pencil as unitary / isometric / contractive / none.

    Isometric iff ``isometry_defect`` is within ``tol``; unitary iff the
    adjoint pencil (a0^H, a1^H) is isometric too.  Contractive is a grid
    test on the singular values of one batched SVD: max_grid ||T||^2 - 1 <=
    tol at grid_size roots of unity, the condition min eig(I - T^H T) >=
    -tol with no second decomposition; ``certified`` marks the stronger
    Lipschitz bound max_grid ||T|| <= 1 - ||a1|| * pi / grid_size, which
    certifies the whole circle.  Boundary pencils (isometric ones have
    margin 0) pass the grid test but are never ``certified`` contractive.
    A negative ``tol`` raises ValueError.
    """
    if grid_size < 8:
        raise ValueError("grid_size must be at least 8")
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    values = evaluate_all(p, unit_circle_grid(grid_size))
    max_norm = float(spec_norms(values).max())

    if isometry_defect(p) <= tol:
        unitary = isometry_defect(LinearPencil(p.a0.conj().T, p.a1.conj().T)) <= tol
        kind = PencilKind.UNITARY if unitary else PencilKind.ISOMETRIC
        return PencilClass(kind, certified=True, margin=0.0, max_norm_on_grid=max_norm)

    margin = 1.0 - max_norm
    if max_norm ** 2 - 1.0 <= tol:
        lip = spec_norm(p.a1) * math.pi / grid_size
        return PencilClass(PencilKind.CONTRACTIVE, certified=max_norm <= 1.0 - lip,
                           margin=margin, max_norm_on_grid=max_norm)
    return PencilClass(PencilKind.NONE, certified=False, margin=margin,
                       max_norm_on_grid=max_norm)


def symmetrized_multipower(p: LinearPencil, t: tuple[int, int],
                           word_cap: int = WORD_LENGTH_CAP) -> np.ndarray:
    """Average of all ordered products with a0 used t[0] and a1 used t[1] times.

    Equals the binomial-normalized sum over coefficient words; e.g.
    t = (1, 2) gives (a0 a1^2 + a1 a0 a1 + a1^2 a0) / 3.
    """
    t0, t1 = t
    if t0 < 0 or t1 < 0:
        raise ValueError("multipower indices must be nonnegative")
    n = t0 + t1
    if n > word_cap:
        raise CapExceeded(f"word length {n} exceeds cap {word_cap}")
    if p.shape[0] != p.shape[1]:
        raise ShapeMismatch("multipowers require a square pencil")
    *_, sums = grouped_sums(Letters.plain((p.a0, p.a1)), n)
    return sums[t1] / math.comb(n, t1)
