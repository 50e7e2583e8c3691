"""Linear operator pencils A0 + lambda*A1 and their classification.

A pencil is classified over the unit circle: contractive means
T(lam)^H T(lam) <= I for all |lam| = 1, isometric means equality, unitary
additionally T(lam) T(lam)^H = I.  Isometry and unitarity are decided
on the coefficients by ``isometry_defect`` (a bound for all lam at once);
contractivity is a grid decision with a Lipschitz certificate.  A grid is
evaluated as one stacked (G, rows, cols) array and decided by batched
LAPACK calls, pointwise equal to evaluating it one lambda at a time.

Each grid decision is a sign or rank question about a Hermitian symbol
R(lam) = r0 + lam*r1 + conj(lam)*r1^H, and ``candidate_indices`` localises
it: R changes inertia only at the unimodular roots of det R, so one test
per arc between roots tells which grid points can answer the question, and
only those are evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.linalg import lapack

from .errors import ShapeMismatch
from .linalg import (as_matrix, bounds_exceed, norm_bounds, ranks, spec_norm,
                     spec_norms)

DEFAULT_GRID = 256
# An eigenvalue z of the palindromic quadratic with ||z| - 1| <= _ROOT_BAND
# counts as a root of det R on the circle.  A spurious root only splits an
# arc in two, so the band errs wide.
_ROOT_BAND = 1e-3
# Generalised eigenvalues (alpha, beta) of the scaled linearisation with
# both below this mean det R nearly vanishes on the whole circle.
_SINGULAR = 1e-13
# Lower bound on the relative cutoff of ``rank_candidates``: the squared
# (Gram) form resolves singular values only down to about 1e-8 of the norm.
_GRAM_FLOOR = 1e-7
# ``classify`` takes its first peak estimate at this many grid points and
# evaluates the points within this relative slack of its square.
_COARSE = 16
_PEAK_SLACK = 1e-9
# When every grid point is within that slack, ``classify`` bounds the peak
# from above at gamma * (1 + _FLAT_BAND) instead.
_FLAT_BAND = 1e-12
# ``candidate_indices`` decides a symbol with r1 = 0 without QZ unless an
# eigenvalue of r0 is within this much of 0, relative to its largest entry.
_REGULAR = 5e-13


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
    gram, cross = _defect_coefficients(p)
    return spec_norm(gram) + 2.0 * spec_norm(cross)


def _defect_coefficients(p: LinearPencil) -> tuple[np.ndarray, np.ndarray]:
    a0, a1 = p.a0, p.a1
    return (a0.conj().T @ a0 + a1.conj().T @ a1 - np.eye(p.shape[1]),
            a0.conj().T @ a1)


def is_isometric(p: LinearPencil, tol: float) -> bool:
    """Whether ``isometry_defect(p) <= tol``, computing it only when the
    ``norm_bounds`` of D and C leave the answer open.

    The defect ||D|| + 2||C|| lies between the same sums of the
    ``norm_bounds`` of D and C, and as in ``linalg.norm_exceeds`` a sum
    clear of ``tol`` by the relative guard 1e-6 (``bounds_exceed``) gives
    the answer the SVDs give.  So a pencil far from isometric, or isometric
    to round-off, takes no SVD.
    """
    (low_d, high_d), (low_c, high_c) = map(norm_bounds, _defect_coefficients(p))
    decided = bounds_exceed(low_d + 2.0 * low_c, high_d + 2.0 * high_c, tol)
    return isometry_defect(p) <= tol if decided is None else not decided


def unimodular_roots(r0: np.ndarray, r1: np.ndarray) -> np.ndarray | None:
    """Angles in [0, 2*pi) of the roots of det R(lam) on the unit circle.

    R(lam) = r0 + lam*r1 + conj(lam)*r1^H with r0 Hermitian.  On the circle
    lam*R(lam) = lam^2 r1 + lam r0 + r1^H, so the roots are the unimodular
    eigenvalues of that palindromic quadratic (Mackey, Mackey, Mehl &
    Mehrmann, SIAM J. Matrix Anal. Appl. 28 (2006)), found by QZ on its
    2m x 2m companion linearisation of the scaled coefficients.  Returns
    None when det R vanishes (to round-off) on the whole circle, where roots
    localise nothing.
    """
    m = r0.shape[0]
    scale = max(float(np.abs(r0).max(initial=0.0)), float(np.abs(r1).max(initial=0.0)))
    if scale == 0.0:
        return None
    a = np.zeros((2 * m, 2 * m), dtype=complex)
    b = np.zeros((2 * m, 2 * m), dtype=complex)
    a[:m, :m], a[:m, m:] = r0 / -scale, r1.conj().T / -scale
    b[:m, :m] = r1 / scale
    diag = np.arange(m)
    a[m + diag, diag] = b[m + diag, m + diag] = 1.0
    alpha, beta, *_, info = lapack.zggev(a, b, compute_vl=0, compute_vr=0)
    if info != 0:
        return None
    if np.any(np.maximum(np.abs(alpha), np.abs(beta)) <= _SINGULAR):
        return None
    on_circle = np.abs(np.abs(alpha) - np.abs(beta)) <= _ROOT_BAND * np.abs(beta)
    return np.sort(np.angle(alpha[on_circle] * beta[on_circle].conj()) % (2 * np.pi))


def _symbol_eigenvalues(r0: np.ndarray, r1: np.ndarray,
                        lams: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of R(lam) at each lam, one row per lam."""
    lams = lams[:, None, None]
    values = r0 + lams * r1 + np.conj(lams) * r1.conj().T
    return np.linalg.eigvalsh(values)


def _not_definite(r0: np.ndarray, r1: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Whether R(lam) has an eigenvalue <= 0, at each lam."""
    return _symbol_eigenvalues(r0, r1, lams)[:, 0] <= 0.0


def candidate_indices(r0: np.ndarray, r1: np.ndarray, grid_size: int) -> np.ndarray:
    """Sorted indices k of the points lam_k = exp(2*pi*i*k/grid_size) at
    which R(lam_k) = r0 + lam_k r1 + conj(lam_k) r1^H may fail to be
    positive definite.

    The inertia of R is constant on each arc between consecutive roots from
    ``unimodular_roots``, so one test at the arc's midpoint decides it.  The
    candidates are every grid point of an arc that fails, padded by one grid
    step on each side, and the two grid neighbours of every root.  Without
    roots one test at lam = 1 decides the whole circle, and when det R
    vanishes identically every grid point is a candidate.

    When r1 is exactly zero (a1 = 0 pencils), R(lam) = r0 on the whole
    circle, and that one test at lam = 1 is taken without the QZ.  The QZ
    gives the same answer outside a band.  In r0's eigenbasis its
    linearisation splits into the 2 x 2 pencils ([[-w, 0], [1, 0]],
    [[0, 0], [0, 1]]), w an eigenvalue of r0 / scale, with eigenvalues 0
    and infinity, so a root on the circle or a pair (alpha, beta) below
    1e-13 (``None``) needs a perturbation of the pencil as large as
    sigma_min((a - b) / sqrt(2)) / sqrt(2) >= |w| / (2 sqrt(2 + |w|^2)),
    about |w| / 2.8, while QZ is backward stable to a few units in the last
    place.  So the QZ keeps the decision only when some |w| is at most
    5e-13, which leaves room for a backward error up to 7e-14; in trials
    at m <= 12 it returned ``None`` only for |w| below 6e-14.  Classify's
    flat-norm tests, with |w| near 1e-9 and 1e-12, are decided without it.
    """
    if r0.shape[0] == 0:
        return np.zeros(0, dtype=int)
    if not r1.any():
        w = _symbol_eigenvalues(r0, r1, np.ones(1, dtype=complex))[0]
        if np.abs(w).min() > _REGULAR * np.abs(r0).max():
            return np.arange(grid_size if w[0] <= 0.0 else 0)
    roots = unimodular_roots(r0, r1)
    if roots is None:
        return np.arange(grid_size)
    if roots.size == 0:
        whole = _not_definite(r0, r1, np.ones(1, dtype=complex))[0]
        return np.arange(grid_size if whole else 0)
    starts = roots * (grid_size / (2 * np.pi))
    ends = np.append(starts[1:], starts[0] + grid_size)
    fails = _not_definite(r0, r1, np.exp(1j * np.pi * (starts + ends) / grid_size))
    take = np.zeros(grid_size, dtype=bool)
    for start, end in zip(starts[fails], ends[fails]):
        take[np.arange(math.ceil(start) - 1, math.floor(end) + 2) % grid_size] = True
    below = np.floor(starts).astype(int)
    take[below % grid_size] = True
    take[(below + 1) % grid_size] = True
    return np.flatnonzero(take)


def rank_candidates(p: LinearPencil, rank: int, tol: float,
                    grid_size: int) -> np.ndarray:
    """Grid indices at which ``numerical_rank(p(lam), tol)`` may differ from
    ``rank``.

    The rank falls below rank = min(rows, cols) only where the smallest
    singular value is at most tol * ||p(lam)|| <= tol * M, M = ||a0|| + ||a1||,
    so the candidates are those of ``candidate_indices`` for the Gram
    symbol of p / M on the smaller side minus tau^2 I, tau = max(tol, 1e-7).
    Any other ``rank``, or M = 0, can differ anywhere, and every grid point
    is a candidate.
    """
    rows, cols = p.shape
    bound = spec_norm(p.a0) + spec_norm(p.a1)
    if rank != min(rows, cols) or bound == 0:
        return np.arange(grid_size)
    a0, a1 = p.a0 / bound, p.a1 / bound
    if rows > cols:
        a0, a1 = a0.conj().T, a1.conj().T  # same singular values, conj(lam)
    tau = max(tol, _GRAM_FLOOR)
    gram0 = a0 @ a0.conj().T + a1 @ a1.conj().T - tau ** 2 * np.eye(rank)
    found = candidate_indices(gram0, a1 @ a0.conj().T, grid_size)
    return found if rows <= cols else np.sort(-found % grid_size)


def full_rank_on_grid(p: LinearPencil, rank: int, tol: float,
                      grid_size: int) -> bool:
    """Whether ``numerical_rank(p(lam), tol)`` is ``rank`` at every point
    of the grid of ``grid_size`` points, decided at its ``rank_candidates``
    only."""
    lams = unit_circle_grid(grid_size)[rank_candidates(p, rank, tol, grid_size)]
    return bool(np.all(ranks(evaluate_all(p, lams), tol) == rank))


class PencilKind(Enum):
    UNITARY = "unitary"
    ISOMETRIC = "isometric"
    CONTRACTIVE = "contractive"
    NONE = "none"


@dataclass(frozen=True)
class PencilClass:
    """Classification verdict with the grid norm statistics behind it.

    ``classify`` may leave ``margin`` and ``max_norm_on_grid`` to be
    computed on their first read (see ``classify``); equality, hashing and
    repr read them like any other field.  A verdict from ``classify`` also
    keeps, outside its fields, ``_peak_bound``: an upper bound on the grid
    peak that never reads a lazy one (``factorization.gram_coefficients``
    hands it to ``bauer_factorize``).
    """

    kind: PencilKind
    certified: bool
    margin: float
    max_norm_on_grid: float

    @property
    def is_contractive(self) -> bool:
        return self.kind is not PencilKind.NONE

    @classmethod
    def _with_peak(cls, kind: PencilKind, certified: bool, peak) -> PencilClass:
        """A verdict whose ``(margin, max_norm_on_grid)`` is ``peak()``,
        called on the first read of either."""
        verdict = object.__new__(cls)
        object.__setattr__(verdict, "kind", kind)
        object.__setattr__(verdict, "certified", certified)
        object.__setattr__(verdict, "_peak", peak)
        return verdict

    def _bounded(self, bound: float) -> PencilClass:
        """This verdict with ``_peak_bound`` set to ``bound``."""
        object.__setattr__(self, "_peak_bound", bound)
        return self

    def __getattr__(self, name):
        # reached only for names not in __dict__, such as the two peak
        # fields of a ``_with_peak`` verdict before their first read
        if name not in ("margin", "max_norm_on_grid") or "_peak" not in self.__dict__:
            raise AttributeError(name)
        peak = self.__dict__.pop("_peak")
        margin, max_norm = peak()
        object.__setattr__(self, "margin", margin)
        object.__setattr__(self, "max_norm_on_grid", max_norm)
        return getattr(self, name)


def _decide(p: LinearPencil, low: float, high: float, grid_size: int,
            tol: float) -> tuple[PencilKind, bool] | None:
    """``(kind, certified)`` of a pencil whose grid peak lies in [low, high],
    or None when a cut of ``classify`` falls inside the interval.

    Each cut compares a floating-point expression that is nondecreasing in
    the peak (rounding is monotone): ``4 m^2`` against overflow, ``m^2 - 1``
    against ``tol`` and ``m`` against ``1 - lip``.  A test that gives the
    same answer at both ends gives it at every point in between.
    """
    if math.isinf(4.0 * low * low):
        # ||a0^H a0 + a1^H a1|| <= max ||T||^2 < 4 max_grid ||T||^2 on a grid
        # of 8 or more points, so the Gram of ``isometry_defect`` could
        # overflow: the pencil is far from contractive and is not squared
        return PencilKind.NONE, False
    if math.isinf(4.0 * high * high):
        return None
    if is_isometric(p, tol):
        unitary = is_isometric(LinearPencil(p.a0.conj().T, p.a1.conj().T), tol)
        return (PencilKind.UNITARY if unitary else PencilKind.ISOMETRIC), True
    contractive = low ** 2 - 1.0 <= tol
    if contractive != (high ** 2 - 1.0 <= tol):
        return None
    if not contractive:
        return PencilKind.NONE, False
    lip = spec_norm(p.a1) * math.pi / grid_size
    certified = low <= 1.0 - lip
    if certified != (high <= 1.0 - lip):
        return None
    return PencilKind.CONTRACTIVE, certified


def _grid_statistics(kind: PencilKind, max_norm: float) -> tuple[float, float]:
    """``(margin, max_norm_on_grid)`` of a verdict: boundary pencils
    (isometric ones) have margin 0."""
    isometric = kind in (PencilKind.UNITARY, PencilKind.ISOMETRIC)
    return (0.0 if isometric else 1.0 - max_norm), max_norm


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

    The grid maximum is found without evaluating the whole grid: 16 coarse
    points give gamma, and only the ``candidate_indices`` of
    (1 - 1e-9) I - T^H T / gamma^2, the points where ||T||^2 may exceed
    gamma^2 (1 - 1e-9), join them.  The grid maximum lies among them, so
    the value is bitwise the one of the whole grid.  A pencil whose
    squared grid norm is near overflow is NONE without an isometry test.

    A norm that is the same at every lambda (a1 = 0, or an isometric block
    as with dim Y < dim H) makes every grid point such a candidate.  Then
    the test is taken from the other side: when ``candidate_indices`` of
    (1 + 1e-12) I - T^H T / gamma^2 is empty, ||T(lam_k)||^2 < gamma^2
    (1 + 1e-12) at every grid point, and the grid maximum m lies in
    [gamma, gamma (1 + 1e-12)].  The lower end holds because the coarse
    points are grid points; the upper end covers gamma sqrt(1 + 1e-12)
    with room (about 5e-13 relative) for the round-off of the eigenvalue
    test and of the SVD, near 1e-15.  The verdict is a function of m whose
    three cuts each compare an expression nondecreasing in m (see
    ``_decide``; the isometry test does not read m), so when every cut
    answers the same at both ends it answers the same at m: ``kind`` and
    ``certified`` are those of the whole grid, decided from one more QZ.
    ``margin`` and ``max_norm_on_grid`` are then computed on the whole grid
    the first time either is read, with the same values.  The whole grid
    is evaluated at once instead when a cut falls inside the band (the
    fallback band: gamma^2 - 1 at most about 2e-12 below ``tol``, 1 - lip
    in the band, or overflow at its upper end only), when
    ``unimodular_roots`` finds det of the shifted symbol vanishing on the
    whole circle, or when the second test leaves a candidate.
    """
    if grid_size < 8:
        raise ValueError("grid_size must be at least 8")
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    grid = unit_circle_grid(grid_size)
    coarse = np.unique(np.arange(_COARSE) * grid_size // _COARSE)
    gamma = float(spec_norms(evaluate_all(p, grid[coarse])).max())
    a0, a1 = (p.a0 / gamma, p.a1 / gamma) if gamma > 0 else (p.a0, p.a1)
    eye = np.eye(p.shape[1])
    cross = -a0.conj().T @ a1
    found = candidate_indices((1.0 - _PEAK_SLACK) * eye - a0.conj().T @ a0
                              - a1.conj().T @ a1, cross, grid_size)
    rest = np.zeros(grid_size, dtype=bool)
    rest[found] = True
    rest[coarse] = False

    def peak() -> float:
        return float(spec_norms(evaluate_all(p, grid[rest])).max(initial=gamma))

    if found.size == grid_size and not candidate_indices(
            (1.0 + _FLAT_BAND) * eye - a0.conj().T @ a0 - a1.conj().T @ a1,
            cross, grid_size).size:
        high = gamma * (1.0 + _FLAT_BAND)
        decided = _decide(p, gamma, high, grid_size, tol)
        if decided is not None:
            kind, certified = decided
            return PencilClass._with_peak(
                kind, certified, lambda: _grid_statistics(kind, peak()))._bounded(high)
    max_norm = peak()
    kind, certified = _decide(p, max_norm, max_norm, grid_size, tol)
    return PencilClass(kind, certified,
                       *_grid_statistics(kind, max_norm))._bounded(max_norm)
