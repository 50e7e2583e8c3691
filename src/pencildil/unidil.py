"""Minimal unitary extension of a structured isometric pencil.

The construction runs entirely inside the finite output window of the
core: the closed range of the pencil covers every deeper tail slot, so the
wandering space L, the gap space K1 between the full range and the range
at parameter 1, and the column space U = K1 (+) L are all finite
computations.  The extension acts on K = K+ (+) (+)_{1}^{inf} U by feeding
future slot 1 through the isometric pencil Q(lam) = [P(lam)|K1, 0; 0, I_L]
and shifting the remaining future slots down; it is unitary exactly when
its square core block [C | Q] is.

U's window letters are built as V's are, by ``isodil.dense_coefficient``
and ``isodil.dilation_letters``, from its core block [C | Q]: they are the
one description of how U acts.  A vector of K is a column of a window
array [slot -t | ... | slot -1 | head | future 1 | ... | future f] (f = 0
for K+), and ``words.act`` applies U0 + lam U1 or its adjoint to a whole
block of such columns, one lambda per column.  U's dilation (compression
tower), uniformity and minimality reports are ``isodil.check_dilation``,
``isodil.check_uniform`` and ``isodil.check_minimality`` on these letters.

For the depth-0 canonical core C = [F; T] the core block [C | Q] is the
block function theta(z) = [[F, P_Y Q], [T, P_H Q]] from H (+) U into
Y (+) H: linear, contractive on the disk and unitary on the circle.  Its
corner blocks carry the density conditions checked (pointwise, as a
surrogate) by ``check_biinner``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, NotIsometric, PencilError
from .isodil import StructuredIsometricPencil, dilation_letters
from .linalg import (SubspaceBasis, adjoints, orthocomplement_within,
                     orthonormal_range, projector, spec_norms)
from .pencil import (LinearPencil, evaluate_all, full_rank_on_grid,
                     is_isometric, isometry_defect)
from .reporting import Report

_ISO_TOL = 1e-8
_RANK_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class CoreSubspaces:
    """Subspace data of the extension, all inside the core output window."""

    window_prime_dim: int
    ran_n0: SubspaceBasis
    ran_n1: SubspaceBasis
    l_space: SubspaceBasis
    k1_space: SubspaceBasis
    u_space: SubspaceBasis
    p0: np.ndarray
    p1: np.ndarray


@dataclass(frozen=True, eq=False)
class QPencil:
    """Isometric pencil mapping U-coordinates into the window of K+."""

    q0: np.ndarray
    q1: np.ndarray

    def __post_init__(self):
        q0 = np.asarray(self.q0, dtype=complex)
        q1 = np.asarray(self.q1, dtype=complex)
        if q0.shape != q1.shape:
            raise DimensionMismatch("Q coefficients must have equal shape")
        q = LinearPencil(q0, q1)
        if not is_isometric(q, _ISO_TOL):
            raise NotIsometric(
                f"Q pencil is not isometric (defect {isometry_defect(q):.3e})")
        object.__setattr__(self, "q0", q0)
        object.__setattr__(self, "q1", q1)

    @property
    def dim_u(self) -> int:
        return self.q0.shape[1]

    def __call__(self, lam: complex) -> np.ndarray:
        return self.q0 + lam * self.q1

    def as_pencil(self) -> LinearPencil:
        return LinearPencil(self.q0, self.q1)


def core_subspaces(v: StructuredIsometricPencil,
                   rank_tol: float = 1e-10) -> CoreSubspaces:
    """Ranges, wandering space L, gap space K1 and U = K1 (+) L.

    Within the output window: the closed range of the pencil splits as
    ran(B0) (+) ran(B1) (the cross term B1^H B0 vanishes for isometric
    pencils), L is its orthocomplement, and K1 is the complement of
    ran(B0 + B1) inside the split range.  Deeper tail slots always belong
    to the range of the shift part, so nothing escapes the window.
    The cross term is part of the core's ``core_defect``; an overlap of
    the ranges that its cutoff lets through collapses the combined rank or
    shows in the isometry defect of Q, which ``QPencil`` bounds the same way.
    """
    if v.core_defect > _ISO_TOL:
        raise NotIsometric(f"core pencil is not isometric (defect {v.core_defect:.3e})")
    wp = v.window_prime_dim
    b0, b1 = v.core.a0, v.core.a1
    ran0 = orthonormal_range(b0, rank_tol)
    ran1 = orthonormal_range(b1, rank_tol)
    combined = orthonormal_range(np.hstack([b0, b1]), rank_tol)
    if combined.dim != ran0.dim + ran1.dim:
        raise NotIsometric("coefficient ranges overlap")
    l_space = orthocomplement_within(SubspaceBasis.full(wp), combined)
    k1 = orthocomplement_within(combined, orthonormal_range(b0 + b1, rank_tol))
    u_basis = np.hstack([k1.basis, l_space.basis])
    u_space = SubspaceBasis(wp, u_basis)
    if k1.dim != ran0.dim + ran1.dim - v.window_dim:
        raise PencilError("gap space dimension violates the rank bookkeeping")
    if u_space.dim != v.dim_y:
        raise PencilError("dim U != dim Y: construction is inconsistent")
    return CoreSubspaces(
        window_prime_dim=wp,
        ran_n0=ran0,
        ran_n1=ran1,
        l_space=l_space,
        k1_space=k1,
        u_space=u_space,
        p0=projector(ran0),
        p1=projector(ran1),
    )


def build_q(cores: CoreSubspaces) -> QPencil:
    """Q(lam) = [P(lam)|K1, 0; 0, I_L] in U-coordinates (K1 block first)."""
    k1 = cores.k1_space.basis
    l_basis = cores.l_space.basis
    q0 = np.hstack([cores.p0 @ k1, l_basis])
    q1 = np.hstack([cores.p1 @ k1, np.zeros((cores.window_prime_dim, l_basis.shape[1]))])
    return QPencil(q0, q1)


@dataclass(frozen=True, eq=False)
class UnitaryDilation:
    """Structured unitary pencil on K = K+ (+) future copies of U."""

    v: StructuredIsometricPencil
    q: QPencil
    cores: CoreSubspaces

    @property
    def dim_y(self) -> int:
        return self.v.dim_y

    @property
    def dim_h(self) -> int:
        return self.v.dim_h

    @property
    def dim_u(self) -> int:
        return self.q.dim_u

    @property
    def core_depth(self) -> int:
        return self.v.core_depth

    @cached_property
    def core_block(self) -> LinearPencil:
        """The square pencil [C | Q] from the core window W (+) U onto W'.

        U(lam) acts on the core window and future slot 1 by this block and
        only shifts the other slots, onto slots orthogonal to W'.  Built on
        first use and kept: V and Q are fixed when U is.
        """
        return LinearPencil(np.hstack([self.v.core.a0, self.q.q0]),
                            np.hstack([self.v.core.a1, self.q.q1]))


def build_unitary(v: StructuredIsometricPencil) -> UnitaryDilation:
    """Minimal unitary extension of an isometric structured pencil."""
    cores = core_subspaces(v)
    return UnitaryDilation(v=v, q=build_q(cores), cores=cores)


def q_identity_residuals(v: StructuredIsometricPencil, q: QPencil,
                         lams) -> np.ndarray:
    """Larger residual of I - V V^* = Q Q^* and V^* Q = 0 at each lambda.

    Both identities reduce to the core output window W' (slots
    -(d+1)..-1 and the head, dimension wp).  V(lam) is the core value C(lam)
    from the core window W into W' plus the identity shift of every tail
    slot -n, n >= d+1, onto slot -(n+1).  The shift is lambda-independent
    and its range, the slots below -(d+1), is orthogonal to W', so
    V V^* = (projection onto those slots) (+) C C^* and
    I - V V^* - Q Q^* = 0 (+) (I_wp - C C^* - Q Q^*) since Q maps into W'.
    On W' the adjoint V^* is C^* (the shift adjoint only reads the slots
    below W'), so V^* Q = C^* Q.  The residual at lam is therefore
    max(||I_wp - C C^* - Q Q^*||, ||C^* Q||), computed for the whole grid
    as (G, wp, .) stacks.
    """
    cv = evaluate_all(v.core, lams)
    qv = evaluate_all(q.as_pencil(), lams)
    defect = np.eye(v.window_prime_dim) - cv @ adjoints(cv) - qv @ adjoints(qv)
    return np.maximum(spec_norms(defect), spec_norms(adjoints(cv) @ qv))


def q_identity_defect(u: UnitaryDilation) -> float:
    """Bound on I - V V^* = Q Q^* and V^* Q = 0 over the whole circle.

    These are B B^* = I and part of B^* B = I for B = ``core_block``, so the
    larger ``isometry_defect`` of B and of its adjoint lies in [M, 3M] for
    the circle maximum M of ``q_identity_residuals``.
    """
    block = u.core_block
    adjoint = LinearPencil(block.a0.conj().T, block.a1.conj().T)
    return max(isometry_defect(block), isometry_defect(adjoint))


def check_unitarity(u: UnitaryDilation, tol: float = 1e-10) -> Report:
    """U(lam)^* U(lam) = I = U(lam) U(lam)^* on all of K for every
    |lam| = 1, decided on U's letters.

    On the circle U^*U - I = (U0^*U0 + U1^*U1 - I) + lam U0^*U1 +
    conj(lam) U1^*U0, so the ``isometry_defect`` of the pencil (U0, U1),
    ||U0^*U0 + U1^*U1 - I|| + 2||U0^*U1||, bounds ||U^*U - I|| at every lam;
    that of (U0^*, U1^*) bounds ||UU^* - I|| the same way.  Both terms are
    Fourier coefficients of the circle function, so each bound lies in
    [M, 3M] for its circle maximum M.

    The letters are ``dilation_letters`` for words of length 2, on the
    window of tail depth d + 3 and future depth 3 (d the core depth), read
    on the interior coordinates I that leave out the deepest tail slot and
    the outermost future slot; the residual is the larger of the two
    bounds there.  They hold on all of
    K.  Write W for tail slots -d..-1 and the head, W' for slots
    -(d+1)..-1 and the head, and F1 for future slot 1.  U1 is zero outside
    the columns W + F1, and both letters map those columns into W'.  Every
    other column (tail slot -n, n >= d + 1, or future slot k + 1) is moved
    by U0 identically onto its own coordinate outside W' (slot -(n+1), or
    future slot k), which no other column of U0 or U1 reaches; and every
    row outside W' is such a coordinate.  So U0^*U0 + U1^*U1 - I and
    U0^*U1 vanish outside the columns W + F1, and U0U0^* + U1U1^* - I and
    U0U1^* outside the rows W'; both sets lie in I.  The window letters are
    the compression of U0 and U1 to the window, and every row a column of
    I reaches, and every column that reaches a row of I, lies in the
    window, so these products are exact on I.  On failure the witness
    names the side, ``U^*U`` or ``UU^*``, with the larger bound; the
    details carry both.
    """
    u0, u1 = dilation_letters(u, u.dim_h, 2).ops
    inner = slice(u.dim_y, len(u0) - u.dim_u)
    sides = {
        "U^*U": isometry_defect(LinearPencil(u0[:, inner], u1[:, inner])),
        "UU^*": isometry_defect(LinearPencil(u0[inner].conj().T,
                                             u1[inner].conj().T)),
    }
    worst = max(sides, key=sides.get)
    details = [{"side": side, "residual": resid} for side, resid in sides.items()]
    witness = {"side": worst} if sides[worst] > tol else None
    return Report.from_residual("unitarity", sides[worst], tol, witness, details)


def theta_boundary_residuals(theta: LinearPencil, lams) -> np.ndarray:
    """||theta(lam)^H theta(lam) - I|| at each lam (boundary isometry)."""
    values = evaluate_all(theta, lams)
    return spec_norms(adjoints(values) @ values - np.eye(theta.shape[1]))


def check_biinner(theta: LinearPencil, dim_y: int, dim_h: int, dim_u: int,
                  grid_size: int = 64, tol: float = 1e-9,
                  rank_tol: float = _RANK_TOL) -> Report:
    """Boundary unitarity, disk contractivity and pointwise density ranks.

    Boundary unitarity of the square theta is its ``isometry_defect``, a
    bound for the whole circle.  That bound also settles contractivity on
    the disk: theta is a polynomial, so by the maximum principle
    ||theta(z)|| <= sqrt(1 + defect) <= 1 + defect/2 for |z| <= 1, and no
    interior point can exceed the boundary residual; nothing is sampled
    inside.  The rank conditions on the corner blocks stand in for the L^2
    density conditions; full pointwise rank on the grid is reported as a
    surrogate, not a certificate.  Each corner is ranked by
    ``full_rank_on_grid``, only at its ``rank_candidates``, with the answer
    of the whole grid.  A ``grid_size`` below 1 raises ValueError.
    """
    if grid_size < 1:
        raise ValueError("grid_size must be at least 1")
    rows, cols = theta.shape
    if rows != dim_y + dim_h or cols != dim_h + dim_u:
        raise DimensionMismatch("theta block dimensions are inconsistent")
    worst = isometry_defect(theta)
    witness = {"where": "boundary"} if worst > 0.0 else None

    def full_rank(block, rank):
        corner = LinearPencil(theta.a0[block], theta.a1[block])
        return full_rank_on_grid(corner, rank, rank_tol, grid_size)

    rank_ok = (full_rank(np.s_[:dim_y, :dim_h], dim_y)
               and full_rank(np.s_[dim_y:, dim_h:], dim_u))
    if not rank_ok:
        worst = max(worst, 1.0)
        witness = {"where": "density-surrogate"}
    details = [{"density_check": "pointwise rank surrogate", "passed": rank_ok}]
    return Report.from_residual("theta-biinner", worst, tol, witness, details)
