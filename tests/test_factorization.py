import math

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from pencildil import (FejerRieszFactor, GramCoefficients, LinearPencil,
                       NoConvergence, NotContractive, NotPSD, bauer_factorize,
                       factorization, gram_coefficients, outer_roots,
                       outer_surrogate_check, verify_factorization)
from pencildil.linalg import spec_norm
from pencildil.pencil import evaluate, unit_circle_grid

SCALAR = LinearPencil([[0.5]], [[0.3]])


def scalar_outer_oracle():
    """Independent oracle: outer root of x^2 - r0 x + |c|^2 = 0."""
    r0, c = 0.66, -0.15
    x = (r0 + math.sqrt(r0 * r0 - 4.0 * c * c)) / 2.0
    return math.sqrt(x), c / math.sqrt(x)


def test_gram_coefficients_examples():
    zero = LinearPencil([[0.0]], [[0.0]])
    g = gram_coefficients(zero)
    np.testing.assert_allclose(g.r0, [[1.0]])
    np.testing.assert_allclose(g.c, [[0.0]])

    g = gram_coefficients(SCALAR)
    assert abs(g.r0[0, 0] - 0.66) < 1e-15
    assert abs(g.c[0, 0] + 0.15) < 1e-15

    iso = LinearPencil(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    g = gram_coefficients(iso)
    assert spec_norm(g.r0) < 1e-14 and spec_norm(g.c) < 1e-14


def test_gram_coefficients_rejects_noncontractive():
    with pytest.raises(NotContractive):
        gram_coefficients(LinearPencil([[0.8]], [[0.5]]))


def test_bauer_scalar_matches_quadratic_oracle():
    f = bauer_factorize(gram_coefficients(SCALAR))
    f0, f1 = scalar_outer_oracle()
    assert abs(f.f0[0, 0] - f0) < 1e-10
    assert abs(f.f1[0, 0] - f1) < 1e-10
    roots = outer_roots(f)
    assert roots.size == 1 and abs(roots[0]) > 1.0  # root ~ 4.16, outside


def test_bauer_trivial_and_degenerate():
    n = 3
    g = GramCoefficients(np.eye(n), np.zeros((n, n)))
    f = bauer_factorize(g)
    assert f.dim_y == n
    np.testing.assert_allclose(f.f0, np.eye(n), atol=1e-12)
    np.testing.assert_allclose(f.f1, np.zeros((n, n)), atol=1e-12)

    empty = bauer_factorize(GramCoefficients(np.zeros((2, 2)), np.zeros((2, 2))))
    assert empty.dim_y == 0


def test_bauer_rejects_indefinite_symbol():
    with pytest.raises(NotPSD):
        bauer_factorize(GramCoefficients(np.diag([1.0, -1.0]), np.zeros((2, 2))))


def test_bauer_boundary_singular_raises_no_convergence():
    # |T(1)| = 1: the defect symbol vanishes at lam = 1 and doubling only
    # converges linearly, so a 5-step budget is exhausted.
    g = gram_coefficients(LinearPencil([[0.5]], [[0.5]]))
    with pytest.raises(NoConvergence, match="stalled") as info:
        bauer_factorize(g, max_iter=5)
    assert info.value.residual is not None and info.value.residual > 0


def test_bauer_boundary_singular_converges_to_the_double_root():
    # X = 0.5 - 0.0625 / X has the double root X = 0.25: F = 0.5 - 0.5*lam,
    # whose root z = 1 lies on the circle.
    f = bauer_factorize(gram_coefficients(LinearPencil([[0.5]], [[0.5]])))
    assert abs(f.f0[0, 0] - 0.5) <= 1e-10 and abs(f.f1[0, 0] + 0.5) <= 1e-10
    assert abs(abs(outer_roots(f)[0]) - 1.0) <= 1e-10


def pinv(x):
    return np.linalg.pinv(x, rcond=1e-10, hermitian=True)


def linear_bauer_oracle(g, tol=1e-12, max_iter=100000):
    """The linear Bauer fixed point X <- r0 - c^H X^+ c, one step at a time."""
    x = g.r0.copy()
    for _ in range(max_iter):
        x_next = g.r0 - g.c.conj().T @ pinv(x) @ g.c
        x_next = 0.5 * (x_next + x_next.conj().T)
        step = spec_norm(x_next - x)
        x = x_next
        if step <= tol:
            return x
    raise AssertionError("linear Bauer oracle did not converge")


def fixed_point_residual(g, x):
    """||X - r0 + c^H X^+ c||: zero exactly at a solution of the Bauer equation."""
    return spec_norm(x - g.r0 + g.c.conj().T @ pinv(x) @ g.c)


def circle_sup(a0, a1):
    """sup over |lam| = 1 of ||a0 + lam*a1||: a dense scan polished by Brent."""
    thetas = 2 * np.pi * np.arange(1024) / 1024
    values = np.linalg.norm(a0[None] + np.exp(1j * thetas)[:, None, None] * a1[None],
                            ord=2, axis=(1, 2))
    k = int(np.argmax(values))
    best = scipy.optimize.minimize_scalar(
        lambda theta: -spec_norm(a0 + np.exp(1j * theta) * a1),
        bounds=(thetas[k] - 2 * np.pi / 1024, thetas[k] + 2 * np.pi / 1024),
        method="bounded", options={"xatol": 1e-12})
    return max(float(values[k]), -best.fun)


def _gaussian(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _unitary(rng, n):
    return np.linalg.qr(_gaussian(rng, n))[0]


def _at_margin(a0, a1, margin):
    scale = (1.0 - margin) / circle_sup(a0, a1)
    return LinearPencil(scale * a0, scale * a1)


def margin_pencils(margin, seed=41):
    """Gaussian pencils at n = 2, 4, 8 whose sup norm on the circle is 1 - margin."""
    rng = np.random.default_rng([seed, round(-math.log10(margin))])
    return [_at_margin(_gaussian(rng, n), _gaussian(rng, n), margin) for n in (2, 4, 8)]


def structured_pencils(seed=42):
    """At margin 0.05 and n = 6: a defect with dim Y = 3 < dim H (isometric on
    half of H), a1 = 0, and a nilpotent pencil."""
    rng = np.random.default_rng(seed)
    core = _at_margin(_gaussian(rng, 3), _gaussian(rng, 3), 0.05)
    w = _unitary(rng, 6)
    a0 = scipy.linalg.block_diag(_unitary(rng, 3), core.a0)
    a1 = scipy.linalg.block_diag(np.zeros((3, 3)), core.a1)
    pencils = [LinearPencil(w @ a0 @ w.conj().T, w @ a1 @ w.conj().T),
               _at_margin(_gaussian(rng, 6), np.zeros((6, 6)), 0.05)]
    w = _unitary(rng, 6)
    a0, a1 = (w @ np.triu(_gaussian(rng, 6), 1) @ w.conj().T for _ in range(2))
    return pencils + [_at_margin(a0, a1, 0.05)]


def test_doubling_matches_the_linear_oracle_on_the_corpus(corpus):
    for t in corpus:
        g = gram_coefficients(t)
        f = bauer_factorize(g, max_iter=8)  # step-count guard
        x = f.f0.conj().T @ f.f0
        assert spec_norm(x - linear_bauer_oracle(g)) <= 1e-12
        assert fixed_point_residual(g, x) <= 1e-13


def test_doubling_matches_the_linear_oracle_near_the_edge():
    pencils = [t for m in (1e-2, 1e-3, 1e-4) for t in margin_pencils(m)]
    dims_y = []
    for t in pencils + structured_pencils():
        g = gram_coefficients(t)
        f = bauer_factorize(g)
        x = f.f0.conj().T @ f.f0
        assert spec_norm(x - linear_bauer_oracle(g)) <= 1e-9
        assert fixed_point_residual(g, x) <= 1e-13
        dims_y.append(f.dim_y)
    assert dims_y[-3:] == [3, 6, 6]  # dim Y < dim H, a1 = 0, nilpotent


def test_doubling_solves_margin_1e8_pencils():
    # The linear oracle needs far too many steps here; the fixed point
    # equation itself is the reference.
    for t in margin_pencils(1e-8):
        g = gram_coefficients(t)
        f = bauer_factorize(g)
        assert fixed_point_residual(g, f.f0.conj().T @ f.f0) <= 1e-13


def test_outer_root_check_runs_at_every_dimension(monkeypatch):
    rng = np.random.default_rng(12)
    g = gram_coefficients(_at_margin(_gaussian(rng, 12), _gaussian(rng, 12), 0.1))
    assert bauer_factorize(g).dim_y == 12
    monkeypatch.setattr(factorization, "outer_roots",
                        lambda f: np.array([0.5 + 0j]))
    with pytest.raises(NoConvergence, match="not outer"):
        bauer_factorize(g)


def test_verify_factorization_and_perturbation():
    f = bauer_factorize(gram_coefficients(SCALAR))
    assert verify_factorization(SCALAR, f) <= 1e-9
    bumped = FejerRieszFactor(f.f0 + 1e-3, f.f1)
    assert verify_factorization(SCALAR, bumped) > 1e-4


def test_verify_factorization_isometric_empty_factor():
    iso = LinearPencil(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    f = bauer_factorize(gram_coefficients(iso))
    assert f.dim_y == 0
    assert verify_factorization(iso, f) <= 1e-12


def test_outer_surrogate_examples():
    assert outer_surrogate_check(FejerRieszFactor(np.eye(2), np.zeros((2, 2))))
    f = bauer_factorize(gram_coefficients(SCALAR))
    assert outer_surrogate_check(f)
    # anti-outer factor: same modulus profile, root inside the disk.  The
    # pointwise rank surrogate still passes; only the root check tells.
    f0, f1 = scalar_outer_oracle()
    swapped = FejerRieszFactor([[-f1]], [[-f0]])
    assert verify_factorization(SCALAR, swapped) <= 1e-10
    assert outer_surrogate_check(swapped)
    roots = outer_roots(swapped)
    assert roots.size == 1 and abs(roots[0]) < 1.0


def test_classical_defect_operator():
    rng = np.random.default_rng(21)
    a0 = rng.standard_normal((3, 3))
    a0 *= 0.9 / spec_norm(a0)
    t = LinearPencil(a0, np.zeros((3, 3)))
    f = bauer_factorize(gram_coefficients(t))
    assert spec_norm(f.f1) <= 1e-12
    np.testing.assert_allclose(f.f0.conj().T @ f.f0,
                               np.eye(3) - a0.conj().T @ a0, atol=1e-10)


def test_factor_defect_duality_and_cross_identity(corpus, all_chains):
    rng = np.random.default_rng(23)
    for t, chain in zip(corpus[:6], all_chains[:6]):
        f = chain.factor
        cross = spec_norm(f.f1.conj().T @ f.f0 + t.a1.conj().T @ t.a0)
        assert cross <= 1e-8
        n = t.shape[0]
        for lam in unit_circle_grid(8):
            for _ in range(3):
                x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                x /= np.linalg.norm(x)
                total = (np.linalg.norm(f(lam) @ x) ** 2
                         + np.linalg.norm(evaluate(t, lam) @ x) ** 2)
                assert abs(total - 1.0) <= 1e-8


def test_constant_coefficient_has_full_range_in_y(all_chains):
    from pencildil import numerical_rank
    for chain in all_chains[:8]:
        f = chain.factor
        assert numerical_rank(f.f0, 1e-10) == f.dim_y


def test_left_unitary_gauge_invariance(scalar_chain):
    f = scalar_chain.factor
    theta = 0.7
    w = np.array([[np.exp(1j * theta)]])
    gauged = FejerRieszFactor(w @ f.f0, w @ f.f1)
    assert verify_factorization(SCALAR, gauged) <= 1e-9
    assert outer_surrogate_check(gauged)
    # gauge-invariant quantities: products F^H F and root moduli
    np.testing.assert_allclose(np.abs(outer_roots(gauged)),
                               np.abs(outer_roots(f)), atol=1e-10)
