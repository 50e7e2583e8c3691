"""Batched grid checks against the point-by-point loops they replace.

Each reference below evaluates one lambda at a time, as the checks did
before the grids were stacked and localised.  Classification,
factorization, the outer surrogate and the biinner report must agree
exactly: the batched LAPACK calls see the same matrices, and localisation
only leaves out grid points that cannot change an answer (isometry and
theta's boundary unitarity are decided on the coefficients by
``isometry_defect`` in both).  The Q identities are computed on smaller
(exactly equivalent) matrices and agree to round-off, and the coefficients
the compression tower decides on, summed against powers of lambda, match
the tower at each lambda; both references act slot by slot through
``slot_oracle``, never through the window letters.
"""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pencildil import (FejerRieszFactor, GramCoefficients, LinearPencil,
                       NoConvergence, NotContractive, NotPSD, PencilError, Report,
                       bauer_factorize, canonical_chain, check_biinner,
                       check_dilation, classify, evaluate_all,
                       isometry_defect, outer_surrogate_check, run_pipeline,
                       seeded_corpus)
from pencildil import linalg
from pencildil import pencil as pencil_module
from pencildil.factorization import factorization_residuals
from pencildil.isodil import dilation_letters, window_dim
from pencildil.linalg import numerical_rank, ranks, spec_norm, spec_norms
from pencildil.pencil import (PencilClass, PencilKind, candidate_indices,
                              evaluate, rank_candidates, unimodular_roots,
                              unit_circle_grid)
from pencildil.unidil import q_identity_residuals, theta_boundary_residuals
from pencildil.words import grouped_sums
from slot_oracle import column, u_act, u_adjoint, v_act

ROUND_OFF = 1e-15


def _rotation(n, seed=5):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _dim_y_below_dim_h():
    """Isometric on one line of H, so the defect has rank 1 < dim H = 2."""
    w = _rotation(2)
    a0, a1 = np.diag([1.0, 0.5]), np.diag([0.0, 0.3])
    return LinearPencil(w @ a0 @ w.conj().T, w @ a1 @ w.conj().T)


ISOMETRIC = LinearPencil(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))


@pytest.fixture(scope="module")
def pencils(corpus):
    return list(corpus) + [_dim_y_below_dim_h(), ISOMETRIC]


@pytest.fixture(scope="module")
def chains(all_chains):
    return list(all_chains) + [canonical_chain(_dim_y_below_dim_h()),
                               canonical_chain(ISOMETRIC)]


def test_special_inputs_have_the_intended_dimensions(chains):
    assert chains[-2].factor.dim_y == 1 and chains[-2].factor.dim_h == 2
    assert chains[-1].factor.dim_y == 0


# --- references: one lambda at a time ------------------------------------


def loop_classify(p, grid_size=256, tol=1e-10):
    eye_in = np.eye(p.shape[1])
    values = [evaluate(p, lam) for lam in unit_circle_grid(grid_size)]
    max_norm = max((spec_norm(v) for v in values), default=0.0)
    if isometry_defect(p) <= tol:  # decided on the coefficients, not looped
        adjoint = LinearPencil(p.a0.conj().T, p.a1.conj().T)
        unitary = isometry_defect(adjoint) <= tol
        kind = PencilKind.UNITARY if unitary else PencilKind.ISOMETRIC
        return PencilClass(kind, True, 0.0, max_norm)
    min_eig = min(
        (float(np.linalg.eigvalsh(eye_in - v.conj().T @ v)[0]) for v in values),
        default=0.0,
    )
    margin = 1.0 - max_norm
    if min_eig >= -tol:
        lip = spec_norm(p.a1) * math.pi / grid_size
        return PencilClass(PencilKind.CONTRACTIVE, max_norm <= 1.0 - lip,
                           margin, max_norm)
    return PencilClass(PencilKind.NONE, False, margin, max_norm)


def verdict_before_peak(p, grid_size):
    """``kind`` and ``certified`` of a fresh ``classify`` result, read
    before its peak (``margin``, ``max_norm_on_grid``) is."""
    verdict = classify(p, grid_size)
    return verdict.kind, verdict.certified


def loop_not_psd_message(g, grid_size=256, tol=1e-12):
    for lam in unit_circle_grid(grid_size):
        w = np.linalg.eigvalsh(g.r0 + lam * g.c + np.conj(lam) * g.c.conj().T)
        if w.size and w[0] < -tol:
            return f"defect symbol has eigenvalue {w[0]:.3e} at lam={lam:.4f}"
    return None


def loop_factorization_residuals(t, f, lams):
    n = t.shape[1]
    out = []
    for lam in lams:
        tv = evaluate(t, lam)
        fv = f(lam)
        out.append(spec_norm(fv.conj().T @ fv - (np.eye(n) - tv.conj().T @ tv)))
    return out


def loop_outer_surrogate(f, grid_size=256, tol=1e-10):
    if f.dim_y == 0:
        return True
    return all(numerical_rank(f(lam), tol) == f.dim_y
               for lam in unit_circle_grid(grid_size))


def loop_biinner(theta, dim_y, dim_h, dim_u, grid_size=64, tol=1e-9,
                 rank_tol=1e-8):
    worst, witness, rank_ok = 0.0, None, True
    boundary = isometry_defect(theta)  # decided on the coefficients
    if boundary > worst:
        worst, witness = boundary, {"where": "boundary"}
    for lam in unit_circle_grid(grid_size):
        val = evaluate(theta, lam)
        if numerical_rank(val[:dim_y, :dim_h], rank_tol) != dim_y:
            rank_ok = False
        if numerical_rank(val[dim_y:, dim_h:], rank_tol) != dim_u:
            rank_ok = False
    if not rank_ok:
        worst, witness = max(worst, 1.0), {"where": "density-surrogate"}
    details = [{"density_check": "pointwise rank surrogate", "passed": rank_ok}]
    return Report.from_residual("theta-biinner", worst, tol, witness, details)


def disk_samples(count=32):
    """Deterministic points of the open unit disk: four radii, count angles."""
    radii = np.array([0.15, 0.45, 0.75, 0.95])
    k = np.arange(count)
    return radii[k % 4] * np.exp(2j * np.pi * k / count)


def oracle_rect(v, lam, t):
    """Exact matrix of V(lam) from a depth-t window into a depth-(t+1) one,
    one column per basis vector, from the slot-by-slot oracle."""
    basis = np.eye(window_dim(v, t))
    cols = []
    for e in basis:
        tail = [e[(t - 1 - i) * v.dim_y:(t - i) * v.dim_y] for i in range(t)]
        cols.append(column(v_act(v, lam, tail, e[t * v.dim_y:]) + ([],),
                           v.dim_y, t + 1))
    return np.stack(cols, axis=1) if cols else np.zeros((window_dim(v, t + 1), 0))


def loop_q_residuals(v, q, lams):
    """I - V V^* - Q Q^* and V^* Q on a window two slots deeper than the core."""
    t = v.core_depth + 3
    din, dout = window_dim(v, t), window_dim(v, t + 1)
    wp = v.window_prime_dim
    embed = np.zeros((dout, din), dtype=complex)
    embed[dout - din:, :] = np.eye(din)
    out = []
    for lam in lams:
        vt = oracle_rect(v, lam, t)
        qs = q(lam)
        qq = np.zeros((dout, din), dtype=complex)
        qq[dout - wp:, din - wp:] = qs @ qs.conj().T
        r1 = spec_norm(embed - vt @ (vt.conj().T @ embed) - qq)
        q_emb = np.zeros((dout, qs.shape[1]), dtype=complex)
        q_emb[dout - wp:, :] = qs
        out.append(max(r1, spec_norm(vt.conj().T @ q_emb)))
    return out


def oracle_tower(u, t, lam, max_n):
    """(T(lam)^n, P_H U(lam)^n|H, P_H U(lam)^{-n}|H) for n = 1..max_n, from
    the slot-by-slot oracle."""
    n_t = t.shape[0]
    forward = backward = [([], np.eye(u.dim_h)[:, j], []) for j in range(n_t)]
    power = np.eye(n_t, dtype=complex)
    for _ in range(max_n):
        power = evaluate(t, lam) @ power
        forward = [u_act(u, lam, x) for x in forward]
        backward = [u_adjoint(u, lam, x) for x in backward]
        yield (power, np.stack([x[1][:n_t] for x in forward], axis=1),
               np.stack([x[1][:n_t] for x in backward], axis=1))


def loop_tower_worst(u, t, max_n=6, grid_size=32):
    """Largest tower residual, both power signs, from the slot-by-slot oracle."""
    return max((max(spec_norm(fwd - power), spec_norm(bwd - power.conj().T))
                for lam in unit_circle_grid(grid_size)
                for power, fwd, bwd in oracle_tower(u, t, lam, max_n)),
               default=0.0)


# --- parity ----------------------------------------------------------------


def test_evaluate_all_and_stack_helpers_match_pointwise(pencils):
    grid = unit_circle_grid(64)
    for p in pencils:
        values = evaluate_all(p, grid)
        assert np.array_equal(values, np.stack([evaluate(p, lam) for lam in grid]))
        assert np.array_equal(spec_norms(values), [spec_norm(v) for v in values])
        assert np.array_equal([spec_norm(v) for v in values],
                              [np.linalg.norm(v, 2) for v in values])
        for tol in (1e-10, 0.5):
            assert np.array_equal(ranks(values, tol),
                                  [numerical_rank(v, tol) for v in values])
    empty = np.zeros((3, 0, 2))
    assert np.array_equal(spec_norms(empty), np.zeros(3))
    assert np.array_equal(ranks(empty), np.zeros(3, dtype=int))


def test_classify_matches_loop(pencils):
    scaled = [LinearPencil(1.1 * p.a0, 1.1 * p.a1) for p in pencils[:6]]
    # max |T| = 0.5 + a1 at lam = 1, a grid point, so max_norm**2 - 1 is
    # 0.5 tol (contractive), 1.5 tol and 2 tol (not contractive) for
    # tol = 1e-10; at 1.5 tol, max_norm - 1 is still below tol
    near_tol = [LinearPencil([[0.5]], [[math.sqrt(1 + f * 1e-10) - 0.5]])
                for f in (0.5, 1.5, 2.0)]
    # extreme scales: localisation squares the pencil, normalised first
    extreme = [LinearPencil(s * p.a0, s * p.a1) for s in (1e100, 1e-200)
               for p in pencils[3:5]]
    for p in pencils + scaled + near_tol + extreme:
        for grid_size in (8, 256):
            want = loop_classify(p, grid_size)
            assert verdict_before_peak(p, grid_size) == (want.kind, want.certified)
            assert classify(p, grid_size) == loop_classify(p, grid_size)
    assert [classify(p).kind for p in near_tol] == [PencilKind.CONTRACTIVE,
                                                    PencilKind.NONE,
                                                    PencilKind.NONE]
    kinds = {classify(p).kind for p in pencils + scaled}
    assert kinds == {PencilKind.CONTRACTIVE, PencilKind.UNITARY, PencilKind.NONE}


def spec_norm_rows(monkeypatch):
    """A list that collects the number of matrices of every stack passed
    to ``linalg.spec_norms``, from whichever module calls it."""
    rows = []
    real = linalg.spec_norms

    def counting(stack):
        stack = np.asarray(stack)
        rows.append(math.prod(stack.shape[:-2]))
        return real(stack)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "pencildil" and vars(module).get("spec_norms") is real:
            monkeypatch.setattr(module, "spec_norms", counting)
    return rows


@pytest.mark.parametrize("family, dim_y, certified", [("flat", 4, False),
                                                     ("a1=0", 8, True)])
def test_flat_chains_evaluate_only_the_coarse_points(monkeypatch, family, dim_y,
                                                     certified):
    # the edge workload's dim Y < dim H and a1 = 0 pencils at n = 8: their
    # norm is flat (1 and 0.95), and the chain reads only whether they are
    # contractive
    t = family_pencil(family, 8, 0, 0.05)
    rows = spec_norm_rows(monkeypatch)
    assert canonical_chain(t).factor.dim_y == dim_y
    assert rows == [16]
    verdict, want = classify(t), loop_classify(t)
    assert (verdict.kind, verdict.certified) == (PencilKind.CONTRACTIVE, certified)
    assert rows == [16, 16]
    # the peak, once read, is the whole grid's
    assert repr(verdict) == repr(want) and hash(verdict) == hash(want)
    assert verdict == want
    assert rows == [16, 16, 240]


@pytest.mark.parametrize("peak_sq, certified", [
    (1.0 + 1e-10 - 0.5e-12, False),  # gamma^2 - 1 just below tol = 1e-10
    ((1.0 - 0.5e-12) ** 2, True),    # gamma just below 1 - lip = 1 (a1 = 0)
])
def test_flat_pencils_in_the_fallback_band_take_the_whole_grid(monkeypatch, peak_sq,
                                                              certified):
    # a cut inside [gamma, gamma (1 + 1e-12)]: only the whole grid decides
    t = family_pencil("a1=0", 4, 5, 0.0)
    t = LinearPencil(math.sqrt(peak_sq) / spec_norm(t.a0) * t.a0, t.a1)
    rows = spec_norm_rows(monkeypatch)
    for grid_size in GRID_SIZES:
        coarse = min(grid_size, 16)
        rows.clear()
        verdict = classify(t, grid_size)
        assert rows == [coarse, grid_size - coarse]
        assert verdict == loop_classify(t, grid_size)
        assert (verdict.kind, verdict.certified) == (PencilKind.CONTRACTIVE, certified)
    # outside the band the same pencil is decided on the coarse points
    t = LinearPencil((1.0 - 1e-6) / spec_norm(t.a0) * t.a0, t.a1)
    rows.clear()
    assert verdict_before_peak(t, 256) == (PencilKind.CONTRACTIVE, True)
    assert rows == [16]


def test_a_flat_block_at_the_level_does_not_hide_a_peak():
    # diag(c, b (1 + lam conj(mu)) / 2): the scalar peaks at |b| = 1.001 at
    # mu, grid point 8 of 256, midway between two coarse points, where it
    # is gamma = |b| cos(pi / 32) < 1.  With c^2 = gamma^2 (1 - 1e-9), det R
    # of the slack test vanishes on the whole circle and every point is a
    # candidate, yet the peak lies far above gamma (1 + 1e-12): the second
    # test finds the arc around mu, and only the whole grid says NONE
    grid = unit_circle_grid(256)
    b = LinearPencil([[0.5005]], [[0.5005 * np.conj(grid[8])]])
    gamma = spec_norms(evaluate_all(b, grid[::16])).max()
    assert gamma < 1.0
    c = gamma * math.sqrt(1.0 - 1e-9)
    t = LinearPencil(np.diag([c, b.a0[0, 0]]), np.diag([0.0, b.a1[0, 0]]))
    for grid_size in GRID_SIZES:
        assert classify(t, grid_size) == loop_classify(t, grid_size)
    assert classify(t).kind is PencilKind.NONE
    assert classify(t).max_norm_on_grid == pytest.approx(1.001, abs=1e-15)


@pytest.mark.parametrize("family", ["flat", "a1=0"])
def test_flat_pencils_beyond_the_circle_keep_their_messages(family):
    t = family_pencil(family, 4, 4, 0.0)
    t = LinearPencil(1.001 * t.a0, 1.001 * t.a1)
    peak = loop_classify(t).max_norm_on_grid
    with pytest.raises(NotContractive) as chain_error:
        canonical_chain(t)
    assert str(chain_error.value) == f"pencil is not contractive (grid max norm {peak:.6f})"
    with pytest.raises(NotContractive) as pipeline_error:
        run_pipeline(t)
    assert (str(pipeline_error.value)
            == f"pipeline requires a contractive pencil (max norm {peak:.6f})")


def test_not_psd_names_the_same_lambda():
    # eigenvalues r_k + 2 rho_k cos(theta + phi_k): negative on an arc that
    # misses lambda = 1 because cos(phi_k) > 0
    rng = np.random.default_rng(11)
    cases = []
    for n in (1, 2, 3):
        r = rng.uniform(0.05, 1.0, n)
        c = rng.uniform(0.3, 1.0, n) * np.exp(1j * rng.uniform(-1.4, 1.4, n))
        w = _rotation(n, seed=n)
        cases.append(GramCoefficients(w @ np.diag(r) @ w.conj().T,
                                      w @ np.diag(c) @ w.conj().T))
    for g in cases:
        expected = loop_not_psd_message(g)
        assert expected is not None and "lam=1.0000+0.0000j" not in expected
        with pytest.raises(NotPSD) as info:
            bauer_factorize(g)
        assert str(info.value) == expected


def test_factorization_and_outer_surrogate_match_loop(pencils, chains):
    grid = unit_circle_grid(256)
    for t, chain in zip(pencils, chains):
        f = chain.factor
        expected = loop_factorization_residuals(t, f, grid)
        assert np.array_equal(factorization_residuals(t, f, grid), expected)
        assert outer_surrogate_check(f) == loop_outer_surrogate(f)
        # a loose cutoff makes some pointwise ranks fall short
        assert outer_surrogate_check(f, tol=0.5) == loop_outer_surrogate(f, tol=0.5)


def test_biinner_matches_loop(chains):
    thetas = [(c.theta, c.factor.dim_y, c.pencil.shape[0], c.u.dim_u) for c in chains]
    rng = np.random.default_rng(3)
    a0, a1 = (rng.standard_normal((3, 4)) for _ in range(2))
    thetas.append((LinearPencil(a0, a1), 1, 2, 2))  # non-square, fails the checks
    thetas.append((LinearPencil(0.3 * a0, 0.3 * a1), 1, 2, 2))  # contractive, fails on the boundary
    a0[:1, :2] = 0.0
    a1[:1, :2] = 0.0
    thetas.append((LinearPencil(a0, a1), 1, 2, 2))  # rank-deficient corner
    # a tall 3 x 2 corner that loses rank only at lambda = exp(2 pi i / 8),
    # a point of the 64-point grid whose conjugate is another one
    c0, c1 = (rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
              for _ in range(2))
    lam = np.exp(2j * np.pi / 8)
    v = np.array([[0.6], [0.8]])
    c0[1:, 3:] -= (c0[1:, 3:] + lam * c1[1:, 3:]) @ v @ v.T
    thetas.append((LinearPencil(c0, c1), 1, 3, 2))
    for theta, dim_y, dim_h, dim_u in thetas:
        got = check_biinner(theta, dim_y, dim_h, dim_u)
        want = loop_biinner(theta, dim_y, dim_h, dim_u)
        assert got.to_json_dict() == want.to_json_dict()
        boundary = theta_boundary_residuals(theta, unit_circle_grid(64))
        assert boundary.shape == (64,)
    assert check_biinner(*thetas[-1]).witness["where"] == "density-surrogate"
    wheres = {check_biinner(*args).witness["where"] for args in thetas[-4:]}
    assert wheres == {"boundary", "density-surrogate"}


def test_disk_interior_never_exceeds_half_the_boundary_defect(chains):
    # Maximum principle: ||theta(z)|| <= sqrt(1 + defect) <= 1 + defect/2
    # on the closed disk, so the interior can never beat the boundary residual.
    thetas = [c.theta for c in chains] + [
        canonical_chain(LinearPencil([[a0]], [[a1]])).theta
        for a0, a1 in ((0.5, 0.3), (0.0, 0.0), (0.5, 0.5))]
    for theta in thetas:
        excess = spec_norms(evaluate_all(theta, disk_samples())) - 1.0
        assert excess.max() <= isometry_defect(theta) / 2 + 1e-14


def test_q_identity_residuals_match_window_loop(chains):
    grid = unit_circle_grid(64)
    for chain in chains:
        got = q_identity_residuals(chain.v, chain.q, grid)
        want = loop_q_residuals(chain.v, chain.q, grid)
        assert np.max(np.abs(got - want)) <= ROUND_OFF


def test_compression_tower_matches_structured_loop(pencils, chains):
    # the tower is decided on the coefficients of P_H U(lam)^n|H; summed
    # against the powers of lam they give the slot oracle's tower
    for t, chain in zip(pencils, chains):
        n_t = t.shape[0]
        coeffs = list(grouped_sums(dilation_letters(chain.u, n_t, 4), 4))
        for lam in unit_circle_grid(8):
            for n, (_, fwd, _) in enumerate(oracle_tower(chain.u, t, lam, 4), 1):
                got = np.tensordot(lam ** np.arange(n + 1), coeffs[n], axes=1)
                assert spec_norm(got - fwd) <= ROUND_OFF
        report = check_dilation(chain.u, t, max_len=4)
        assert report.check == "compression-tower" and report.passed


def test_backward_tower_is_the_adjoint_of_the_forward_tower(chains):
    # check_dilation(u, ...) needs no backward tower: P_H U^{-n}|H = (P_H U^n|H)^*
    for chain in chains:
        for lam in unit_circle_grid(8):
            for _, fwd, bwd in oracle_tower(chain.u, chain.pencil, lam, 4):
                assert spec_norm(bwd - fwd.conj().T) <= ROUND_OFF


def test_compression_tower_sees_a_wrong_pencil(chains):
    chain = chains[1]
    t = chain.pencil
    wrong = LinearPencil(t.a0, t.a1 + 1e-6)
    report = check_dilation(chain.u, wrong, max_len=3)
    assert not report.passed and set(report.witness) == {"t"}
    resid = {tuple(d["t"]): d["residual"] for d in report.details}
    assert report.worst_residual == resid[tuple(report.witness["t"])]
    # P_H U^n|H - T^n = sum_k lam^k C(n, k) (multipower difference (n-k, k)),
    # so the coefficient residuals bound the oracle's tower at every lambda
    bound = max(sum(math.comb(n, k) * resid[n - k, k] for k in range(n + 1))
                for n in range(1, 4))
    assert 0.0 < loop_tower_worst(chain.u, wrong, max_n=3, grid_size=8) <= bound


def test_empty_grids_and_sample_sets_are_rejected(scalar_chain):
    # a grid without points used to pass every check vacuously (the one
    # sample set, of the unitarity report, is gone: it is decided on U's
    # letters)
    u = scalar_chain.u
    for size in (0, -3):
        with pytest.raises(ValueError):
            check_biinner(scalar_chain.theta, 1, 1, u.dim_u, grid_size=size)
        with pytest.raises(ValueError):
            outer_surrogate_check(scalar_chain.factor, size)
        with pytest.raises(ValueError):
            bauer_factorize(scalar_chain.gram, grid_size=size)


# --- localisation -----------------------------------------------------------


def test_unimodular_roots_of_a_scalar_symbol():
    # R(lam) = 0.5 + cos(theta) vanishes at theta = 2 pi / 3 and 4 pi / 3
    r0, r1 = np.array([[0.5 + 0j]]), np.array([[0.5 + 0j]])
    np.testing.assert_allclose(unimodular_roots(r0, r1),
                               [2 * np.pi / 3, 4 * np.pi / 3], atol=1e-12)
    # negative on (2 pi / 3, 4 pi / 3): grid points 3, 4, 5 of 8, padded by one
    assert candidate_indices(r0, r1, 8).tolist() == [2, 3, 4, 5, 6]
    assert candidate_indices(r0 + 2.0, r1, 8).size == 0  # definite, no roots
    assert candidate_indices(r0 - 2.0, r1, 8).size == 8
    # det R vanishes on the whole circle: the roots localise nothing
    assert unimodular_roots(np.zeros((2, 2)), np.zeros((2, 2))) is None
    assert unimodular_roots(np.diag([1.0, 0.0]), np.diag([0.3, 0.0])) is None


@pytest.mark.parametrize("m", [2, 4, 8])
def test_constant_symbols_are_decided_without_qz_outside_its_band(monkeypatch, m):
    # r1 = 0: R(lam) = r0 everywhere.  The QZ finds no root on the circle
    # and answers None (every point a candidate) only when r0 is singular
    # to round-off; outside a band around that, one eigvalsh decides
    def qz_candidates(r0, grid_size):
        roots = unimodular_roots(r0, np.zeros_like(r0))
        if roots is None:
            return np.arange(grid_size)
        assert roots.size == 0
        return np.arange(grid_size if np.linalg.eigvalsh(r0)[0] <= 0 else 0)

    real = unimodular_roots
    calls = []
    monkeypatch.setattr(pencil_module, "unimodular_roots",
                        lambda r0, r1: calls.append(1) or real(r0, r1))
    rng = np.random.default_rng(m)
    w = _rotation(m, seed=m)
    # the smallest eigenvalue, relative to the largest entry of r0
    for small in (1e-9, -1e-9, 1e-12, -1e-12, 7e-13, 3e-13, 1e-14, 0.0, -1e-14):
        eig = rng.uniform(0.1, 1.0, m) * rng.choice([-1.0, 1.0], m)
        eig[0] = 0.0
        eig[0] = small * np.abs(w @ np.diag(eig) @ w.conj().T).max()
        r0 = w @ np.diag(eig) @ w.conj().T
        r0 = 0.5 * (r0 + r0.conj().T)
        for grid_size in GRID_SIZES:
            calls.clear()
            got = candidate_indices(r0, np.zeros_like(r0), grid_size)
            in_band = abs(small) <= 5e-13
            assert len(calls) == in_band
            assert np.array_equal(got, qz_candidates(r0, grid_size))
    r0 = np.zeros((m, m))
    assert np.array_equal(candidate_indices(r0, r0, 8), np.arange(8))


def test_candidates_leave_out_most_of_a_corpus_pencil(corpus, all_chains):
    # a silent fallback to the whole grid would still give the right answers
    t, chain = corpus[3], all_chains[3]
    gamma = spec_norms(evaluate_all(t, unit_circle_grid(256)[::16])).max()
    a0, a1 = t.a0 / gamma, t.a1 / gamma
    r0 = (1 - 1e-9) * np.eye(4) - a0.conj().T @ a0 - a1.conj().T @ a1
    r1 = -a0.conj().T @ a1  # classify's question
    assert unimodular_roots(r0, r1).size
    assert 0 < candidate_indices(r0, r1, 256).size < 256
    g, f = chain.gram, chain.factor
    assert candidate_indices(g.r0 + 1e-12 * np.eye(4), g.c, 256).size < 256
    assert rank_candidates(f.as_pencil(), f.dim_y, 1e-10, 256).size < 256
    theta, dim_y = chain.theta, f.dim_y
    corner = LinearPencil(theta.a0[dim_y:, 4:], theta.a1[dim_y:, 4:])
    assert rank_candidates(corner, chain.u.dim_u, 1e-8, 64).size < 64


GRID_SIZES = (8, 64, 256)
FAMILIES = ("margin", "flat", "a1=0", "nilpotent", "0.5+0.5lam")
MARGINS = (1e-2, 1e-4, 1e-6, 1e-8, 0.0)
# Fixed cases of each family, (family, n, seed, margin, scale, k); every
# failure the property below shrinks to is added here.
FIXED_CASES = [
    ("margin", 3, 0, 1e-2, 1.0, 0),
    ("margin", 2, 1, 0.0, 1.0, 1),
    ("margin", 4, 2, 1e-8, 1.3, 5),
    ("flat", 3, 3, 1e-6, 1.0, 2),
    ("flat", 4, 4, 0.0, 1.001, 3),
    ("a1=0", 3, 5, 1e-4, 1.0, 4),
    ("nilpotent", 4, 6, 1e-2, 1.0, 6),
    ("0.5+0.5lam", 1, 0, 0.0, 1.0, 0),
]


def _gaussian(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _at_norm(a0, a1, norm):
    """(a0, a1) scaled to ``norm`` on the 4096-point grid, which holds the
    8, 64 and 256 point grids."""
    peak = spec_norms(evaluate_all(LinearPencil(a0, a1), unit_circle_grid(4096))).max()
    return (a0, a1) if peak == 0 else (norm / peak * a0, norm / peak * a1)


def family_pencil(family, n, seed, margin):
    rng = np.random.default_rng(seed)
    if family == "0.5+0.5lam":
        return LinearPencil([[0.5]], [[0.5]])
    if family == "flat":
        # a unitary block on half of H: flat norm, dim Y < dim H
        half = (n + 1) // 2
        a0 = np.zeros((n, n), dtype=complex)
        a1 = np.zeros((n, n), dtype=complex)
        a0[:half, :half] = _rotation(half, seed)
        a0[half:, half:], a1[half:, half:] = _at_norm(
            _gaussian(rng, n - half), _gaussian(rng, n - half), 1 - margin)
    else:
        a0, a1 = _gaussian(rng, n), _gaussian(rng, n)
        if family == "a1=0":
            a1 = np.zeros_like(a1)
        if family == "nilpotent":
            a0, a1 = np.triu(a0, 1), np.triu(a1, 1)
        a0, a1 = _at_norm(a0, a1, 1 - margin)
    w = _rotation(n, seed + 1)
    return LinearPencil(w @ a0 @ w.conj().T, w @ a1 @ w.conj().T)


def symbol(t):
    """Coefficients of I - T^H T, contractive or not."""
    a0, a1 = t.a0, t.a1
    r0 = np.eye(t.shape[1]) - a0.conj().T @ a0 - a1.conj().T @ a1
    return GramCoefficients(0.5 * (r0 + r0.conj().T), -a0.conj().T @ a1)


def not_psd_message(g, grid_size, tol):
    """The NotPSD message of ``bauer_factorize``, or None; with no doubling
    step allowed it stops right after the scan."""
    try:
        bauer_factorize(g, tol=tol, max_iter=0, grid_size=grid_size)
    except NotPSD as err:
        return str(err)
    except NoConvergence:
        return None


def singular_at(f, k):
    """f with its coefficients changed so that F(exp(2 pi i k / 8)) loses a
    row rank, at a point of every grid whose size is a multiple of 8."""
    lam = np.exp(2j * np.pi * k / 8)
    u = np.zeros((f.dim_y, 1))
    u[0] = 1.0
    f0 = f.f0 - u @ (u.T @ (f.f0 + lam * f.f1))
    return FejerRieszFactor(f0, f.f1)


def check_localised_decisions(family, n, seed, margin, scale, k):
    t = family_pencil(family, n, seed, margin)
    scaled = LinearPencil(scale * t.a0, scale * t.a1)
    for grid_size in GRID_SIZES:
        want = loop_classify(scaled, grid_size)
        assert verdict_before_peak(scaled, grid_size) == (want.kind, want.certified)
        assert classify(scaled, grid_size) == loop_classify(scaled, grid_size)
        for tol in (1e-12, 0.5):
            assert (not_psd_message(symbol(scaled), grid_size, tol)
                    == loop_not_psd_message(symbol(scaled), grid_size, tol))
    try:
        chain = canonical_chain(t)
    except PencilError:  # at margin 0 the construction may stop by name
        return
    f = chain.factor
    factors = [f]
    if f.dim_y:
        factors.append(singular_at(f, k))
        if f.dim_y > 1:  # two equal rows: rank-deficient everywhere
            factors.append(FejerRieszFactor(np.vstack([f.f0[:-1], f.f0[:1]]),
                                            np.vstack([f.f1[:-1], f.f1[:1]])))
    theta_args = (chain.theta, f.dim_y, n, chain.u.dim_u)
    for grid_size in GRID_SIZES:
        for tol in (1e-10, 0.5):
            for factor in factors:
                assert (outer_surrogate_check(factor, grid_size, tol)
                        == loop_outer_surrogate(factor, grid_size, tol))
            got = check_biinner(*theta_args, grid_size=grid_size, rank_tol=tol)
            want = loop_biinner(*theta_args, grid_size=grid_size, rank_tol=tol)
            assert got.to_json_dict() == want.to_json_dict()


@st.composite
def grid_cases(draw):
    family = draw(st.sampled_from(FAMILIES))
    n = 1 if family == "0.5+0.5lam" else draw(st.integers(1, 5))
    return (family, n, draw(st.integers(0, 2 ** 16)), draw(st.sampled_from(MARGINS)),
            draw(st.sampled_from((1.0, 1.001, 1.3))), draw(st.integers(0, 7)))


@settings(max_examples=30, deadline=None)
@given(grid_cases())
def test_localised_decisions_match_their_loops(case):
    check_localised_decisions(*case)


@pytest.mark.parametrize("case", FIXED_CASES, ids=str)
def test_localised_decisions_match_their_loops_on_fixed_cases(case):
    check_localised_decisions(*case)


def test_pipeline_memory_stays_small():
    """Guard against stacking window-sized matrices over a grid: the
    corpus n = 6 pipeline peaks near 2 MB of traced allocations, a
    (G, window, window) stack would take it past 15 MB."""
    t = seeded_corpus()[5]
    assert t.shape == (6, 6)
    run_pipeline(t, depth=4)  # warm caches outside the measurement
    tracemalloc.start()
    try:
        run_pipeline(t, depth=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
