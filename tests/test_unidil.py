import math

import numpy as np
import pytest

from pencildil import (BuiltinExample, DimensionMismatch, FejerRieszFactor,
                       LinearPencil, NotIsometric, PencilKind, QPencil,
                       StructuredIsometricPencil, UnitaryDilation,
                       bauer_factorize, build_canonical, build_unitary,
                       builtin_example, canonical_chain,
                       ShapeMismatch, check_biinner, check_dilation,
                       check_minimality, check_uniform, check_unitarity,
                       classify,
                       coefficient_norms, core_subspaces, gram_coefficients,
                       isometry_defect, q_identity_defect, run_pipeline,
                       unit_circle_grid)
from pencildil import isodil, unidil, verify
from pencildil.isodil import dense_coefficient, window_dim
from pencildil.linalg import spec_norm
from pencildil.unidil import q_identity_residuals
from pencildil.words import act
from slot_oracle import (column, norm, random_vector, u_act, u_adjoint,
                         v_act)

ZERO = LinearPencil([[0.0]], [[0.0]])


def u_letters(u, tail_depth, future_depth):
    return tuple(dense_coefficient(u, j, tail_depth, future_depth) for j in (0, 1))


def u_column(u, x, tail_depth, future_depth):
    return column(x, u.dim_y, tail_depth, u.dim_u, future_depth)


def test_core_subspaces_shift_case():
    chain = canonical_chain(ZERO)
    cores = chain.u.cores
    # ran(B0) is the Y-slot line, ran(B1) empty, L the head line, K1 trivial
    assert cores.ran_n0.dim == 1 and cores.ran_n1.dim == 0
    np.testing.assert_allclose(np.abs(cores.ran_n0.basis[:, 0]), [1.0, 0.0])
    assert cores.k1_space.dim == 0
    np.testing.assert_allclose(np.abs(cores.l_space.basis[:, 0]), [0.0, 1.0])
    assert cores.u_space.dim == 1


def test_core_subspaces_classical_case():
    rng = np.random.default_rng(41)
    a0 = rng.standard_normal((3, 3))
    a0 *= 0.9 / spec_norm(a0)
    chain = canonical_chain(LinearPencil(a0, np.zeros((3, 3))))
    cores = chain.u.cores
    assert cores.k1_space.dim == 0
    assert cores.l_space.dim == chain.factor.dim_y == 3
    # Q(lam) = I_L: constant embedding
    assert spec_norm(chain.q.q1) <= 1e-12


def test_core_subspaces_gap_space_nontrivial(scalar_chain):
    cores = scalar_chain.u.cores
    assert cores.k1_space.dim == 1 and cores.l_space.dim == 0
    assert spec_norm(scalar_chain.q.q1) > 0.1


def test_core_subspaces_rejects_non_isometric():
    core = LinearPencil([[0.5], [0.0]], [[0.0], [0.0]])
    v = StructuredIsometricPencil(1, 1, 0, core)
    with pytest.raises(NotIsometric):
        core_subspaces(v)


def test_core_within_the_isometry_cutoff_runs_every_report(monkeypatch):
    # Moving the scalar factor by 1e-9 leaves a core defect of 1.55e-9,
    # which build_canonical accepts (cutoff 1e-8); core_subspaces used to
    # reject the same core with an absolute 1e-10 range-overlap test.
    # The three reports that contain the core's own defect (q-identities
    # and theta-biinner as a sub-block, unitarity on U's letters) fail
    # at their tighter tolerances, by no more than the cutoff allows.
    exact = verify.bauer_factorize

    def bumped(g, grid_size):
        f = exact(g, grid_size=grid_size)
        return FejerRieszFactor(f.f0 * (1 + 1e-9), f.f1)

    monkeypatch.setattr(verify, "bauer_factorize", bumped)
    t = LinearPencil([[0.5]], [[0.3]])
    defect = isometry_defect(canonical_chain(t).v.core)
    assert 1e-9 < defect < 1e-8
    reports = run_pipeline(t)
    assert len(reports) == 13
    failing = {r.check: r.worst_residual for r in reports if not r.passed}
    assert set(failing) == {"q-identities", "unitarity", "theta-biinner"}
    assert all(defect <= resid < 1e-8 for resid in failing.values())


def _overlap_core(b0, b1):
    return StructuredIsometricPencil(1, 2, 0, LinearPencil(b0, b1))


def test_overlapping_ranges_are_rejected_without_an_orthogonality_test():
    # Both cores pass the core's isometry cutoff (defects 2e-9 and 8e-9).
    # A shared direction collapses the combined rank ...
    shared = _overlap_core([[1.0, 0.0], [0.0, 1e-9], [0.0, 0.0]],
                           [[0.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    assert isometry_defect(shared.core) <= 1e-8
    with pytest.raises(NotIsometric, match="coefficient ranges overlap"):
        core_subspaces(shared)
    # ... and ranges at an angle of 1e-3 from orthogonal leave Q non-isometric.
    a, b = 4e-6, 1e-3
    tilted = _overlap_core([[1.0, 0.0], [0.0, a], [0.0, 0.0]],
                           [[0.0, 0.0], [0.0, b], [0.0, math.sqrt(1 - a * a - b * b)]])
    assert isometry_defect(tilted.core) <= 1e-8
    with pytest.raises(NotIsometric, match="Q pencil is not isometric"):
        build_unitary(tilted)


def test_dimension_law(all_chains):
    for chain in all_chains[:8]:
        assert chain.u.dim_u == chain.factor.dim_y


def test_q_identities(all_chains, scalar_chain):
    shift_chain = canonical_chain(ZERO)
    assert q_identity_defect(shift_chain.u) <= 1e-12
    for chain in list(all_chains[:4]) + [scalar_chain]:
        assert q_identity_defect(chain.u) <= 1e-9


def test_q_identity_defect_bounds_the_pointwise_residuals(scalar_chain):
    # Q moved by 1e-9 (still within QPencil's isometry cutoff): the
    # coefficient bound must see what the grid sees, and at most 3x more.
    u = scalar_chain.u
    q = QPencil(u.q.q0, u.q.q1 + 1e-9)
    bumped = UnitaryDilation(v=u.v, q=q, cores=u.cores)
    grid_max = q_identity_residuals(u.v, q, unit_circle_grid(256)).max()
    assert grid_max > 1e-10
    assert grid_max <= q_identity_defect(bumped) <= 3 * grid_max / math.cos(math.pi / 256)


def test_unitarity_on_random_vectors(all_chains):
    # U^* is the inverse of U, slot by slot
    rng = np.random.default_rng(43)
    for chain in all_chains[:4]:
        u = chain.u
        for _ in range(10):
            x = random_vector(rng, u.dim_y, u.dim_h, u.dim_u, tail=3, future=2)
            lam = complex(np.exp(2j * np.pi * rng.uniform()))
            ux = u_act(u, lam, x)
            size = norm(x)
            t, f = 3 + u.core_depth + 2, 4
            assert abs(norm(ux) - size) <= 1e-10 * size
            for y in (u_adjoint(u, lam, ux), u_act(u, lam, u_adjoint(u, lam, x))):
                diff = u_column(u, y, t, f) - u_column(u, x, t, f)
                assert np.linalg.norm(diff) <= 1e-10 * size


def test_window_letters_match_slot_oracle(all_chains):
    # U and U^* from the window letters against the slot-by-slot oracle on
    # every corpus chain and the extensions of the builtin examples.
    rng = np.random.default_rng(61)
    dilations = [c.u for c in all_chains] + [build_unitary(builtin_example(n))
                                            for n in BuiltinExample]
    for u in dilations:
        t, f = 3 + u.core_depth + 2, 4
        ops = u_letters(u, t, f)
        for _ in range(3):
            x = random_vector(rng, u.dim_y, u.dim_h, u.dim_u, tail=3, future=2)
            lam = complex(np.exp(2j * np.pi * rng.uniform()))
            scale = max(1.0, norm(x))
            for step, adjoint in ((u_act, False), (u_adjoint, True)):
                dense = act(ops, lam, u_column(u, x, t, f), adjoint=adjoint)
                exact = u_column(u, step(u, lam, x), t, f)
                assert np.linalg.norm(dense - exact) <= 1e-12 * scale


def test_u_window_must_hold_future_slot_1(scalar_chain):
    # [C | Q] reads future slot 1, so a U window without it is rejected, as
    # a window too shallow for the core is; V's windows have no future slot.
    u = scalar_chain.u
    with pytest.raises(DimensionMismatch):
        dense_coefficient(u, 0, 1, 0)
    with pytest.raises(DimensionMismatch):
        dense_coefficient(u, 1, 2)
    assert dense_coefficient(u, 1, 1, 1).shape == (3, 3)
    assert dense_coefficient(u.v, 1, 1).shape == (2, 2)


def test_check_unitarity_catches_a_wrong_q(scalar_chain):
    # -q1 keeps Q isometric, so QPencil accepts it, but [C | Q] is no
    # longer unitary: Q no longer closes the defect of V
    u = scalar_chain.u
    wrong = UnitaryDilation(v=u.v, q=QPencil(u.q.q0, -u.q.q1), cores=u.cores)
    assert q_identity_defect(wrong) > 1.0
    report = check_unitarity(wrong)
    assert not report.passed and report.worst_residual > 1.0
    assert report.witness in ({"side": "U^*U"}, {"side": "UU^*"})
    sides = {d["side"]: d["residual"] for d in report.details}
    assert report.worst_residual == sides[report.witness["side"]] == max(sides.values())
    passed = check_unitarity(u)
    assert passed.passed and passed.witness is None


def mutate_u_windows(monkeypatch, mutation):
    """Patch the one window builder, ``isodil.dense_coefficient``, in every
    module that binds it, so that ``mutation(u, j, tail_depth, m)`` edits
    the letters of U's windows (future depth >= 1) and of no V window."""
    exact = isodil.dense_coefficient

    def mutated(d, j, tail_depth, future_depth=0):
        m = exact(d, j, tail_depth, future_depth)
        if future_depth >= 1:
            mutation(d, j, tail_depth, m)
        return m

    for module in (isodil, unidil, verify):
        if getattr(module, "dense_coefficient", None) is exact:
            monkeypatch.setattr(module, "dense_coefficient", mutated)


def test_unitarity_reads_the_letters_of_u(monkeypatch, all_chains):
    # Letters without the future shift (U0 no longer moves future slot k + 1
    # onto k) leave [C | Q] unitary, so q-identities passes, but U is no
    # longer unitary: unitarity reads U's own letters, which is why both
    # reports are kept.
    def no_future_shift(u, j, tail_depth, m):
        kdim = window_dim(u, tail_depth)
        m[kdim:, kdim + u.dim_u:] = 0.0

    assert all(check_unitarity(chain.u).passed for chain in all_chains[:6])
    mutate_u_windows(monkeypatch, no_future_shift)
    for chain in all_chains[:6]:
        assert q_identity_defect(chain.u) <= 1e-9
        report = check_unitarity(chain.u)
        # both sides lose the future slot the shift no longer fills or empties
        assert not report.passed
        assert all(d["residual"] >= 1.0 - 1e-12 for d in report.details)
        assert report.witness in ({"side": "U^*U"}, {"side": "UU^*"})


def loop_random_window(rng, u, count, future=2):
    """``count`` random vectors of K on tail slots -1..-3, the head and future
    slots 1..future, drawn slot by slot (real parts, then imaginary parts)
    with a lambda after each vector; the window has tail depth
    3 + core_depth + 2 and future depth future + 2, so the letters act
    exactly for one step forward and one back, in either order."""
    tail = 3
    t, f = tail + u.core_depth + 2, future + 2
    dy, du = u.dim_y, u.dim_u
    kdim = window_dim(u.v, t)
    x = np.zeros((kdim + f * du, count), dtype=complex)
    lam = np.zeros(count, dtype=complex)

    def normal(n):
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)

    for i in range(count):
        for n in range(1, tail + 1):  # slot -n
            x[(t - n) * dy:(t - n + 1) * dy, i] = normal(dy)
        x[t * dy:kdim, i] = normal(u.dim_h)
        for n in range(future):  # future slot n + 1
            x[kdim + n * du:kdim + (n + 1) * du, i] = normal(du)
        lam[i] = np.exp(2j * np.pi * rng.uniform())
    return x, lam, t, f


def sampled_unitarity(u, count=50, seed=verify.CORPUS_SEED):
    """Largest | ||Ux|| - ||x|| |, ||U^*Ux - x|| or ||UU^*x - x|| per unit
    ||x|| over ``count`` random window columns, each at its own lambda:
    the sampled check that ``check_unitarity`` replaces."""
    x, lam, t, f = loop_random_window(np.random.default_rng(seed), u, count)
    ops = u_letters(u, t, f)
    ux = act(ops, lam, x)
    size = np.linalg.norm(x, axis=0)
    resid = np.maximum.reduce([
        np.abs(np.linalg.norm(ux, axis=0) - size),
        np.linalg.norm(act(ops, lam, ux, adjoint=True) - x, axis=0),
        np.linalg.norm(act(ops, lam, act(ops, lam, x, adjoint=True)) - x, axis=0),
    ])
    return float((resid / size).max())


def test_unitarity_bounds_the_sampled_residual(all_chains):
    # Each sampled residual is at most M ||x|| for the circle maximum M of
    # ||U^*U - I|| or ||UU^* - I||, and the exact residual is at least M.
    # Where U is unitary both are round-off (the exact one is 0.0 on the
    # shift builtins), hence the 1e-14 allowance; a wrong Q (-q1, still
    # isometric) makes both large.
    units = [c.u for c in all_chains] + [build_unitary(builtin_example(n))
                                        for n in BuiltinExample]
    for u in units:
        assert sampled_unitarity(u) <= check_unitarity(u).worst_residual + 1e-14
        wrong = UnitaryDilation(v=u.v, q=QPencil(u.q.q0, -u.q.q1), cores=u.cores)
        exact = check_unitarity(wrong).worst_residual
        assert sampled_unitarity(wrong) <= exact * (1 + 1e-12) + 1e-14
        if spec_norm(u.q.q1) > 0.1:
            assert sampled_unitarity(wrong) > 0.1


def test_extension_property_is_exact(all_chains):
    # on K+ the letters of U are those of V and never fill a future slot
    rng = np.random.default_rng(47)
    for chain in all_chains[:4]:
        u = chain.u
        t, f = 3 + u.core_depth + 2, 2
        kdim = window_dim(u.v, t)
        ops = u_letters(u, t, f)
        for _ in range(5):
            x = random_vector(rng, u.dim_y, u.dim_h, u.dim_u, tail=3)
            lam = complex(np.exp(2j * np.pi * rng.uniform()))
            via_u = act(ops, lam, u_column(u, x, t, f))
            via_v = column(v_act(u.v, lam, *x[:2]) + ([],), u.dim_y, t)
            assert not np.any(via_u[kdim:])
            assert np.linalg.norm(via_u[:kdim] - via_v) <= 1e-12 * norm(x)


def test_inverse_word_difference_formula(scalar_chain):
    # U(l1)^-1...U(ln)^-1 k - U(l1)^-1...U(l_{n-1})^-1 V(ln)^* k places
    # Q(ln)^* k at future slot n and nothing else
    rng = np.random.default_rng(53)
    u = scalar_chain.u
    v = u.v
    t, f = v.core_depth + 4, 5
    kdim = window_dim(v, t)
    ops = u_letters(u, t, f)
    v_ops = tuple(dense_coefficient(v, j, t) for j in (0, 1))
    for n in (1, 2, 3):
        lams = [complex(np.exp(2j * np.pi * rng.uniform())) for _ in range(n)]
        kp = column(([rng.standard_normal(v.dim_y) for _ in range(2)],
                     rng.standard_normal(v.dim_h), []), v.dim_y, t)
        lhs = np.concatenate([kp, np.zeros(f * u.dim_u)])
        for lam in reversed(lams):
            lhs = act(ops, lam, lhs, adjoint=True)
        rhs = np.concatenate([act(v_ops, lams[-1], kp, adjoint=True),
                              np.zeros(f * u.dim_u)])
        for lam in reversed(lams[:-1]):
            rhs = act(ops, lam, rhs, adjoint=True)
        diff = lhs - rhs
        wp = v.window_prime_dim
        expected_slot = u.q(lams[-1]).conj().T @ kp[kdim - wp:]
        assert np.linalg.norm(diff[:kdim]) <= 1e-12
        future = diff[kdim:].reshape(f, u.dim_u)
        for m in range(1, n):
            assert np.linalg.norm(future[m - 1]) <= 1e-12
        np.testing.assert_allclose(future[n - 1], expected_slot, atol=1e-12)


def test_bilateral_shift_pattern():
    chain = canonical_chain(ZERO)
    u = chain.u
    n0, n1 = coefficient_norms(u)
    assert n1 == 0.0 and abs(n0 - 1.0) < 1e-15
    # window [slot -2 | slot -1 | head | future 1 | future 2]
    out = act(u_letters(u, 2, 2), 1j, np.eye(5)[:, 3])
    assert abs(out[2] - 1.0) < 1e-15 and not np.any(out[3:])
    report = check_minimality(u, ZERO, depth=4)
    assert report.passed and report.witness == {"rank": 9, "expected": 9}


def test_coefficient_norms_are_the_norms_of_the_letters(all_chains):
    # on a window deep enough for a shift block, each letter is the
    # orthogonal sum of the shifts and the core block: C for V, [C | Q] for U
    for chain in all_chains[:6] + [canonical_chain(ZERO)]:
        u, v = chain.u, chain.v
        for d, ops in ((v, [dense_coefficient(v, j, 3) for j in (0, 1)]),
                       (u, u_letters(u, 3, 3))):
            norms = coefficient_norms(d)
            assert norms == pytest.approx([spec_norm(op) for op in ops], abs=1e-14)
    # Q1 adds to the lambda coefficient of U on the corpus
    assert all(coefficient_norms(c.u)[1] > coefficient_norms(c.v)[1] + 1e-3
               for c in all_chains[:6])


def test_degenerate_extension_unitary_input():
    iso = LinearPencil(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    f = bauer_factorize(gram_coefficients(iso))
    v = build_canonical(iso, f)
    u = build_unitary(v)
    assert u.dim_u == 0
    x = np.array([1.0, -2.0], dtype=complex)
    out = act(u_letters(u, 1, 1), 1j, x)
    expected = act(tuple(dense_coefficient(v, j, 1) for j in (0, 1)), 1j, x)
    assert np.array_equal(out, expected)
    np.testing.assert_allclose(out, (iso.a0 + 1j * iso.a1) @ x, atol=1e-15)
    assert check_minimality(u, iso, depth=3).passed


def test_minimality_unitary_corpus_and_padded(corpus, all_chains):
    for t, chain in zip(corpus[:4], all_chains[:4]):
        report = check_minimality(chain.u, t, depth=4)
        expected = 4 * chain.v.dim_y + chain.v.dim_h + 4 * chain.u.dim_u
        assert report.passed and report.witness["rank"] == expected
    core = LinearPencil([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]], np.zeros((3, 2)))
    padded = StructuredIsometricPencil(1, 2, 0, core)
    report = check_minimality(build_unitary(padded), ZERO, depth=3)
    assert not report.passed
    assert report.witness["expected"] - report.witness["rank"] == 1
    # the deficit is found at the window depth asked for, not only at the
    # certifying depth 1
    assert report.details[0]["decided_depth"] == 3


def test_minimality_defaults_to_the_certifying_depth():
    # The non-uniform dilation has core depth 2: both checks default to
    # window depth 3, where a pass holds at every depth.  A shallower
    # window is evidence at its own depth only.
    vt = builtin_example(BuiltinExample.NON_UNIFORM_V)
    u = build_unitary(vt)
    for report, key, cap in ((check_minimality(vt, ZERO), "window_depth", 3),
                             (check_minimality(u, ZERO), "depth", 6)):
        details = report.details[0]
        assert report.passed and details["every_depth"]
        assert (details[key], details["word_cap"], details["decided_depth"]) \
            == (3, cap, 3)
    for report in (check_minimality(vt, ZERO, depth=2),
                   check_minimality(u, ZERO, depth=2)):
        assert report.passed and not report.details[0]["every_depth"]


def test_minimality_details_carry_the_rank_gaps(corpus, all_chains):
    # Each rank cut reports its smallest kept and largest dropped singular
    # value relative to sigma_max of the span, on either side of rank_tol.
    for t, chain in zip(corpus[:6], all_chains[:6]):
        for d in (chain.v, chain.u):
            report = check_minimality(d, t)
            assert report.to_json_dict() == check_minimality(d, t).to_json_dict()
            details = report.details[0]
            assert details["rank"] == details["span_rank"] - details["outside_rank"]
            assert details["span_gap"][0] is not None
            for kept, dropped in (details["span_gap"], details["outside_gap"]):
                assert kept is None or 1e-8 < kept <= 1.0 + 1e-12
                assert 0.0 <= dropped <= 1e-8


def test_minimality_rejects_a_non_square_pencil(scalar_chain):
    t = LinearPencil(np.zeros((1, 2)), np.zeros((1, 2)))
    with pytest.raises(ShapeMismatch):
        check_minimality(scalar_chain.v, t)
    with pytest.raises(ShapeMismatch):
        check_minimality(scalar_chain.u, t)


def test_uniform_words_and_tower(corpus, all_chains):
    for t, chain in zip(corpus[:4], all_chains[:4]):
        uniform = check_uniform(chain.u, t, max_len=4)
        tower = check_dilation(chain.u, t, max_len=4)
        assert uniform.check == "uniform-unitary" and uniform.passed
        assert tower.check == "compression-tower" and tower.passed


def test_compression_tower_reads_the_letters_of_u(monkeypatch, all_chains):
    # A head -> future 1 block in U0 makes U no extension of V: a forward
    # word of U now enters the future slots and comes back through Q.  The
    # tower reads U's own letters, so it fails while V's dilation passes.
    def leaking(u, j, tail_depth, m):
        if j == 0:
            kdim = window_dim(u, tail_depth)
            m[kdim:kdim + u.dim_u, kdim - u.dim_h:kdim] = 0.5

    chain = all_chains[2]
    t = chain.pencil
    assert check_dilation(chain.u, t).passed
    mutate_u_windows(monkeypatch, leaking)
    assert check_dilation(chain.v, t).passed
    tower = check_dilation(chain.u, t)
    assert tower.check == "compression-tower" and not tower.passed
    assert sum(tower.witness["t"]) >= 2  # one step cannot return from future 1


def test_theta_is_the_core_block_of_u(all_chains):
    # the depth-0 core block [C | Q] is [[F, P_Y Q], [T, P_H Q]] entry for entry
    chains = [*all_chains, canonical_chain(LinearPencil([[0.5]], [[0.5]])),
              canonical_chain(LinearPencil(np.diag([1.0, 0.0]),
                                           np.diag([0.0, 1.0])))]
    assert chains[-1].factor.dim_y == 0
    for chain in chains:
        assert chain.theta is chain.u.core_block
        f, t, q = chain.factor, chain.pencil, chain.q
        for got, f_j, t_j, q_j in zip((chain.theta.a0, chain.theta.a1),
                                      (f.f0, f.f1), (t.a0, t.a1), (q.q0, q.q1)):
            expected = np.block([[f_j, q_j[:f.dim_y]], [t_j, q_j[f.dim_y:]]])
            assert np.array_equal(got, expected)


def test_theta_shift_case_is_identity():
    chain = canonical_chain(ZERO)
    theta = chain.theta
    np.testing.assert_allclose(theta.a0, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(theta.a1, np.zeros((2, 2)), atol=1e-14)
    assert classify(theta).kind is PencilKind.UNITARY


def test_theta_classical_julia_block():
    rng = np.random.default_rng(59)
    a0 = rng.standard_normal((2, 2))
    a0 *= 0.8 / spec_norm(a0)
    chain = canonical_chain(LinearPencil(a0, np.zeros((2, 2))))
    assert spec_norm(chain.theta.a1) <= 1e-12
    assert classify(chain.theta).kind is PencilKind.UNITARY


def test_theta_biinner_scalar_chain(scalar_chain):
    report = check_biinner(scalar_chain.theta, scalar_chain.factor.dim_y, 1,
                           scalar_chain.u.dim_u)
    assert report.passed


def test_theta_surrogate_blind_to_non_outer_factor(scalar_chain):
    # an anti-outer factor satisfies every pointwise identity, so the
    # biinner surrogate passes; only the root location check catches it
    from pencildil import outer_roots
    t = scalar_chain.pencil
    f = scalar_chain.factor
    swapped = FejerRieszFactor(-f.f1, -f.f0)
    theta = build_unitary(build_canonical(t, swapped)).core_block
    report = check_biinner(theta, 1, 1, 1)
    assert report.passed
    roots = outer_roots(swapped)
    assert np.abs(roots).min() < 1.0
