"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; tolerances are pinned here and never loosened at runtime.
"""

import math

import numpy as np

import pencildil as pd
from pencildil.isodil import dense_coefficient
from pencildil.linalg import spec_norm
from pencildil.words import act

ZERO = pd.LinearPencil([[0.0]], [[0.0]])
S2 = 1.0 / math.sqrt(2.0)


def _record(num: int, desc: str, ok: bool, detail: str = ""):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_factorization_identity(all_chains):
    # F^H F = I - T^H T on the whole circle: the core [F; T] is isometric
    worst = max(pd.isometry_defect(chain.v.core) for chain in all_chains)
    scalar = pd.bauer_factorize(
        pd.gram_coefficients(pd.LinearPencil([[0.5]], [[0.3]])))
    r0, c = 0.66, -0.15
    x = (r0 + math.sqrt(r0 * r0 - 4 * c * c)) / 2.0
    gauge_err = max(abs(scalar.f0[0, 0] - math.sqrt(x)),
                    abs(scalar.f1[0, 0] - c / math.sqrt(x)))
    ok = worst <= 1e-8 and gauge_err <= 1e-10
    _record(1, "factorization identity on corpus + scalar gauge oracle", ok,
            f"circle bound {worst:.2e}, gauge error {gauge_err:.2e}")


def test_criterion_2_isometric_dilation(corpus, all_chains):
    worst = 0.0
    ranks_ok = True
    for t, chain in zip(corpus, all_chains):
        dil = pd.check_dilation(chain.v, t, max_len=6, tol=1e-9)
        uni = pd.check_uniform(chain.v, t, max_len=6, tol=1e-9)
        mini = pd.check_minimality(chain.v, t, depth=5)
        worst = max(worst, dil.worst_residual, uni.worst_residual)
        expected = 5 * chain.v.dim_y + chain.v.dim_h
        ranks_ok = ranks_ok and mini.passed and mini.witness["rank"] == expected
    ok = worst <= 1e-9 and ranks_ok
    _record(2, "canonical V: dilation + uniformity (len 6), minimal rank at depth 5",
            ok, f"worst word residual {worst:.2e}")


def test_criterion_3_nonuniform_example_reproduction():
    v = pd.builtin_example(pd.BuiltinExample.NON_UNIFORM_V)
    # window [slot -8 | ... | slot -1 | head]: slot -n is entry 8 - n
    ops = tuple(dense_coefficient(v, j, 8) for j in (0, 1))
    h = np.eye(9)[:, 8]
    worst = 0.0
    for lam in (1.0, -1.0, 1j, complex(np.exp(1.3j))):
        x = act(ops, lam, h)
        worst = max(worst, abs(x[7] - S2), abs(x[6] - lam * S2), abs(x[8]),
                    float(np.any(x[:6])))
        for n in range(2, 6):
            x = act(ops, lam, x)
            expected = np.zeros(n + 1, dtype=complex)
            expected[n] = lam
            got = x[8 - (n + 1):8][::-1]  # slots -1..-(n+1)
            worst = max(worst, float(np.abs(got - expected).max()), abs(x[8]))
    w = act(ops, -1.0, act(ops, 1.0, h))
    worst = max(worst, abs(w[8] + 1.0), abs(np.linalg.norm(w) - 1.0))
    not_uniform = not pd.check_uniform(v, ZERO, max_len=6).passed
    shift_uniform = pd.check_uniform(
        pd.builtin_example(pd.BuiltinExample.SHIFT), ZERO, max_len=6).passed
    ok = worst <= 1e-12 and not_uniform and shift_uniform
    _record(3, "worked example: V-tilde column formulas and uniformity verdicts",
            ok, f"worst entry residual {worst:.2e}")


def test_criterion_4_unitary_extension_identities(corpus, all_chains):
    worst_q = 0.0
    worst_u = 0.0
    for chain in all_chains:
        worst_q = max(worst_q, pd.q_identity_defect(chain.u))
        worst_u = max(worst_u, pd.check_unitarity(chain.u).worst_residual)
    ok = worst_q <= 1e-9 and worst_u <= 1e-10
    _record(4, "Q identities on the whole circle + U unitary on all of K for "
               "every lambda, on U's letters",
            ok, f"Q residual {worst_q:.2e}, unitarity residual {worst_u:.2e}")


def test_criterion_5_dilation_tower(corpus, all_chains):
    worst = 0.0
    for t, chain in zip(corpus, all_chains):
        worst = max(worst, pd.check_dilation(
            chain.u, t, max_len=6).worst_residual)
        worst = max(worst, pd.check_uniform(
            chain.u, t, max_len=6).worst_residual)
    ok = worst <= 1e-9
    _record(5, "compression tower n<=6 on U's coefficients + all ordered words",
            ok, f"worst residual {worst:.2e}")


def test_criterion_6_unitary_minimality(corpus, all_chains):
    ranks_ok = True
    for t, chain in zip(corpus, all_chains):
        rep = pd.check_minimality(chain.u, t, depth=4, rank_tol=1e-8)
        expected = 4 * chain.v.dim_y + chain.v.dim_h + 4 * chain.u.dim_u
        ranks_ok = ranks_ok and rep.passed and rep.witness["rank"] == expected
    core = pd.LinearPencil([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]],
                           np.zeros((3, 2)))
    padded = pd.StructuredIsometricPencil(1, 2, 0, core)
    padded_rep = pd.check_minimality(pd.build_unitary(padded), ZERO, depth=4)
    ok = ranks_ok and not padded_rep.passed
    _record(6, "unitary minimality rank at depth 4 + padded counterexample",
            ok, f"padded rank {padded_rep.witness['rank']}/"
                f"{padded_rep.witness['expected']}")


def test_criterion_7_dimension_law(all_chains):
    ok = all(chain.u.dim_u == chain.factor.dim_y for chain in all_chains)
    _record(7, "dim U = dim Y for every canonical construction", ok)


def test_criterion_8_classical_reductions(corpus):
    worst_f1 = 0.0
    worst_defect = 0.0
    worst_lambda = 0.0
    for t in pd.classical_slice(corpus):
        chain = pd.canonical_chain(t)
        worst_f1 = max(worst_f1, spec_norm(chain.factor.f1))
        defect = chain.factor.f0.conj().T @ chain.factor.f0 - (
            np.eye(t.shape[0]) - t.a0.conj().T @ t.a0)
        worst_defect = max(worst_defect, spec_norm(defect))
        worst_lambda = max(worst_lambda, spec_norm(chain.v.core.a1),
                           spec_norm(chain.q.q1),
                           coefficient_norm_1(chain.u))
    shift = pd.canonical_chain(ZERO)
    # window [slot -2 | slot -1 | head | future 1 | future 2]
    ops = tuple(dense_coefficient(shift.u, j, 2, 2) for j in (0, 1))
    e_minus1, e_head, e_fut1 = np.eye(5)[:, 1], np.eye(5)[:, 2], np.eye(5)[:, 3]
    shift_exact = True
    for lam in (1.0, 1j, -1.0):
        shift_exact = shift_exact and \
            np.array_equal(act(ops, lam, e_head), e_minus1) and \
            np.array_equal(act(ops, lam, e_fut1), e_head) and \
            np.array_equal(act(ops, lam, e_head, adjoint=True), e_fut1)
    ok = (worst_f1 <= 1e-12 and worst_defect <= 1e-10
          and worst_lambda <= 1e-12 and shift_exact)
    _record(8, "constant-coefficient slice reduces to the classical chain", ok,
            f"F1 {worst_f1:.2e}, defect {worst_defect:.2e}, "
            f"lambda parts {worst_lambda:.2e}")


def coefficient_norm_1(u):
    return pd.coefficient_norms(u)[1]


def test_criterion_9_unitary_examples_and_falsifiers():
    classical = pd.canonical_chain(ZERO).u
    lam_shift = pd.builtin_example(pd.BuiltinExample.LAMBDA_SHIFT)
    u_prime = pd.build_unitary(lam_shift)
    # the lambda carrying coefficient is present with norm one and the
    # construction extends the lambda-shift exactly
    n0, n1 = pd.coefficient_norms(u_prime)
    pattern_ok = abs(n1 - 1.0) <= 1e-12 and abs(n0 - 1.0) <= 1e-12
    # window [slot -2 | slot -1 | head | future 1 | future 2]
    ops = tuple(dense_coefficient(u_prime, j, 2, 2) for j in (0, 1))
    for lam in (1j, -1.0):
        out = act(ops, lam, np.eye(5)[:, 2])
        pattern_ok = pattern_ok and abs(out[1] - lam) <= 1e-15
    rep1 = pd.equivalence_falsifier(classical, u_prime, ZERO, depth=3)
    w1 = rep1.witness
    fals1_ok = (w1["verdict"] == "NOT_EQUIVALENT"
                and w1["invariant"] == "coefficient-norm")
    vt = pd.builtin_example(pd.BuiltinExample.NON_UNIFORM_V)
    rep2 = pd.equivalence_falsifier(pd.canonical_chain(ZERO).v, vt, ZERO, depth=3)
    w2 = rep2.witness
    fals2_ok = (w2["verdict"] == "NOT_EQUIVALENT"
                and w2["invariant"] == "uniformity")
    u_tilde = pd.build_unitary(vt)
    minimal = pd.check_minimality(u_tilde, ZERO, depth=4).passed
    uniform = pd.check_uniform(u_tilde, ZERO, max_len=4).passed
    ok = pattern_ok and fals1_ok and fals2_ok and minimal and not uniform
    _record(9, "lambda-shift extension pattern, falsifier witnesses, "
               "U-tilde minimal but not uniform", ok)


def test_criterion_10_biinner_theta(all_chains):
    ok = True
    worst = 0.0
    for chain in all_chains:
        rep = pd.check_biinner(chain.theta, chain.factor.dim_y,
                               chain.pencil.shape[0], chain.u.dim_u,
                               grid_size=64, tol=1e-9)
        ok = ok and rep.passed
        worst = max(worst, rep.worst_residual)
    _record(10, "theta unitary on the whole circle (contractive inside by the "
                "maximum principle), "
                "density rank surrogates", ok, f"worst residual {worst:.2e}")
