import math

import numpy as np
import pytest

from pencildil import (BuiltinExample, DimensionMismatch, KPlusVector,
                       LinearPencil, StructuredIsometricPencil, apply,
                       apply_adjoint, build_canonical, builtin_example,
                       check_dilation, check_minimality, check_uniform,
                       coefficient_norms, isometry_defect)
from pencildil.isodil import dense_coefficient, dense_rect, window_dim
from pencildil.linalg import spec_norm

ZERO = LinearPencil([[0.0]], [[0.0]])
S2 = 1.0 / math.sqrt(2.0)


def head(value=1.0, dim_y=1):
    return KPlusVector.from_head([value], dim_y)


def random_kplus(rng, dim_y, dim_h, depth=3):
    tail = tuple(rng.standard_normal(dim_y) + 1j * rng.standard_normal(dim_y)
                 for _ in range(depth))
    h = rng.standard_normal(dim_h) + 1j * rng.standard_normal(dim_h)
    return KPlusVector(dim_y, dim_h, tail, h)


def test_kplus_vector_trims_and_norms():
    x = KPlusVector(1, 1, (np.array([1.0]), np.array([0.0])), np.array([2.0]))
    assert x.depth == 1
    assert abs(x.norm() - math.sqrt(5.0)) < 1e-14
    y = x + x
    assert abs(y.norm() - 2 * x.norm()) < 1e-14


def test_builtin_cores_are_isometric():
    for name in BuiltinExample:
        v = builtin_example(name)
        assert isometry_defect(v.core) <= 1e-12


def test_shift_is_forward_shift():
    v = builtin_example(BuiltinExample.SHIFT)
    for lam in (1.0, 1j, -1.0):
        out = apply(v, lam, head())
        assert out.depth == 1
        assert abs(out.tail[0][0] - 1.0) < 1e-15
        assert abs(out.head[0]) < 1e-15


def test_lambda_shift_core_is_in_lambda_coefficient():
    v = builtin_example(BuiltinExample.LAMBDA_SHIFT)
    out = apply(v, 1j, head())
    assert abs(out.tail[0][0] - 1j) < 1e-15
    n0, n1 = coefficient_norms(v)
    assert n0 == 1.0 and abs(n1 - 1.0) < 1e-15
    s0, s1 = coefficient_norms(builtin_example(BuiltinExample.SHIFT))
    assert s0 == 1.0 and s1 == 0.0


def test_nonuniform_apply_formulas():
    v = builtin_example(BuiltinExample.NON_UNIFORM_V)
    for lam in (1.0, -1.0, 1j, np.exp(0.7j)):
        x = apply(v, lam, head())
        # V(lam)h = (..., 0, lam h/sqrt2, h/sqrt2, 0)
        assert abs(x.slot(-1)[0] - S2) < 1e-15
        assert abs(x.slot(-2)[0] - lam * S2) < 1e-15
        assert abs(x.head[0]) < 1e-15
        x = apply(v, lam, x)
        # V(lam)^2 h = (..., 0, lam h, 0, 0, 0)
        assert abs(x.slot(-3)[0] - lam) < 1e-14
        assert x.norm() == pytest.approx(1.0, abs=1e-14)
        for n in range(3, 6):
            x = apply(v, lam, x)
            assert abs(x.slot(-(n + 1))[0] - lam) < 1e-14


def test_nonuniform_witness_identity():
    v = builtin_example(BuiltinExample.NON_UNIFORM_V)
    w = apply(v, -1.0, apply(v, 1.0, head()))
    assert abs(w.head[0] + 1.0) < 1e-15
    assert abs(w.norm() - 1.0) < 1e-15


def test_nonuniform_word_sum_is_minus_h():
    # sum over length-2 words weighted by (-1)^(count of ones in the first
    # position) realizes V(-1)V(1) and compresses to -h
    v = builtin_example(BuiltinExample.NON_UNIFORM_V)
    t_depth = 5
    v0 = dense_coefficient(v, 0, t_depth)
    v1 = dense_coefficient(v, 1, t_depth)
    e = np.zeros(window_dim(v, t_depth), dtype=complex)
    e[t_depth * v.dim_y] = 1.0
    total = np.zeros_like(e)
    for e1 in (0, 1):
        for e2 in (0, 1):
            ops = [v0 if b == 0 else v1 for b in (e1, e2)]
            total += (-1.0) ** e1 * (ops[0] @ (ops[1] @ e))
    assert abs(total[t_depth * v.dim_y] + 1.0) < 1e-14


def test_apply_isometry_builtins():
    rng = np.random.default_rng(29)
    for name in BuiltinExample:
        v = builtin_example(name)
        for _ in range(25):
            x = random_kplus(rng, v.dim_y, v.dim_h, depth=4)
            lam = complex(np.exp(2j * np.pi * rng.uniform()))
            assert abs(apply(v, lam, x).norm() - x.norm()) <= 1e-12 * x.norm()


def test_adjoint_pairing_and_inverse(all_chains):
    rng = np.random.default_rng(31)
    v = all_chains[2].v
    for _ in range(20):
        x = random_kplus(rng, v.dim_y, v.dim_h, depth=3)
        y = random_kplus(rng, v.dim_y, v.dim_h, depth=4)
        lam = complex(np.exp(2j * np.pi * rng.uniform()))
        lhs = apply(v, lam, x).vdot(y)
        rhs = x.vdot(apply_adjoint(v, lam, y))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, x.norm() * y.norm())
        back = apply_adjoint(v, lam, apply(v, lam, x))
        assert (back - x).norm() <= 1e-10 * x.norm()


def test_adjoint_examples(scalar_chain):
    # shift adjoint on a head vector gives zero
    shift = builtin_example(BuiltinExample.SHIFT)
    assert apply_adjoint(shift, 1.0, head()).norm() <= 1e-15
    # canonical V: adjoint of a slot -1 vector lands in H through F(lam)^H
    v = scalar_chain.v
    f = scalar_chain.factor
    y = KPlusVector(1, 1, (np.array([1.0]),), np.array([0.0]))
    for lam in (1.0, 1j):
        out = apply_adjoint(v, lam, y)
        expected = (f.f0 + lam * f.f1).conj().T @ np.array([1.0])
        assert abs(out.head[0] - expected[0]) < 1e-12


def test_dense_rect_matches_structured_apply(all_chains):
    rng = np.random.default_rng(37)
    for chain in all_chains[:4]:
        v = chain.v
        for _ in range(5):
            x = random_kplus(rng, v.dim_y, v.dim_h, depth=3)
            lam = complex(np.exp(2j * np.pi * rng.uniform()))
            dense = dense_rect(v, lam, 3) @ x.to_dense(3)
            exact = apply(v, lam, x).to_dense(4)
            assert np.linalg.norm(dense - exact) <= 1e-12 * max(1.0, x.norm())


def test_build_canonical_shapes_and_classical_cases(corpus, all_chains):
    # isometric input: empty Y, dilation acts as the pencil itself
    iso = LinearPencil(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    from pencildil import bauer_factorize, gram_coefficients
    f = bauer_factorize(gram_coefficients(iso))
    v = build_canonical(iso, f)
    assert v.dim_y == 0 and v.window_prime_dim == 2
    x = KPlusVector.from_head([1.0, 2.0], dim_y=0)
    out = apply(v, 1j, x)
    np.testing.assert_allclose(out.head, (iso.a0 + 1j * iso.a1) @ x.head,
                               atol=1e-14)
    # constant pencil: lambda-independent core
    t0 = corpus[1].a0
    from pencildil import canonical_chain
    chain = canonical_chain(LinearPencil(t0, np.zeros_like(t0)))
    assert spec_norm(chain.v.core.a1) <= 1e-12


def test_check_dilation_and_uniform_verdicts(corpus, all_chains):
    for t, chain in zip(corpus[:4], all_chains[:4]):
        assert check_dilation(chain.v, t, max_len=6).passed
        assert check_uniform(chain.v, t, max_len=6).passed
    vt = builtin_example(BuiltinExample.NON_UNIFORM_V)
    assert check_dilation(vt, ZERO, max_len=6).passed
    uniform = check_uniform(vt, ZERO, max_len=6)
    assert not uniform.passed
    assert uniform.worst_residual == pytest.approx(0.5, abs=1e-12)
    assert uniform.witness["word"] in ("01", "10")
    assert check_uniform(builtin_example(BuiltinExample.SHIFT), ZERO, 6).passed


def test_check_minimality_expected_ranks(corpus, all_chains):
    t, chain = corpus[2], all_chains[2]
    assert t.shape[0] == 3 and chain.factor.dim_y == 3
    report = check_minimality(chain.v, t, depth=5)
    assert report.passed
    assert report.witness == {"rank": 18, "expected": 18}
    vt = builtin_example(BuiltinExample.NON_UNIFORM_V)
    report = check_minimality(vt, ZERO, depth=5)
    assert report.passed and report.witness["rank"] == 6


def test_padded_dilation_is_not_minimal():
    # shift with an extra untouched head line adjoined to the big space
    core = LinearPencil([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]],
                        np.zeros((3, 2)))
    padded = StructuredIsometricPencil(dim_y=1, dim_h=2, core_depth=0, core=core)
    assert isometry_defect(padded.core) <= 1e-15
    assert check_dilation(padded, ZERO, max_len=4).passed
    report = check_minimality(padded, ZERO, depth=4)
    assert not report.passed
    assert report.witness["expected"] - report.witness["rank"] == 1


def test_dimension_mismatch_errors():
    v = builtin_example(BuiltinExample.SHIFT)
    bad = KPlusVector.from_head([1.0, 2.0], dim_y=1)
    with pytest.raises(DimensionMismatch):
        apply(v, 1.0, bad)
