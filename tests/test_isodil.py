import math

import numpy as np
import pytest

from pencildil import (BuiltinExample, DimensionMismatch, FejerRieszFactor,
                       LinearPencil, StructuredIsometricPencil,
                       UnitaryDilation, build_canonical, build_unitary,
                       builtin_example, check_dilation, check_minimality,
                       check_uniform, coefficient_norms, isometry_defect)
from pencildil.isodil import (core_letters, dense_coefficient,
                              dilation_letters, equals_pencil, window_dim)
from pencildil.linalg import spec_norm
from pencildil.words import Letters, act
from slot_oracle import column, random_vector, v_act, v_adjoint
from word_oracle import levels, word_label, worst_word

ZERO = LinearPencil([[0.0]], [[0.0]])
S2 = 1.0 / math.sqrt(2.0)


def letters(v, tail_depth):
    return tuple(dense_coefficient(v, j, tail_depth) for j in (0, 1))


def head(v, tail_depth):
    """The first head basis vector on a depth-t window."""
    x = np.zeros(window_dim(v, tail_depth), dtype=complex)
    x[tail_depth * v.dim_y] = 1.0
    return x


def slot(x, v, tail_depth, n):
    """Content of Y-slot n (n <= -1) of a depth-t window vector."""
    i = (tail_depth + n) * v.dim_y
    return x[i:i + v.dim_y]


def random_window(rng, v, tail_depth, depth=3):
    """Random vector on slots -depth..-1 and the head, as a window column."""
    return column(random_vector(rng, v.dim_y, v.dim_h, tail=depth), v.dim_y,
                  tail_depth)


def test_kplus_vector_trims_and_norms():
    # A vector padded with zero slots is the same vector: on a deeper
    # window it has the same norm and the letters act on it the same way.
    v = builtin_example(BuiltinExample.SHIFT)
    x = column(([np.array([1.0]), np.array([0.0])], np.array([2.0]), []), 1, 2)
    deeper = column(([np.array([1.0])], np.array([2.0]), []), 1, 4)
    assert np.array_equal(deeper[2:], x)
    assert abs(np.linalg.norm(x) - math.sqrt(5.0)) < 1e-14
    assert abs(np.linalg.norm(x + x) - 2 * np.linalg.norm(x)) < 1e-14
    for lam in (1.0, 1j):
        np.testing.assert_array_equal(act(letters(v, 4), lam, deeper)[2:],
                                      act(letters(v, 2), lam, x))


def test_builtin_cores_are_isometric():
    for name in BuiltinExample:
        v = builtin_example(name)
        assert isometry_defect(v.core) <= 1e-12


def test_shift_is_forward_shift():
    v = builtin_example(BuiltinExample.SHIFT)
    for lam in (1.0, 1j, -1.0):
        out = act(letters(v, 2), lam, head(v, 2))
        assert abs(slot(out, v, 2, -1)[0] - 1.0) < 1e-15
        assert abs(out[2]) < 1e-15 and not out[0]


def test_lambda_shift_core_is_in_lambda_coefficient():
    v = builtin_example(BuiltinExample.LAMBDA_SHIFT)
    out = act(letters(v, 2), 1j, head(v, 2))
    assert abs(slot(out, v, 2, -1)[0] - 1j) < 1e-15
    n0, n1 = coefficient_norms(v)
    assert n0 == 1.0 and abs(n1 - 1.0) < 1e-15
    s0, s1 = coefficient_norms(builtin_example(BuiltinExample.SHIFT))
    assert s0 == 1.0 and s1 == 0.0


def test_nonuniform_apply_formulas():
    v = builtin_example(BuiltinExample.NON_UNIFORM_V)
    t = 8
    ops = letters(v, t)
    for lam in (1.0, -1.0, 1j, np.exp(0.7j)):
        x = act(ops, lam, head(v, t))
        # V(lam)h = (..., 0, lam h/sqrt2, h/sqrt2, 0)
        assert abs(slot(x, v, t, -1)[0] - S2) < 1e-15
        assert abs(slot(x, v, t, -2)[0] - lam * S2) < 1e-15
        assert abs(x[t]) < 1e-15
        x = act(ops, lam, x)
        # V(lam)^2 h = (..., 0, lam h, 0, 0, 0)
        assert abs(slot(x, v, t, -3)[0] - lam) < 1e-14
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-14)
        for n in range(3, 6):
            x = act(ops, lam, x)
            assert abs(slot(x, v, t, -(n + 1))[0] - lam) < 1e-14


def test_nonuniform_witness_identity():
    v = builtin_example(BuiltinExample.NON_UNIFORM_V)
    ops = letters(v, 5)
    w = act(ops, -1.0, act(ops, 1.0, head(v, 5)))
    assert abs(w[5] + 1.0) < 1e-15
    assert abs(np.linalg.norm(w) - 1.0) < 1e-15


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
        ops = letters(v, 4 + v.core_depth + 2)
        for _ in range(25):
            x = random_window(rng, v, 4 + v.core_depth + 2, depth=4)
            lam = complex(np.exp(2j * np.pi * rng.uniform()))
            norm = np.linalg.norm(x)
            assert abs(np.linalg.norm(act(ops, lam, x)) - norm) <= 1e-12 * norm


def test_adjoint_pairing_and_inverse(all_chains):
    rng = np.random.default_rng(31)
    v = all_chains[2].v
    ops = letters(v, 6)
    for _ in range(20):
        x = random_window(rng, v, 6, depth=3)
        y = random_window(rng, v, 6, depth=4)
        lam = complex(np.exp(2j * np.pi * rng.uniform()))
        lhs = np.vdot(act(ops, lam, x), y)
        rhs = np.vdot(x, act(ops, lam, y, adjoint=True))
        scale = np.linalg.norm(x) * np.linalg.norm(y)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, scale)
        back = act(ops, lam, act(ops, lam, x), adjoint=True)
        assert np.linalg.norm(back - x) <= 1e-10 * np.linalg.norm(x)


def test_adjoint_examples(scalar_chain):
    # shift adjoint on a head vector gives zero
    shift = builtin_example(BuiltinExample.SHIFT)
    assert np.linalg.norm(act(letters(shift, 2), 1.0, head(shift, 2),
                              adjoint=True)) <= 1e-15
    # canonical V: adjoint of a slot -1 vector lands in H through F(lam)^H
    v = scalar_chain.v
    f = scalar_chain.factor
    y = column(([np.array([1.0])], np.array([0.0]), []), 1, 2)
    for lam in (1.0, 1j):
        out = act(letters(v, 2), lam, y, adjoint=True)
        expected = (f.f0 + lam * f.f1).conj().T @ np.array([1.0])
        assert abs(out[2] - expected[0]) < 1e-12


def test_dense_rect_matches_structured_apply(all_chains):
    # The window letters against the slot-by-slot oracle, forward and
    # adjoint, on every corpus chain and every builtin example.
    rng = np.random.default_rng(37)
    pencils = [c.v for c in all_chains] + [builtin_example(n) for n in BuiltinExample]
    for v in pencils:
        t = 3 + v.core_depth + 2
        ops = letters(v, t)
        for _ in range(3):
            x = random_vector(rng, v.dim_y, v.dim_h, tail=3)
            lam = complex(np.exp(2j * np.pi * rng.uniform()))
            scale = max(1.0, np.linalg.norm(column(x, v.dim_y, t)))
            for step, adjoint in ((v_act, False), (v_adjoint, True)):
                exact = step(v, lam, *x[:2]) + ([],)
                dense = act(ops, lam, column(x, v.dim_y, t), adjoint=adjoint)
                assert np.linalg.norm(dense - column(exact, v.dim_y, t)) \
                    <= 1e-12 * scale


def test_build_canonical_shapes_and_classical_cases(corpus, all_chains):
    # isometric input: empty Y, dilation acts as the pencil itself
    iso = LinearPencil(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    from pencildil import bauer_factorize, gram_coefficients
    f = bauer_factorize(gram_coefficients(iso))
    v = build_canonical(iso, f)
    assert v.dim_y == 0 and v.window_prime_dim == 2
    x = np.array([1.0, 2.0], dtype=complex)
    out = act(letters(v, 3), 1j, x)
    np.testing.assert_allclose(out, (iso.a0 + 1j * iso.a1) @ x, atol=1e-14)
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
    assert not uniform.details[0]["every_length"]
    assert check_uniform(builtin_example(BuiltinExample.SHIFT), ZERO, 6).passed


def forward_cases(corpus, all_chains):
    """(T, V or U) for every corpus chain and every builtin example."""
    for t, chain in zip(corpus, all_chains):
        yield t, chain.v
        yield t, chain.u
    for name in BuiltinExample:
        v = builtin_example(name)
        yield ZERO, v
        yield ZERO, build_unitary(v)


def oracle_multipowers(d, t, max_len):
    """Largest multipower difference over t0 + t1 <= max_len, from every
    word of each length on a window deep enough for all of them."""
    a, b = dilation_letters(d, t.shape[0], max_len), Letters.plain((t.a0, t.a1))
    worst = 0.0
    for length, (x, y) in enumerate(zip(levels(a, max_len), levels(b, max_len)),
                                    start=1):
        ones = np.array([word_label(i, length, 2).count("1")
                         for i in range(2 ** length)])
        for k in range(length + 1):
            diff = (x[ones == k] - y[ones == k]).sum(axis=0) / math.comb(length, k)
            worst = max(worst, spec_norm(diff))
    return worst


def test_forward_checks_match_the_oracle(corpus, all_chains):
    # The core window decides both checks exactly: every verdict is the one
    # of every word enumerated on a window deep enough for length 6.  The
    # canonical chains take the exact route, with residual 0.0 at every
    # length; the non-uniform dilation takes the closure.
    for t, d in forward_cases(corpus, all_chains):
        dilation = check_dilation(d, t, max_len=6)
        uniform = check_uniform(d, t, max_len=6)
        assert dilation.passed == (oracle_multipowers(d, t, 6) <= 1e-9)
        worst, _ = worst_word(dilation_letters(d, t.shape[0], 6),
                              Letters.plain((t.a0, t.a1)), 6)
        assert uniform.passed == (worst <= 1e-9)
        exact = equals_pencil(core_letters(d, t), t)
        assert uniform.details[0]["every_length"] == exact
        if exact:
            assert dilation.worst_residual == uniform.worst_residual == 0.0
        if not uniform.passed:
            assert uniform.worst_residual == pytest.approx(worst, rel=1e-12)
    for chain in all_chains:
        t = chain.pencil
        assert equals_pencil(core_letters(chain.v, t), t)
        assert equals_pencil(core_letters(chain.u, t), t)


def moved_head(d, eps):
    """V (or U) with every entry of the head block of its core's constant
    coefficient moved by eps; U keeps its Q."""
    v = d if isinstance(d, StructuredIsometricPencil) else d.v
    b0 = v.core.a0.copy()
    b0[-v.dim_h:, -v.dim_h:] += eps
    moved = StructuredIsometricPencil(v.dim_y, v.dim_h, v.core_depth,
                                      LinearPencil(b0, v.core.a1))
    if d is v:
        return moved
    return UnitaryDilation(v=moved, q=d.q, cores=d.cores)


@pytest.mark.parametrize("index", [0, 2, 5])
def test_a_moved_head_block_takes_the_closure(corpus, all_chains, index):
    # A head block that is not T entry for entry leaves the exact route.
    # Moved by 1e-12 the checks pass with the residual of the closure; moved
    # by 1e-6 they fail with a witness, the uniform one at the oracle's
    # worst difference.
    t, chain = corpus[index], all_chains[index]
    for d in (chain.v, chain.u):
        near = moved_head(d, 1e-12)
        assert not equals_pencil(core_letters(near, t), t)
        for report in (check_dilation(near, t), check_uniform(near, t)):
            assert report.passed and 0.0 < report.worst_residual < 1e-9
        assert not check_uniform(near, t).details[0]["every_length"]
        far = moved_head(d, 1e-6)
        dilation = check_dilation(far, t)
        assert not dilation.passed and dilation.witness["t"] == [1, 0]
        uniform = check_uniform(far, t)
        assert not uniform.passed and uniform.witness is not None
        worst, _ = worst_word(dilation_letters(far, t.shape[0], 6),
                              Letters.plain((t.a0, t.a1)), 6)
        assert uniform.worst_residual == pytest.approx(worst, rel=1e-9)


def test_a_reflected_factor_takes_the_exact_route(scalar_chain):
    # [G; T] with G = conj(f1) + conj(f0) lambda, the reflected factor of
    # 0.5 + 0.3 lambda, is another depth-0 dilation of T: its head block is
    # T too, so all four forward checks are exact at every length.
    t, f = scalar_chain.pencil, scalar_chain.factor
    v = build_canonical(t, FejerRieszFactor(f.f1.conj(), f.f0.conj()))
    assert not np.allclose(v.core.a0, scalar_chain.v.core.a0)
    for d in (v, build_unitary(v)):
        assert equals_pencil(core_letters(d, t), t)
        dilation, uniform = check_dilation(d, t), check_uniform(d, t)
        assert dilation.passed and dilation.worst_residual == 0.0
        assert uniform.passed and uniform.worst_residual == 0.0
        assert uniform.details[0]["every_length"]


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
    # A window must hold the core block: the non-uniform core spans slots
    # -3..-1, so a depth-2 window is rejected.
    v = builtin_example(BuiltinExample.NON_UNIFORM_V)
    with pytest.raises(DimensionMismatch):
        dense_coefficient(v, 0, 2)
    assert dense_coefficient(v, 0, 3).shape == (4, 4)
