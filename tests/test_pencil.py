import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pencildil import (LinearPencil, NotContractive, PencilKind, ShapeMismatch,
                       classify, evaluate, evaluate_all, isometry_defect,
                       run_pipeline, unit_circle_grid)
from pencildil.isodil import BuiltinExample, builtin_example
from pencildil.linalg import adjoints, spec_norm, spec_norms
from pencildil.pencil import is_isometric
from pencildil.words import Letters
from multipower_oracle import symmetrized_multipower
from word_oracle import levels, word_label


def brute_multipower(p, t0, t1):
    """Independent oracle: enumerate every word and average."""
    n = t0 + t1
    acc = []
    for bits in itertools.product((0, 1), repeat=n):
        if sum(bits) != t1:
            continue
        m = np.eye(p.shape[0], dtype=complex)
        for b in bits:
            m = m @ (p.a0 if b == 0 else p.a1)
        acc.append(m)
    return sum(acc) / len(acc)


def test_eval_trivials():
    p = LinearPencil(np.eye(2), np.zeros((2, 2)))
    np.testing.assert_allclose(evaluate(p, 1j), np.eye(2))
    scalar = LinearPencil([[0.5]], [[0.3]])
    assert abs(evaluate(scalar, 1.0)[0, 0] - 0.8) < 1e-15


def test_eval_nonuniform_core_sign_pattern():
    # at lam = -1 the constant entries stay and the lam-carrying ones flip
    core = builtin_example(BuiltinExample.NON_UNIFORM_V).core
    val = evaluate(core, -1.0)
    s = 1.0 / math.sqrt(2.0)
    assert abs(val[3, 0] - (-s)) < 1e-15          # bottom row, first column
    assert abs(val[0, 1] - (-s)) < 1e-15          # lam/sqrt2 entry flipped
    assert abs(val[2, 2] - s) < 1e-15             # constant entry unchanged


def test_classify_unitary_projector_pencil():
    p = LinearPencil(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    assert classify(p).kind is PencilKind.UNITARY


def test_classify_scalar_contractive_certified():
    verdict = classify(LinearPencil([[0.5]], [[0.3]]))
    assert verdict.kind is PencilKind.CONTRACTIVE
    assert verdict.certified
    assert abs(verdict.max_norm_on_grid - 0.8) < 1e-12
    assert abs(verdict.margin - 0.2) < 1e-12


def test_classify_norm_exceeds_one():
    verdict = classify(LinearPencil([[0.8]], [[0.5]]))
    assert verdict.kind is PencilKind.NONE
    assert abs(verdict.max_norm_on_grid - 1.3) < 1e-12


def huge_pencil(scale):
    """A Gaussian 3 x 3 pair scaled so far that a0^H a0 overflows."""
    rng = np.random.default_rng(160)
    return LinearPencil(scale * rng.standard_normal((3, 3)),
                        scale * rng.standard_normal((3, 3)))


@pytest.mark.parametrize("scale", [1e160, 1e300])
def test_classify_huge_pencil_is_not_contractive(scale):
    # used to raise LinAlgError (SVD did not converge) on the overflowed Gram
    p = huge_pencil(scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdict = classify(p)
    assert verdict.kind is PencilKind.NONE and not verdict.certified
    assert verdict.max_norm_on_grid > scale
    assert verdict.margin == 1.0 - verdict.max_norm_on_grid
    with pytest.raises(NotContractive):
        run_pipeline(p)


def test_classify_isometric_rectangular():
    s = 1.0 / math.sqrt(2.0)
    p = LinearPencil(np.array([[s], [0.0]]), np.array([[0.0], [s]]))
    assert classify(p).kind is PencilKind.ISOMETRIC


def test_classify_matches_pointwise_isometry():
    rng = np.random.default_rng(11)
    examples = [
        LinearPencil(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
        builtin_example(BuiltinExample.NON_UNIFORM_V).core,
        LinearPencil([[0.5]], [[0.3]]),
        LinearPencil(rng.standard_normal((2, 2)) * 0.3, rng.standard_normal((2, 2)) * 0.3),
    ]
    tol = 1e-10
    for p in examples:
        algebraic = classify(p, tol=tol).kind in (PencilKind.ISOMETRIC, PencilKind.UNITARY)
        eye = np.eye(p.shape[1])
        lams = np.exp(2j * np.pi * rng.random(32))
        pointwise = all(
            spec_norm(evaluate(p, lam).conj().T @ evaluate(p, lam) - eye) <= 3 * tol
            for lam in lams)
        assert algebraic == pointwise


def _complex_array(shape):
    return hnp.arrays(np.float64, shape + (2,),
                      elements=st.floats(-2, 2, allow_nan=False)).map(
        lambda a: a[..., 0] + 1j * a[..., 1])


@st.composite
def isometry_cases(draw):
    """(pencil, kind): a general pencil, an exact isometry, or an isometry
    moved by eps in 1e-9..1e-2.  An isometry a0 = U_1 B_1, a1 = U_2 B_2
    splits a unitary U into column blocks with orthogonal ranges and an
    isometry B into the matching row blocks, so a0^H a1 = 0 and
    a0^H a0 + a1^H a1 = B^H B = I; it needs rows >= cols."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["general", "isometric", "perturbed"]))
    if kind == "general":
        return LinearPencil(draw(_complex_array((rows, cols))),
                            draw(_complex_array((rows, cols)))), kind
    cols = min(cols, rows)
    u = np.linalg.qr(draw(_complex_array((rows, rows))))[0]
    b = np.linalg.qr(draw(_complex_array((rows, cols))))[0]
    k = draw(st.integers(0, rows))
    a0, a1 = u[:, :k] @ b[:k], u[:, k:] @ b[k:]
    if kind == "perturbed":
        eps = 10.0 ** draw(st.floats(-9, -2))
        a0 = a0 + eps * draw(_complex_array((rows, cols)))
        a1 = a1 + eps * draw(_complex_array((rows, cols)))
    return LinearPencil(a0, a1), kind


@settings(max_examples=200, deadline=None)
@given(isometry_cases())
def test_isometry_defect_brackets_the_circle_maximum(case):
    # With M the largest ||p(lam)^H p(lam) - I|| on the circle, the defect
    # lies in [M, 3M].  The 256-point grid sees at least M cos(pi / 256)
    # of a degree-1 trigonometric polynomial, so
    # grid_max <= defect <= 3 grid_max / cos(pi / 256) up to round-off.
    p, kind = case
    values = evaluate_all(p, unit_circle_grid(256))
    grid_max = spec_norms(adjoints(values) @ values - np.eye(p.shape[1])).max()
    defect = isometry_defect(p)
    slack = 1e-14 * (1.0 + spec_norm(p.a0) + spec_norm(p.a1)) ** 2
    assert grid_max <= defect + slack
    assert defect <= 3.0 * grid_max / math.cos(math.pi / 256) + slack
    if kind == "isometric":
        assert defect <= slack


def test_isometry_defect_examples():
    s = 1.0 / math.sqrt(2.0)
    assert isometry_defect(LinearPencil([[s], [0.0]], [[0.0], [s]])) <= 1e-15
    # scalar pencils attain the bound: |p(lam)|^2 - 1 = -0.66 + 0.3 cos(theta)
    assert isometry_defect(LinearPencil([[0.5]], [[0.3]])) == pytest.approx(0.96)


def test_word_expansion_reconstructs_powers():
    rng = np.random.default_rng(5)
    p = LinearPencil(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)),
                     rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    letters = Letters.plain((p.a0, p.a1))
    for lam in (1.0, 1j, np.exp(0.3j)):
        for n, words in enumerate(levels(letters, 6), start=1):
            ones = [word_label(i, n, 2).count("1") for i in range(2 ** n)]
            total = sum(lam ** k * w for k, w in zip(ones, words))
            direct = np.linalg.matrix_power(evaluate(p, lam), n)
            assert spec_norm(total - direct) <= 1e-10 * max(1.0, spec_norm(direct))


def test_multipower_single_word_and_commuting():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((3, 3))
    p = LinearPencil(a, np.zeros((3, 3)))
    np.testing.assert_allclose(symmetrized_multipower(p, (3, 0)),
                               np.linalg.matrix_power(a, 3), atol=1e-12)
    # commuting coefficients: multipower is the plain product of powers
    q = LinearPencil(np.diag([0.5, 0.2]), np.diag([0.1, 0.7]))
    expected = np.linalg.matrix_power(q.a0, 2) @ q.a1
    np.testing.assert_allclose(symmetrized_multipower(q, (2, 1)), expected,
                               atol=1e-14)


def test_multipower_one_two_formula():
    rng = np.random.default_rng(9)
    p = LinearPencil(rng.standard_normal((3, 3)), rng.standard_normal((3, 3)))
    a0, a1 = p.a0, p.a1
    expected = (a0 @ a1 @ a1 + a1 @ a0 @ a1 + a1 @ a1 @ a0) / 3.0
    np.testing.assert_allclose(symmetrized_multipower(p, (1, 2)), expected,
                               atol=1e-13)


def test_multipower_matches_brute_force_oracle():
    rng = np.random.default_rng(13)
    p = LinearPencil(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
                     rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    for t0 in range(0, 4):
        for t1 in range(0, 4):
            got = symmetrized_multipower(p, (t0, t1))
            oracle = brute_multipower(p, t0, t1)
            assert spec_norm(got - oracle) <= 1e-12 * max(1.0, spec_norm(oracle))


def test_multipower_cap():
    p = LinearPencil([[0.1]], [[0.1]])
    with pytest.raises(ValueError, match="exceeds cap"):
        symmetrized_multipower(p, (6, 5))


def test_multipower_fourier_consistency():
    # (1/2pi) int conj(lam)^t1 T(lam)^n dlam equals the word sum with t1
    # ones, i.e. binom(n, t1) times the symmetrized multipower.
    rng = np.random.default_rng(17)
    p = LinearPencil(rng.standard_normal((4, 4)) * 0.4,
                     rng.standard_normal((4, 4)) * 0.4)
    grid = unit_circle_grid(64)
    for t0, t1 in [(1, 1), (2, 1), (1, 2), (3, 2), (0, 3)]:
        n = t0 + t1
        quad = np.zeros((4, 4), dtype=complex)
        for lam in grid:
            quad += np.conj(lam) ** t1 * np.linalg.matrix_power(evaluate(p, lam), n)
        quad /= len(grid)
        expected = math.comb(n, t1) * symmetrized_multipower(p, (t0, t1))
        assert spec_norm(quad - expected) <= 1e-8


@st.composite
def near_isometric_pencils(draw):
    """(W1 P, W2 (I - P)), W = [W1 W2] an isometry and P an orthogonal
    projector, with its constant coefficient scaled by 1 + delta."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 5))
    m = draw(st.integers(2 * n, 2 * n + 2))
    w, _ = np.linalg.qr(rng.standard_normal((m, 2 * n))
                        + 1j * rng.standard_normal((m, 2 * n)))
    k = draw(st.integers(0, n))
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    proj = basis[:, :k] @ basis[:, :k].conj().T
    delta = draw(st.sampled_from([0.0, 1e-13, 1e-9, 5e-9, 1e-3, -0.5]))
    return LinearPencil((1 + delta) * (w[:, :n] @ proj), w[:, n:] @ (np.eye(n) - proj))


@settings(max_examples=100, deadline=None)
@given(near_isometric_pencils(), st.sampled_from([0.0, 1e-10, 1e-8, 2e-8]))
def test_is_isometric_is_the_defect_comparison(p, tol):
    assert is_isometric(p, tol) == (isometry_defect(p) <= tol)
