import numpy as np
import pytest

from pencildil import (BuiltinExample, LinearPencil, StructuredIsometricPencil,
                       build_unitary, builtin_example, check_minimality,
                       check_minimality_unitary, equivalence_falsifier)
from pencildil.isodil import dense_coefficient, window_dim
from pencildil.linalg import numerical_rank, spec_norm
from pencildil.unidil import dense_u_coefficient
from pencildil.words import (Letters, first_difference, levels, word_label,
                             worst_word)

ZERO = LinearPencil([[0.0]], [[0.0]])
RANK_TOL = 1e-8


def padded_shift():
    """The shift with an untouched head line adjoined: a non-minimal dilation."""
    core = LinearPencil([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]], np.zeros((3, 2)))
    return StructuredIsometricPencil(1, 2, 0, core)


def stacked_rank(ops, start, rows, max_len):
    """Reference: every word of length <= max_len side by side, one rank."""
    level = start
    collected = [level]
    for _ in range(max_len):
        level = np.concatenate([op @ level for op in ops], axis=1)
        collected.append(level)
    return numerical_rank(np.concatenate(collected, axis=1)[rows], RANK_TOL)


def exhaustive_minimality_rank(v, n_t, depth):
    tail = depth + v.core_depth + 1
    ops = [dense_coefficient(v, j, tail) for j in (0, 1)]
    start = np.zeros((window_dim(v, tail), n_t), dtype=complex)
    start[tail * v.dim_y:tail * v.dim_y + n_t] = np.eye(n_t)
    return stacked_rank(ops, start, slice((tail - depth) * v.dim_y, None), depth)


def exhaustive_minimality_unitary_rank(u, n_t, depth):
    cap = depth + u.core_depth + 1
    tail, future = cap + u.core_depth + 1, cap + 1
    ops = [dense_u_coefficient(u, j, tail, future) for j in (0, 1)]
    ops += [op.conj().T for op in ops]
    kdim = window_dim(u.v, tail)
    start = np.zeros((kdim + future * u.dim_u, n_t), dtype=complex)
    start[tail * u.dim_y:tail * u.dim_y + n_t] = np.eye(n_t)
    rows = np.r_[(tail - depth) * u.dim_y:kdim, kdim:kdim + depth * u.dim_u]
    return stacked_rank(ops, start, rows, cap)


def word_table(letters, max_len):
    """Reference: head rows of every word, keyed in application order."""
    table = {}
    level = [("", letters.start)]
    for _ in range(max_len):
        level = [(word + str(i), op @ block)
                 for word, block in level for i, op in enumerate(letters.ops)]
        for word, block in level:
            table[word] = block[letters.head]
    return table


def minimality_cases(corpus, all_chains):
    for t, chain in zip(corpus, all_chains):
        for depth in range(1, 5):
            yield chain.v, chain.u, t, depth
    for name in BuiltinExample:
        v = builtin_example(name)
        for depth in range(1, 6):
            yield v, build_unitary(v), ZERO, depth
    for depth in range(1, 5):
        v = padded_shift()
        yield v, build_unitary(v), ZERO, depth


def test_span_rank_equals_stacked_rank(corpus, all_chains):
    for v, u, t, depth in minimality_cases(corpus, all_chains):
        n_t = t.shape[0]
        iso = check_minimality(v, t, depth=depth, rank_tol=RANK_TOL)
        assert iso.witness["rank"] == exhaustive_minimality_rank(v, n_t, depth)
        uni = check_minimality_unitary(u, t, depth=depth, rank_tol=RANK_TOL)
        assert uni.witness["rank"] == exhaustive_minimality_unitary_rank(u, n_t, depth)


def test_unitary_minimality_at_depth_10(corpus, all_chains):
    # 4^12 / 3 word columns if stacked exhaustively; closed level by level.
    t, chain = corpus[1], all_chains[1]
    assert t.shape == (2, 2)
    report = check_minimality_unitary(chain.u, t, depth=10)
    expected = 10 * chain.v.dim_y + chain.v.dim_h + 10 * chain.u.dim_u
    assert report.passed and report.witness == {"rank": expected,
                                                "expected": expected}


def test_levels_follow_the_word_table():
    rng = np.random.default_rng(3)
    ops = [rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
           for _ in range(3)]
    letters = Letters.embedded(ops, 2, 2)
    table = word_table(letters, 4)
    for length, blocks in enumerate(levels(letters, 4), start=1):
        assert blocks.shape == (3 ** length, 2, 2)
        for i, block in enumerate(blocks):
            np.testing.assert_allclose(block, table[word_label(i, length, 3)],
                                       atol=1e-12)


def test_first_difference_and_worst_word_match_the_word_table():
    # Letter 1 of ``b`` differs only on rows outside the head and columns
    # outside the start block, so the first differing word has length 3
    # with letter 1 in the middle.
    rng = np.random.default_rng(11)
    ops = [rng.standard_normal((4, 4)) for _ in range(2)]
    bump = np.zeros((4, 4))
    bump[1:3, 1:3] = rng.standard_normal((2, 2))
    a = Letters.embedded(ops, 0, 1)
    b = Letters.embedded([ops[0], ops[1] + bump], 0, 1)
    ta, tb = word_table(a, 5), word_table(b, 5)
    diffs = {w: spec_norm(ta[w] - tb[w]) for w in ta}
    expected = next(w for w, d in diffs.items() if d > 1e-9)
    assert expected == "010"
    word, diff = first_difference(a, b, 5, 1e-9)
    assert word == expected and diff == pytest.approx(diffs[expected], rel=1e-12)
    worst, worst_w = worst_word(a, b, 5)
    assert worst == pytest.approx(max(diffs.values()), rel=1e-12)
    assert diffs[worst_w] == pytest.approx(worst, rel=1e-12)
    assert first_difference(a, a, 5, 0.0) is None
    assert worst_word(a, a, 5) == (0.0, None)


@pytest.mark.parametrize("unitary", [False, True])
def test_falsifier_word_table_witness(unitary):
    # V-tilde and its copy with the head row of the core negated are both
    # non-uniform dilations of the zero pencil with equal coefficient norms;
    # only their compressed words tell them apart.
    v = builtin_example(BuiltinExample.NON_UNIFORM_V)
    b0, b1 = v.core.a0.copy(), v.core.a1.copy()
    b0[3] *= -1
    b1[3] *= -1
    w = StructuredIsometricPencil(1, 1, 2, LinearPencil(b0, b1))
    d1, d2 = (build_unitary(v), build_unitary(w)) if unitary else (v, w)
    report = equivalence_falsifier(d1, d2, ZERO, depth=3)
    witness = report.witness
    assert witness["verdict"] == "NOT_EQUIVALENT"
    assert witness["invariant"] == "word-table"

    def letters(d):
        tail = 3 + d.core_depth + 1
        if unitary:
            ops = [dense_u_coefficient(d, j, tail, 4) for j in (0, 1)]
            ops += [op.conj().T for op in ops]
        else:
            ops = [dense_coefficient(d, j, tail) for j in (0, 1)]
        return Letters.embedded(ops, tail * d.dim_y, 1)

    t1, t2 = word_table(letters(d1), 3), word_table(letters(d2), 3)
    expected = next(word for word in t1 if spec_norm(t1[word] - t2[word]) > 1e-9)
    assert witness["word"] == expected
    assert witness["difference"] == pytest.approx(
        spec_norm(t1[expected] - t2[expected]), rel=1e-12)
