import tracemalloc

import numpy as np
import pytest

from pencildil import (BuiltinExample, LinearPencil, StructuredIsometricPencil,
                       build_unitary, builtin_example, check_minimality,
                       check_uniform, equivalence_falsifier)
from pencildil.isodil import (core_letters, dense_coefficient,
                              dilation_letters, window_dim)
from pencildil.linalg import numerical_rank, spec_norm
from pencildil.words import (Letters, closure, closure_bound, difference,
                             grouped_sums, span_rank)
from word_oracle import (differences, first_difference, levels, word_label,
                         worst_word)

ZERO = LinearPencil([[0.0]], [[0.0]])
RANK_TOL = 1e-8


def padded_shift():
    """The shift with an untouched head line adjoined: a non-minimal dilation."""
    core = LinearPencil([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]], np.zeros((3, 2)))
    return StructuredIsometricPencil(1, 2, 0, core)


def containment_rank(ops, start, rows, max_len):
    """Reference: every word of length <= max_len side by side; the rank of
    all of them minus the rank of their rows outside ``rows``, both cut at
    RANK_TOL times sigma_max of all of them."""
    level = start
    collected = [level]
    for _ in range(max_len):
        level = np.concatenate([op @ level for op in ops], axis=1)
        collected.append(level)
    words = np.concatenate(collected, axis=1)
    outside = np.ones(len(words), dtype=bool)
    outside[rows] = False
    s = np.linalg.svd(words, compute_uv=False)
    cut = RANK_TOL * s[0]
    s_out = (np.linalg.svd(words[outside], compute_uv=False) if outside.any()
             else np.zeros(0))
    return int(np.count_nonzero(s > cut) - np.count_nonzero(s_out > cut))


def exhaustive_minimality_rank(v, n_t, depth):
    tail = depth + v.core_depth + 1
    ops = [dense_coefficient(v, j, tail) for j in (0, 1)]
    start = np.zeros((window_dim(v, tail), n_t), dtype=complex)
    start[tail * v.dim_y:tail * v.dim_y + n_t] = np.eye(n_t)
    return containment_rank(ops, start, slice((tail - depth) * v.dim_y, None),
                            depth)


def exhaustive_minimality_unitary_rank(u, n_t, depth):
    cap = depth + u.core_depth + 1
    tail, future = cap + u.core_depth + 1, cap + 1
    ops = [dense_coefficient(u, j, tail, future) for j in (0, 1)]
    ops += [op.conj().T for op in ops]
    kdim = window_dim(u.v, tail)
    start = np.zeros((kdim + future * u.dim_u, n_t), dtype=complex)
    start[tail * u.dim_y:tail * u.dim_y + n_t] = np.eye(n_t)
    rows = slice((tail - depth) * u.dim_y, kdim + depth * u.dim_u)
    return containment_rank(ops, start, rows, cap)


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
    # A check at a depth past the certifying one reports the induction's
    # answer; the exhaustive words at that depth must give the same rank.
    for v, u, t, depth in minimality_cases(corpus, all_chains):
        n_t = t.shape[0]
        iso = check_minimality(v, t, depth=depth, rank_tol=RANK_TOL)
        assert iso.witness["rank"] == exhaustive_minimality_rank(v, n_t, depth)
        uni = check_minimality(u, t, depth=depth, rank_tol=RANK_TOL)
        assert uni.witness["rank"] == exhaustive_minimality_unitary_rank(u, n_t, depth)


def test_containment_is_not_projection():
    # Every word is a multiple of x + y, with x = e0 in the window row and
    # y = e1 outside it: the span projects onto the window but meets it
    # only in zero.
    start = np.array([[1.0], [1.0]], dtype=complex)
    letters = Letters((np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex),),
                      start, slice(0, 1))
    found = span_rank(letters, 3, slice(0, 1), RANK_TOL)
    assert (found.dim, found.span_rank, found.outside_rank) == (0, 1, 1)
    words = np.hstack([np.linalg.matrix_power(letters.ops[0], k) @ start
                       for k in range(4)])
    assert numerical_rank(words[:1], RANK_TOL) == 1  # the projection's rank


def test_outside_round_off_is_cut_against_the_whole_span():
    # The one word's row outside the window is 1e-20 of the span, round-off
    # rather than a direction: cut against sigma_max of its own it would
    # count as rank and hide the window direction.
    letters = Letters((np.eye(2, dtype=complex),),
                      np.array([[1.0], [1e-20]], dtype=complex), slice(0, 1))
    found = span_rank(letters, 2, slice(0, 1), RANK_TOL)
    assert (found.dim, found.span_rank, found.outside_rank) == (1, 1, 0)
    assert found.outside_gap[0] is None
    assert found.outside_gap[1] == pytest.approx(1e-20, rel=1e-6)


def test_minimality_matches_deep_windows(corpus, all_chains):
    # Reference for the certifying depth: the verdict at the default depth
    # is the verdict of the containment computed directly (not by the
    # induction) at every window depth 1..5.
    def direct(d, t, depth, unitary):
        if unitary:
            cap = depth + d.core_depth + 1
            letters = dilation_letters(d, t.shape[0], cap).with_adjoints()
            future = d.dim_u
        else:
            cap, future = depth, 0
            letters = dilation_letters(d, t.shape[0], cap)
        top = letters.head.start
        rows = slice(top - depth * d.dim_y, top + d.dim_h + depth * future)
        found = span_rank(letters, cap, rows, RANK_TOL)
        return found.dim == rows.stop - rows.start

    dilations = [(chain.v, t, True) for t, chain in zip(corpus, all_chains)]
    dilations += [(builtin_example(name), ZERO, True) for name in BuiltinExample]
    dilations.append((padded_shift(), ZERO, False))
    for v, t, minimal in dilations:
        for d, unitary in ((v, False), (build_unitary(v), True)):
            assert check_minimality(d, t).passed == minimal
            assert all(direct(d, t, depth, unitary) == minimal
                       for depth in range(1, 6))


def test_unitary_minimality_at_depth_10(corpus, all_chains):
    # 4^12 / 3 word columns if stacked exhaustively; decided at depth 1.
    t, chain = corpus[1], all_chains[1]
    assert t.shape == (2, 2)
    report = check_minimality(chain.u, t, depth=10)
    expected = 10 * chain.v.dim_y + chain.v.dim_h + 10 * chain.u.dim_u
    assert report.passed and report.witness == {"rank": expected,
                                                "expected": expected}
    assert report.details[0]["decided_depth"] == 1


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
    # the closure finds the same first word and bounds the worst one
    hit = next((w, d) for w, d in closure(*difference(a, b), 5) if d > 1e-9)
    assert hit == (word, diff)
    assert closure_bound(*difference(a, b), 5) >= worst * (1 - 1e-12)
    assert all(d == 0.0 for _, d in closure(*difference(a, a), 5))
    # the span closes within a few levels and every later level is empty,
    # so the visit stops there whatever the length cap
    assert closure(*difference(a, b), 10 ** 5) == closure(*difference(a, b), 12)


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
            ops = [dense_coefficient(d, j, tail, 4) for j in (0, 1)]
            ops += [op.conj().T for op in ops]
        else:
            ops = [dense_coefficient(d, j, tail) for j in (0, 1)]
        return Letters.embedded(ops, tail * d.dim_y, 1)

    t1, t2 = word_table(letters(d1), 3), word_table(letters(d2), 3)
    expected = next(word for word in t1 if spec_norm(t1[word] - t2[word]) > 1e-9)
    assert witness["word"] == expected
    assert witness["difference"] == pytest.approx(
        spec_norm(t1[expected] - t2[expected]), rel=1e-12)


TOL = 1e-9


def planted_pair(rng, n_letters, length, scale, n=2, p=4, r=2):
    """Letters (a, b) whose words first differ at ``length``, by about ``scale``.

    b acts on p dims.  a copies b and carries a chain z_1 .. z_{length-1}
    of r dims each: letter d writes ``scale`` times b's state into z_1,
    every letter moves z_i to z_{i+1}, and letter c reads z_{length-1}
    into b's head rows.  So no word shorter than ``length`` differs, and
    a small ``scale`` enters the span only as a small new direction.  For
    ``length`` 1, letter c's head rows are moved by ``scale`` directly.
    """
    def gauss(*shape):
        return (rng.standard_normal(shape)
                + 1j * rng.standard_normal(shape)) / np.sqrt(shape[-1])

    b_ops = [gauss(p, p) for _ in range(n_letters)]
    m = p + (length - 1) * r
    d, c = rng.integers(n_letters, size=2)
    a_ops = []
    for j, op in enumerate(b_ops):
        a = np.zeros((m, m), dtype=complex)
        a[:p, :p] = op
        for i in range(length - 2):
            a[p + (i + 1) * r:p + (i + 2) * r, p + i * r:p + (i + 1) * r] = gauss(r, r)
        if length == 1 and j == c:
            a[:n, :p] += scale * gauss(n, p)
        if length > 1 and j == d:
            a[p:p + r, :p] = scale * gauss(r, p)
        if length > 1 and j == c:
            a[:n, m - r:] = gauss(n, r)
        a_ops.append(a)
    return Letters.embedded(a_ops, 0, n), Letters.embedded(b_ops, 0, n)


def test_closure_agrees_with_the_oracle():
    # 2 and 4 letters, windows of unequal size, differences planted at
    # lengths 1-4 with sizes 1e-7..1, and pairs with identical words.
    max_len = 4
    for seed in range(64):
        rng = np.random.default_rng(seed)
        n_letters = (2, 4)[seed % 2]
        length = 1 + (seed // 2) % 4
        scale = 0.0 if (seed // 8) % 4 == 3 else 10.0 ** rng.uniform(-7, 0)
        a, b = planted_pair(rng, n_letters, length, scale)
        pairs = [(a, b), (b, a)] if seed < 32 else [(b, a), (b, b)]
        for x, y in pairs:
            truth = differences(x, y, max_len)
            pair = difference(x, y)
            visited = closure(*pair, max_len)
            hit = next((w for w, d in visited if d > TOL), None)
            over = [w for w, d in truth.items() if d > TOL]
            case = (seed, n_letters, length, scale, hit)
            if over:
                assert hit is not None and truth[hit] > TOL, case
                assert len(hit) == min(len(w) for w in over), case
            else:
                assert hit is None, case
            dims = x.start.shape[0] + y.start.shape[0]
            assert len(visited) <= dims * n_letters, case
            worst = max(truth.values())
            bound = closure_bound(*pair, max_len)
            assert worst * (1 - 1e-10) <= bound, case
            assert bound <= np.sqrt(n_letters ** max_len) * worst + 1e-12, case


def test_uniform_fails_on_a_difference_no_visited_word_shows():
    # On the head basis e1, e2 of V: letter 0 sends e1 to e1 + 1e-2 e2, which
    # adds e2 to the span with a small coefficient, and letter 1 sends e1 to
    # e1 + e2, already in that span, so "1" has no visited children.  Letter
    # 0 sends e2 to 1e-8 e1, so "00" differs from T = 1 + lambda by 1e-10,
    # below tol, while "10" (letter 1, then 0) differs by 1e-8, above it.
    zero_row = np.zeros((1, 2))
    core = LinearPencil(np.vstack([zero_row, [[1.0, 1e-8], [1e-2, 0.0]]]),
                        np.vstack([zero_row, [[1.0, 0.0], [1.0, 0.0]]]))
    v = StructuredIsometricPencil(1, 2, 0, core)
    t = LinearPencil([[1.0]], [[1.0]])
    a, b = dilation_letters(v, 1, 2), Letters.plain((t.a0, t.a1))
    truth = differences(a, b, 2)
    assert truth["10"] == pytest.approx(1e-8)
    visited = closure(*difference(a, b), 2)
    assert "10" not in dict(visited)
    assert max(d for _, d in visited) <= 1.1e-10
    report = check_uniform(v, t, max_len=2)
    assert not report.passed and report.witness is None
    assert report.worst_residual >= truth["10"] * (1 - 1e-12)


def test_difference_keeps_the_coordinates_words_connect(corpus, all_chains):
    # A window coordinate stays only when some word reaches it from H and
    # some word carries it back to H.  For a canonical chain that is the head
    # alone: deeper tail slots never return and no forward word fills a
    # future slot.  The non-uniform dilation also keeps its two core slots.
    # The visited words still give the oracle's first and worst word.
    t, chain = corpus[2], all_chains[2]
    n = t.shape[0]
    plain = Letters.plain((t.a0, t.a1))
    for letters in (dilation_letters(d, n, 5) for d in (chain.v, chain.u)):
        pair, _ = difference(letters, plain)
        assert len(pair.start) == 2 * n < len(letters.start)
    vt = builtin_example(BuiltinExample.NON_UNIFORM_V)
    zero = Letters.plain((ZERO.a0, ZERO.a1))
    for letters in (dilation_letters(d, 1, 5) for d in (vt, build_unitary(vt))):
        pair, out = difference(letters, zero)
        assert len(pair.start) == 4
        visited = closure(pair, out, 5)
        assert next(x for x in visited if x[1] > TOL) == first_difference(letters, zero, 5, TOL)
        assert max(visited, key=lambda x: x[1]) == worst_word(letters, zero, 5)[::-1]


def same_letters(a, b):
    return (a.head == b.head and np.array_equal(a.start, b.start)
            and all(np.array_equal(x, y) for x, y in zip(a.ops, b.ops)))


def test_trimmed_letters_keep_every_head_sum(corpus, all_chains):
    # Trimming keeps only the coordinates between the start and the head:
    # on a canonical chain the head alone, out of the whole V or U window.
    # The grouped sums are bitwise those of the whole window, and the
    # non-uniform dilation keeps its two core slots.  A window of any depth
    # trims to the same letters, entry for entry, as the core window of
    # the forward checks.
    for t, chain in zip(corpus, all_chains):
        n = t.shape[0]
        for d in (chain.v, chain.u):
            letters = dilation_letters(d, n, 6)
            trimmed = letters.trimmed()
            assert len(trimmed.start) == n < len(letters.start)
            for full, cut in zip(grouped_sums(letters, 6),
                                 grouped_sums(trimmed, 6)):
                assert np.array_equal(full, cut)
            assert same_letters(trimmed, core_letters(d, t))
    vt = builtin_example(BuiltinExample.NON_UNIFORM_V)
    for d in (vt, build_unitary(vt)):
        letters = dilation_letters(d, 1, 5)
        trimmed = letters.trimmed()
        assert len(trimmed.start) == 3
        for full, cut in zip(grouped_sums(letters, 5), grouped_sums(trimmed, 5)):
            assert np.array_equal(full, cut)
        assert same_letters(trimmed, core_letters(d, ZERO))


def test_closure_keeps_at_most_the_rank_of_the_word_span(corpus, all_chains):
    # Each kept word adds a direction above 1e-12 of the start block's
    # scale, so the kept words number at most the rank of the span of the
    # words they are drawn from (lengths 0..max_len - 1).  A cut against
    # each block's own norm kept the round-off of words that are zero in
    # exact arithmetic: 19 parents for a rank of 11 on the first unitary
    # self word table at length 6.
    for t, chain in zip(corpus[:4], all_chains[:4]):
        a = dilation_letters(chain.u, t.shape[0], 6).with_adjoints()
        pair, out = difference(a, a)
        visited = closure(pair, out, 6)
        rows = Letters(pair.ops, pair.start, slice(0, len(pair.start)))
        words = [pair.start] + [np.hstack(list(level))
                                for level in levels(rows, 5)]
        s = np.linalg.svd(np.hstack(words), compute_uv=False)
        rank = int(np.count_nonzero(s > 1e-10 * s[0]))
        assert len(visited) % 4 == 0
        assert len(visited) // 4 <= rank, (t.shape, len(visited), rank)
    a = dilation_letters(all_chains[0].u, 1, 6).with_adjoints()
    assert [len(closure(*difference(a, a), depth)) for depth in (4, 6)] == [28, 44]


def test_self_falsifier_memory_at_depth_8(corpus, all_chains):
    # Enumerating the 4^8 words of the unitary word table peaked at about
    # 200 MB; the closure keeps one span basis and one level of words.
    t, u = corpus[3], all_chains[3].u
    assert t.shape == (4, 4)
    tracemalloc.start()
    try:
        report = equivalence_falsifier(u, u, t, depth=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.witness == {"verdict": "INCONCLUSIVE"}
    assert peak < 8e6
