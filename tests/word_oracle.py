"""Exhaustive word enumeration: the reference for ``words.closure``.

Every word of each length is formed, one stacked array per length, and
compared word by word.  The cost grows as letters^length, so this serves
only as an oracle in the tests.
"""

import numpy as np


def word_label(index, length, n_letters):
    """Letters of word ``index`` of the given length, in application order."""
    return np.base_repr(index, n_letters).zfill(length)


def levels(letters, max_len):
    """Head rows of the words of each length 1..max_len, shape (W, head, n),
    in lexicographic order of application."""
    ops = np.stack(letters.ops)
    blocks = letters.start[None]
    for length in range(1, max_len + 1):
        blocks = np.matmul(ops[None], blocks[:, None])
        blocks = blocks.reshape((len(ops) ** length,) + blocks.shape[2:])
        yield blocks[:, letters.head, :]


def _difference_norms(a, b, max_len):
    """(length, 2-norms of the head-row differences of its words) per length."""
    for length, (x, y) in enumerate(zip(levels(a, max_len), levels(b, max_len)),
                                    start=1):
        yield length, np.linalg.norm(x - y, 2, axis=(1, 2))


def worst_word(a, b, max_len):
    """Largest head-row difference over words of length 1..max_len and the
    first word attaining it; (0.0, None) when all words agree exactly."""
    worst, word = 0.0, None
    for length, norms in _difference_norms(a, b, max_len):
        i = int(np.argmax(norms))
        if norms[i] > worst:
            worst, word = float(norms[i]), word_label(i, length, len(a.ops))
    return worst, word


def first_difference(a, b, max_len, tol):
    """First word whose head rows differ by more than tol, and that difference."""
    for length, norms in _difference_norms(a, b, max_len):
        hits = np.flatnonzero(norms > tol)
        if hits.size:
            return word_label(hits[0], length, len(a.ops)), float(norms[hits[0]])
    return None


def differences(a, b, max_len):
    """Every word's head-row difference, keyed by its label."""
    return {word_label(i, length, len(a.ops)): float(norm)
            for length, norms in _difference_norms(a, b, max_len)
            for i, norm in enumerate(norms)}
