"""Coefficient words and their spans: the one place words are enumerated.

Products of pencil values over independent circle parameters are
multilinear, so the dilation, uniformity, minimality and equivalence claims
reduce to finitely many ordered coefficient words.  The words of one length
form one stacked array in lexicographic order of application: word ``i`` of
length ``L``, written with ``L`` digits in base ``len(ops)``, lists its
letters in the order they are applied ("01" applies letter 0, then 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .linalg import numerical_rank


@dataclass(frozen=True, eq=False)
class Letters:
    """dim x dim letter matrices, a dim x n start block (an embedded basis
    of H) and the ``head`` rows that form a word's compression to H."""

    ops: tuple
    start: np.ndarray
    head: slice

    @classmethod
    def plain(cls, ops) -> "Letters":
        """Letters acting on H itself: identity start, every row is head."""
        n = ops[0].shape[0]
        return cls(tuple(ops), np.eye(n, dtype=complex), slice(0, n))

    @classmethod
    def embedded(cls, ops, head_start: int, n: int) -> "Letters":
        """Letters on a window whose rows head_start.. hold a copy of H."""
        start = np.zeros((ops[0].shape[0], n), dtype=complex)
        start[head_start:head_start + n, :] = np.eye(n)
        return cls(tuple(ops), start, slice(head_start, head_start + n))

    def with_adjoints(self) -> "Letters":
        """The same letters followed by their conjugate transposes."""
        adjoints = tuple(op.conj().T for op in self.ops)
        return Letters(self.ops + adjoints, self.start, self.head)


def act(ops, lam, block: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """(A0 + lam A1) block, or (A0^* + conj(lam) A1^*) block if ``adjoint``.

    ``ops`` is a letter pair on a window and ``lam`` a scalar or one circle
    parameter per column of ``block``, so one call moves a whole block of
    window vectors, each at its own lambda.
    """
    a0, a1 = ops
    if adjoint:
        return a0.conj().T @ block + np.conj(lam) * (a1.conj().T @ block)
    return a0 @ block + lam * (a1 @ block)


def levels(letters: Letters, max_len: int) -> Iterator[np.ndarray]:
    """Head rows of the words of each length 1..max_len, shape (W, head, n).

    The last length computes only its head rows: no longer word extends it.
    """
    ops = np.stack(letters.ops)
    blocks = letters.start[None]
    for length in range(1, max_len + 1):
        last = length == max_len
        step = ops[:, letters.head, :] if last else ops
        blocks = np.matmul(step[None], blocks[:, None])
        blocks = blocks.reshape((len(ops) ** length,) + blocks.shape[2:])
        yield blocks if last else blocks[:, letters.head, :]


def grouped_sums(letters: Letters, max_len: int) -> Iterator[np.ndarray]:
    """Head rows of the word sums of each length 0..max_len, by letter-1 count.

    For letters (a0, a1), length L yields shape (L + 1, head, n) whose entry
    k sums the words with exactly k letters a1, by the prepend recursion
    S_L(k) = a0 S_{L-1}(k) + a1 S_{L-1}(k-1).
    """
    a0, a1 = letters.ops
    sums = letters.start[None]
    yield sums[:, letters.head, :]
    for length in range(1, max_len + 1):
        nxt = np.zeros((length + 1,) + sums.shape[1:], dtype=complex)
        nxt[:-1] += a0 @ sums
        nxt[1:] += a1 @ sums
        sums = nxt
        yield sums[:, letters.head, :]


def word_label(index: int, length: int, n_letters: int) -> str:
    """Letters of word ``index`` of the given length, in application order."""
    return np.base_repr(index, n_letters).zfill(length)


def _difference_norms(a: Letters, b: Letters, max_len: int):
    """(length, 2-norms of the head-row differences of its words) per length."""
    for length, (x, y) in enumerate(zip(levels(a, max_len), levels(b, max_len)),
                                    start=1):
        yield length, np.linalg.norm(x - y, 2, axis=(1, 2))


def worst_word(a: Letters, b: Letters, max_len: int) -> tuple[float, str | None]:
    """Largest head-row difference over words of length 1..max_len and the
    first word attaining it; (0.0, None) when all words agree exactly."""
    worst, word = 0.0, None
    for length, norms in _difference_norms(a, b, max_len):
        i = int(np.argmax(norms))
        if norms[i] > worst:
            worst, word = float(norms[i]), word_label(i, length, len(a.ops))
    return worst, word


def first_difference(a: Letters, b: Letters, max_len: int,
                     tol: float) -> tuple[str, float] | None:
    """First word whose head rows differ by more than tol, and that difference."""
    for length, norms in _difference_norms(a, b, max_len):
        hits = np.flatnonzero(norms > tol)
        if hits.size:
            return word_label(hits[0], length, len(a.ops)), float(norms[hits[0]])
    return None


def span_rank(letters: Letters, max_len: int, rows: slice,
              rank_tol: float) -> int:
    """Numerical rank of all words of length <= max_len restricted to ``rows``.

    Each level L (the words of one length applied to the start block) is
    replaced by R^H from qr(L^H) = QR.  L = R^H Q^H and Q^H has orthonormal
    rows, so the span and every singular value of the stacked word matrix
    are kept exactly while each level stays at most dim columns wide; the
    next level applies the letters to R^H for the same reason.  ``rank_tol``
    is the relative cutoff of the one final rank decision.
    """
    level = letters.start
    kept = [level[rows]]
    for _ in range(max_len):
        stacked = np.concatenate([op @ level for op in letters.ops], axis=1)
        level = np.linalg.qr(stacked.conj().T, mode="r").conj().T
        kept.append(level[rows])
    return numerical_rank(np.concatenate(kept, axis=1), rank_tol)
