"""Coefficient words and their spans: the one place words are enumerated.

Products of pencil values over independent circle parameters are
multilinear, so the dilation, uniformity, minimality and equivalence claims
reduce to finitely many ordered coefficient words, labelled in the order
their letters are applied ("01" applies letter 0, then 1).  ``span_rank``
and ``closure_bound`` compress each word length to one block, and
``closure`` visits only the words that add to a span.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .linalg import left_singular, singular_values, spec_norm, spec_norms


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

    def trimmed(self) -> "Letters":
        """The same letters on the coordinates ``connected`` from the start
        block to the head rows, and on the head rows themselves; the head
        rows of every word are unchanged."""
        out = np.eye(len(self.start))[self.head]
        keep = connected(np.stack(self.ops), self.start, out)
        keep[self.head] = True
        first = int(np.count_nonzero(keep[:self.head.start]))
        head = slice(first, first + out.shape[0])
        return Letters(tuple(op[keep][:, keep] for op in self.ops),
                       self.start[keep], head)


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


def _levels(letters: Letters, max_len: int) -> Iterator[np.ndarray]:
    """The words of each length 1..max_len applied to the start block, side
    by side as M, compressed to R^H from qr(M^H) = QR.  M = R^H Q^H with
    orthonormal rows Q^H keeps the span, the singular values and the norm
    of any matrix times M, in at most dim columns; the next length applies
    the letters to R^H."""
    level = letters.start
    for _ in range(max_len):
        stacked = np.concatenate([op @ level for op in letters.ops], axis=1)
        level = np.linalg.qr(stacked.conj().T, mode="r").conj().T
        yield level


class Containment(NamedTuple):
    """dim(S n W) for the span S of some words and the span W of some rows.

    ``span_rank`` and ``outside_rank`` are the ranks of S and of its rows
    outside W; each gap is (smallest kept, largest dropped) singular value
    of that cut relative to sigma_max of S, None where nothing is kept."""

    dim: int
    span_rank: int
    outside_rank: int
    span_gap: tuple
    outside_gap: tuple


def _cut(s: np.ndarray, scale: float, rank_tol: float) -> tuple[int, tuple]:
    """Rank of singular values ``s`` above rank_tol * scale, and the gap."""
    kept = s > rank_tol * scale
    rank = int(np.count_nonzero(kept))
    smallest = float(s[rank - 1]) / scale if rank else None
    largest = float(s[rank]) / scale if rank < s.size else 0.0
    return rank, (smallest, largest)


def span_rank(letters: Letters, max_len: int, rows: slice,
              rank_tol: float) -> Containment:
    """dim(S n W) for S the span of the words of length <= max_len applied to
    the start block and W the span of the coordinates ``rows``.

    A vector of S lies in W exactly when its rows outside W vanish, so
    dim(S n W) = rank S - rank(S outside W).  Both ranks are read from the
    start block and the ``_levels`` compressions side by side: they are the
    word matrix times a block-diagonal matrix with orthonormal rows, and so
    is any set of its rows, which keeps every singular value of S and of its
    part outside W.  Both ranks are cut at ``rank_tol`` times sigma_max of
    S: the part outside W can be pure round-off, which a cut against its own
    sigma_max would count as rank.
    """
    kept = np.concatenate([letters.start] + list(_levels(letters, max_len)),
                          axis=1)
    outside = np.ones(len(kept), dtype=bool)
    outside[rows] = False
    s = singular_values(kept)
    if not s.size or s[0] <= 0.0:
        return Containment(0, 0, 0, (None, 0.0), (None, 0.0))
    span, span_gap = _cut(s, s[0], rank_tol)
    out, out_gap = _cut(singular_values(kept[outside]), s[0], rank_tol)
    return Containment(span - out, span, out, span_gap, out_gap)


def connected(ops: np.ndarray, start: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Mask of the coordinates that some word of the (letters, dim, dim)
    stack ``ops`` reaches from ``start`` and some word carries to ``out``.

    By the zero pattern of the letters the other coordinates never feed
    these, so dropping them leaves out @ word @ start unchanged for every
    word; for the window of a dilation this drops, for example, the tail
    slots the shift never brings back and the future slots no forward word
    fills.
    """
    feeds = np.any(ops != 0, axis=0)  # feeds[k, i]: coordinate i feeds k
    return (_closed(np.any(start != 0, axis=1), feeds)
            & _closed(np.any(out != 0, axis=0), feeds.T))


def _closed(mask: np.ndarray, feeds: np.ndarray) -> np.ndarray:
    """``mask`` grown by every coordinate that a coordinate in it feeds."""
    count = np.count_nonzero(mask)
    while True:
        mask = mask | (feeds @ mask)
        grown = np.count_nonzero(mask)
        if grown == count:
            return mask
        count = grown


def difference(a: Letters, b: Letters) -> tuple[Letters, np.ndarray]:
    """Letters diag(a_j, b_j) from [a.start; b.start], and E with
    E x = x[a.head] - x[b.head], so E times a word of the pair is the
    difference of the two words' compressions.

    Only the ``connected`` coordinates are kept, so every E x_w is
    unchanged.
    """
    m, dim = len(a.start), len(a.start) + len(b.start)
    ops = np.zeros((len(a.ops), dim, dim), dtype=complex)
    ops[:, :m, :m], ops[:, m:, m:] = a.ops, b.ops
    start = np.vstack([a.start, b.start])
    out = np.hstack([np.eye(m)[a.head], -np.eye(dim - m)[b.head]])
    keep = connected(ops, start, out)
    pair = Letters(tuple(ops[:, keep][:, :, keep]), start[keep], slice(0, 0))
    return pair, out[:, keep]  # E stands in for the pair's head rows


def closure(pair: Letters, out: np.ndarray,
            max_len: int) -> list[tuple[str, float]]:
    """Visited words of length 1..max_len with their differences ||E x_w||.

    x_w is word w of the ``difference`` pair applied to its start block.
    Words are visited breadth-first, lexicographically within a length, and
    only a word whose block adds a direction to the span kept so far has
    its children visited (Tzeng, SIAM J. Comput. 21 (1992)).  Every word
    is a combination of kept words no longer than itself, so in exact
    arithmetic the first visited word with E x_w != 0 has the shortest
    differing length.  The visit stops at the first level that keeps no
    word.

    A block adds the directions of its part outside the kept span whose
    singular values exceed 1e-12 times sigma_max of the start block, the
    scale of the span, as ``span_rank`` cuts against sigma_max of the
    span.  Each kept word adds at least one column to an orthonormal basis
    of directions of the word span, so at most rank(span) <= dim words are
    kept and at most rank(span) x letters are visited.  The cut is what
    keeps the basis inside the span in floating point: a word that is zero
    in exact arithmetic has a block of round-off, about 1e-16 of the
    scale, which lies below it, while a cut against the block's own norm
    would keep that round-off as a direction.
    """
    ops = np.stack(pair.ops)
    cut = 1e-12 * spec_norm(pair.start)
    basis = np.zeros((len(pair.start), 0), dtype=complex)
    labels, blocks, visited = [""], pair.start[None], []
    for _ in range(max_len):
        kept = []
        for i, block in enumerate(blocks):
            # projected off twice (one Gram-Schmidt pass loses orthogonality)
            rest = block - basis @ (basis.conj().T @ block)
            rest -= basis @ (basis.conj().T @ rest)
            u, s = left_singular(rest)
            new = u[:, s > cut]
            if new.shape[1]:
                basis = np.hstack([basis, new])
                kept.append(i)
        if not kept:
            break  # every later level is empty
        labels = [labels[i] + str(j) for i in kept for j in range(len(ops))]
        blocks = np.matmul(ops[None], blocks[kept][:, None]).reshape(
            (len(labels),) + pair.start.shape)
        visited += zip(labels, spec_norms(out @ blocks).tolist())
    return visited


def closure_bound(pair: Letters, out: np.ndarray, max_len: int) -> float:
    """A bound on ||E x_w|| for every word of length 1..max_len, visited or not.

    ``closure``'s largest difference is none: an unvisited word combines
    visited ones with large coefficients when the kept blocks are nearly
    dependent.  Every word of length L is a column block of the level
    X_L = C_L P, P P^H = I, C_L from ``_levels`` of the ``difference``
    pair, so ||E x_w|| <= ||E X_L|| = ||E C_L||.  The largest ||E C_L|| needs
    no tolerance and exceeds the largest difference by at most the square
    root of the number of words of its length."""
    levels = _levels(pair, max_len)
    return max((spec_norm(out @ level) for level in levels), default=0.0)
