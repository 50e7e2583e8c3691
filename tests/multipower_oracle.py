"""Symmetrized multipowers of a pencil: the reference for ``grouped_sums``.

The average of all ordered products with a0 used t0 and a1 used t1 times
is the word sum with t1 ones of ``words.grouped_sums``, normalised by the
binomial coefficient.  Nothing in the package needs the average itself, so
it lives here, as an oracle for the tests.
"""

import math

import numpy as np

from pencildil import LinearPencil, ShapeMismatch
from pencildil.words import Letters, grouped_sums

WORD_LENGTH_CAP = 10


def symmetrized_multipower(p: LinearPencil, t: tuple[int, int],
                           word_cap: int = WORD_LENGTH_CAP) -> np.ndarray:
    """Average of all ordered products with a0 used t[0] and a1 used t[1] times.

    Equals the binomial-normalized sum over coefficient words; e.g.
    t = (1, 2) gives (a0 a1^2 + a1 a0 a1 + a1^2 a0) / 3.
    """
    t0, t1 = t
    if t0 < 0 or t1 < 0:
        raise ValueError("multipower indices must be nonnegative")
    n = t0 + t1
    if n > word_cap:
        raise ValueError(f"word length {n} exceeds cap {word_cap}")
    if p.shape[0] != p.shape[1]:
        raise ShapeMismatch("multipowers require a square pencil")
    *_, sums = grouped_sums(Letters.plain((p.a0, p.a1)), n)
    return sums[t1] / math.comb(n, t1)
