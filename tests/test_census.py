"""A deterministic cost census of the canonical chain.

One ``canonical_chain`` on a fixed pencil of each hard family makes an
exact number of SVDs (``linalg._gesdd``, the one ``zgesdd`` entry point),
palindromic QZ calls (``pencil.unimodular_roots``) and outer-root QZ calls
(``factorization.outer_roots``).  Counts do not depend on the host or its
speed, so a change that puts an SVD back into a threshold test, or a QZ
back into a settled decision, fails here without any timing.
"""

import numpy as np
import pytest

from pencildil import (LinearPencil, canonical_chain, factorization, linalg,
                       pencil, seeded_corpus)


def _gaussian(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _unitary(rng, n):
    q, r = np.linalg.qr(_gaussian(rng, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _at_margin(a0, a1, margin):
    """(a0, a1) scaled to norm 1 - margin on a 4096-point grid."""
    lams = np.exp(2j * np.pi * np.arange(4096) / 4096)[:, None, None]
    peak = np.linalg.norm(a0 + lams * a1, 2, axis=(1, 2)).max()
    return (1.0 - margin) / peak * a0, (1.0 - margin) / peak * a1


def edge_pencil(family, n):
    """One fixed pencil of each family of the edge workload."""
    rng = np.random.default_rng(n)
    if family == "margin":
        a0, a1 = _at_margin(_gaussian(rng, n), _gaussian(rng, n), 1e-6)
    elif family == "nilpotent":
        a0, a1 = _at_margin(np.triu(_gaussian(rng, n), 1),
                            np.triu(_gaussian(rng, n), 1), 0.05)
    elif family == "a1=0":
        a0, a1 = _at_margin(_gaussian(rng, n), np.zeros((n, n)), 0.05)
    else:  # "dimY<dimH": isometric on half of H
        half = n // 2
        a0, a1 = np.zeros((n, n), dtype=complex), np.zeros((n, n), dtype=complex)
        a0[:half, :half] = _unitary(rng, half)
        a0[half:, half:], a1[half:, half:] = _at_margin(
            _gaussian(rng, n - half), _gaussian(rng, n - half), 0.05)
    w = _unitary(rng, n)
    return LinearPencil(w @ a0 @ w.conj().T, w @ a1 @ w.conj().T)


def census(monkeypatch, t, grid_size=pencil.DEFAULT_GRID):
    counts = dict.fromkeys(("zgesdd", "unimodular_roots", "outer_roots"), 0)

    def counting(module, name, key):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(linalg, "_gesdd", "zgesdd")
    counting(pencil, "unimodular_roots", "unimodular_roots")
    counting(factorization, "outer_roots", "outer_roots")
    return canonical_chain(t, grid_size=grid_size), counts


# (family, n): exact (zgesdd, unimodular_roots, outer_roots) per chain.
#  - zgesdd: classify's Lipschitz norm; the singular values of the
#    doubling limit X; the core's isometry defect (2); the four ranges of
#    ``core_subspaces`` and each of its two complements (L, K1) that is
#    nonempty.  With dim Y < dim H, the range basis of X and the row space
#    that ``outer_roots`` compresses onto add two, and at n = 8 one doubling
#    step norm falls between its bounds and takes the SVD;
#  - unimodular_roots: classify's one QZ; a flat norm takes a second, and
#    with the peak at 1 (dim Y < dim H) the NotPSD scan runs a third.
#    a1 = 0 symbols are constant on the circle and take none;
#  - outer_roots: the root check of the factor, once.
CENSUS = {
    ("margin", 4): (9, 1, 1), ("margin", 8): (9, 1, 1),
    ("nilpotent", 4): (10, 1, 1), ("nilpotent", 8): (10, 1, 1),
    ("dimY<dimH", 4): (11, 3, 1), ("dimY<dimH", 8): (12, 3, 1),
    ("a1=0", 4): (9, 0, 1), ("a1=0", 8): (9, 0, 1),
}


@pytest.mark.parametrize("family, n", list(CENSUS), ids=str)
def test_canonical_chain_census(monkeypatch, family, n):
    chain, counts = census(monkeypatch, edge_pencil(family, n))
    assert chain.factor.dim_y == (n // 2 if family == "dimY<dimH" else n)
    assert (counts["zgesdd"], counts["unimodular_roots"],
            counts["outer_roots"]) == CENSUS[family, n]
    assert counts["zgesdd"] <= 12


@pytest.mark.parametrize("grid_size", [64, 256])
def test_canonical_chain_scans_on_its_own_grid(monkeypatch, grid_size):
    # The factorization gets the chain's grid too, so the NotPSD scan reads
    # the peak ``classify`` found on that grid and is skipped at any grid
    # size: classify's QZ is the only palindromic one.
    _, counts = census(monkeypatch, seeded_corpus()[3], grid_size)
    assert (counts["zgesdd"], counts["unimodular_roots"],
            counts["outer_roots"]) == (9, 1, 1)
