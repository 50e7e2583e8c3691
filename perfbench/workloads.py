"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of the seed and returns plain numpy
coefficient pairs; the worker wraps them in ``LinearPencil`` outside the
timed region, so the program only ever sees the generated pencils.

A workload is a list of rounds; every round draws fresh inputs of the
same shapes from one seeded generator, so more rounds average over more
inputs instead of repeating the same ones.  An op is one call of a
workload's public entry point on one input:

* ``pipeline``  -> ``run_pipeline(t, depth)``
* ``demo``      -> ``demo(name)``
* ``falsifier`` -> ``equivalence_falsifier(U, U, t, depth)`` with U the
  canonical unitary dilation of t (built outside the timed region)
* ``chain``     -> ``canonical_chain(t)``
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CORPUS_SEED = 20240601
GRID = 256
DEMOS = ("sz-nagy-scalar", "two-sided-shift", "lambda-two-sided-shift",
         "non-uniform-iso", "non-uniform-uni")

# Sizes per workload.  They were picked so that one round stays a few
# seconds on a 2-CPU machine and no process needs much more than 0.5 GB.
CORPUS_COUNT, CORPUS_MAX_DIM, CORPUS_DEPTH = 20, 6, 4
# Depth-7 pipelines stop at n = 2: at n = 4 one takes 6.5 s and 1.5 GB.
DEEP_PIPELINES = ((1, 6), (2, 6), (3, 6), (4, 6), (1, 7), (2, 7))
DEEP_FALSIFIERS = ((1, 6), (2, 6), (3, 6), (4, 6), (1, 7), (2, 7), (3, 7), (4, 7))
EDGE_MARGINS, EDGE_DIMS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6), (2, 4, 8)
# Hard inputs that the Bauer iteration does not finish today.  They run
# once per run outside the timed loop as probes, so that no timed op fails,
# and their outcome is recorded.
PROBE_MARGIN = 1e-8


@dataclass(frozen=True, eq=False)
class Op:
    """One op: the entry point, a label, its pencil (if any) and its depth."""

    kind: str
    label: str
    a0: np.ndarray | None = None
    a1: np.ndarray | None = None
    depth: int | None = None
    name: str | None = None

    @property
    def dim(self) -> int:
        return 0 if self.a0 is None else self.a0.shape[0]


def grid_peak(a0: np.ndarray, a1: np.ndarray) -> float:
    """Largest spectral norm of a0 + lam*a1 over the GRID roots of unity."""
    grid = np.exp(2j * np.pi * np.arange(GRID) / GRID)
    return max(float(np.linalg.norm(a0 + lam * a1, 2)) for lam in grid)


def circle_sup(a0: np.ndarray, a1: np.ndarray) -> float:
    """sup over |lam| = 1 of ||a0 + lam*a1||, refined past the grid.

    A dense scan locates the peak and a golden-section search polishes it,
    so pencils scaled by this value have their true margin, not a grid one.
    """
    def norm_at(theta):
        return float(np.linalg.norm(a0 + np.exp(1j * theta) * a1, 2))

    thetas = 2 * np.pi * np.arange(1024) / 1024
    values = np.linalg.norm(a0[None] + np.exp(1j * thetas)[:, None, None] * a1[None],
                            ord=2, axis=(1, 2))
    k = int(np.argmax(values))
    lo, hi = thetas[k] - 2 * np.pi / 1024, thetas[k] + 2 * np.pi / 1024
    ratio = (np.sqrt(5.0) - 1) / 2
    for _ in range(60):
        m1, m2 = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
        if norm_at(m1) < norm_at(m2):
            lo = m1
        else:
            hi = m2
    return max(float(values[k]), norm_at(0.5 * (lo + hi)))


def _gaussian_pair(rng: np.random.Generator, n: int):
    a0 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a1 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a0, a1


def _scaled_gaussian(rng: np.random.Generator, n: int):
    """The ``seeded_corpus`` draw: a Gaussian pair scaled to grid max norm
    0.95, so the default corpus seed reproduces ``seeded_corpus()`` bit for
    bit."""
    a0, a1 = _gaussian_pair(rng, n)
    scale = 0.95 / grid_peak(a0, a1)
    return scale * a0, scale * a1


def _unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _at_margin(a0, a1, margin):
    scale = (1.0 - margin) / circle_sup(a0, a1)
    return scale * a0, scale * a1


def corpus_round(rng) -> list[Op]:
    ops = []
    for i in range(CORPUS_COUNT):
        n = 1 + i % CORPUS_MAX_DIM
        ops.append(Op("pipeline", f"n{n}-d{CORPUS_DEPTH}", *_scaled_gaussian(rng, n),
                      CORPUS_DEPTH))
    return ops + [Op("demo", name, name=name) for name in DEMOS]


def deep_round(rng) -> list[Op]:
    ops = [Op("pipeline", f"n{n}-d{depth}", *_scaled_gaussian(rng, n), depth)
           for n, depth in DEEP_PIPELINES]
    return ops + [Op("falsifier", f"n{n}-d{depth}", *_scaled_gaussian(rng, n), depth)
                  for n, depth in DEEP_FALSIFIERS]


def _rank_deficient_defect(rng, n):
    """W (U (+) C(lam)) W^H: isometric on half of H, so dim Y = n/2 < n."""
    half = n // 2
    c0, c1 = _at_margin(*_gaussian_pair(rng, n - half), 0.05)
    a0 = np.zeros((n, n), dtype=complex)
    a1 = np.zeros((n, n), dtype=complex)
    a0[:half, :half] = _unitary(rng, half)
    a0[half:, half:], a1[half:, half:] = c0, c1
    w = _unitary(rng, n)
    return w @ a0 @ w.conj().T, w @ a1 @ w.conj().T


def _nilpotent(rng, n):
    """Strictly upper triangular coefficients, conjugated by a unitary."""
    a0, a1 = (np.triu(m, 1) for m in _gaussian_pair(rng, n))
    w = _unitary(rng, n)
    return _at_margin(w @ a0 @ w.conj().T, w @ a1 @ w.conj().T, 0.05)


def _constant(rng, n):
    a0, _ = _gaussian_pair(rng, n)
    return _at_margin(a0, np.zeros((n, n), dtype=complex), 0.05)


def edge_round(rng) -> list[Op]:
    ops = [Op("chain", f"margin{m:.0e}-n{n}", *_at_margin(*_gaussian_pair(rng, n), m))
           for m in EDGE_MARGINS for n in EDGE_DIMS]
    for n in (4, 8):
        ops.append(Op("chain", f"dimY<dimH-n{n}", *_rank_deficient_defect(rng, n)))
        ops.append(Op("chain", f"a1=0-n{n}", *_constant(rng, n)))
        ops.append(Op("chain", f"nilpotent-n{n}", *_nilpotent(rng, n)))
    return ops


def edge_probes(seed: int) -> list[Op]:
    """Valid inputs on which construction raises NoConvergence today."""
    rng = np.random.default_rng([seed, 1])
    probes = [Op("chain", f"margin{PROBE_MARGIN:.0e}-n{n}",
                 *_at_margin(*_gaussian_pair(rng, n), PROBE_MARGIN))
              for n in EDGE_DIMS]
    probes.append(Op("chain", "0.5+0.5lam", np.array([[0.5 + 0j]]),
                     np.array([[0.5 + 0j]])))
    return probes


ROUNDS = {"corpus": corpus_round, "deep": deep_round, "edge": edge_round}


def workload_rounds(name: str, seed: int, rounds: int) -> list[list[Op]]:
    """``rounds`` rounds of one workload, each with freshly drawn inputs of
    the same shapes; the first round does not depend on ``rounds``."""
    rng = np.random.default_rng(seed)
    return [ROUNDS[name](rng) for _ in range(rounds)]
