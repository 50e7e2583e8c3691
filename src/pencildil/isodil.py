"""Structured isometric pencils on the space (+)_{-inf}^{-1} Y (+) H.

A StructuredIsometricPencil is an "eventually-shift" operator: tail slots
deeper than the core window shift one slot deeper, identically in the
circle parameter, while a finite core block maps the window
(slots -d..-1, head) into (slots -(d+1)..-1, head).

The canonical minimal isometric dilation of a contractive pencil T is the
d = 0 instance whose core column stacks the outer defect factor F over T.

The window letters are the one description of how V, and its unitary
extension U, act.  A finitely supported vector is a column of a window
array, deepest slot first: [slot -t | ... | slot -1 | head | future 1 |
... | future f], with no future slots for V.  ``dense_coefficient`` builds
the letters of either from the core block of ``_facets``; its matrices
drop content shifted past slot -t (or, for adjoints, past future slot f),
so they give the exact action while supports stay strictly inside the
window.  ``dilation_letters`` sizes the window so that nothing is dropped,
and nothing is discretized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple, TypeAlias

import numpy as np

from .errors import DimensionMismatch, FactorMismatch, ShapeMismatch
from .factorization import FejerRieszFactor
from .linalg import spec_norm, spec_norms
from .pencil import LinearPencil, isometry_defect
from .reporting import Report
from .words import (Letters, closure, closure_bound, difference, grouped_sums,
                    span_rank)

if TYPE_CHECKING:
    from .unidil import UnitaryDilation

_FACTOR_TOL = 1e-8
_RANK_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class StructuredIsometricPencil:
    """Eventually-shift pencil determined by a finite core block.

    ``core`` maps the window Y^d (+) H into Y^(d+1) (+) H (deepest slot
    first); tail slots -n with n >= d+1 shift to -(n+1) identically.  The
    whole operator pencil is isometric exactly when the core pencil is,
    because shifted tail output lands in slots orthogonal to the core's
    output window.
    """

    dim_y: int
    dim_h: int
    core_depth: int
    core: LinearPencil

    def __post_init__(self):
        d = self.core_depth
        expected = ((d + 1) * self.dim_y + self.dim_h, d * self.dim_y + self.dim_h)
        if self.core.shape != expected:
            raise ShapeMismatch(
                f"core shape {self.core.shape} != expected {expected} for depth {d}"
            )

    @property
    def window_dim(self) -> int:
        return self.core_depth * self.dim_y + self.dim_h

    @property
    def window_prime_dim(self) -> int:
        return (self.core_depth + 1) * self.dim_y + self.dim_h

    @cached_property
    def core_defect(self) -> float:
        """``isometry_defect`` of the core, computed on first use and kept:
        each certificate of the core reads it against its own cutoff."""
        return isometry_defect(self.core)


def build_canonical(t: LinearPencil,
                    f: FejerRieszFactor) -> StructuredIsometricPencil:
    """Canonical minimal isometric dilation: depth-0 core stacking F over T.

    F^H F = I - T^H T on the circle says that the core is isometric, so the
    factor is accepted on the core's ``core_defect``.
    """
    if f.dim_h != t.shape[1]:
        raise ShapeMismatch("factor and pencil act on different spaces")
    core = LinearPencil(np.vstack([f.f0, t.a0]), np.vstack([f.f1, t.a1]))
    v = StructuredIsometricPencil(dim_y=f.dim_y, dim_h=t.shape[0],
                                  core_depth=0, core=core)
    if v.core_defect > _FACTOR_TOL:
        raise FactorMismatch(
            f"factor does not match the pencil defect (residual {v.core_defect:.3e})"
        )
    return v


# V or its unitary extension U; ``_facets`` tells them apart.
Dilation: TypeAlias = "StructuredIsometricPencil | UnitaryDilation"


class BuiltinExample(Enum):
    SHIFT = "shift"
    LAMBDA_SHIFT = "lambda-shift"
    NON_UNIFORM_V = "non-uniform-v"


def builtin_example(name) -> StructuredIsometricPencil:
    """Hand-built example pencils: the forward shift S, the pencil with the
    shift in the lambda coefficient, and the non-uniform depth-2 dilation
    of the zero pencil."""
    name = BuiltinExample(name) if not isinstance(name, BuiltinExample) else name
    if name is BuiltinExample.SHIFT:
        core = LinearPencil([[1.0], [0.0]], [[0.0], [0.0]])
        return StructuredIsometricPencil(1, 1, 0, core)
    if name is BuiltinExample.LAMBDA_SHIFT:
        core = LinearPencil([[0.0], [0.0]], [[1.0], [0.0]])
        return StructuredIsometricPencil(1, 1, 0, core)
    s = 1.0 / math.sqrt(2.0)
    # Rows: slots -3, -2, -1, head; columns: slots -2, -1, head.
    b0 = [[s, 0.0, 0.0],
          [0.0, 0.0, 0.0],
          [0.0, 0.0, s],
          [-s, 0.0, 0.0]]
    b1 = [[0.0, s, 0.0],
          [0.0, 0.0, s],
          [0.0, 0.0, 0.0],
          [0.0, s, 0.0]]
    return StructuredIsometricPencil(1, 1, 2, LinearPencil(b0, b1))


def window_dim(v: Dilation, tail_depth: int) -> int:
    """Dimension of K+'s part of a window: tail slots -t..-1 and the head."""
    return tail_depth * v.dim_y + v.dim_h


def dense_coefficient(d: Dilation, j: int, tail_depth: int,
                      future_depth: int = 0) -> np.ndarray:
    """Square matrix of the coefficient V_j (or U_j) on the window of tail
    depth t and future depth f, [slot -t | ... | head | future 1..f].

    Rows W' (slots -(d+1)..-1 and the head) and columns W (slots -d..-1
    and the head, plus future slot 1 for U) hold the core block of
    ``_facets``; U0 and V0 also shift every tail slot deeper than -d one
    slot deeper, and U0 every future slot k+1 onto k.  V has no future
    slots, so f does not change its window.  A window without the core's
    slots (t < d + 1, or f < 1 for U) raises DimensionMismatch.  Content
    shifted past slot -t or future slot f is dropped, so the matrix is exact
    only while supports stay strictly inside the window; its conjugate
    transpose is the matching adjoint coefficient under the same proviso.
    """
    facets = _facets(d)
    depth = d.core_depth
    if tail_depth < depth + 1 or (facets.unitary and future_depth < 1):
        raise DimensionMismatch("window too shallow for the core block")
    kdim = window_dim(d, tail_depth)
    fdim = facets.future_dim
    dim = kdim + future_depth * fdim
    m = np.zeros((dim, dim), dtype=complex)
    if j == 0:
        k = (tail_depth - depth - 1) * d.dim_y
        if k > 0:
            m[0:k, d.dim_y:d.dim_y + k] = np.eye(k)
        k = (future_depth - 1) * fdim
        if k > 0:
            m[kdim:kdim + k, kdim + fdim:kdim + fdim + k] = np.eye(k)
    block = facets.block.a0 if j == 0 else facets.block.a1
    rows, cols = block.shape
    m[kdim - rows:kdim, kdim + fdim - cols:kdim + fdim] = block
    return m


def coefficient_norms(d: Dilation) -> tuple[float, float]:
    """Operator norms of the coefficients (V0, V1) or (U0, U1) on the full
    space.

    The constant coefficient is the orthogonal sum of the shifts (the deep
    tail, and for U the future slots; norm 1 whenever one of them is
    nontrivial) and the core block's constant coefficient; the lambda
    coefficient acts through the core block only.
    """
    facets = _facets(d)
    shift = 1.0 if d.dim_y > 0 or facets.future_dim > 0 else 0.0
    return max(shift, spec_norm(facets.block.a0)), spec_norm(facets.block.a1)


class _Facets(NamedTuple):
    dilation: str          # name of the dilation report
    uniform: str           # name of the uniformity report
    minimality: str        # name of the minimality report
    depth_key: str         # detail that names the minimality window depth
    block: LinearPencil    # V's core C, or U's core block [C | Q]
    future_dim: int        # dimension of each future slot (0 for V)
    setup: int             # word steps that precede the minimality window
    unitary: bool          # U: windows hold future slots, and minimality
                           # words use the adjoint letters too


def _facets(d: Dilation) -> _Facets:
    """The one place that tells a dilation V from its unitary extension U."""
    if isinstance(d, StructuredIsometricPencil):
        return _Facets("dilation", "uniform", "minimality", "window_depth",
                       d.core, 0, 0, False)
    return _Facets("compression-tower", "uniform-unitary", "minimality-unitary",
                   "depth", d.core_block, d.dim_u, d.core_depth + 1, True)


def dilation_letters(d: Dilation, n_t: int, length: int) -> Letters:
    """Letters of V or of U on a window deep enough for words up to
    ``length``, with T's space of dimension ``n_t`` as head.

    Tail depth length + core_depth + 1, and for U future depth length + 1,
    keep the support of every word in the letters (and, for U, in their
    adjoints) strictly inside the window, where the dense coefficients act
    exactly.
    """
    tail_depth = length + d.core_depth + 1
    future_depth = length + 1 if _facets(d).unitary else 0
    ops = tuple(dense_coefficient(d, j, tail_depth, future_depth) for j in (0, 1))
    return Letters.embedded(ops, tail_depth * d.dim_y, n_t)


def _check_dilation_input(d: Dilation, t: LinearPencil):
    if t.shape[0] != t.shape[1]:
        raise ShapeMismatch("dilated pencil must be square")
    if t.shape[0] > d.dim_h:
        raise DimensionMismatch("pencil space exceeds the dilation's head space")


def core_letters(d: Dilation, t: LinearPencil) -> Letters:
    """Letters of V (or U) on the core window, restricted to the coordinates
    between H and the head: every forward word's compression to H, at
    every length.

    The window holds tail slots -(d+1)..-1 and the head (and future slot 1
    for U), d the core depth.  Its letters give the compression of every
    forward word from H exactly, whatever its length.  Write W for slots
    -d..-1 and the head.  Tail slots deeper than -d only shift deeper, and
    V1 is zero there, so nothing that leaves W ever comes back to it: the
    W part of V_j x depends only on the W part of x, through the core.  The
    window's letters are that core map from W into slot -(d+1) and W, with
    a zero column at slot -(d+1), which drops what the shift would carry
    deeper; the W part of every word is therefore exact.  For U a forward
    letter writes into a future slot only from a future slot (U0 shifts
    future slot k+1 onto k), so from H every future slot stays zero and Q
    never acts.  ``Letters.trimmed`` then keeps the coordinates the
    zero pattern of these letters connects from H to the head, which
    leaves every word's head rows unchanged.
    """
    return dilation_letters(d, t.shape[0], 0).trimmed()


def equals_pencil(letters: Letters, t: LinearPencil) -> bool:
    """Whether ``letters`` are T's own, entry for entry: start I_n, every
    row head, and letters (t.a0, t.a1).

    Then every word's compression equals T's word at every length, in
    exact arithmetic and in floating point alike.
    """
    n = t.shape[0]
    return (letters.start.shape == (n, n) and letters.head == slice(0, n)
            and np.array_equal(letters.start, np.eye(n))
            and all(np.array_equal(a, b)
                    for a, b in zip(letters.ops, (t.a0, t.a1))))


def _check_max_len(max_len: int):
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")


def check_dilation(d: Dilation, t: LinearPencil, max_len: int = 6,
                   tol: float = 1e-9) -> Report:
    """Compare compressed symmetrized multipowers of V (or U) against T's.

    For every exponent pair (t0, t1) with t0 + t1 <= max_len (nonnegative,
    else ValueError) the compressed multipower P_H V^(t0,t1)|H must equal
    T^(t0,t1); by multilinearity this is the dilation identity
    P_H V(lam_1)...V(lam_n)|H = T(lam_1)...T(lam_n) for all circle
    parameters at once, and so P_H V(lam)^n|H = T(lam)^n holds for every
    lam as a polynomial identity.  The multipowers are read from
    ``core_letters``, exact at every length.  When those letters are T's
    own (``equals_pencil``: the head block of a depth-0 core [G; T] is T
    itself), every word equals T's word at every length, and every pair
    reports residual 0.0 with no product formed.  Otherwise the residuals
    of all exponent pairs are the norms of one ``spec_norms`` stack of
    ``grouped_sums`` differences.  For U the multipowers are read from U's
    own letters, so the report, ``compression-tower``, is the tower
    P_H U(lam)^n|H = T(lam)^n decided on its coefficients;
    P_H U(lam)^{-n}|H = (P_H U(lam)^n|H)^* on the circle needs no check of
    its own.
    """
    _check_dilation_input(d, t)
    _check_max_len(max_len)
    facets = _facets(d)
    exponents = [[length - k, k] for length in range(max_len + 1)
                 for k in range(length + 1)]
    letters = core_letters(d, t)
    if equals_pencil(letters, t):
        details = [{"t": pair, "residual": 0.0} for pair in exponents]
        return Report.from_residual(facets.dilation, 0.0, tol, None, details)
    sums = zip(grouped_sums(letters, max_len),
               grouped_sums(Letters.plain((t.a0, t.a1)), max_len))
    diffs = []
    for length, (d_sums, t_sums) in enumerate(sums):
        w = np.array([math.comb(length, k) for k in range(length + 1)])[:, None, None]
        diffs.append(d_sums / w - t_sums / w)
    worst, witness, details = 0.0, None, []
    for pair, resid in zip(exponents, spec_norms(np.concatenate(diffs)).tolist()):
        details.append({"t": pair, "residual": resid})
        if resid > worst:
            worst, witness = resid, {"t": list(pair)}
    return Report.from_residual(facets.dilation, worst, tol, witness, details)


def check_uniform(d: Dilation, t: LinearPencil, max_len: int = 6,
                  tol: float = 1e-9) -> Report:
    """Compare every compressed ordered coefficient word of V (or U) against
    T's word.

    Products over independent circle parameters expand multilinearly into
    ordered words, so matching all 2^n words of each length n <= max_len
    (nonnegative, else ValueError) is the uniform dilation property.  The
    words are read from ``core_letters``, exact at every length.  When
    those letters are T's own (``equals_pencil``), every word equals T's
    word at every length: the residual is 0.0 and ``every_length`` is true
    in the details.  Otherwise one ``closure`` over the difference of the two
    letter sets visits the words that add to its span.  A visited word
    that differs by more than ``tol`` fails the report with the largest
    visited difference and the first word reaching it, in product order
    ("01" = letter 0 times letter 1); otherwise the residual is
    ``closure_bound``, which fails the report without a witness if it
    exceeds ``tol``; ``every_length`` is false, the verdict covering the
    words up to ``max_len``.  The details also count those words
    (``words_checked``).  For U the words are U's own and the report is
    ``uniform-unitary``.
    """
    _check_dilation_input(d, t)
    _check_max_len(max_len)
    facets = _facets(d)
    letters = core_letters(d, t)
    exact = equals_pencil(letters, t)
    details = [{"words_checked": sum(2 ** n for n in range(1, max_len + 1)),
                "every_length": exact}]
    if exact:
        return Report.from_residual(facets.uniform, 0.0, tol, None, details)
    pair = difference(letters, Letters.plain((t.a0, t.a1)))
    word, worst = max(closure(*pair, max_len), key=lambda wd: wd[1],
                      default=(None, 0.0))
    if worst > tol:
        return Report.from_residual(facets.uniform, worst, tol,
                                    {"word": word[::-1]}, details)
    return Report.from_residual(facets.uniform, closure_bound(*pair, max_len),
                                tol, None, details)


def check_minimality(d: Dilation, t: LinearPencil, depth: int | None = None,
                     rank_tol: float = _RANK_TOL) -> Report:
    """Minimality of V (or U), decided at every depth by one containment.

    Let W_D be the window of tail slots -D..-1, the head and future slots
    1..D (none for V), and S_L the span of the words of length <= L applied
    to H: words in V0, V1 for V, and over {U0, U1, U0^*, U1^*} for U.  The
    report passes when W_D lies in S_L for the word cap L = D + setup, where
    setup is 0 for V and core_depth + 1 for U (the ``word_cap`` detail;
    deep cores need a setup step before future slots can be reached).  Its
    residual is the deficit dim W_D - dim(S_L n W_D), with ``span_rank``
    giving dim(S_L n W_D) on the letters of ``dilation_letters``.

    A pass at depth D >= core_depth + 1 holds at every depth.  For V, tail
    slot -D is then a shift slot: V0 moves slot -D identically onto slot
    -(D+1) and V1 is zero there.  So a vector y in slot -(D+1) is V0 of y in
    slot -D, a vector of W_D in S_D, and lies in V0 S_D, inside S_{D+1};
    with W_D in S_D this gives W_{D+1} in S_{D+1}.  For U the same holds of
    U0 and U1 on tail slot -D, and future slot D >= 1 shifts too: U0^*
    moves it identically onto future slot D+1 and U1^* is zero there.  So
    both new slots of W_{D+1} lie in U0 S_L + U0^* S_L, inside S_{L+1}, and
    W_D in S_L gives W_{D+1} in S_{L+1}.  By induction every finitely
    supported vector of K+ (of K, for U) lies in the span of the words on
    H, which is therefore dense: the dilation is minimal.

    ``depth`` (the window depth D, nonnegative, else ValueError) defaults
    to this certifying depth core_depth + 1.  Any deeper depth is decided
    at the certifying depth: a pass there is the pass at D, with rank
    dim W_D, and only a deficit there is found again at D itself.  A
    failure is therefore always a deficit of W_D in S_L at that depth only;
    an untouched line adjoined to the dilation space fails at every depth.
    The report is ``minimality`` for V and ``minimality-unitary`` for U.
    Its details name D under the ``depth_key`` of ``_facets``, its
    ``word_cap`` L, the depth the verdict was decided at, and whether a
    pass holds at every depth (``every_depth``, true iff
    D >= core_depth + 1); they also carry both ranks of the decided
    containment and the singular-value gap of each of its rank cuts.
    """
    _check_dilation_input(d, t)
    facets = _facets(d)
    certifying = d.core_depth + 1
    if depth is None:
        depth = certifying
    if depth < 0:
        raise ValueError("minimality depth must be nonnegative")

    def size(window_depth):
        return window_depth * (d.dim_y + facets.future_dim) + d.dim_h

    for decided in sorted({min(depth, certifying), depth}):
        cap = decided + facets.setup
        letters = dilation_letters(d, t.shape[0], cap)
        if facets.unitary:
            letters = letters.with_adjoints()
        top = letters.head.start
        window = slice(top - decided * d.dim_y,
                       top + d.dim_h + decided * facets.future_dim)
        found = span_rank(letters, cap, window, rank_tol)
        deficit = size(decided) - found.dim
        if not deficit:
            break
    expected = size(depth)
    rank = expected - deficit
    details = {facets.depth_key: depth, "word_cap": depth + facets.setup,
               "rank": rank, "expected": expected,
               "every_depth": depth >= certifying,
               "decided_depth": decided, "span_rank": found.span_rank,
               "outside_rank": found.outside_rank,
               "span_gap": list(found.span_gap),
               "outside_gap": list(found.outside_gap)}
    return Report.from_residual(facets.minimality, float(deficit), 0.0,
                                witness={"rank": rank, "expected": expected},
                                details=[details])
