"""Construction-plus-verification pipelines and the worked examples.

``run_pipeline`` chains classification, factorization, the canonical
isometric dilation, the unitary extension and the block function checks,
emitting one Report per check.  ``demo`` rebuilds the hand-worked example
objects (shift, lambda-shift, the non-uniform dilation and its unitary
extension) and verifies the exact claims made about them.  Everything is
seeded and deterministic; running twice yields identical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NotADilation, NotContractive
from .factorization import (FejerRieszFactor, GramCoefficients,
                            bauer_factorize, gram_coefficients,
                            outer_surrogate_check)
from .isodil import (BuiltinExample, Dilation, StructuredIsometricPencil,
                     build_canonical, builtin_example, check_dilation,
                     check_minimality, check_uniform, coefficient_norms,
                     dilation_letters, window_dim)
from .linalg import spec_norm, spec_norms
from .pencil import (DEFAULT_GRID, LinearPencil, classify, evaluate_all,
                     unit_circle_grid)
from .reporting import Report
from .unidil import (QPencil, UnitaryDilation, build_unitary, check_biinner,
                     check_unitarity, q_identity_defect)
from .words import act, closure, difference

CORPUS_SEED = 20240601


def seeded_corpus(count: int = 20, max_dim: int = 6, target_norm: float = 0.95,
                  grid_size: int = DEFAULT_GRID) -> list[LinearPencil]:
    """Fixed random family of certified-contractive pencils, dims 1..max_dim.

    Gaussian complex coefficient pairs are rescaled so the grid max norm is
    exactly ``target_norm``; the remaining margin makes the Lipschitz
    contractivity certificate pass for every member.
    """
    rng = np.random.default_rng(CORPUS_SEED)
    pencils = []
    for i in range(count):
        n = 1 + i % max_dim
        a0 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a1 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        p = LinearPencil(a0, a1)
        peak = float(spec_norms(evaluate_all(p, unit_circle_grid(grid_size))).max())
        scale = target_norm / peak
        pencils.append(LinearPencil(scale * a0, scale * a1))
    return pencils


def classical_slice(corpus: list[LinearPencil]) -> list[LinearPencil]:
    """The lambda-independent slice: same constant coefficients, a1 = 0."""
    return [LinearPencil(p.a0, np.zeros_like(p.a1)) for p in corpus]


@dataclass(frozen=True, eq=False)
class CanonicalChain:
    """All artifacts of the canonical construction for one pencil.

    ``theta`` is U's core block [C | Q], which for the depth-0 core
    C = [F; T] is the block function [[F, P_Y Q], [T, P_H Q]].
    """

    pencil: LinearPencil
    gram: GramCoefficients
    factor: FejerRieszFactor
    v: StructuredIsometricPencil
    q: QPencil
    u: UnitaryDilation
    theta: LinearPencil


def canonical_chain(t: LinearPencil,
                    grid_size: int = DEFAULT_GRID) -> CanonicalChain:
    """Factorize, dilate and extend a contractive pencil in one pass.

    ``grid_size`` is the grid of ``gram_coefficients`` and of the NotPSD
    scan of ``bauer_factorize``, which is skipped when the grid peak that
    ``classify`` found on that same grid settles it.
    """
    g = gram_coefficients(t, grid_size=grid_size)
    f = bauer_factorize(g, grid_size=grid_size)
    u = build_unitary(build_canonical(t, f))
    return CanonicalChain(pencil=t, gram=g, factor=f, v=u.v, q=u.q, u=u,
                          theta=u.core_block)


def _worst_column(block: np.ndarray) -> float:
    """Largest column norm of a block (0 for a block without columns)."""
    return float(np.linalg.norm(block, axis=0).max(initial=0.0))


def run_pipeline(t: LinearPencil, depth: int = 4,
                 grid_size: int = DEFAULT_GRID,
                 rank_tol: float = 1e-8) -> list[Report]:
    """Full chain of construction and verification reports for one pencil.

    ``depth`` (nonnegative, else ValueError) drives the span checks:
    ordered-word checks run to length depth + 2, the isometric minimality
    window is depth + 1 and the unitary one is depth (6 / 5 / 4 at the
    default).  A minimality window at least core_depth + 1 deep is decided
    at that certifying depth, whatever its own depth, and a pass there
    holds at every depth; for the canonical chain (core depth 0) that is
    every window but the unitary one at depth 0.  ``rank_tol`` is the
    relative singular-value cutoff of the rank-based checks.  Hard errors
    propagate and stop the pipeline.
    ``factorization`` is the ``isometry_defect`` of the core [F; T]: it
    bounds F^H F - (I - T^H T) on the whole circle.  ``dilation`` and
    ``compression-tower`` are ``check_dilation`` on V and on U, and
    ``uniform`` and ``uniform-unitary`` are ``check_uniform`` on V and on U:
    each decides its identity on the coefficients, for every lambda at
    once, from the letters of the object it names on its core window.  The
    head block of the canonical core [F; T] is T itself, so all four are
    decided exactly at every word length, with residual 0.0 (and
    ``every_length`` true for the uniform reports), whatever ``depth``.
    ``unitarity`` is ``unidil.check_unitarity``: U^*U = I = UU^* on all of
    K for every lambda, decided on U's letters with no sample.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    verdict = classify(t, grid_size=grid_size)
    if not verdict.is_contractive:
        raise NotContractive(
            f"pipeline requires a contractive pencil (max norm "
            f"{verdict.max_norm_on_grid:.6f})"
        )
    reports = [Report.from_residual(
        "classify", 0.0, 0.0,
        witness={"kind": verdict.kind.value, "certified": verdict.certified},
        details=[{"maxNormOnGrid": verdict.max_norm_on_grid,
                  "margin": verdict.margin}],
    )]
    word_len = depth + 2

    chain = canonical_chain(t, grid_size=grid_size)
    reports.append(Report.from_residual(
        "factorization", chain.v.core_defect, 1e-8,
        details=[{"dimY": chain.factor.dim_y}],
    ))
    outer_ok = outer_surrogate_check(chain.factor, grid_size)
    reports.append(Report.from_residual(
        "outer-surrogate", 0.0 if outer_ok else 1.0, 0.0))
    reports.append(check_dilation(chain.v, t, max_len=word_len))
    reports.append(check_uniform(chain.v, t, max_len=word_len))
    reports.append(check_minimality(chain.v, t, depth=depth + 1,
                                    rank_tol=rank_tol))
    reports.append(Report.from_residual(
        "q-identities", q_identity_defect(chain.u), 1e-9))
    reports.append(check_unitarity(chain.u))
    reports.append(check_dilation(chain.u, t, max_len=word_len))
    reports.append(check_uniform(chain.u, t, max_len=word_len))
    reports.append(check_minimality(chain.u, t, depth=depth,
                                    rank_tol=rank_tol))
    reports.append(Report.from_residual(
        "dimension-law", float(abs(chain.u.dim_u - chain.factor.dim_y)), 0.0,
        witness={"dimU": chain.u.dim_u, "dimY": chain.factor.dim_y},
    ))
    reports.append(check_biinner(chain.theta, chain.factor.dim_y, t.shape[0],
                                 chain.u.dim_u, grid_size=64,
                                 rank_tol=rank_tol))
    return reports


# ---------------------------------------------------------------------------
# Equivalence falsification
# ---------------------------------------------------------------------------


def equivalence_falsifier(d1: Dilation, d2: Dilation, t: LinearPencil,
                          depth: int = 4, tol: float = 1e-9) -> Report:
    """Compare invariants preserved by unitary equivalence of dilations.

    Each object must first pass ``check_dilation`` on its own letters, else
    NotADilation is raised.  Checked in order: uniformity flags,
    coefficient operator norms, and compressed words (fixed under
    equivalence because the intertwining operator acts as the identity on
    H), compared by ``closure`` up to the first visited word that differs
    by more than ``tol``.  Any difference yields NOT_EQUIVALENT with the
    distinguishing invariant as witness; otherwise the verdict is
    INCONCLUSIVE, never "equivalent".  ``depth``, the longest word
    compared, must be nonnegative, else ValueError.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    n_t = t.shape[0]
    for label, d in (("first", d1), ("second", d2)):
        rep = check_dilation(d, t, max_len=depth)
        if not rep.passed:
            raise NotADilation(
                f"{label} object is not a dilation of the pencil "
                f"(residual {rep.worst_residual:.3e})"
            )

    def verdict(invariant: str, detail: dict) -> Report:
        witness = {"verdict": "NOT_EQUIVALENT", "invariant": invariant, **detail}
        return Report.from_residual("equivalence-falsifier", 0.0, 0.0, witness)

    flag1 = check_uniform(d1, t, max_len=depth).passed
    flag2 = check_uniform(d2, t, max_len=depth).passed
    if flag1 != flag2:
        return verdict("uniformity", {"first": flag1, "second": flag2})

    norms1 = coefficient_norms(d1)
    norms2 = coefficient_norms(d2)
    for idx in (0, 1):
        if abs(norms1[idx] - norms2[idx]) > tol:
            return verdict("coefficient-norm", {
                "coefficient": idx,
                "first": norms1[idx],
                "second": norms2[idx],
            })

    a, b = (dilation_letters(d, n_t, depth) for d in (d1, d2))
    if isinstance(d1, UnitaryDilation) and isinstance(d2, UnitaryDilation):
        a, b = a.with_adjoints(), b.with_adjoints()
    for word, diff in closure(*difference(a, b), depth):
        if diff > tol:
            return verdict("word-table", {"word": word, "difference": diff})
    return Report.from_residual(
        "equivalence-falsifier", 0.0, 0.0,
        witness={"verdict": "INCONCLUSIVE"},
    )


# ---------------------------------------------------------------------------
# Worked example demos
# ---------------------------------------------------------------------------


class DemoName(Enum):
    SZ_NAGY_SCALAR = "sz-nagy-scalar"
    TWO_SIDED_SHIFT = "two-sided-shift"
    LAMBDA_TWO_SIDED_SHIFT = "lambda-two-sided-shift"
    NON_UNIFORM_ISO = "non-uniform-iso"
    NON_UNIFORM_UNI = "non-uniform-uni"


_DEMO_LAMBDAS = (1.0, -1.0, 1j, complex(np.exp(0.7j)))


def _expect_flag(name: str, ok: bool, witness: dict | None = None) -> Report:
    return Report.from_residual(name, 0.0 if ok else 1.0, 0.0, witness)


def _zero_pencil() -> LinearPencil:
    return LinearPencil([[0.0]], [[0.0]])


def _demo_sz_nagy_scalar() -> list[Report]:
    t = LinearPencil([[0.5]], [[0.0]])
    chain = canonical_chain(t)
    f = chain.factor
    out = [
        Report.from_residual("sz-nagy-scalar/defect-factor",
                             abs(f.f0[0, 0] - math.sqrt(0.75)) + spec_norm(f.f1), 1e-12),
        Report.from_residual("sz-nagy-scalar/lambda-independent",
                             spec_norm(chain.v.core.a1) + spec_norm(chain.q.q1), 1e-12),
    ]
    out.append(check_uniform(chain.v, t, max_len=6))
    out.append(check_minimality(chain.v, t))
    out.append(check_unitarity(chain.u))
    out.append(_expect_flag("sz-nagy-scalar/gap-space-trivial",
                            chain.u.cores.k1_space.dim == 0))
    return out


def _shift_chain() -> CanonicalChain:
    return canonical_chain(_zero_pencil())


def _demo_columns(dim: int, row: int) -> np.ndarray:
    """The unit window vector e_row once per demo lambda, as a block."""
    e = np.zeros((dim, len(_DEMO_LAMBDAS)), dtype=complex)
    e[row] = 1.0
    return e


def _demo_two_sided_shift() -> list[Report]:
    t = _zero_pencil()
    chain = _shift_chain()
    u = chain.u
    # [slot -2 | slot -1 | head | future 1 | future 2]
    ops = dilation_letters(u, 1, 1).ops
    lam = np.array(_DEMO_LAMBDAS)
    e_minus1, e_head, e_fut1 = (_demo_columns(5, row) for row in (1, 2, 3))
    resid = max(_worst_column(act(ops, lam, e_head) - e_minus1),
                _worst_column(act(ops, lam, e_fut1) - e_head),
                _worst_column(act(ops, lam, e_head, adjoint=True) - e_fut1))
    n0, n1 = coefficient_norms(u)
    out = [
        Report.from_residual("two-sided-shift/bilateral-pattern", resid, 1e-12),
        Report.from_residual("two-sided-shift/lambda-independent", n1, 1e-12),
        Report.from_residual("two-sided-shift/shift-norm", abs(n0 - 1.0), 1e-12),
    ]
    out.append(check_minimality(u, t))
    out.append(check_uniform(u, t, max_len=4))
    return out


def _demo_lambda_two_sided_shift() -> list[Report]:
    t = _zero_pencil()
    v = builtin_example(BuiltinExample.LAMBDA_SHIFT)
    u = build_unitary(v)
    classical = _shift_chain().u
    # U restricted to K+ is V: on the window one shift slot past the core
    # (deeper tail slots shift alike in both), U's letters on the K+
    # columns are V's letters over zero future rows
    kdim = window_dim(v, v.core_depth + 2)
    ext = 0.0
    for u_j, v_j in zip(dilation_letters(u, 1, 1).ops,
                        dilation_letters(v, 1, 1).ops):
        expected = np.zeros((len(u_j), kdim), dtype=complex)
        expected[:kdim] = v_j
        ext = max(ext, spec_norm(u_j[:, :kdim] - expected))
    n0, n1 = coefficient_norms(u)
    falsify = equivalence_falsifier(u, classical, t, depth=3)
    witness = falsify.witness or {}
    out = [
        Report.from_residual("lambda-two-sided-shift/extension-property", ext, 1e-12),
        Report.from_residual("lambda-two-sided-shift/lambda-coefficient",
                             abs(n1 - 1.0), 1e-12),
        check_unitarity(u),
        check_minimality(u, t),
        check_uniform(u, t, max_len=4),
        _expect_flag(
            "lambda-two-sided-shift/not-equivalent-to-classical",
            witness.get("verdict") == "NOT_EQUIVALENT"
            and witness.get("invariant") == "coefficient-norm",
            witness,
        ),
    ]
    return out


def _demo_non_uniform_iso() -> list[Report]:
    t = _zero_pencil()
    v = builtin_example(BuiltinExample.NON_UNIFORM_V)
    letters = dilation_letters(v, 1, 5)  # tail depth 8: slot -n is row head - n
    head = letters.head.start
    lam = np.array(_DEMO_LAMBDAS)
    x = act(letters.ops, lam, _demo_columns(head + 1, head))
    expected = np.zeros_like(x)
    expected[head - 1] = 1 / math.sqrt(2)
    expected[head - 2] = lam / math.sqrt(2)
    resid = _worst_column(x - expected)
    for n in range(2, 6):
        x = act(letters.ops, lam, x)
        expected = np.zeros_like(x)
        expected[head - (n + 1)] = lam
        resid = max(resid, _worst_column(x - expected))
    w = act(letters.ops, -1.0, act(letters.ops, 1.0, letters.start))
    witness_resid = abs(w[head, 0] + 1.0) + abs(np.linalg.norm(w) - 1.0)
    uniform = check_uniform(v, t, max_len=6)
    falsify = equivalence_falsifier(v, builtin_example(BuiltinExample.SHIFT),
                                    t, depth=3)
    fw = falsify.witness or {}
    return [
        Report.from_residual("non-uniform-iso/apply-formula", resid, 1e-12),
        check_dilation(v, t, max_len=6),
        Report.from_residual("non-uniform-iso/uniformity-witness", witness_resid,
                             1e-12, {"identity": "P_H V(-1)V(1)h = -h"}),
        _expect_flag("non-uniform-iso/not-uniform", not uniform.passed,
                     uniform.witness),
        check_minimality(v, t),
        _expect_flag(
            "non-uniform-iso/not-equivalent-to-canonical",
            fw.get("verdict") == "NOT_EQUIVALENT"
            and fw.get("invariant") == "uniformity",
            fw,
        ),
    ]


def _demo_non_uniform_uni() -> list[Report]:
    t = _zero_pencil()
    v = builtin_example(BuiltinExample.NON_UNIFORM_V)
    u = build_unitary(v)
    s = 1.0 / math.sqrt(2.0)
    # tail depth 5, future depth 3: slot -n is row head - n, future n row head + n
    letters = dilation_letters(u, 1, 2)
    head = letters.head.start
    lam = np.array(_DEMO_LAMBDAS)
    got = act(letters.ops, lam, _demo_columns(letters.start.shape[0], head + 1))
    expected = np.zeros_like(got)
    expected[head - 1] = -s
    expected[head - 2] = lam * s
    resid = _worst_column(got - expected)
    w = act(letters.ops, -1.0, act(letters.ops, 1.0, letters.start))
    witness_resid = abs(w[head, 0] + 1.0) + abs(np.linalg.norm(w) - 1.0)
    uniform = check_uniform(u, t, max_len=4)
    classical = _shift_chain().u
    lambda_u = build_unitary(builtin_example(BuiltinExample.LAMBDA_SHIFT))
    f1 = equivalence_falsifier(u, classical, t, depth=3)
    f2 = equivalence_falsifier(u, lambda_u, t, depth=3)
    w1, w2 = f1.witness or {}, f2.witness or {}
    return [
        check_unitarity(u),
        Report.from_residual("non-uniform-uni/extension-column", resid, 1e-12),
        check_dilation(u, t, max_len=6),
        check_minimality(u, t),
        Report.from_residual("non-uniform-uni/uniformity-witness", witness_resid,
                             1e-12, {"identity": "P_H U(-1)U(1)h = -h"}),
        _expect_flag("non-uniform-uni/not-uniform", not uniform.passed,
                     uniform.witness),
        _expect_flag(
            "non-uniform-uni/not-equivalent-to-both",
            w1.get("verdict") == "NOT_EQUIVALENT"
            and w2.get("verdict") == "NOT_EQUIVALENT"
            and w1.get("invariant") == "uniformity"
            and w2.get("invariant") == "uniformity",
            {"vs-classical": w1, "vs-lambda": w2},
        ),
    ]


def demo(name) -> list[Report]:
    """Rebuild a named worked example and verify its claims."""
    name = DemoName(name) if not isinstance(name, DemoName) else name
    runners = {
        DemoName.SZ_NAGY_SCALAR: _demo_sz_nagy_scalar,
        DemoName.TWO_SIDED_SHIFT: _demo_two_sided_shift,
        DemoName.LAMBDA_TWO_SIDED_SHIFT: _demo_lambda_two_sided_shift,
        DemoName.NON_UNIFORM_ISO: _demo_non_uniform_iso,
        DemoName.NON_UNIFORM_UNI: _demo_non_uniform_uni,
    }
    return runners[name]()
