"""Correctness gate, canonical JSON and computed counts for op outcomes.

Everything here runs outside the timed region.  The identities on a
``canonical_chain`` result are recomputed by the benchmark from the
coefficients, with the acceptance tolerance the program itself uses for
its factor.
"""

from __future__ import annotations

import json

import numpy as np

PIPELINE_CHECKS = ("classify", "factorization", "outer-surrogate", "dilation",
                   "uniform", "minimality", "q-identities", "unitarity",
                   "compression-tower", "uniform-unitary", "minimality-unitary",
                   "dimension-law", "theta-biinner")
CHAIN_TOL = 1e-8


def _pairs(m: np.ndarray) -> list:
    return [m.real.tolist(), m.imag.tolist()]


def to_json(outcome) -> str:
    """Byte-exact JSON of an op outcome: reports, a chain or a named error."""
    if isinstance(outcome, Exception):
        body = {"error": type(outcome).__name__, "message": str(outcome)}
    elif isinstance(outcome, list):
        body = [r.to_json_dict() for r in outcome]
    elif hasattr(outcome, "to_json_dict"):
        body = outcome.to_json_dict()
    else:
        body = {"dimY": outcome.factor.dim_y, "dimU": outcome.u.dim_u,
                "f0": _pairs(outcome.factor.f0), "f1": _pairs(outcome.factor.f1),
                "q0": _pairs(outcome.q.q0), "q1": _pairs(outcome.q.q1),
                "theta0": _pairs(outcome.theta.a0),
                "theta1": _pairs(outcome.theta.a1)}
    return json.dumps(body, sort_keys=True)


def failed(outcome) -> bool:
    """A raised PencilError or any failing report."""
    if isinstance(outcome, Exception):
        return True
    if isinstance(outcome, list):
        return not all(r.passed for r in outcome)
    if hasattr(outcome, "passed"):
        return not outcome.passed
    return False


def _norm(m) -> float:
    return float(np.linalg.norm(m, 2)) if m.size else 0.0


def _isometry_defect(b0: np.ndarray, b1: np.ndarray) -> float:
    eye = np.eye(b0.shape[1])
    return max(_norm(b0.conj().T @ b0 + b1.conj().T @ b1 - eye),
               _norm(b1.conj().T @ b0))


def chain_errors(a0: np.ndarray, a1: np.ndarray, chain) -> list[str]:
    """Factor identities, isometric core, isometric Q and dim U = dim Y."""
    errors = []
    n = a0.shape[0]
    f0, f1 = chain.factor.f0, chain.factor.f1
    r0 = np.eye(n) - a0.conj().T @ a0 - a1.conj().T @ a1
    c = -a0.conj().T @ a1
    factor = max(_norm(f0.conj().T @ f0 + f1.conj().T @ f1 - r0),
                 _norm(f0.conj().T @ f1 - c))
    if factor > CHAIN_TOL:
        errors.append(f"F0^H F0 + F1^H F1 = r0, F0^H F1 = c off by {factor:.3e}")
    core = _isometry_defect(np.vstack([f0, a0]), np.vstack([f1, a1]))
    if core > CHAIN_TOL:
        errors.append(f"core not isometric (defect {core:.3e})")
    q = _isometry_defect(chain.q.q0, chain.q.q1)
    if q > CHAIN_TOL:
        errors.append(f"Q not isometric (defect {q:.3e})")
    if chain.u.dim_u != chain.factor.dim_y:
        errors.append(f"dim U {chain.u.dim_u} != dim Y {chain.factor.dim_y}")
    return errors


def outcome_errors(op, outcome) -> list[str]:
    """Why an outcome is wrong; an empty list when it is right.

    Every timed input is valid and the program answers it today, so a
    raised PencilError or a failing report is a wrong answer (one that
    would otherwise read as a fast op).  Pipelines must give the thirteen
    reports in order, all passing; demos must hold every claim; and a
    dilation compared with itself must come out INCONCLUSIVE, as documented.
    Inputs that fail today run only as probes, outside this gate.
    """
    if isinstance(outcome, Exception):
        return [f"raised {type(outcome).__name__}: {outcome}"]
    if op.kind in ("pipeline", "demo"):
        errors = []
        names = tuple(r.check for r in outcome)
        if op.kind == "pipeline" and names != PIPELINE_CHECKS:
            errors.append(f"report names {names}")
        bad = [r.check for r in outcome if not r.passed]
        if bad:
            errors.append(f"failing reports: {bad}")
        return errors
    if op.kind == "falsifier":
        verdict = (outcome.witness or {}).get("verdict")
        return [] if verdict == "INCONCLUSIVE" else [f"self-falsifier verdict {verdict}"]
    return chain_errors(op.a0, op.a1, outcome)


def span_work(op, outcome) -> dict:
    """Computed (not measured) sizes of the word and span checks of an op.

    Derived only from Report.details, the op's input dims and its depth:
    columns enumerated by both minimality checks, their ranks, the bytes of
    the largest stacked word matrix (complex128), and ordered words
    compared by the uniform checks and the falsifier's word table.
    """
    work = {"columns": 0, "rank": 0, "bytes": 0, "words": 0}
    if isinstance(outcome, Exception) or op.depth is None:
        return work
    if op.kind == "falsifier":
        if (outcome.witness or {}).get("verdict") == "INCONCLUSIVE":
            uniform = sum(2 ** k for k in range(1, op.depth + 1))
            table = sum(4 ** k for k in range(1, op.depth + 1))
            work["words"] = 2 * uniform + table
        return work
    by = {r.check: r for r in outcome}
    n = op.dim
    dim_y = by["factorization"].details[0]["dimY"]
    dim_u = by["dimension-law"].witness["dimU"]
    iso = by["minimality"].details[0]
    d = iso["window_depth"]
    iso_cols = n * (2 ** (d + 1) - 1)
    iso_rows = (d + 1) * dim_y + n
    uni = by["minimality-unitary"].details[0]
    cap = uni["word_cap"]
    uni_cols = n * (4 ** (cap + 1) - 1) // 3
    uni_rows = (cap + 1) * (dim_y + dim_u) + n
    work["columns"] = iso_cols + uni_cols
    work["rank"] = iso["rank"] + uni["rank"]
    work["bytes"] = 16 * max(iso_rows * iso_cols, uni_rows * uni_cols)
    work["words"] = (by["uniform"].details[0]["words_checked"]
                     + sum(2 ** k for k in range(1, op.depth + 3)))
    return work
