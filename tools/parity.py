"""Write canonical report JSON for a fixed parity set, one case per line.

The set covers the 20 ``seeded_corpus()`` pipelines, the five demos, the
scalar, empty-defect and boundary pencils at depths 0, 1 and 4, the
falsifier pairs that end in the word table or the uniformity invariant,
the four forward reports (dilation and uniformity of V and of U) of the
third corpus chain with the head block of its core moved by 1e-12 (they
pass) and by 1e-6 (they fail), which leaves the exact route for the
closure, both minimality reports at their default depth of the padded
shift (a deficit of 1) and of the depth-2 non-uniform dilation (word cap
6 for U), the unitarity report of the scalar pencil's U with its Q made
-q1 (still isometric, but U is not unitary: it fails), self-falsifiers
of the first corpus pencil of each dimension 1..4 at depths 6 and 7, and
four hard valid pencils at n = 4 (dim Y < dim H, a1 = 0, nilpotent,
margin 1e-6), each classified on grids of 8, 64 and 256 points and run
through the pipeline at depth 2; the first two have a flat norm, which
``classify`` decides without its grid peak.  A constant pencil whose
squared norm lies 5e-13 below 1 + tol, inside the band where that
decision falls back to the whole grid, is classified on the same three
grids.  Two cases pin both sides of the NotPSD scan that
``bauer_factorize`` skips when ``classify``'s grid peak settles it: the
pencil sqrt(1 + 5e-11) (0.6 + 0.4 lam), which passes ``classify`` but whose
defect dips to -5e-11, records the NotPSD error of its canonical chain,
and a margin-1e-8 pencil at n = 4, whose scan is skipped, runs through the
pipeline at depth 2.  Keys are sorted and floats are written in full, so
two runs of the same code give byte-identical files and runs of two
revisions can be compared line by line.

Run from the repository root:

    PYTHONPATH=src python tools/parity.py parity.jsonl

and compare two such files (say, of two revisions) with

    PYTHONPATH=src python tools/parity.py --compare old.jsonl new.jsonl

which lists each (case, check, field) that differs, with the largest
absolute difference of its numbers, and exits 1 when a report name or a
verdict (``pass``, or a falsifier's witness verdict) of a case in both
files differs.  A case in one file only (say, one that calls an API the
older revision lacks) is listed and compares nothing.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

import pencildil as pd

ZERO = pd.LinearPencil([[0.0]], [[0.0]])
PENCILS = {
    "scalar": pd.LinearPencil([[0.5]], [[0.3]]),
    "empty-defect": pd.LinearPencil(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
    "boundary": pd.LinearPencil([[0.5]], [[0.5]]),
}


def _unitary(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _at_margin(a0, a1, margin):
    """(a0, a1) scaled to norm 1 - margin on a 16384-point grid."""
    lams = np.exp(2j * np.pi * np.arange(16384) / 16384)[:, None, None]
    scale = (1.0 - margin) / np.linalg.norm(a0 + lams * a1, 2, axis=(1, 2)).max()
    return scale * a0, scale * a1


def edge_pencils(n=4):
    """Hard valid pencils on C^n, drawn from one fixed seed."""
    rng = np.random.default_rng(4242)

    def pair(k):
        return [rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
                for _ in range(2)]

    def rotated(a0, a1):
        w = _unitary(rng, n)
        return pd.LinearPencil(w @ a0 @ w.conj().T, w @ a1 @ w.conj().T)

    half = n // 2
    a0, a1 = np.zeros((n, n), dtype=complex), np.zeros((n, n), dtype=complex)
    a0[:half, :half] = _unitary(rng, half)  # isometric on half of H
    a0[half:, half:], a1[half:, half:] = _at_margin(*pair(n - half), 0.05)
    yield "dimY<dimH", rotated(a0, a1)
    yield "a1=0", rotated(*_at_margin(pair(n)[0], np.zeros((n, n)), 0.05))
    yield "nilpotent", rotated(*_at_margin(*(np.triu(a, 1) for a in pair(n)), 0.05))
    yield "margin1e-6", pd.LinearPencil(*_at_margin(*pair(n), 1e-6))


def flat_near_tol(n=4):
    """A constant pencil with ||T||^2 = 1 + 1e-10 - 5e-13: contractive at
    classify's default tol, with the cut inside its fallback band."""
    rng = np.random.default_rng(4343)
    a0 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a0 *= math.sqrt(1.0 + 1e-10 - 5e-13) / np.linalg.norm(a0, 2)
    return pd.LinearPencil(a0, np.zeros((n, n)))


def margin_1e8(n=4):
    """A Gaussian pencil at margin 1e-8, drawn from one fixed seed."""
    rng = np.random.default_rng(4444)
    a0, a1 = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
              for _ in range(2))
    return pd.LinearPencil(*_at_margin(a0, a1, 1e-8))


def chain_outcome(t) -> dict:
    """A report-shaped record of ``canonical_chain(t)``: the error that
    stops it, if any."""
    try:
        pd.canonical_chain(t)
    except pd.PencilError as err:
        return {"check": "canonical-chain", "pass": False,
                "error": type(err).__name__, "message": str(err)}
    return {"check": "canonical-chain", "pass": True}


def _negated_head(v):
    """The non-uniform dilation with the head row of its core negated."""
    b0, b1 = v.core.a0.copy(), v.core.a1.copy()
    b0[-1] *= -1
    b1[-1] *= -1
    return pd.StructuredIsometricPencil(v.dim_y, v.dim_h, v.core_depth,
                                        pd.LinearPencil(b0, b1))


def _moved_head(chain, eps):
    """V and U of a canonical chain with every entry of the head block of
    the core's constant coefficient moved by eps; U keeps its Q."""
    v = chain.v
    b0 = v.core.a0.copy()
    b0[-v.dim_h:, -v.dim_h:] += eps
    moved = pd.StructuredIsometricPencil(v.dim_y, v.dim_h, v.core_depth,
                                         pd.LinearPencil(b0, v.core.a1))
    return moved, pd.UnitaryDilation(v=moved, q=chain.q, cores=chain.u.cores)


def _padded_shift():
    """The shift with an untouched head line adjoined: not minimal."""
    core = pd.LinearPencil([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]], np.zeros((3, 2)))
    return pd.StructuredIsometricPencil(1, 2, 0, core)


def cases():
    corpus = pd.seeded_corpus()
    for i, t in enumerate(corpus):
        yield f"corpus-{i}", lambda t=t: pd.run_pipeline(t)
    for name in pd.DemoName:
        yield f"demo-{name.value}", lambda name=name: pd.demo(name)
    for label, t in PENCILS.items():
        for depth in (0, 1, 4):
            yield f"{label}-d{depth}", lambda t=t, depth=depth: pd.run_pipeline(t, depth)
    vt = pd.builtin_example(pd.BuiltinExample.NON_UNIFORM_V)
    canonical = pd.canonical_chain(ZERO).v
    pairs = {"word-table": (vt, _negated_head(vt)),
             "canonical-vs-non-uniform": (canonical, vt)}
    for label, (d1, d2) in pairs.items():
        yield f"falsifier-{label}-iso", \
            lambda d1=d1, d2=d2: [pd.equivalence_falsifier(d1, d2, ZERO, depth=3)]
        yield f"falsifier-{label}-uni", lambda d1=d1, d2=d2: [
            pd.equivalence_falsifier(pd.build_unitary(d1), pd.build_unitary(d2),
                                     ZERO, depth=3)]
    chain = pd.canonical_chain(corpus[2])
    for eps in (1e-12, 1e-6):
        yield f"moved-head-{eps:g}", lambda eps=eps: [
            check(d, corpus[2]) for d in _moved_head(chain, eps)
            for check in (pd.check_dilation, pd.check_uniform)]
    u = pd.canonical_chain(PENCILS["scalar"]).u
    wrong = pd.UnitaryDilation(v=u.v, q=pd.QPencil(u.q.q0, -u.q.q1), cores=u.cores)
    yield "unitarity-wrong-q", lambda: [pd.check_unitarity(wrong)]
    for label, v in (("padded-shift", _padded_shift()), ("non-uniform-v", vt)):
        yield f"minimality-{label}", lambda v=v: [
            pd.check_minimality(v, ZERO),
            pd.check_minimality(pd.build_unitary(v), ZERO)]
    for label, t in edge_pencils():
        for grid_size in (8, 64, 256):
            yield f"edge-{label}-classify-g{grid_size}", \
                lambda t=t, grid_size=grid_size: [pd.classify(t, grid_size)]
        yield f"edge-{label}-d2", lambda t=t: pd.run_pipeline(t, 2)
    for grid_size in (8, 64, 256):
        yield f"flat-near-tol-classify-g{grid_size}", \
            lambda grid_size=grid_size: [pd.classify(flat_near_tol(), grid_size)]
    room = math.sqrt(1.0 + 5e-11)
    yield "not-psd-in-scan-room", lambda: [
        chain_outcome(pd.LinearPencil([[0.6 * room]], [[0.4 * room]]))]
    yield "margin1e-8-scan-skipped-d2", lambda: pd.run_pipeline(margin_1e8(), 2)
    for n in range(1, 5):
        t = next(p for p in corpus if p.shape[0] == n)
        u = pd.canonical_chain(t).u
        for depth in (6, 7):
            yield f"self-falsifier-n{n}-d{depth}", \
                lambda t=t, u=u, depth=depth: [pd.equivalence_falsifier(u, u, t, depth)]


def _json(result) -> dict:
    """A report's JSON, or a classification's in the same shape (a record
    that already has it is kept)."""
    if isinstance(result, dict):
        return result
    if isinstance(result, pd.PencilClass):
        return {"check": "classify", "pass": result.is_contractive,
                "kind": result.kind.value, "certified": result.certified,
                "margin": result.margin, "maxNormOnGrid": result.max_norm_on_grid}
    return result.to_json_dict()


def main(path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for label, run in cases():
            reports = [_json(r) for r in run()]
            fh.write(json.dumps({"case": label, "reports": reports},
                                sort_keys=True) + "\n")


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _delta(a, b):
    """Largest |a - b| over the numbers of two JSON values, or None when
    they differ in anything but the values of numbers."""
    if _is_number(a) and _is_number(b):
        return abs(a - b)
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        deltas = [_delta(x, y) for x, y in zip(a, b)]
    elif isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        deltas = [_delta(a[k], b[k]) for k in a]
    else:
        return 0.0 if a == b else None
    return None if None in deltas else max(deltas, default=0.0)


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return {row["case"]: row["reports"] for row in map(json.loads, fh)}


def _verdict(report: dict):
    return report["pass"], (report.get("witness") or {}).get("verdict")


def compare(old_path: str, new_path: str) -> int:
    """Print the one-sided cases and the differing fields of two parity
    files; 1 if a report name or verdict of a shared case differs, else 0."""
    old, new = _load(old_path), _load(new_path)
    fatal, moved, one_sided = False, 0, 0
    for case in list(old) + [c for c in new if c not in old]:
        if case not in old or case not in new:
            print(f"{case}: only in {old_path if case in old else new_path}")
            one_sided += 1
            continue
        names = [[r["check"] for r in old[case]], [r["check"] for r in new[case]]]
        if names[0] != names[1]:
            print(f"{case}: report names differ: {names[0]} -> {names[1]}")
            fatal = True
            continue
        for a, b in zip(old[case], new[case]):
            if _verdict(a) != _verdict(b):
                print(f"{case}  {a['check']}: verdict {_verdict(a)} -> {_verdict(b)}")
                fatal = True
            for field in sorted(a.keys() | b.keys()):
                if a.get(field) == b.get(field):
                    continue
                moved += 1
                delta = _delta(a.get(field), b.get(field))
                change = (f"max |delta| {delta:.3g}" if delta is not None else
                          f"{json.dumps(a.get(field))} -> {json.dumps(b.get(field))}")
                print(f"{case}  {a['check']}  {field}  {change}")
    print(f"{moved} fields differ; {one_sided} cases in one file only; "
          "report names and verdicts of shared cases " + ("DIFFER" if fatal else "agree"))
    return 1 if fatal else 0


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    if len(sys.argv) != 2:
        sys.exit("usage: python tools/parity.py OUT.jsonl\n"
                 "       python tools/parity.py --compare OLD.jsonl NEW.jsonl")
    main(sys.argv[1])
