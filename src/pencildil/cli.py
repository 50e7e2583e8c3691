"""Command line front end.

Subcommands: classify | dilate | verify | demo | residuals.  Exit codes:
0 all checks pass, 1 a mathematical check failed (including non-contractive
input and non-convergence), 2 input or usage error.  Complex matrices are
serialized as row-major nested arrays of [re, im] pairs.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import PencilError
from .factorization import factorization_residuals
from .linalg import spec_norm
from .pencil import LinearPencil, PencilKind, classify, unit_circle_grid
from .unidil import q_identity_residuals, theta_boundary_residuals
from .verify import DemoName, canonical_chain, demo, run_pipeline


def pairs_from_complex(m: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m, dtype=complex)]


def complex_from_pairs(data, name: str) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ValueError(f"{name} must be a nested array of [re, im] pairs")
    return arr[:, :, 0] + 1j * arr[:, :, 1]


def load_pencil(path: str) -> LinearPencil:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    a0 = complex_from_pairs(data["a0"], "a0")
    a1 = complex_from_pairs(data["a1"], "a1")
    if "dimH" in data:
        n = int(data["dimH"])
        if a0.shape != (n, n) or a1.shape != (n, n):
            raise ValueError(f"matrices are not {n}x{n} as declared by dimH")
    elif "rows" in data and "cols" in data:
        shape = (int(data["rows"]), int(data["cols"]))
        if a0.shape != shape or a1.shape != shape:
            raise ValueError(f"matrices do not have the declared shape {shape}")
    return LinearPencil(a0, a1)


def save_pencil(path: str, p: LinearPencil) -> None:
    if p.shape[0] == p.shape[1]:
        data = {"dimH": p.shape[0]}
    else:
        data = {"rows": p.shape[0], "cols": p.shape[1]}
    data["a0"] = pairs_from_complex(p.a0)
    data["a1"] = pairs_from_complex(p.a1)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def _describe(verdict) -> str:
    if verdict.kind is PencilKind.CONTRACTIVE:
        label = "certified" if verdict.certified else "grid-passed"
        return f"contractive ({label}, max-norm {verdict.max_norm_on_grid:.6f})"
    if verdict.kind is PencilKind.NONE:
        return f"not contractive (max-norm {verdict.max_norm_on_grid:.6f})"
    return verdict.kind.value


def cmd_classify(args) -> int:
    p = load_pencil(args.path)
    verdict = classify(p, grid_size=args.grid, tol=args.tol)
    print(_describe(verdict))
    return 0 if verdict.is_contractive else 1


def cmd_dilate(args) -> int:
    p = load_pencil(args.path)
    chain = canonical_chain(p, grid_size=args.grid)
    f, v = chain.factor, chain.v
    out = {
        "dimY": f.dim_y,
        "f0": pairs_from_complex(f.f0),
        "f1": pairs_from_complex(f.f1),
        "core0": pairs_from_complex(v.core.a0),
        "core1": pairs_from_complex(v.core.a1),
    }
    print(f"dimY = {f.dim_y}")
    print(f"core block: {v.core.shape[0]} x {v.core.shape[1]} (depth {v.core_depth})")
    if args.kind == "unitary":
        u, q = chain.u, chain.q
        out.update({
            "dimU": u.dim_u,
            "q0": pairs_from_complex(q.q0),
            "q1": pairs_from_complex(q.q1),
            "subspaces": {
                "L": pairs_from_complex(u.cores.l_space.basis),
                "K1": pairs_from_complex(u.cores.k1_space.basis),
                "U": pairs_from_complex(u.cores.u_space.basis),
            },
        })
        print(f"dimU = {u.dim_u}")
    if f.dim_y == 0:
        print("dilation equals input (isometric pencil, Y = {0})")
    elif spec_norm(f.f1) + spec_norm(p.a1) <= 1e-12:
        print("classical Sz.-Nagy case: lambda-independent construction")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 0


def cmd_verify(args) -> int:
    p = load_pencil(args.path)
    reports = run_pipeline(p, depth=args.depth, grid_size=args.grid,
                           rank_tol=args.rank_tol)
    if args.json:
        print(json.dumps([r.to_json_dict() for r in reports], indent=2))
    else:
        width = max(len(r.check) for r in reports)
        for r in reports:
            flag = "pass" if r.passed else "FAIL"
            print(f"{r.check:<{width}}  {flag}  worst {r.worst_residual:.3e}  "
                  f"tol {r.tolerance:.3e}")
    return 0 if all(r.passed for r in reports) else 1


def cmd_demo(args) -> int:
    reports = demo(DemoName(args.name))
    for r in reports:
        flag = "pass" if r.passed else "FAIL"
        extra = ""
        if r.witness:
            if "identity" in r.witness:
                extra = f"  [{r.witness['identity']}]"
            elif "verdict" in r.witness:
                extra = f"  [{r.witness['verdict']} by {r.witness.get('invariant', '?')}]"
        print(f"{flag}  {r.check}  worst {r.worst_residual:.3e}{extra}")
    return 0 if all(r.passed for r in reports) else 1


def _residual_series(p: LinearPencil, which: str, grid: int) -> list[tuple[complex, float]]:
    chain = canonical_chain(p)
    lams = unit_circle_grid(grid)
    if which == "factorization":
        series = factorization_residuals(p, chain.factor, lams)
    elif which == "unitarity":
        series = q_identity_residuals(chain.v, chain.q, lams)
    elif which == "theta":
        series = theta_boundary_residuals(chain.theta, lams)
    else:
        raise ValueError(f"unknown residual check {which!r}")
    return list(zip(lams, series))


def cmd_residuals(args) -> int:
    p = load_pencil(args.path)
    series = _residual_series(p, args.check, args.grid)
    lines = ["lambda_re,lambda_im,residual"]
    for lam, r in series:
        lines.append(f"{lam.real:.17g},{lam.imag:.17g},{r:.17g}")
    text = "\n".join(lines) + "\n"
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        print(f"wrote {args.csv} ({len(series)} rows)")
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pencildil",
        description="Construct and verify minimal dilations of contractive "
                    "linear operator pencils a0 + lambda*a1.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="classify a pencil file")
    c.add_argument("path")
    c.add_argument("--grid", type=int, default=256)
    c.add_argument("--tol", type=float, default=1e-10)
    c.set_defaults(func=cmd_classify)

    d = sub.add_parser("dilate", help="build the minimal dilation")
    d.add_argument("path")
    d.add_argument("--kind", choices=["isometric", "unitary"], default="isometric")
    d.add_argument("--out", help="write construction artifacts as JSON")
    d.add_argument("--grid", type=int, default=256)
    d.set_defaults(func=cmd_dilate)

    v = sub.add_parser("verify", help="run the full verification pipeline")
    v.add_argument("path")
    v.add_argument("--depth", type=int, default=4)
    v.add_argument("--grid", type=int, default=256)
    v.add_argument("--rank-tol", type=float, default=1e-8,
                   help="relative cutoff for the rank-based checks")
    v.add_argument("--json", action="store_true")
    v.set_defaults(func=cmd_verify)

    m = sub.add_parser("demo", help="replay a worked example")
    m.add_argument("name", choices=[n.value for n in DemoName])
    m.set_defaults(func=cmd_demo)

    r = sub.add_parser("residuals", help="residual-vs-lambda CSV data")
    r.add_argument("path")
    r.add_argument("--check", choices=["factorization", "unitarity", "theta"],
                   default="factorization")
    r.add_argument("--grid", type=int, default=256)
    r.add_argument("--csv", help="output CSV path (stdout if omitted)")
    r.set_defaults(func=cmd_residuals)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PencilError as exc:
        print(f"error: {exc}", file=sys.stderr)
        residual = getattr(exc, "residual", None)
        if residual is not None:
            print(f"last residual: {residual:.3e}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
