"""One workload process: import, warm up, run the rounds, check the outputs.

Run by ``perfbench/run.py`` in a fresh interpreter with BLAS pinned to one
thread.  Only the standard library is imported before the clock starts, so
``import_s`` covers numpy, scipy and pencildil.  The last stdout line is a
JSON object with raw op times and check results; ``run.py`` turns it into
metrics.

Roles: ``setup`` stops after the warm-up op (it only measures set-up time);
``main`` also runs ``--rounds`` rounds of the workload closed-loop, one op
at a time, and stops early, after a whole round, once ``--budget`` seconds
have passed.  With ``--trace 1`` every round runs untraced and then traced
over the same inputs.

Between ops, outside their timed region, the worker times a fixed reference
kernel (``reference_s``) that does not call pencildil, about once per
``REF_EVERY_S`` seconds of op time; the setup role times it a few times
after the warm-up.  ``run.py`` scales the times by the kernel's speed.
Traced runs skip it: their per-layer figures are not scaled.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from time import perf_counter

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
REF_EVERY_S = 0.25
SETUP_REF_SAMPLES = 5


def reference_s(data) -> float:
    """Seconds of one fixed reference kernel, a mix like pencildil's own:
    small complex products, norms, QR and eigh in a Python loop (as in the
    grid loops), wide SVDs and one large one (as in the span checks)."""
    import numpy as np

    small, wide, large = data
    start = perf_counter()
    for _ in range(20):
        for a in small:
            b = a @ a.conj().T
            np.linalg.norm(a, 2)
            np.linalg.qr(a)
            np.linalg.eigh(b)
        s = 0
        for i in range(300):
            s += i * i
    for _ in range(3):
        np.linalg.svd(wide, compute_uv=False)
    np.linalg.svd(large, compute_uv=False)
    return perf_counter() - start


def reference_data():
    import numpy as np

    rng = np.random.default_rng(0)
    small = [rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
             for k in (2, 4, 8, 16)]
    wide, large = ((rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
                   for shape in ((60, 400), (100, 1000)))
    return small, wide, large


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "main"), default="main")
    parser.add_argument("--budget", type=float, default=float("inf"))
    args = parser.parse_args(argv)

    t0 = perf_counter()
    import pencildil as pd
    import_s = perf_counter() - t0

    import numpy
    import scipy

    from perfbench import checks, tracing, workloads

    rounds = workloads.workload_rounds(
        args.workload, args.seed, args.rounds if args.role == "main" else 1)
    run = Runner(pd, checks)

    warmup_s, _ = run.op(0, rounds[0][0])
    run.attempted = run.failed = 0
    ref = reference_data()
    reference_s(ref)
    out = {"import_s": import_s, "warmup_s": warmup_s}
    if args.role == "setup":
        out["ref_s"] = [reference_s(ref) for _ in range(SETUP_REF_SAMPLES)]
        print(json.dumps(out))
        return 0

    op_s, untraced_s, traced_s, ref_s, ref_at = [], [], [], [], []
    tracer = tracing.Tracer() if args.trace else None
    work = {"columns": 0, "rank": 0, "bytes": 0, "words": 0}
    first = 0
    since_ref = 0.0
    loop_start = perf_counter()
    for round_ops in rounds:
        if first and perf_counter() - loop_start > args.budget:
            break
        indexed = list(enumerate(round_ops, start=first))
        first += len(round_ops)
        for i, op in indexed:
            dt, _ = run.op(i, op)
            (untraced_s if tracer else op_s).append(dt)
            since_ref += dt
            if tracer is None and since_ref >= REF_EVERY_S:
                ref_s.append(reference_s(ref))
                ref_at.append(len(op_s))
                since_ref = 0.0
        if tracer is None:
            continue
        tracer.install()
        try:
            for i, op in indexed:
                dt, outcome = run.op(i, op)
                tracer.fold()
                traced_s.append(dt)
                w = checks.span_work(op, outcome)
                for key in ("columns", "rank", "words"):
                    work[key] += w[key]
                work["bytes"] = max(work["bytes"], w["bytes"])
        finally:
            tracer.uninstall()

    # Read before the probes, so that only the timed inputs count.
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    probes = []
    if args.workload == "edge":
        for op in workloads.edge_probes(args.seed):
            outcome = run.call(op)
            if isinstance(outcome, Exception):
                probes.append({"input": op.label, "outcome": type(outcome).__name__,
                               "message": str(outcome)})
            else:
                errors = checks.chain_errors(op.a0, op.a1, outcome)
                run.errors += [f"probe {op.label}: {e}" for e in errors]
                probes.append({"input": op.label, "outcome": "ok"})

    out.update({
        "op_s": op_s,
        "ref_s": ref_s,
        "ref_at": ref_at,
        "ops_per_round": len(rounds[0]),
        "rounds_done": first // len(rounds[0]),
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_inputs": sorted(run.failed_inputs),
        "errors": run.errors,
        "peak_rss_kb": peak_rss_kb,
        "probes": probes,
        "env": {
            "seed": args.seed,
            "load": "closed loop, 1 client, 1 process at a time",
            "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "rounds": args.rounds,
            "inputs_per_round": [{"entry": op.kind, "input": op.label,
                                  "dim": op.dim, "depth": op.depth}
                                 for op in rounds[0]],
        },
    })
    if tracer is not None:
        out["trace"] = {
            "ops": len(traced_s),
            "untraced_s": sum(untraced_s),
            "traced_s": sum(traced_s),
            "calls": tracer.calls,
            "self_s": tracer.self_s,
            "failed": tracer.failed,
            "grid_points": tracer.grid_points,
            "absent": tracer.absent,
            "span": work,
        }
    print(json.dumps(out))
    return 0


class Runner:
    """Times ops and checks their outcomes outside the timed region.

    Every run of an input, warm-up, untraced and traced alike, must give
    the same JSON bytes as its first run: that checks determinism, and
    that the tracing wrappers change nothing.
    """

    def __init__(self, pd, checks):
        self.pd = pd
        self.checks = checks
        self.prepared = {}
        self.first_json = {}
        self.attempted = 0
        self.failed = 0
        self.failed_inputs = set()
        self.errors = []

    def _prepare(self, op):
        if op.kind == "demo":
            return None
        t = self.pd.LinearPencil(op.a0, op.a1)
        if op.kind == "falsifier":
            return t, self.pd.canonical_chain(t).u
        return t

    def call(self, op, prep=None):
        """Run one op; a PencilError is an outcome, anything else aborts."""
        pd = self.pd
        if prep is None and op.kind != "demo":
            prep = self._prepare(op)
        try:
            if op.kind == "pipeline":
                return pd.run_pipeline(prep, depth=op.depth)
            if op.kind == "demo":
                return pd.demo(op.name)
            if op.kind == "falsifier":
                t, u = prep
                return pd.equivalence_falsifier(u, u, t, depth=op.depth)
            return pd.canonical_chain(prep)
        except pd.PencilError as exc:
            return exc

    def op(self, index, op):
        if index not in self.prepared:
            self.prepared[index] = self._prepare(op)
        prep = self.prepared[index]
        start = perf_counter()
        outcome = self.call(op, prep)
        dt = perf_counter() - start

        self.attempted += 1
        if self.checks.failed(outcome):
            self.failed += 1
            self.failed_inputs.add(op.label)
        text = self.checks.to_json(outcome)
        first = self.first_json.get(index)
        if first is None:
            self.first_json[index] = text
            self.errors += [f"{op.label}: {e}"
                            for e in self.checks.outcome_errors(op, outcome)]
        elif text != first:
            self.errors.append(f"{op.label}: report JSON differs between runs")
        return dt, outcome


if __name__ == "__main__":
    sys.exit(main())
