"""pencildil benchmark: one workload per call, metrics on the last line.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 15 --trace 0

Each call starts fresh single-threaded processes (BLAS pinned to one
thread), one at a time: ``SETUP_SAMPLES - 1`` that only import pencildil
and run the warm-up op, then the main one, which also runs the timed
closed-loop rounds (one client, next op only after the previous one ends).

The number of rounds (each a fresh draw of the workload's inputs) is fixed
by ``--seconds`` and the nominal round time of the workload measured when
the benchmark was written, never by the clock during the run, so two
versions of the program time exactly the same ops.  Only a program so slow
that the rounds would not end before ``DEADLINE_S`` runs fewer of them: the
metrics then cover the rounds done and ``truncated`` is set in the record.

Times are host-normalised seconds.  The shared virtual machine the
benchmark was written on runs the same code 20-50% slower for seconds to
minutes at a time, and process CPU time slows down just as much as wall
time.  So each process also times a fixed reference kernel between ops
(``worker.reference_s``), and every time it reports is scaled by
``REF_NOMINAL_S`` over that kernel's median in the same process, around the
op for op times: a second here is a second at the host speed the benchmark
was written at.  The raw wall-clock figures and the run's median scale
factor are printed beside them and kept in the record.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every round
untraced and then traced, and prints the per-layer metrics (not scaled).
Exits nonzero, without a result line, if the program cannot be run, and
with ``"correct": false`` if any output check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

# Seconds one round of a workload took at the commit that defined the
# benchmark (2-vCPU virtual machine, one BLAS thread).  Only the round count
# depends on them.
NOMINAL_ROUND_S = {"corpus": 3.85, "deep": 6.3, "edge": 1.15}
# Median seconds of worker.reference_s on that machine, and how many
# reference samples on each side of an op set its host speed.
REF_NOMINAL_S = 0.02
REF_WINDOW = 2
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
# Seconds kept back from the main worker's round budget for its warm-up,
# the edge probes and the output checks.
RESERVE_S = 25.0
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "BLIS_NUM_THREADS": "1",
          "VECLIB_MAXIMUM_THREADS": "1"}
TAIL_ABOVE = 10


class RunFailed(Exception):
    pass


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Value, percentile and count above, at the highest rank with at least
    TAIL_ABOVE samples above it.  When that rank would fall below the
    median (too few samples), the maximum is reported with 0 above."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 2 * TAIL_ABOVE:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_ABOVE - 1], 100.0 * (n - TAIL_ABOVE) / n, TAIL_ABOVE


def _worker(args: list[str], deadline: float) -> dict:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + [p for p in [env.get("PYTHONPATH")] if p])
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunFailed("out of time before starting a worker")
    try:
        proc = subprocess.run([sys.executable, "-m", "perfbench.worker", *args],
                              cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"worker timed out after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise RunFailed(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RunFailed("worker printed no result")
    return json.loads(lines[-1])


def host_scale(worker_out: dict) -> float:
    """Factor that turns a process's wall seconds into host-normalised ones."""
    return REF_NOMINAL_S / statistics.median(worker_out["ref_s"])


def scaled_op_s(main: dict) -> list[float]:
    """Op times scaled by the host speed around each op: the median of the
    ``2 * REF_WINDOW + 1`` reference samples nearest the one taken after it.
    The host's speed drifts within a run too, so a local median follows it
    better than one factor for the whole run."""
    ref_s, ref_at = main["ref_s"], main["ref_at"]
    out, p = [], 0
    for j, t in enumerate(main["op_s"]):
        while p < len(ref_at) - 1 and ref_at[p] <= j:
            p += 1
        window = ref_s[max(0, p - REF_WINDOW):p + REF_WINDOW + 1]
        out.append(t * REF_NOMINAL_S / statistics.median(window))
    return out


def _timings(op_s: list[float], k: int, setups: list[float]) -> dict:
    # Throughput of the median round: a few rounds slowed by other load on
    # the machine move it less than they move the overall mean.
    round_s = statistics.median(sum(op_s[i:i + k]) for i in range(0, len(op_s), k))
    value, pct, above = tail(op_s)
    return {"setup_s": statistics.median(setups), "ops_per_s": k / round_s,
            "op_s.p50": statistics.median(op_s), "op_s.tail": value,
            "tail_percentile": pct, "tail_samples_above": above}


def end_to_end(main: dict, setups: list[dict]) -> tuple[dict, dict]:
    k = main["ops_per_round"]
    raw = _timings(main["op_s"], k, [s["import_s"] + s["warmup_s"] for s in setups])
    scale = host_scale(main)
    scaled = _timings(scaled_op_s(main), k,
                      [(s["import_s"] + s["warmup_s"]) * host_scale(s) for s in setups])
    metrics = {
        "setup_s": (scaled["setup_s"], "s"),
        "ops_per_s": (scaled["ops_per_s"], "ops/s"),
        "op_s.p50": (scaled["op_s.p50"], "s"),
        "op_s.tail": (scaled["op_s.tail"], "s"),
        "peak_rss_mb": (main["peak_rss_kb"] / 1024.0, "MB"),
    }
    notes = {"tail_percentile": scaled["tail_percentile"],
             "tail_samples_above": scaled["tail_samples_above"],
             "samples": len(main["op_s"]), "setup_samples": len(setups),
             "failed_frac": main["failed"] / main["attempted"],
             "host_scale": scale, "reference_samples": len(main["ref_s"]),
             "wall_clock": {name: raw[name] for name in
                            ("setup_s", "ops_per_s", "op_s.p50", "op_s.tail")}}
    return metrics, notes


def per_layer(main: dict) -> tuple[dict, dict]:
    tr = main["trace"]
    ops = tr["ops"]
    metrics = {}
    for name, calls in tr["calls"].items():
        metrics[f"{name}.calls"] = (calls / ops, "count")
        metrics[f"{name}.self_s"] = (tr["self_s"][name] / ops, "s")
    metrics["factorization.bauer_factorize.failed"] = (
        tr["failed"]["factorization.bauer_factorize"] / ops, "count")
    metrics["setup.import_s"] = (main["import_s"], "s")
    metrics["setup.warmup_s"] = (main["warmup_s"], "s")
    metrics["trace.overhead_frac"] = (tr["traced_s"] / tr["untraced_s"] - 1.0, "ratio")
    span = tr["span"]
    metrics["span.columns"] = (span["columns"] / ops, "count")
    metrics["span.rank_per_column"] = (
        span["rank"] / span["columns"] if span["columns"] else 0.0, "ratio")
    metrics["span.bytes_computed"] = (span["bytes"], "bytes")
    metrics["words.checked"] = (span["words"] / ops, "count")
    metrics["grid.points"] = (tr["grid_points"] / ops, "count")
    notes = {"traced_ops": ops, "absent": tr["absent"],
             "computed": ["span.columns", "span.rank_per_column",
                          "span.bytes_computed", "words.checked", "grid.points"]}
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(NOMINAL_ROUND_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pencildil" / "__init__.py").is_file():
        print(f"error: no pencildil sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    rounds = max(1, math.ceil(args.seconds / NOMINAL_ROUND_S[args.workload]))
    if args.trace:
        rounds = max(1, rounds // 2)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = [_worker(common + ["--role", "setup"], deadline)
                  for _ in range(SETUP_SAMPLES - 1)]
        budget = deadline - time.monotonic() - RESERVE_S
        main_out = _worker(common + ["--rounds", str(rounds), "--budget", f"{budget:.1f}",
                                     "--trace", str(args.trace)], deadline)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics, notes = per_layer(main_out)
    else:
        metrics, notes = end_to_end(main_out, setups + [main_out])
    errors = main_out["errors"]
    truncated = main_out["rounds_done"] < rounds
    if truncated:
        print(f"warning: only {main_out['rounds_done']} of {rounds} rounds ran "
              f"before the deadline", file=sys.stderr)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "rounds": main_out["rounds_done"], "truncated": truncated,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              **notes, "attempted": main_out["attempted"],
              "failed": main_out["failed"], "failed_inputs": main_out["failed_inputs"],
              "probes": main_out["probes"], "errors": errors, "env": main_out["env"],
              "wall_op_s": main_out["op_s"], "ref_s": main_out["ref_s"],
              "ref_at": main_out["ref_at"]}
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  rounds {main_out['rounds_done']}  "
          f"ops {main_out['attempted']}  failed {main_out['failed']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6g} {unit}")
    for key, value in notes.items():
        print(f"  {key}: {value}")
    for probe in main_out["probes"]:
        print(f"  probe {probe['input']}: {probe['outcome']}")
    for err in errors:
        print(f"  CHECK FAILED: {err}")
    print(f"  environment and inputs: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": not errors, "attempted": main_out["attempted"],
                      "failed": main_out["failed"],
                      "metrics": record["metrics"]}))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
