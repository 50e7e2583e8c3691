"""Tests of the benchmark itself (generators, tracer, metrics, checks).

Run from the repository root:  PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

import pencildil as pd
from perfbench import checks, run, tracing, workloads

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _arrays(rounds):
    return [(op.kind, op.label, op.depth, op.name,
             None if op.a0 is None else (op.a0.tobytes(), op.a1.tobytes()))
            for ops in rounds for op in ops]


@pytest.mark.parametrize("name", sorted(workloads.ROUNDS))
def test_generators_are_deterministic_per_seed(name):
    first = workloads.workload_rounds(name, 5, 1)
    assert _arrays(first) == _arrays(workloads.workload_rounds(name, 5, 1))
    assert _arrays(first) != _arrays(workloads.workload_rounds(name, 6, 1))
    # The first round does not depend on how many rounds follow it.
    assert _arrays(first) == _arrays(workloads.workload_rounds(name, 5, 2)[:1])


def test_default_seed_reproduces_seeded_corpus():
    first_round = workloads.workload_rounds("corpus", workloads.CORPUS_SEED, 1)[0]
    ours = [op for op in first_round if op.kind == "pipeline"]
    theirs = pd.seeded_corpus()
    assert len(ours) == len(theirs)
    for op, t in zip(ours, theirs):
        assert np.array_equal(op.a0, t.a0) and np.array_equal(op.a1, t.a1)


def test_edge_margins_are_exact():
    rng = np.random.default_rng(3)
    a0, a1 = workloads._at_margin(*workloads._gaussian_pair(rng, 4), 1e-5)
    assert workloads.circle_sup(a0, a1) == pytest.approx(1 - 1e-5, abs=1e-12)
    assert workloads.grid_peak(a0, a1) <= 1 - 1e-5


def _fake_main(absent=()):
    names = tracing.traced_names()
    return {
        "import_s": 0.3, "warmup_s": 0.1,
        "trace": {"ops": 4, "untraced_s": 1.0, "traced_s": 1.1,
                  "calls": dict.fromkeys(names, 2), "self_s": dict.fromkeys(names, 0.01),
                  "failed": dict.fromkeys(names, 0), "grid_points": 1024,
                  "absent": list(absent),
                  "span": {"columns": 10, "rank": 5, "bytes": 160, "words": 8}},
    }


def _fake_timed(scale=1.0):
    return {"op_s": [0.1, 0.2, 0.3, 0.1, 0.1, 0.2, 0.4, 0.4, 0.4], "ops_per_round": 3,
            "ref_s": [run.REF_NOMINAL_S * scale] * 3, "ref_at": [3, 6, 9],
            "peak_rss_kb": 2048, "failed": 0, "attempted": 9}


def _fake_setup(scale=1.0):
    return {"import_s": 0.3, "warmup_s": 0.1, "ref_s": [run.REF_NOMINAL_S * scale]}


def test_times_are_scaled_by_the_reference_kernel():
    e2e, notes = run.end_to_end(_fake_timed(), [_fake_setup()])
    assert e2e["ops_per_s"][0] == pytest.approx(3 / 0.6)  # median round of 0.4, 0.6, 1.2
    assert e2e["op_s.p50"][0] == pytest.approx(0.2)
    assert e2e["setup_s"][0] == pytest.approx(0.4)
    # A host running the reference kernel twice as slow halves every time.
    slow, slow_notes = run.end_to_end(_fake_timed(2.0), [_fake_setup(2.0)])
    assert slow["ops_per_s"][0] == pytest.approx(2 * 3 / 0.6)
    assert slow["op_s.p50"][0] == pytest.approx(0.1)
    assert slow["setup_s"][0] == pytest.approx(0.2)
    assert slow["peak_rss_mb"] == e2e["peak_rss_mb"]
    assert slow_notes["host_scale"] == pytest.approx(0.5)
    assert slow_notes["wall_clock"] == notes["wall_clock"]


def test_each_op_is_scaled_by_the_reference_samples_around_it():
    main = {"op_s": [1.0] * 8, "ref_at": [2, 4, 6, 8],
            "ref_s": [run.REF_NOMINAL_S * f for f in (1, 1, 2, 2)]}
    # Two samples on each side of the one taken after the op: ops 0-1 see
    # samples 0-2 (median 1), ops 2-5 see 0-3 (median 1.5), ops 6-7 see 1-3.
    assert run.scaled_op_s(main) == pytest.approx([1, 1, 2 / 3, 2 / 3, 2 / 3, 2 / 3,
                                                   0.5, 0.5])


def test_metric_names_are_valid_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(declared) == len(set(declared))
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in declared)
    layer_metrics, _ = run.per_layer(_fake_main())
    assert set(layer_metrics) == {m["name"] for m in spec["per_layer"]}
    e2e, _ = run.end_to_end(_fake_timed(), [_fake_setup()])
    assert set(e2e) == {m["name"] for m in spec["end_to_end"]}
    for metrics in (layer_metrics, e2e):
        for name, (_, unit) in metrics.items():
            declared_unit = next(m["unit"] for m in spec["end_to_end"] + spec["per_layer"]
                                 if m["name"] == name)
            assert unit == declared_unit, name


def test_tail_has_ten_samples_above_and_never_falls_below_the_median():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert run.tail([float(i) for i in range(20)]) == (19.0, 100.0, 0)
    assert run.tail([float(i) for i in range(21)])[0] == 10.0
    value, pct, above = run.tail([float(i) for i in range(1, 101)])
    assert (value, pct, above) == (90.0, 90.0, 10)


def test_absent_function_is_reported_not_raised():
    layers = {"linalg": ("spec_norm", "no_such_function"), "no_such_module": ("f",)}
    tracer = tracing.Tracer(layers)
    tracer.install()
    try:
        pd.classify(pd.LinearPencil([[0.5]], [[0.3]]))
        tracer.fold()
    finally:
        tracer.uninstall()
    assert tracer.absent == ["linalg.no_such_function", "no_such_module.f"]
    assert tracer.calls["linalg.spec_norm"] > 0
    assert tracer.calls["linalg.no_such_function"] == 0
    assert pd.linalg.spec_norm is pd.pencil.spec_norm
    assert not hasattr(pd.linalg.spec_norm, "__wrapped__")
    metrics, notes = run.per_layer(_fake_main(absent=tracer.absent))
    assert notes["absent"] == tracer.absent


def test_tracing_changes_no_report_and_self_times_add_up():
    t = pd.LinearPencil([[0.5, 0.1], [0.0, 0.3]], [[0.2, 0.0], [0.1, 0.2]])
    plain = checks.to_json(pd.run_pipeline(t, depth=2))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = checks.to_json(pd.run_pipeline(t, depth=2))
        root = tracer.spans[0]
        spans = list(tracer.spans)
        tracer.fold()
    finally:
        tracer.uninstall()
    assert traced == plain
    assert root[0] == "verify.run_pipeline" and root[3] == -1
    assert tracer.calls["verify.run_pipeline"] == 1
    assert tracer.calls["pencil.classify"] == 2
    assert tracer.grid_points > 0
    total_self = sum(tracer.self_s.values())
    assert total_self == pytest.approx(root[2] - root[1], rel=1e-6)
    assert all(end >= start for _, start, end, _, _ in spans)


def test_chain_checks_accept_the_construction_and_catch_a_wrong_pencil():
    a0 = np.array([[0.5, 0.1], [0.0, 0.3]], dtype=complex)
    a1 = np.array([[0.2, 0.0], [0.1, 0.2]], dtype=complex)
    chain = pd.canonical_chain(pd.LinearPencil(a0, a1))
    assert checks.chain_errors(a0, a1, chain) == []
    assert checks.chain_errors(a0 * 0.9, a1, chain)


def test_span_work_is_computed_from_report_details():
    t = pd.LinearPencil([[0.5]], [[0.3]])
    op = workloads.Op("pipeline", "n1-d4", t.a0, t.a1, 4)
    work = checks.span_work(op, pd.run_pipeline(t, depth=4))
    # Isometric window depth 5: 2^6 - 1 columns; unitary word cap 5: (4^6 - 1) / 3.
    assert work["columns"] == 63 + 1365
    assert work["words"] == 2 * sum(2 ** k for k in range(1, 7))


def test_a_failed_op_is_a_check_failure():
    t = pd.LinearPencil([[0.5]], [[0.3]])
    op = workloads.Op("pipeline", "n1-d2", t.a0, t.a1, 2)
    reports = pd.run_pipeline(t, depth=2)
    assert checks.outcome_errors(op, reports) == []
    bad = list(reports)
    bad[5] = pd.Report.from_residual(bad[5].check, 1.0, bad[5].tolerance)
    assert checks.outcome_errors(op, bad)
    assert checks.outcome_errors(op, pd.PencilError("no answer"))
    chain = workloads.Op("chain", "n1", t.a0, t.a1)
    assert checks.outcome_errors(chain, pd.PencilError("no answer"))
