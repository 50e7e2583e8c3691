import json
import sys

import numpy as np
import pytest

from pencildil import (BuiltinExample, LinearPencil, NotADilation,
                       NotContractive, PencilKind, Report, builtin_example,
                       canonical_chain, check_dilation, check_minimality,
                       check_uniform, classify, classical_slice, demo,
                       equivalence_falsifier, run_pipeline, seeded_corpus)
from pencildil import pencil
from pencildil.verify import DemoName

ZERO = LinearPencil([[0.0]], [[0.0]])

PIPELINE_CHECKS = [
    "classify", "factorization", "outer-surrogate", "dilation", "uniform",
    "minimality", "q-identities", "unitarity", "compression-tower",
    "uniform-unitary", "minimality-unitary", "dimension-law", "theta-biinner",
]


def test_pipeline_scalar_all_pass():
    reports = run_pipeline(LinearPencil([[0.5]], [[0.3]]))
    assert [r.check for r in reports] == PIPELINE_CHECKS
    assert all(r.passed for r in reports)


def test_pipeline_certifies_the_core_once(monkeypatch):
    # build_canonical, core_subspaces and the factorization report all read
    # the one cached ``core_defect`` of V; classify's isometry tests and
    # QPencil's compute the defect only when its norm bounds leave the
    # answer open, which they do not here
    t = seeded_corpus()[5]
    core = canonical_chain(t).v.core
    real = pencil.isometry_defect
    on_core = []

    def counting(p):
        on_core.append(np.array_equal(p.a0, core.a0)
                       and np.array_equal(p.a1, core.a1))
        return real(p)

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "pencildil"
                and vars(module).get("isometry_defect") is real):
            monkeypatch.setattr(module, "isometry_defect", counting)
    run_pipeline(t)
    assert sum(on_core) == 1
    assert len(on_core) == 6


def test_pipeline_zero_pencil_is_classical():
    reports = run_pipeline(ZERO)
    assert all(r.passed for r in reports)
    chain = canonical_chain(ZERO)
    from pencildil.linalg import spec_norm
    assert spec_norm(chain.v.core.a1) == 0.0
    assert spec_norm(chain.q.q1) == 0.0


def test_pipeline_isometric_input_degenerates():
    iso = LinearPencil(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    reports = run_pipeline(iso)
    assert all(r.passed for r in reports)
    by_name = {r.check: r for r in reports}
    assert by_name["dimension-law"].witness == {"dimU": 0, "dimY": 0}


def test_pipeline_empty_pencil_passes():
    empty = LinearPencil(np.zeros((0, 0)), np.zeros((0, 0)))
    reports = run_pipeline(empty)
    assert [r.check for r in reports] == PIPELINE_CHECKS
    assert all(r.passed for r in reports)


def test_pipeline_rejects_noncontractive():
    with pytest.raises(NotContractive):
        run_pipeline(LinearPencil([[0.8]], [[0.5]]))


def test_negative_depth_is_rejected(scalar_chain):
    t = LinearPencil([[0.5]], [[0.3]])
    with pytest.raises(ValueError):
        run_pipeline(t, depth=-1)
    with pytest.raises(ValueError):
        check_minimality(scalar_chain.v, t, depth=-1)
    with pytest.raises(ValueError):
        check_minimality(scalar_chain.u, t, depth=-1)
    for d in (scalar_chain.v, scalar_chain.u):
        with pytest.raises(ValueError):
            check_dilation(d, t, max_len=-1)
        with pytest.raises(ValueError):
            check_uniform(d, t, max_len=-1)
        with pytest.raises(ValueError):
            equivalence_falsifier(d, d, t, depth=-1)
    assert all(r.passed for r in run_pipeline(t, depth=0))


def test_pipeline_deterministic(corpus):
    first = [r.to_json_dict() for r in run_pipeline(corpus[0])]
    second = [r.to_json_dict() for r in run_pipeline(corpus[0])]
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_corpus_is_seeded_and_certified():
    c1 = seeded_corpus()
    c2 = seeded_corpus()
    assert len(c1) == 20
    assert [p.shape[0] for p in c1] == [1 + i % 6 for i in range(20)]
    for p1, p2 in zip(c1, c2):
        assert np.array_equal(p1.a0, p2.a0) and np.array_equal(p1.a1, p2.a1)
    for p in c1:
        verdict = classify(p)
        assert verdict.kind is PencilKind.CONTRACTIVE and verdict.certified
        assert abs(verdict.max_norm_on_grid - 0.95) <= 1e-12
    for p in classical_slice(c1):
        assert classify(p).is_contractive
        assert not np.any(p.a1)


def test_falsifier_shift_vs_lambda_shift():
    shift = builtin_example(BuiltinExample.SHIFT)
    lam_shift = builtin_example(BuiltinExample.LAMBDA_SHIFT)
    report = equivalence_falsifier(shift, lam_shift, ZERO, depth=3)
    assert report.witness["verdict"] == "NOT_EQUIVALENT"
    assert report.witness["invariant"] == "coefficient-norm"
    assert report.witness["coefficient"] == 1
    assert report.witness["first"] == 0.0
    assert abs(report.witness["second"] - 1.0) < 1e-12


def test_falsifier_canonical_vs_nonuniform():
    canonical = canonical_chain(ZERO).v
    vt = builtin_example(BuiltinExample.NON_UNIFORM_V)
    report = equivalence_falsifier(canonical, vt, ZERO, depth=3)
    assert report.witness["verdict"] == "NOT_EQUIVALENT"
    assert report.witness["invariant"] == "uniformity"


def test_falsifier_same_object_inconclusive():
    shift = builtin_example(BuiltinExample.SHIFT)
    report = equivalence_falsifier(shift, shift, ZERO, depth=3)
    assert report.witness == {"verdict": "INCONCLUSIVE"}


def test_falsifier_rejects_non_dilation():
    shift = builtin_example(BuiltinExample.SHIFT)
    half = LinearPencil([[0.5]], [[0.0]])
    with pytest.raises(NotADilation):
        equivalence_falsifier(shift, shift, half, depth=3)


DEMO_CHECKS = {
    DemoName.SZ_NAGY_SCALAR: [
        "sz-nagy-scalar/defect-factor", "sz-nagy-scalar/lambda-independent",
        "uniform", "minimality", "unitarity", "sz-nagy-scalar/gap-space-trivial",
    ],
    DemoName.TWO_SIDED_SHIFT: [
        "two-sided-shift/bilateral-pattern", "two-sided-shift/lambda-independent",
        "two-sided-shift/shift-norm", "minimality-unitary", "uniform-unitary",
    ],
    DemoName.LAMBDA_TWO_SIDED_SHIFT: [
        "lambda-two-sided-shift/extension-property",
        "lambda-two-sided-shift/lambda-coefficient", "unitarity",
        "minimality-unitary", "uniform-unitary",
        "lambda-two-sided-shift/not-equivalent-to-classical",
    ],
    DemoName.NON_UNIFORM_ISO: [
        "non-uniform-iso/apply-formula", "dilation",
        "non-uniform-iso/uniformity-witness", "non-uniform-iso/not-uniform",
        "minimality", "non-uniform-iso/not-equivalent-to-canonical",
    ],
    DemoName.NON_UNIFORM_UNI: [
        "unitarity", "non-uniform-uni/extension-column", "compression-tower",
        "minimality-unitary", "non-uniform-uni/uniformity-witness",
        "non-uniform-uni/not-uniform", "non-uniform-uni/not-equivalent-to-both",
    ],
}


@pytest.mark.parametrize("name", list(DemoName))
def test_demos_all_claims_pass(name):
    reports = demo(name)
    assert [r.check for r in reports] == DEMO_CHECKS[name]
    failed = [r.check for r in reports if not r.passed]
    assert not failed, failed


def test_demo_accepts_string_names():
    assert all(r.passed for r in demo("two-sided-shift"))


def test_report_json_round_trip():
    report = Report.from_residual("example", 1e-12, 1e-9,
                                  witness={"word": "01"},
                                  details=[{"k": 1}])
    data = json.loads(json.dumps(report.to_json_dict()))
    back = Report.from_json_dict(data)
    assert back == report
