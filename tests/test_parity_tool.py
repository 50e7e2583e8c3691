"""``tools/parity.py --compare`` on small synthetic parity files."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "parity", Path(__file__).resolve().parents[1] / "tools" / "parity.py")
parity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(parity)


def _report(check="dilation", passed=True, residual=0.0, verdict=None):
    return {"check": check, "pass": passed, "worstResidual": residual,
            "witness": {"verdict": verdict} if verdict else None}


def _write(path, cases):
    path.write_text("".join(json.dumps({"case": case, "reports": reports}) + "\n"
                            for case, reports in cases.items()))
    return str(path)


@pytest.fixture
def files(tmp_path):
    def write(old, new):
        return _write(tmp_path / "old.jsonl", old), _write(tmp_path / "new.jsonl", new)
    return write


def test_one_sided_cases_are_listed_and_the_rest_compared(files, capsys):
    shared = {"a": [_report()], "b": [_report("uniform", residual=1e-16)]}
    old, new = files({**shared, "gone": [_report()]},
                     {**shared, "b": [_report("uniform", residual=3e-16)],
                      "added": [_report(passed=False)]})
    assert parity.compare(old, new) == 0
    out = capsys.readouterr().out.splitlines()
    assert f"gone: only in {old}" in out
    assert f"added: only in {new}" in out
    assert "b  uniform  worstResidual  max |delta| 2e-16" in out
    assert out[-1] == ("1 fields differ; 2 cases in one file only; "
                       "report names and verdicts of shared cases agree")


@pytest.mark.parametrize("changed", [
    [_report(passed=False, verdict="INCONCLUSIVE")],  # a pass verdict
    [_report(verdict="NOT_EQUIVALENT")],              # a falsifier verdict
    [_report("uniform", verdict="INCONCLUSIVE")],     # a report name
    [_report(verdict="INCONCLUSIVE")] * 2,            # a report added
])
def test_a_shared_case_with_another_verdict_or_name_fails(files, capsys, changed):
    old, new = files({"a": [_report(verdict="INCONCLUSIVE")], "only-old": []},
                     {"a": changed})
    assert parity.compare(old, new) == 1
    assert capsys.readouterr().out.splitlines()[-1].endswith("shared cases DIFFER")


def test_identical_files_compare_clean(files, capsys):
    cases = {"a": [_report(verdict="INCONCLUSIVE")], "b": [_report("uniform")]}
    assert parity.compare(*files(cases, cases)) == 0
    assert capsys.readouterr().out == ("0 fields differ; 0 cases in one file only; "
                                       "report names and verdicts of shared cases agree\n")
