import json
import math

import numpy as np
import pytest

from pencildil import (FejerRieszFactor, LinearPencil, Report, canonical_chain,
                       check_biinner, classify, factorization, verify)
from pencildil.cli import load_pencil, main, save_pencil
from pencildil.factorization import factorization_residuals
from pencildil.pencil import unit_circle_grid
from pencildil.unidil import q_identity_residuals, theta_boundary_residuals


def write_pencil(tmp_path, name, a0, a1):
    path = tmp_path / name
    save_pencil(str(path), LinearPencil(a0, a1))
    return str(path)


@pytest.fixture
def scalar_file(tmp_path):
    return write_pencil(tmp_path, "scalar.json", [[0.5]], [[0.3]])


def test_pencil_file_round_trip(tmp_path, scalar_file):
    p = load_pencil(scalar_file)
    other = tmp_path / "copy.json"
    save_pencil(str(other), p)
    q = load_pencil(str(other))
    assert np.array_equal(p.a0, q.a0) and np.array_equal(p.a1, q.a1)


def test_classify_contractive_output(capsys, scalar_file):
    assert main(["classify", scalar_file]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "contractive (certified, max-norm 0.800000)"


def test_classify_unitary_and_failing(capsys, tmp_path):
    path = write_pencil(tmp_path, "proj.json", np.diag([1.0, 0.0]),
                        np.diag([0.0, 1.0]))
    assert main(["classify", path]) == 0
    assert capsys.readouterr().out.strip() == "unitary"
    bad = write_pencil(tmp_path, "big.json", [[0.8]], [[0.5]])
    assert main(["classify", bad]) == 1


def test_classify_malformed_file_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["classify", str(path)]) == 2
    assert "input error" in capsys.readouterr().err


def test_classify_negative_tol_exit_2(capsys, scalar_file):
    # a negative tolerance used to turn 0.5 + 0.3*lam into "not contractive"
    with pytest.raises(ValueError):
        classify(load_pencil(scalar_file), tol=-1.0)
    assert main(["classify", scalar_file, "--tol", "-1"]) == 2
    captured = capsys.readouterr()
    assert "input error" in captured.err and captured.out == ""
    assert main(["classify", scalar_file, "--tol", "0"]) == 0


def test_dilate_scalar_values(capsys, tmp_path, scalar_file):
    out = tmp_path / "dilation.json"
    assert main(["dilate", scalar_file, "--kind", "unitary",
                 "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "dimY = 1" in text and "dimU = 1" in text
    data = json.loads(out.read_text())
    f0 = data["f0"][0][0][0]
    f1 = data["f1"][0][0][0]
    assert abs(f0 - 0.789898) < 1e-6 and abs(f1 + 0.189898) < 1e-6
    assert "q0" in data and "subspaces" in data


def test_dilate_reports_classical_and_degenerate(capsys, tmp_path):
    zero = write_pencil(tmp_path, "zero.json", [[0.0]], [[0.0]])
    assert main(["dilate", zero]) == 0
    assert "classical Sz.-Nagy case" in capsys.readouterr().out
    iso = write_pencil(tmp_path, "iso.json", np.diag([1.0, 0.0]),
                       np.diag([0.0, 1.0]))
    assert main(["dilate", iso]) == 0
    assert "dilation equals input" in capsys.readouterr().out


def test_dilate_noncontractive_exit_1(tmp_path, capsys):
    bad = write_pencil(tmp_path, "big.json", [[0.8]], [[0.5]])
    assert main(["dilate", bad]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("scale", [1e160, 1e300])
def test_huge_pencil_is_not_contractive_exit_1(tmp_path, capsys, scale):
    # a valid input: not "input error" (exit 2) from an overflowed Gram
    rng = np.random.default_rng(160)
    path = write_pencil(tmp_path, "huge.json", scale * rng.standard_normal((3, 3)),
                        scale * rng.standard_normal((3, 3)))
    assert main(["classify", path]) == 1
    assert capsys.readouterr().out.startswith("not contractive")
    assert main(["verify", path]) == 1
    assert "pipeline requires a contractive pencil" in capsys.readouterr().err


def test_verify_json_round_trips(capsys, scalar_file):
    assert main(["verify", scalar_file, "--json"]) == 0
    reports = [Report.from_json_dict(d)
               for d in json.loads(capsys.readouterr().out)]
    assert reports and all(r.passed for r in reports)


@pytest.mark.parametrize("depth", ["-1", "-3"])
def test_verify_negative_depth_exit_2(capsys, scalar_file, depth):
    assert main(["verify", scalar_file, "--depth", depth]) == 2
    captured = capsys.readouterr()
    assert "input error" in captured.err and "pass" not in captured.out


def test_verify_boundary_pencil_passes_uncertified(tmp_path, capsys):
    # |T(1)| = 1: the defect vanishes at lam = 1, yet the factorization
    # converges to the outer factor F = 0.5 - 0.5*lam (root z = 1).
    path = write_pencil(tmp_path, "boundary.json", [[0.5]], [[0.5]])
    assert main(["verify", path, "--json"]) == 0
    reports = [Report.from_json_dict(d)
               for d in json.loads(capsys.readouterr().out)]
    assert len(reports) == 13 and all(r.passed for r in reports)
    assert reports[0].check == "classify"
    assert reports[0].witness == {"kind": "contractive", "certified": False}

    out = tmp_path / "dilation.json"
    assert main(["dilate", path, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["dimY"] == 1
    assert abs(complex(*data["f0"][0][0]) - 0.5) <= 1e-10
    assert abs(complex(*data["f1"][0][0]) + 0.5) <= 1e-10


def test_no_convergence_prints_last_residual_without_advice(monkeypatch, capsys,
                                                            scalar_file):
    # No subcommand exposes max_iter, and an exhausted budget is not the
    # only NoConvergence: here the factor fails the outer-root check.
    monkeypatch.setattr(factorization, "outer_roots", lambda f: np.array([0.25 + 0j]))
    assert main(["verify", scalar_file]) == 1
    err = capsys.readouterr().err
    assert "error: computed factor is not outer" in err
    assert "last residual: 7.500e-01" in err
    assert "max_iter" not in err


def test_demo_names_and_witness_output(capsys):
    assert main(["demo", "non-uniform-iso"]) == 0
    out = capsys.readouterr().out
    assert "P_H V(-1)V(1)h = -h" in out
    assert main(["demo", "two-sided-shift"]) == 0
    assert "bilateral-pattern" in capsys.readouterr().out
    assert main(["demo", "lambda-two-sided-shift"]) == 0
    assert "NOT_EQUIVALENT" in capsys.readouterr().out


def test_demo_unknown_name_exit_2():
    with pytest.raises(SystemExit) as info:
        main(["demo", "bogus"])
    assert info.value.code == 2


def test_residuals_grid_contract(tmp_path, capsys, scalar_file):
    out = tmp_path / "resid.csv"
    assert main(["residuals", scalar_file, "--check", "factorization",
                 "--grid", "8", "--csv", str(out)]) == 0
    raw = out.read_bytes().decode()
    lines = raw.strip().split("\n")
    assert lines[0] == "lambda_re,lambda_im,residual"
    assert len(lines) == 9
    assert "\r" not in raw
    for k, line in enumerate(lines[1:]):
        re_s, im_s, r_s = line.split(",")
        lam = complex(float(re_s), float(im_s))
        assert abs(lam - np.exp(2j * math.pi * k / 8)) < 1e-12
        assert float(r_s) <= 1e-9


@pytest.mark.parametrize("grid", ["0", "-2"])
def test_residuals_grid_below_one_exit_2(capsys, scalar_file, grid):
    assert main(["residuals", scalar_file, "--grid", grid]) == 2
    captured = capsys.readouterr()
    assert "input error" in captured.err and captured.out == ""


def test_residuals_theta_zero_pencil(tmp_path, capsys):
    zero = write_pencil(tmp_path, "zero.json", [[0.0]], [[0.0]])
    assert main(["residuals", zero, "--check", "theta", "--grid", "8"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert all(float(line.split(",")[2]) <= 1e-12 for line in lines[1:])


def test_residuals_deterministic(tmp_path, scalar_file):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["residuals", scalar_file, "--check", "unitarity",
                 "--grid", "16", "--csv", str(a)]) == 0
    assert main(["residuals", scalar_file, "--check", "unitarity",
                 "--grid", "16", "--csv", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def _residual_column(path, check, grid, out):
    assert main(["residuals", path, "--check", check, "--grid", str(grid),
                 "--csv", str(out)]) == 0
    return [float(line.split(",")[2])
            for line in out.read_text().strip().split("\n")[1:]]


@pytest.fixture
def perturbed_factor(monkeypatch):
    """Every chain gets its factor moved by 1e-11, small enough for the
    construction's own isometry cutoffs, so the three identities are off
    by far more than round-off."""
    exact = verify.bauer_factorize

    def bumped(g, grid_size):
        f = exact(g, grid_size=grid_size)
        return FejerRieszFactor(f.f0 + 1e-11, f.f1)

    monkeypatch.setattr(verify, "bauer_factorize", bumped)


def _verify_report(capsys, path, check):
    capsys.readouterr()
    main(["verify", path, "--json"])
    reports = json.loads(capsys.readouterr().out)
    return next(Report.from_json_dict(d) for d in reports if d["check"] == check)


def _assert_within_bound(column, report, round_off=1e-14):
    # The report lies between the circle maximum M and 3M, and a degree-1
    # trigonometric polynomial sampled at G points reaches M cos(pi / G)
    # there.  The bound is tight for scalar pencils, hence the slack.
    grid_max = max(column)
    assert grid_max > 1000 * round_off
    assert grid_max <= report.worst_residual + round_off
    assert report.worst_residual <= (3 * grid_max / math.cos(math.pi / len(column))
                                     + round_off)


def test_residuals_unitarity_matches_q_identities(tmp_path, capsys, scalar_file,
                                                  perturbed_factor):
    column = _residual_column(scalar_file, "unitarity", 32, tmp_path / "q.csv")
    chain = canonical_chain(load_pencil(scalar_file))
    assert column == list(q_identity_residuals(chain.v, chain.q,
                                               unit_circle_grid(32)))
    _assert_within_bound(column, _verify_report(capsys, scalar_file, "q-identities"))


def test_residuals_factorization_matches_verify(tmp_path, capsys,
                                                perturbed_factor):
    path = write_pencil(tmp_path, "p.json", [[0.4, 0.1j], [0.0, 0.3]],
                        [[0.2, 0.0], [0.25, -0.1]])
    column = _residual_column(path, "factorization", 64, tmp_path / "f.csv")
    chain = canonical_chain(load_pencil(path))
    assert column == list(factorization_residuals(chain.pencil, chain.factor,
                                                  unit_circle_grid(64)))
    _assert_within_bound(column, _verify_report(capsys, path, "factorization"))


def test_residuals_theta_matches_biinner_boundary(tmp_path, scalar_file,
                                                  perturbed_factor):
    column = _residual_column(scalar_file, "theta", 64, tmp_path / "t.csv")
    chain = canonical_chain(load_pencil(scalar_file))
    assert column == list(theta_boundary_residuals(chain.theta,
                                                   unit_circle_grid(64)))
    report = check_biinner(chain.theta, chain.factor.dim_y, 1, chain.u.dim_u,
                           grid_size=64)
    assert report.witness == {"where": "boundary"}
    _assert_within_bound(column, report)


def test_commands_do_not_mutate_input(tmp_path, scalar_file):
    before = open(scalar_file, "rb").read()
    main(["classify", scalar_file])
    main(["verify", scalar_file])
    main(["residuals", scalar_file, "--grid", "8"])
    assert open(scalar_file, "rb").read() == before
