import json
import math

import numpy as np
import pytest

from pencildil import (LinearPencil, Report, canonical_chain, check_biinner,
                       verify_factorization, verify_q_identities)
from pencildil.cli import load_pencil, main, save_pencil


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


def test_verify_boundary_pencil_exit_1(tmp_path, capsys):
    # |T(1)| = 1: factorization stalls, a mathematical failure (exit 1)
    path = write_pencil(tmp_path, "boundary.json", [[0.5]], [[0.5]])
    assert main(["verify", path]) == 1
    err = capsys.readouterr().err
    assert "residual" in err


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


def test_residuals_unitarity_matches_q_identities(tmp_path, scalar_file):
    out = tmp_path / "q.csv"
    assert main(["residuals", scalar_file, "--check", "unitarity",
                 "--grid", "32", "--csv", str(out)]) == 0
    column = [float(line.split(",")[2])
              for line in out.read_text().strip().split("\n")[1:]]
    chain = canonical_chain(load_pencil(scalar_file))
    report = verify_q_identities(chain.v, chain.q, grid_size=32)
    assert len(column) == 32
    assert report.worst_residual == max(column)


def _residual_column(path, check, grid, out):
    assert main(["residuals", path, "--check", check, "--grid", str(grid),
                 "--csv", str(out)]) == 0
    return [float(line.split(",")[2])
            for line in out.read_text().strip().split("\n")[1:]]


def test_residuals_factorization_matches_verify(tmp_path):
    path = write_pencil(tmp_path, "p.json", [[0.4, 0.1j], [0.0, 0.3]],
                        [[0.2, 0.0], [0.25, -0.1]])
    column = _residual_column(path, "factorization", 64, tmp_path / "f.csv")
    chain = canonical_chain(load_pencil(path))
    assert len(column) == 64
    assert max(column) == verify_factorization(chain.pencil, chain.factor, 64)


def test_residuals_theta_matches_biinner_boundary(tmp_path, scalar_file):
    column = _residual_column(scalar_file, "theta", 64, tmp_path / "t.csv")
    chain = canonical_chain(load_pencil(scalar_file))
    report = check_biinner(chain.theta, chain.factor.dim_y, 1, chain.u.dim_u,
                           grid_size=64)
    assert report.witness["where"] == "boundary"
    k = column.index(max(column))
    lam = np.exp(2j * math.pi * k / 64)
    assert report.worst_residual == max(column) > 0.0
    assert report.witness["lambda"] == pytest.approx([lam.real, lam.imag], abs=1e-15)


def test_commands_do_not_mutate_input(tmp_path, scalar_file):
    before = open(scalar_file, "rb").read()
    main(["classify", scalar_file])
    main(["verify", scalar_file])
    main(["residuals", scalar_file, "--grid", "8"])
    assert open(scalar_file, "rb").read() == before
