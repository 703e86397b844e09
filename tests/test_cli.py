"""Command-line surface: schemas, exit codes, determinism, file output."""

import csv
import io
import json
import subprocess
import sys

import pytest

from qkcomp.cli import main


def run_cli(argv, capsys):
    status = main(argv)
    out = capsys.readouterr().out
    return status, out


def test_model_json_schema(capsys):
    status, out = run_cli(["model", "--n", "2", "--scale", "1/1",
                           "--format", "json"], capsys)
    assert status == 0
    doc = json.loads(out)
    assert doc["command"] == "model"
    assert doc["results"][0]["einstein_constant"] == "-16/1"
    assert doc["results"][0]["c"] == "2/1"
    assert doc["results"][0]["scalar"] == "-128/1"
    for chk in doc["checks"]:
        assert set(chk) == {"name", "expected", "actual", "pass"}
        assert chk["pass"] is True


def test_compare_csv_row_count(capsys):
    status, out = run_cli(["compare", "--delta", "-1", "--n", "2",
                           "--r-max", "5", "--steps", "50",
                           "--format", "csv"], capsys)
    assert status == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 50
    assert list(rows[0]) == ["r", "laplacian", "line_block",
                             "transversal_block", "density"]


def test_compare_flat_erratum_note(capsys):
    status, out = run_cli(["compare", "--delta", "0", "--n", "2",
                           "--r-max", "3", "--steps", "10"], capsys)
    assert status == 0
    doc = json.loads(out)
    assert any("erratum" in note for note in doc.get("notes", []))
    names = [c["name"] for c in doc["checks"]]
    assert any("4n-1" in name for name in names)


def test_lambda1_gap_in_unit_interval(capsys):
    status, out = run_cli(["lambda1", "--n", "2", "--rmax", "12",
                           "--mesh", "20000"], capsys)
    assert status == 0
    doc = json.loads(out)
    row = doc["results"][0]
    assert 0 < row["gap"] < 1
    assert row["target"] == 25


def test_lambda1_study(capsys):
    status, out = run_cli(["lambda1", "--n", "2", "--rmax", "8",
                           "--mesh", "4000", "--study",
                           "--format", "csv"], capsys)
    assert status == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 3
    lams = [float(r["lambda1"]) for r in rows]
    assert lams[0] > lams[1] > lams[2]


def test_check_identities_json(capsys):
    status, out = run_cli(["check-identities", "--dim", "4", "--degree", "2",
                           "--trials", "25", "--seed", "3"], capsys)
    assert status == 0
    doc = json.loads(out)
    assert len(doc["checks"]) == 6
    assert all(c["pass"] for c in doc["checks"])


def test_riccati_command(capsys):
    status, out = run_cli(["riccati", "--delta", "-1", "--block",
                           "transversal", "--samples", "5"], capsys)
    assert status == 0
    doc = json.loads(out)
    assert all(c["pass"] for c in doc["checks"])
    assert doc["params"]["m"] == "4/1"
    assert doc["params"]["K"] == "-1/1"


def test_harmonicity_command(capsys):
    status, out = run_cli(["harmonicity", "--n", "2", "--samples", "5",
                           "--kato-samples", "500"], capsys)
    assert status == 0
    doc = json.loads(out)
    assert all(c["pass"] for c in doc["checks"])


def test_volume_command(capsys):
    status, out = run_cli(["volume", "--delta", "0", "--n", "2",
                           "--r-max", "2", "--steps", "8"], capsys)
    assert status == 0
    doc = json.loads(out)
    assert all(c["pass"] for c in doc["checks"])
    assert len(doc["results"]) == 8


def test_determinism_identical_bytes(capsys):
    args = ["compare", "--delta", "-1", "--n", "2", "--r-max", "4",
            "--steps", "20", "--format", "json"]
    _, out1 = run_cli(args, capsys)
    _, out2 = run_cli(args, capsys)
    assert out1 == out2


def test_seed_env_override(capsys, monkeypatch):
    args = ["check-identities", "--dim", "4", "--degree", "1",
            "--trials", "5", "--seed", "1"]
    _, base = run_cli(args, capsys)
    monkeypatch.setenv("QKCOMP_SEED", "99")
    _, overridden = run_cli(args, capsys)
    doc = json.loads(overridden)
    assert doc["params"]["seed"] == "99"
    assert json.loads(base)["params"]["seed"] == "1"


def test_out_file_and_components(tmp_path, capsys):
    out_json = tmp_path / "model.json"
    comp_csv = tmp_path / "components.csv"
    status = main(["model", "--n", "2", "--out", str(out_json),
                   "--components", str(comp_csv)])
    assert status == 0
    doc = json.loads(out_json.read_text())
    assert doc["command"] == "model"
    rows = list(csv.DictReader(comp_csv.open()))
    assert list(rows[0]) == ["A", "B", "C", "D", "value"]
    lookup = {(r["A"], r["B"], r["C"], r["D"]): r["value"] for r in rows}
    assert lookup[("1", "2", "1", "2")] == "-4/1"
    # antisymmetric partners present, no zero rows
    assert lookup[("2", "1", "1", "2")] == "4/1"
    assert all(r["value"] != "0/1" for r in rows)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--delta", "7", "--r-max", "3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["model", "--scale", "nonsense"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [["riccati", "--samples", "0"],
                                  ["harmonicity", "--samples", "0"],
                                  ["harmonicity", "--kato-samples", "0"],
                                  ["harmonicity", "--kato-samples", "-3"],
                                  ["compare", "--r-max", "3", "--steps", "0"],
                                  ["volume", "--r-max", "3", "--steps", "0"],
                                  ["riccati", "--steps", "0"],
                                  ["check-identities", "--dim", "0"],
                                  ["check-identities", "--dim", "4", "--trials", "0"],
                                  ["check-identities", "--dim", "4", "--trials", "-2"]])
def test_empty_sample_is_usage_error(argv, capsys):
    # zero samples would pass vacuously; it is bad input, not a result
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "positive integer" in capsys.readouterr().err


def test_log_derivative_check_needs_a_grid_point(capsys):
    # the check skips r_min, so one step leaves it nothing to pass on
    status, out = run_cli(["compare", "--r-max", "3", "--steps", "1"], capsys)
    fd = [c for c in json.loads(out)["checks"] if c["name"].startswith("(d/dr) log J")]
    assert status == 1
    assert fd == [{"name": "(d/dr) log J = laplacian at 0 grid points (1e-8)",
                   "expected": "true", "actual": "0.000e+00", "pass": False}]
    status, out = run_cli(["compare", "--r-max", "3", "--steps", "2"], capsys)
    assert status == 0
    assert "(d/dr) log J = laplacian at 1 grid points (1e-8)" in out


@pytest.mark.parametrize("argv, criteria, prefix", [
    (["check-identities", "--dim", "4", "--trials", "100", "--seed", "1400"],
     ("criterion_1_identities",), "dim 4 "),
    (["harmonicity", "--n", "3", "--seed", "1503"],
     ("criterion_2_harmonicity",), "n=3 "),
    (["model", "--n", "2", "--scale", "1/4"],
     ("criterion_5_model_curvature", "criterion_6_level_sets"), ("[n=2] ", "n=2:")),
])
def test_subcommand_reproduces_suite_slice(argv, criteria, prefix, capsys):
    # a subcommand at a criterion's parameters builds that criterion's checks
    from qkcomp import suite

    status, out = run_cli(argv, capsys)
    assert status == 0
    got = json.loads(out)["checks"]
    want = [c.as_dict() for name in criteria for c in getattr(suite, name)().checks
            if c.name.startswith(prefix)]
    assert want
    assert got[:len(want)] == want


def test_domain_error_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--delta", "1", "--n", "2", "--r-max", "3",
              "--steps", "10"])  # beyond the pi/2 diameter
    assert exc.value.code == 2


def test_module_entry_point():
    import os
    from pathlib import Path

    import qkcomp

    env = dict(os.environ)
    pkg_root = str(Path(qkcomp.__file__).parent.parent)
    env["PYTHONPATH"] = pkg_root + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "qkcomp", "check-identities", "--dim", "2",
         "--trials", "5"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["command"] == "check-identities"
