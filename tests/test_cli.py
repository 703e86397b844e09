"""Command-line surface: schemas, exit codes, determinism, file output."""

import csv
import hashlib
import io
import json
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import qkcomp.cli
import qkcomp.quaternionic
import qkcomp.spectral
import qkcomp.suite
from qkcomp.cli import build_parser, main
from qkcomp.model import ModelConstructionError
from qkcomp.report import json_value
from qkcomp.riccati import ComparisonFunction
from qkcomp.spectral import RadialProblem, convergence_study


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


@pytest.mark.parametrize("study", [False, True])
def test_lambda1_reports_a_residual_it_cannot_reach(capsys, study):
    # at r_max 2 and mesh 20000 the residual's rounding floor lies above
    # 1e-8: the solver's ResidualError becomes the failed residual check,
    # with the residual reached, not a traceback
    status, out = run_cli(["lambda1", "--rmax", "2"] + ["--study"] * study, capsys)
    assert status == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    residual = checks["residual within 1e-08"]
    assert residual["pass"] is False
    assert 1e-8 < float(residual["actual"]) < 1e-6
    assert all(c["pass"] for name, c in checks.items() if name != "residual within 1e-08")


def test_lambda1_study_names_every_radius_that_misses_the_residual(capsys):
    # at --rmax 2 all three solves of the study (r_max 1, 1.5, 2) stop
    # above 1e-8; the check names them and reports the largest residual
    status, out = run_cli(["lambda1", "--rmax", "2", "--study"], capsys)
    assert status == 1
    doc = json.loads(out)
    assert doc["results"] == []
    check, = doc["checks"]
    assert check["name"] == "residual within 1e-08" and check["pass"] is False
    assert check["expected"] == "<= 1e-08 at r_max=1.0, 1.5, 2.0"
    assert 1e-8 < float(check["actual"]) < 1e-6


def test_lambda1_study_keeps_the_rows_that_passed(capsys, monkeypatch):
    # only the middle radius misses the residual: the other two rows stay
    solve = qkcomp.spectral.lambda1_dirichlet

    def failing_at_6(p):
        est = solve(p)
        if p.r_max == 6.0:
            raise qkcomp.spectral.ResidualError(
                qkcomp.spectral.SpectralEstimate(est.lambda1, 2e-8, est.iterations))
        return est

    monkeypatch.setattr(qkcomp.spectral, "lambda1_dirichlet", failing_at_6)
    status, out = run_cli(["lambda1", "--rmax", "8", "--mesh", "4000", "--study"], capsys)
    assert status == 1
    doc = json.loads(out)
    assert [row["r_max"] for row in doc["results"]] == [4.0, 8.0]
    check, = doc["checks"]
    assert (check["expected"], check["actual"], check["pass"]) == \
        ("<= 1e-08 at r_max=6.0", "2.000e-08", False)


def test_lambda1_study_solves_from_rmin(capsys):
    # the study once solved every radius from a hidden r_min of 1e-3 while
    # reporting the --rmin it was given
    argv = ["lambda1", "--rmax", "8", "--mesh", "4000"]
    status, out = run_cli(argv + ["--rmin", "0.05", "--study"], capsys)
    assert status == 0
    rows = json.loads(out)["results"]
    want = convergence_study(RadialProblem(2, 0.05, 8.0, 4000))
    assert rows == [{k: json_value(v) for k, v in row.items()} for row in want]
    # the last radius is the single solve's problem
    _status, out = run_cli(argv + ["--rmin", "0.05"], capsys)
    assert {"n": 2, **rows[-1]} == json.loads(out)["results"][0]
    status, out = run_cli(argv + ["--rmin", "0.001", "--study"], capsys)
    assert status == 0
    assert json.loads(out)["results"] != rows


@pytest.mark.parametrize("study", [False, True])
@pytest.mark.parametrize("argv, message", [
    (["--rmin", "13"], "need r_min < r_max"),
    (["--mesh", "10"], "need at least 64 mesh points"),
])
def test_lambda1_refuses_a_bad_problem_alike_on_both_paths(study, argv, message, capsys):
    # the study once ran --rmin 13 from r_min 1e-3 and --mesh 10 at mesh 64
    with pytest.raises(SystemExit) as exc:
        main(["lambda1", *argv] + ["--study"] * study)
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"qkcomp: {message}\n"


def test_lambda1_study_names_its_first_radius_when_r_min_reaches_it(capsys):
    # r_min 5 < r_max 8 is a range, but the study's first radius is 8 / 2
    with pytest.raises(SystemExit) as exc:
        main(["lambda1", "--study", "--rmin", "5", "--rmax", "8"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == \
        "qkcomp: need r_min < the study's first radius r_max / 2 = 4.0\n"


def test_lambda1_defaults_are_the_radial_problem_defaults():
    args = build_parser().parse_args(["lambda1"])
    p = RadialProblem(args.n)
    assert (args.rmin, args.rmax, args.mesh) == (p.r_min, p.r_max, p.mesh_points)


@pytest.mark.parametrize("study", [False, True])
def test_lambda1_residual_verdict_is_the_solver_s(capsys, monkeypatch, study):
    # at --rmax 2 the residual stops between 1e-8 and 1e-6 (see above); the
    # single solve once compared it with a literal 1e-8 of its own, so only
    # the study followed a changed RESIDUAL_TARGET, and the check's name and
    # the study's expected text were literals too.  A study that passes
    # reports its convergence check in place of the residual check
    argv = ["lambda1", "--rmax", "2"] + ["--study"] * study
    monkeypatch.setattr(qkcomp.spectral, "RESIDUAL_TARGET", 1e-6)
    status, out = run_cli(argv, capsys)
    checks = json.loads(out)["checks"]
    assert status == 0
    assert all(c["pass"] for c in checks)
    assert ("residual within 1e-06" in [c["name"] for c in checks]) is not study
    monkeypatch.setattr(qkcomp.spectral, "RESIDUAL_TARGET", 1e-12)
    status, out = run_cli(argv, capsys)
    check, = [c for c in json.loads(out)["checks"] if c["name"].startswith("residual")]
    assert status == 1
    assert (check["name"], check["pass"]) == ("residual within 1e-12", False)
    if study:
        assert check["expected"] == "<= 1e-12 at r_max=1.0, 1.5, 2.0"


@pytest.mark.parametrize("argv, flag", [
    (["suite"], "--out"),
    (["lambda1", "--rmax", "8", "--mesh", "4000"], "--out"),
    (["model", "--n", "2"], "--components"),
])
def test_unwritable_output_path_is_usage_error(argv, flag, tmp_path, capsys, monkeypatch):
    # open() once ended in a FileNotFoundError traceback with exit 1, the
    # status of a failed check, and came after the work: the suite ran all
    # eight criteria first.  The path now opens before the command runs
    def must_not_run(args):
        raise AssertionError(f"{argv[0]} ran before {flag} was opened")

    monkeypatch.setattr(qkcomp.cli, f"cmd_{argv[0]}", must_not_run)
    path = tmp_path / "missing" / "out.txt"
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, str(path)])
    assert exc.value.code == 2
    assert capsys.readouterr().err == \
        f"qkcomp: cannot write {path}: No such file or directory\n"


def test_check_identities_json(capsys):
    status, out = run_cli(["check-identities", "--dim", "4", "--degree", "2"], capsys)
    assert status == 0
    doc = json.loads(out)
    assert len(doc["checks"]) == 6
    assert all(c["pass"] for c in doc["checks"])
    assert doc["params"] == {"dim": "4", "degree": "2"}
    assert doc["checks"][0]["expected"] == "exact on the full basis (6 cases)"


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


def test_harmonicity_takes_a_negative_seed(capsys):
    status, _ = run_cli(["harmonicity", "--seed", "-3", "--kato-samples", "100"], capsys)
    assert status == 0


def test_closed_form_check_allows_rounding_above_8192(capsys):
    # the grid starts at r = 1e-4, where the Laplacian is 1.9e5 and one ulp 2.9e-11
    status, out = run_cli(["compare", "--n", "5", "--delta", "0", "--r-max", "0.001",
                           "--steps", "10"], capsys)
    check = json.loads(out)["checks"][0]
    assert check["name"] == "delta=0: laplacian = line + (n-1) transversal blocks"
    assert check["pass"] is True


def test_volume_command(capsys):
    status, out = run_cli(["volume", "--delta", "0", "--n", "2",
                           "--r-max", "2", "--steps", "8"], capsys)
    assert status == 0
    doc = json.loads(out)
    assert all(c["pass"] for c in doc["checks"])
    assert len(doc["results"]) == 8


def test_volume_refuses_an_underflowing_ball(capsys):
    # the ball volume at r_max / 4 = 2.5e-301 underflows to 0, where the
    # ratio once divided by zero
    with pytest.raises(SystemExit) as exc:
        main(["volume", "--r-max", "1e-300"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith(
        "qkcomp: ball volume at r=2.5e-301 is below the smallest normal float")


def test_determinism_identical_bytes(capsys):
    args = ["compare", "--delta", "-1", "--n", "2", "--r-max", "4",
            "--steps", "20", "--format", "json"]
    _, out1 = run_cli(args, capsys)
    _, out2 = run_cli(args, capsys)
    assert out1 == out2


def test_out_file_and_components(tmp_path, capsys):
    out_json = tmp_path / "model.json"
    comp_csv = tmp_path / "components.csv"
    status = main(["model", "--n", "2", "--out", str(out_json),
                   "--components", str(comp_csv)])
    assert status == 0
    doc = json.loads(out_json.read_text())
    assert doc["command"] == "model"
    with comp_csv.open() as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["A", "B", "C", "D", "value"]
    lookup = {(r["A"], r["B"], r["C"], r["D"]): r["value"] for r in rows}
    assert lookup[("1", "2", "1", "2")] == "-4/1"
    # antisymmetric partners present, no zero rows
    assert lookup[("2", "1", "1", "2")] == "4/1"
    assert all(r["value"] != "0/1" for r in rows)


@pytest.mark.parametrize("n, sha256", [
    (2, "7b60c064684719fb38f27b66d487fc7d8d7e6fbbd27649bc68a517a92941f304"),
    (3, "453e6773a6ddfef2d1a622ee91e852821ed2cab608a9678dc4032eacfe0731fb"),
])
def test_components_csv_bytes(tmp_path, n, sha256):
    # every nonzero R_ABCD of the model, pinned byte for byte
    comp_csv = tmp_path / "components.csv"
    assert main(["model", "--n", str(n), "--out", str(tmp_path / "model.json"),
                 "--components", str(comp_csv)]) == 0
    assert hashlib.sha256(comp_csv.read_bytes()).hexdigest() == sha256


# JSON of the reports that read Hessians and the horosphere tables: a
# Fraction value that turns into an int prints as "14" instead of "14/1"
@pytest.mark.parametrize("argv, sha256", [
    (["model", "--n", "2", "--scale", "1/4"],
     "bd7a9ac97eb155c5f76b35b2773554db9af80acd8ebce5b4f6885b2645e95268"),
    (["model", "--n", "3", "--scale", "1/4"],
     "5107f283e58c35136aa0edb83b33fd455047530f177ee9c82656d5be9dc84119"),
    (["harmonicity", "--n", "2", "--samples", "50", "--kato-samples", "1000"],
     "7a6b870e3035bfdee22a0203b00ba2d59442e452012c949ccd92b2cd1aab678b"),
    (["harmonicity", "--n", "3", "--samples", "50", "--kato-samples", "1000"],
     "b8e4e3b870496b1e13386edc5da76839d1658fa356438477aab39ad82bbd1af1"),
])
def test_report_json_bytes(tmp_path, argv, sha256):
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--delta", "7", "--r-max", "3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["model", "--scale", "nonsense"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["model", "--scale", "10000000000000000"])  # s^2 = 1e32 passes int64
    assert exc.value.code == 2


def test_model_size_bound_is_a_usage_error(capsys):
    # the curvature tables hold (4n)^4 entries: n = 9 passes the bound
    # n <= 8 and is refused before any table is built
    with pytest.raises(SystemExit) as exc:
        main(["model", "--n", "9"])
    assert exc.value.code == 2
    assert "need n <= 8, got n=9" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["1", "0", "-3"])
def test_harmonicity_refuses_n_below_2(n, capsys):
    # the defect checks reach `frame_dim`, which refuses n < 2, before
    # they index a line or size a table
    with pytest.raises(SystemExit) as exc:
        main(["harmonicity", "--n", n])
    assert exc.value.code == 2
    assert "need n >= 2" in capsys.readouterr().err


def test_harmonicity_refuses_n_past_the_int64_masks(capsys):
    # at n = 16 a monomial mask of R^64 leaves int64: bad input, refused
    # by the chain maps before they build a table, not a traceback
    with pytest.raises(SystemExit) as exc:
        main(["harmonicity", "--n", "16", "--samples", "1", "--kato-samples", "10"])
    assert exc.value.code == 2
    assert "out of the int64 range: monomial mask" in capsys.readouterr().err


def test_internal_model_failure_is_not_a_usage_error(monkeypatch):
    # no Einstein scale or a failing Jacobi identity is a fault of the
    # program, not of its input: it must not exit 2
    def fail():
        raise ModelConstructionError("need exactly one Einstein scale, found []")
    monkeypatch.setattr(qkcomp.cli, "bracket_scale", fail)
    with pytest.raises(ModelConstructionError):
        main(["model", "--n", "2"])


@pytest.mark.parametrize("argv", [["riccati", "--samples", "0"],
                                  ["harmonicity", "--samples", "0"],
                                  ["harmonicity", "--kato-samples", "0"],
                                  ["harmonicity", "--kato-samples", "-3"],
                                  ["compare", "--r-max", "3", "--steps", "0"],
                                  ["volume", "--r-max", "3", "--steps", "0"],
                                  ["riccati", "--steps", "0"],
                                  ["check-identities", "--dim", "0"],
                                  ["check-identities", "--dim", "-2"],
                                  ["check-identities", "--dim", "4", "--degree", "0"]])
def test_empty_sample_is_usage_error(argv, capsys):
    # zero samples would pass vacuously; it is bad input, not a result
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["check-identities", "--dim", "13"],
                                  ["check-identities", "--dim", "4", "--degree", "5"]])
def test_identity_domain_is_usage_error(argv, capsys):
    # the identities are checked for 1 <= degree <= dim <= 12 only
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "<= 12" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["compare", "volume", "riccati"])
def test_reversed_radius_range_is_usage_error(command, capsys):
    # a descending table is not a radius range; compare, volume and riccati
    # all refuse
    with pytest.raises(SystemExit) as exc:
        main([command, "--r-min", "5", "--r-max", "3", "--steps", "4"])
    assert exc.value.code == 2
    assert "need r_min < r_max" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["compare", "volume", "riccati", "lambda1"])
@pytest.mark.parametrize("flag", ["--r-min", "--r-max"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_radius_is_usage_error(command, flag, value, capsys):
    # every comparison with NaN is false, so a NaN radius once slipped past
    # the range and domain checks: riccati passed every check on a table
    # of start points, volume raised an internal error, and lambda1 ended
    # in a RuntimeError at --rmax inf (its flags are --rmin and --rmax)
    other = {"--r-min": ["--r-max", "3"], "--r-max": ["--r-min", "0.5"]}[flag]
    argv = [f"{flag}={value}", *other, "--steps", "4"]
    if command == "lambda1":
        argv = [arg.replace("--r-", "--r") for arg in argv[:3]] + ["--mesh", "200"]
    with pytest.raises(SystemExit) as exc:
        main([command, *argv])
    assert exc.value.code == 2
    assert f"need a finite radius, got '{value}'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, radius", [
    (["volume", "--r-max", "200", "--steps", "2"], "r=100.0"),
    (["volume", "--n", "40", "--r-max", "10"], "r=5.2"),
    (["compare", "--r-max", "400", "--steps", "2"], "r=200.0"),
    (["lambda1", "--rmax", "80", "--mesh", "200"], "r=71.8"),
])
def test_overflowing_density_is_usage_error(argv, radius, capsys):
    # J overflows to inf near r = 71.6 at n = 2 (sooner for larger n): volume
    # once ended in the quadrature's RuntimeError, compare failed its
    # log-derivative check on nan and lambda1's bisection raised on a nan
    # bracket; the first overflowing radius (a table or mesh node) is named
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"qkcomp: area density J overflows the float range at {radius}")


@pytest.mark.parametrize("argv", [
    ["volume", "--delta", "0", "--r-max", "1e40", "--steps", "2"],
    ["volume", "--delta", "0", "--n", "5", "--r-max", "1e16", "--steps", "2"],
])
def test_overflowing_volume_integral_is_usage_error(argv, capsys):
    # J = r^{4n-1} stays finite at r_max / 2, but its integral r^{4n}/4n
    # does not, and the quadrature names the interval
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("qkcomp: integral over [0.0, ")
    assert "overflows the float range" in err


def test_volume_integral_within_float_range_still_passes(capsys):
    # (1e38)^8 / 8 = 1.25e303 is below the largest float
    status, out = run_cli(["volume", "--delta", "0", "--r-max", "1e38", "--steps", "2"], capsys)
    assert status == 0
    assert all(c["pass"] for c in json.loads(out)["checks"])


@pytest.mark.parametrize("command", ["volume", "compare"])
def test_density_within_float_range_still_passes(command, capsys):
    status, out = run_cli([command, "--r-max", "60", "--steps", "2"], capsys)
    assert status == 0
    assert all(c["pass"] for c in json.loads(out)["checks"])


@pytest.mark.parametrize("r_max, status", [("1e-60", 2), ("1e-45", 2), ("1e-40", 0)])
def test_subnormal_density_is_usage_error(r_max, status):
    # at --delta 0, J = r^7 is subnormal below r = 1.3e-44: the log-derivative
    # check once divided 0 by 0 at 1e-60 (a RuntimeWarning, then a FAIL on
    # nan) and failed on subnormal digits at 1e-45; the radii at 1e-40 keep
    # J normal.  Under -W error a warning would end in a traceback
    import os
    from pathlib import Path

    import qkcomp

    env = dict(os.environ)
    pkg_root = str(Path(qkcomp.__file__).parent.parent)
    env["PYTHONPATH"] = pkg_root + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "qkcomp", "compare",
                           "--delta", "0", "--r-max", r_max, "--steps", "3"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == status, proc.stderr
    if status == 2:
        assert proc.stderr.startswith(
            "qkcomp: area density J is below the smallest normal float near r=")


@pytest.mark.parametrize("r_max, status", [("1e-39", 2), ("3e-40", 2), ("1e-38", 0)])
def test_subnormal_ball_volume_is_usage_error(r_max, status, capsys):
    # at --delta 0 the ball volume is a multiple of r^8: at the ratio's
    # inner radius r_max / 2 it is 1.6e-304 for r_max = 1e-38 and
    # subnormal, 1.6e-312, for 1e-39.  The ratio once failed on subnormal
    # digits at 1e-39 (2.478e-09 > 1e-10), and at 3e-40 the flat
    # closed-form check failed too
    args = ["volume", "--delta", "0", "--r-max", r_max, "--steps", "2"]
    if status == 2:
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith(
            "qkcomp: ball volume at r=")
        return
    got, out = run_cli(args, capsys)
    assert got == 0
    assert all(c["pass"] for c in json.loads(out)["checks"])


@pytest.mark.parametrize("r_min, r_max, status", [
    ("1e-300", "1e-299", 2), ("1e-200", "1e-199", 2), ("1e-100", "2e-100", 2),
    ("1e-20", "1e-19", 1)])
def test_underflowing_lambda1_density_is_usage_error(r_min, r_max, status):
    # J = sinh^7 cosh^3 underflows to 0 at the first three ranges: the solve
    # once divided by zero weights and ended in a traceback (a RuntimeWarning
    # under -W error, else "bisection cannot separate ... in [nan, nan]").
    # At 1e-20, J is about 1e-140: the solve runs and misses its residual
    import os
    from pathlib import Path

    import qkcomp

    env = dict(os.environ)
    pkg_root = str(Path(qkcomp.__file__).parent.parent)
    env["PYTHONPATH"] = pkg_root + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "qkcomp", "lambda1",
                           "--rmin", r_min, "--rmax", r_max, "--mesh", "64"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == status, proc.stderr
    if status == 2:
        assert proc.stderr.startswith(
            "qkcomp: area density J is below the smallest normal float at r=")
    else:
        assert proc.stderr.startswith("FAIL residual within 1e-08")


@pytest.mark.parametrize("study, first", [(False, "1.0703125e-300"), (True, "1.03125e-300")])
def test_lambda1_names_the_first_underflowing_node_on_both_paths(study, first, capsys):
    # the study's first solve runs to r_max / 2 at the same mesh density
    with pytest.raises(SystemExit) as exc:
        main(["lambda1", "--rmin", "1e-300", "--rmax", "1e-299", "--mesh", "64"]
             + ["--study"] * study)
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        f"qkcomp: area density J is below the smallest normal float at r={first}\n")


@pytest.mark.parametrize("r_min", ["1.6", "2"])
def test_riccati_comparison_starts_stay_below_r_max(r_min, capsys):
    # the trajectories start at t0 in [r_min, r_min + span] with span
    # min(r_min, (r_max - r_min) / 2), so they stay below r_max = 3 (a span
    # of r_min started some past it, where RK4 would step backwards)
    status, out = run_cli(["riccati", "--r-min", r_min, "--r-max", "3"], capsys)
    assert status == 0
    doc = json.loads(out)
    assert all(c["pass"] for c in doc["checks"])
    assert doc["results"][0]["t"] == float(r_min)


@pytest.mark.parametrize("argv, end", [
    (["--r-min", "1e-6"], "t=1e-06"),
    (["--delta", "0", "--r-min", "1e-12"], "t=1e-12"),
    (["--r-min", "1e-300"], "t=1e-300"),
])
def test_riccati_fails_when_the_equality_trajectory_truncates(argv, end, capsys):
    # u0 = barrier(r_min) is so large that RK4 blows up at the first step;
    # the start point alone once read as tracking the barrier within 1e-8
    status, out = run_cli(["riccati", *argv], capsys)
    assert status == 1
    doc = json.loads(out)
    assert len(doc["results"]) == 1
    failed = [c for c in doc["checks"] if not c["pass"]]
    assert [c["name"] for c in failed] == ["equality trajectory tracks the barrier within 1e-8"]
    assert failed[0]["actual"] == f"0.000e+00, truncated at {end}, step 0 of 8000"


def test_riccati_checks_r_max_against_the_barrier_domain(capsys):
    # the cot barrier has its pole at pi/2 < the default r_max = 3: the error
    # names the given r_max, not an integration step past the pole
    with pytest.raises(SystemExit) as exc:
        main(["riccati", "--delta", "1"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == "qkcomp: cot barrier valid on (0, 1.5708), got t=3.0\n"
    status, _ = run_cli(["riccati", "--delta", "1", "--r-max", "1.5"], capsys)
    assert status == 0


def test_internal_value_error_is_not_a_usage_error(monkeypatch):
    # numpy raises ValueError on a shape mismatch, a fault of the program:
    # it must end in a traceback, not in exit 2
    def fail(*args):
        raise ValueError("operands could not be broadcast together")
    monkeypatch.setattr(qkcomp.suite, "closed_form_check", fail)
    with pytest.raises(ValueError, match="broadcast"):
        main(["compare", "--r-max", "3", "--steps", "4"])


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


def test_log_derivative_check_at_small_radii(capsys):
    # the difference error grows like 1/r as r -> 0; a step and bound scaled
    # to r certify the grid 0.001..0.01 (a fixed step and bound failed it
    # at 6.25e-04)
    status, out = run_cli(["compare", "--n", "4", "--r-max", "0.01", "--steps", "10"],
                          capsys)
    fd = [c for c in json.loads(out)["checks"] if c["name"].startswith("(d/dr) log J")]
    assert status == 0
    assert fd[0]["name"] == "(d/dr) log J = laplacian at 9 grid points (1e-8)"
    assert fd[0]["pass"] is True
    assert float(fd[0]["actual"]) <= 0.25e-8


def test_log_derivative_check_next_to_the_projective_pole(capsys):
    # the delta=1 Laplacian has a pole at pi/2, so the step and bound scale
    # with the distance to it; a step scaled to r alone read 4.881e-03 here
    status, out = run_cli(["compare", "--n", "2", "--delta", "1", "--r-max", "1.57",
                           "--steps", "40"], capsys)
    fd = [c for c in json.loads(out)["checks"] if c["name"].startswith("(d/dr) log J")]
    assert status == 0
    assert fd[0]["name"] == "(d/dr) log J = laplacian at 39 grid points (1e-8)"
    assert fd[0]["pass"] is True
    assert float(fd[0]["actual"]) <= 1e-9


def test_log_derivative_check_skips_an_unrepresentable_step(capsys):
    # one ulp below pi/2 the step 1e-6 (pi/2 - r) rounds away: the point is
    # skipped, not divided by zero
    status, out = run_cli(["compare", "--delta", "1", "--r-max", "1.5707963267948961",
                           "--steps", "2"], capsys)
    fd = [c for c in json.loads(out)["checks"] if c["name"].startswith("(d/dr) log J")]
    assert status == 1
    assert fd == [{"name": "(d/dr) log J = laplacian at 0 grid points (1e-8)",
                   "expected": "true", "actual": "0.000e+00", "pass": False}]


@pytest.mark.parametrize("argv, criteria, prefix", [
    (["check-identities", "--dim", "4"],
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


@pytest.mark.parametrize("weight, K, error", [
    (4, 4, "DomainError: cot barrier valid on (0, 1.5708), got t=2.0"),
    (0, 1, "ContractViolation: block weight must be positive, got 0"),
], ids=["pole inside the range", "zero weight"])
def test_suite_fails_a_raising_criterion_and_runs_on(weight, K, error, capsys, monkeypatch):
    # a broken transversal block (K = 4 delta puts a cot pole inside
    # criterion 3's range; weight 0 is refused) is a fault of the program,
    # since the suite takes no input: criterion 3 fails, the others still
    # run, and the exit status is 1, not the usage error 2
    def broken(delta):
        return ComparisonFunction(Fraction(weight), Fraction(K * delta))

    monkeypatch.setitem(qkcomp.suite.BLOCKS, "transversal", broken)
    status, out = run_cli(["suite"], capsys)
    lines = out.splitlines()
    assert status == 1
    assert [line.split(": ")[0] for line in lines if not line.startswith(" ")] == \
        [f"criterion {k}" for k in range(1, 9)] + ["suite"]
    assert lines[2:5] == ["criterion 3: riccati barriers: FAIL (0/1 checks)",
                          f"  FAIL runs to its verdict: expected no exception, got {error}",
                          "criterion 4: comparison bookkeeping: PASS (8/8 checks)"]
    assert sum("FAIL" in line for line in lines) == 3
    assert lines[-1] == "suite: FAIL"


def test_suite_fails_a_criterion_that_raises_runtime_error(capsys, monkeypatch):
    # Kato's row weight 4 -> 5 breaks the refined Kato chain: its slacks no
    # longer sum to the gap, which refined_kato_gap raises as a
    # RuntimeError inside criterion 8; the suite reports that as one failed
    # check and exit 1, not a traceback
    def mutant_weights(m):
        rows, cols, _ = qkcomp.quaternionic._upper_triangle(m)
        return 3 * np.where(rows == cols, 1, 2) - 5 * (rows == 0)

    monkeypatch.setattr(qkcomp.quaternionic, "_kato_weights", mutant_weights)
    status, out = run_cli(["suite"], capsys)
    lines = out.splitlines()
    assert status == 1
    assert [line.split(": ")[0] for line in lines if not line.startswith(" ")] == \
        [f"criterion {k}" for k in range(1, 9)] + ["suite"]
    failed = [line for line in lines if "FAIL" in line]
    assert failed[0].startswith("criterion 8: ") and failed[0].endswith(": FAIL (0/1 checks)")
    assert failed[1].startswith("  FAIL runs to its verdict: expected no exception, "
                                "got RuntimeError: Kato slacks")
    assert failed[2:] == ["suite: FAIL"]


def test_module_entry_point():
    import os
    from pathlib import Path

    import qkcomp

    env = dict(os.environ)
    pkg_root = str(Path(qkcomp.__file__).parent.parent)
    env["PYTHONPATH"] = pkg_root + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "qkcomp", "check-identities", "--dim", "2"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["command"] == "check-identities"
