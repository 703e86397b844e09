"""Acceptance gate: every criterion at its stated tolerance and budget.

Run with `pytest -s tests/test_acceptance.py` to see the one-line
pass/fail summary per criterion; each test also enforces the stated
wall-clock budget around the shared battery implementation."""

import ast
import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import qkcomp
from qkcomp import suite as battery


def run_criterion(label, fn, budget_seconds=None):
    start = time.perf_counter()
    report = fn()
    elapsed = time.perf_counter() - start
    status = "PASS" if report.passed else "FAIL"
    print(f"{status} {label} "
          f"({sum(c.passed for c in report.checks)}/{len(report.checks)} checks, "
          f"{elapsed:.2f}s)")
    failures = [(c.name, c.expected, c.actual) for c in report.failures()]
    assert report.passed, failures
    if budget_seconds is not None:
        assert elapsed < budget_seconds, (
            f"{label} took {elapsed:.2f}s, budget {budget_seconds}s")
    return report


def test_criterion_1_operator_identities():
    # dims 4 and 8, all degrees, exact on every basis form and basis index
    rep = run_criterion("criterion 1: operator identities (<5s)",
                        battery.criterion_1_identities, budget_seconds=5.0)
    assert len(rep.checks) == (4 + 8) * 6


def test_criterion_2_quaternionic_harmonicity():
    # factor-6 extraction per line; star commutation on 200 + 50 Hessians
    run_criterion("criterion 2: quaternionic harmonicity (<30s)",
                  battery.criterion_2_harmonicity, budget_seconds=30.0)


def test_criterion_3_riccati_barriers():
    run_criterion("criterion 3: riccati barriers (<5s)",
                  battery.criterion_3_riccati, budget_seconds=5.0)


def test_criterion_4_comparison_bookkeeping():
    rep = run_criterion("criterion 4: comparison bookkeeping",
                        battery.criterion_4_comparison)
    assert any("erratum" in note for note in rep.notes)


def test_criterion_5_model_curvature():
    start = time.perf_counter()
    rep = run_criterion("criterion 5: model curvature n=2,3",
                        battery.criterion_5_model_curvature)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"model battery took {elapsed:.2f}s, budget 60s"
    # both dimensions covered
    assert any("[n=2]" in c.name or c.name.startswith("n=2") for c in rep.checks)
    assert any("[n=3]" in c.name or c.name.startswith("n=3") for c in rep.checks)


def test_criterion_6_gauss_level_sets():
    run_criterion("criterion 6: gauss equation and level sets",
                  battery.criterion_6_level_sets)


def test_criterion_7_spectral_sharpness():
    run_criterion("criterion 7: spectral sharpness (<60s)",
                  battery.criterion_7_spectral, budget_seconds=60.0)


def test_criterion_8_refined_kato():
    rep = run_criterion("criterion 8: refined kato (<30s)",
                        battery.criterion_8_refined_kato, budget_seconds=30.0)
    assert battery.KATO_SAMPLES == 100_000


def test_criterion_9_suite_determinism(capsys):
    # `qkcomp suite` twice must emit byte-identical reports
    from qkcomp.cli import main

    status1 = main(["suite"])
    out1 = capsys.readouterr().out
    status2 = main(["suite"])
    out2 = capsys.readouterr().out
    print("PASS criterion 9: suite determinism (byte-identical reports)")
    assert status1 == status2 == 0
    assert out1 == out2
    assert out1.endswith("suite: PASS\n")


def test_battery_streams_are_made_through_suite_random(monkeypatch):
    # certbench offsets the seeds of criteria 2 and 3 by rebinding
    # `qkcomp.suite.random`, so every stream they draw must be made there
    import random

    seeds = []

    class Recorder:
        @staticmethod
        def Random(seed):  # noqa: N802 - mirrors random.Random
            seeds.append(seed)
            return random.Random(seed)

    monkeypatch.setattr(battery, "random", Recorder)
    battery.criterion_2_harmonicity()
    battery.criterion_3_riccati()
    assert seeds == [1502, 1503, 2222, 2333] + [333] * 4


def test_mutation_sanity_failing_check_reports_nonzero():
    # a deliberately broken report must surface as a failure, proving the
    # battery cannot silently pass
    from qkcomp.report import Check, Report

    rep = Report("mutation")
    rep.checks.append(Check("broken", 1, 2, False))
    assert not rep.passed
    assert rep.failures()[0].name == "broken"


CACHE_PROBE = """
import json, sys
import qkcomp.suite
from qkcomp import quaternionic

def caches():
    return {f"{mod.__name__}.{name}": obj for mod in list(sys.modules.values())
            if mod.__name__.split(".")[0] == "qkcomp"
            for name, obj in vars(mod).items() if hasattr(obj, "cache_info")}

at_import = {name: c.cache_info().currsize for name, c in caches().items()}
qkcomp.suite.criterion_2_harmonicity()
qkcomp.suite.criterion_5_model_curvature()
print(json.dumps({"at_import": at_import, "misses": {
    name: getattr(quaternionic, name).cache_info().misses
    for name in ("quaternionic_actions", "fundamental_forms", "_hessian_four_form_maps",
                 "derivation_maps")}}))
"""


def test_suite_import_leaves_every_cache_empty():
    # a fresh interpreter starts with cold caches, as a user's run does;
    # criteria 2 and 5 then build the forms and maps of n = 2 and 3 once
    # each, criterion 5 reusing the derivation maps criterion 2 built
    env = dict(os.environ)
    pkg_root = str(Path(qkcomp.__file__).parent.parent)
    env["PYTHONPATH"] = pkg_root + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", CACHE_PROBE],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout)
    assert "qkcomp.quaternionic.quaternionic_actions" in probe["at_import"]
    assert set(probe["at_import"].values()) == {0}
    assert "qkcomp.quaternionic.derivation_maps" in probe["at_import"]
    assert probe["misses"] == {"quaternionic_actions": 2, "fundamental_forms": 2,
                               "_hessian_four_form_maps": 2, "derivation_maps": 2}


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python -O"])
def test_suite_import_loads_neither_dataclasses_nor_csv_nor_json(flags):
    # where bytecode is not cached, every start compiles the source and
    # runs its class bodies: a @dataclass then execs its generated methods
    # (about 1 ms per class); csv serves --format csv alone, and json the
    # CLI's JSON reports, never `qkcomp suite`'s text
    env = dict(os.environ)
    pkg_root = str(Path(qkcomp.__file__).parent.parent)
    env["PYTHONPATH"] = pkg_root + os.pathsep + env.get("PYTHONPATH", "")
    probe = ("import sys, qkcomp.suite; "
             "print(sorted({'dataclasses', 'csv', 'json'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, *flags, "-c", probe],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_suite_checks_match_the_benchmark_golden(monkeypatch):
    # every check's name, verdict and exact value against
    # certbench/golden.json, through the benchmark's own gate and value
    # rendering: a renamed check or a changed exact value fails here, not
    # only in a benchmark run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "certbench"))
    bench_run = importlib.import_module("run")
    bench_worker = importlib.import_module("worker")
    status, _text, reports = battery.run_suite()
    rep = {"criteria": [{"criterion": k, "error": None,
                         "checks": [{"name": c.name, "passed": bool(c.passed),
                                     "exact": bench_worker.exact_value(c.actual)}
                                    for c in report.checks]}
                        for k, report in enumerate(reports, start=1)]}
    golden = json.loads(bench_run.GOLDEN.read_text())
    assert status == 0
    for workload, criteria in bench_run.WORKLOADS.items():
        attempted, failed, problems = bench_run.gate(workload, rep, golden)
        assert (failed, problems) == (0, []), workload
        assert attempted == sum(len(golden[str(k)]) for k in criteria)
    assert sorted(k for criteria in bench_run.WORKLOADS.values() for k in criteria) == \
        list(range(1, len(reports) + 1))


MODEL_PROBE = """
import json
import qkcomp.levelset, qkcomp.model, qkcomp.suite

calls = {"model": 0, "levelset": 0}
for mod in ("model", "levelset"):
    module = getattr(qkcomp, mod)
    def counted(C, fn=module.jacobi_violations, mod=mod):
        calls[mod] += 1
        return fn(C)
    module.jacobi_violations = counted
qkcomp.suite.criterion_5_model_curvature()
qkcomp.suite.criterion_6_level_sets()
print(json.dumps({"builds": qkcomp.model.build_model.cache_info().misses, "jacobi": calls}))
"""


def test_criteria_5_and_6_build_one_model_per_n():
    # a fresh interpreter: n = 2 and 3 each build and Jacobi-check their
    # model once; the other four Jacobi checks are the horosphere tables at
    # scales 1 and 1/4
    env = dict(os.environ)
    pkg_root = str(Path(qkcomp.__file__).parent.parent)
    env["PYTHONPATH"] = pkg_root + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", MODEL_PROBE],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"builds": 2, "jacobi": {"model": 2, "levelset": 4}}


CONNECTION_PROBE = """
import json
import qkcomp.levelset, qkcomp.model, qkcomp.suite

calls = []
def counted(C, fn=qkcomp.model.levi_civita_table):
    calls.append(len(C.num))
    return fn(C)
qkcomp.model.levi_civita_table = qkcomp.levelset.levi_civita_table = counted
qkcomp.suite.criterion_5_model_curvature()
qkcomp.suite.criterion_6_level_sets()
print(json.dumps(sorted(calls)))
"""


def test_criteria_5_and_6_build_one_connection_per_table():
    # a fresh interpreter: one Levi-Civita table per bracket table, the five
    # Einstein-sweep candidates at n = 2 (m = 8), the two models (m = 8, 12)
    # and the four horospheres at scales 1 and 1/4 (m = 7, 11)
    env = dict(os.environ)
    pkg_root = str(Path(qkcomp.__file__).parent.parent)
    env["PYTHONPATH"] = pkg_root + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", CONNECTION_PROBE],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [7, 7] + [8] * 6 + [11, 11, 12]


def test_traced_benchmark_worker_binds_every_spanned_name():
    # the benchmark's traced worker wraps qkcomp.kernel's functions,
    # riccati.integrate_riccati and the other spanned names, and reads
    # qkcomp.BACKEND; a rename or deletion of any of them fails here.  On
    # numeric it also wraps the comparison functions that criterion 4 calls
    # on arrays of radii, so an array call the wrapper breaks fails here too.
    # Only exact runs the sampled trace-free Hessians, the defect form and
    # the model and horosphere spans
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    pkg_root = str(Path(qkcomp.__file__).parent.parent)
    env["PYTHONPATH"] = pkg_root + os.pathsep + env.get("PYTHONPATH", "")
    layers = {}
    for workload in ("exact", "kato", "numeric"):
        proc = subprocess.run([sys.executable, str(root / "certbench" / "worker.py"),
                               "--workload", workload, "--trace", "1", "--spawned-at", "0"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)
        assert result["context"]["backend"] == qkcomp.BACKEND
        layers[workload] = result["layers"]
        for criterion in result["criteria"]:
            assert criterion["error"] is None, criterion["error"]
            assert criterion["checks"]
            assert all(c["passed"] for c in criterion["checks"]), criterion["checks"]
    assert layers["numeric"]["comparison.s"] > 0
    for name in ("quaternionic.random_traceless_hessian", "quaternionic.siu_corlette_defect",
                 "model.curvature", "levelset.level_set_geometry",
                 "levelset.verify_gauss_equation", "levelset.verify_weighted_displays"):
        assert layers["exact"][f"{name}.calls"] > 0, name


def test_library_code_has_no_assert():
    # invariants are real checks: `python -O` strips every assert statement
    src = Path(qkcomp.__file__).parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_library_code_uses_every_name_it_imports():
    # no linter runs here, so a name left imported after its last use goes
    # stale silently; a module's `__all__` counts as a use
    src = Path(qkcomp.__file__).parent
    unused = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif (isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                used.update(ast.literal_eval(node.value))
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []
