"""Acceptance gate: every criterion at its stated tolerance and budget.

Run with `pytest -s tests/test_acceptance.py` to see the one-line
pass/fail summary per criterion; each test also enforces the stated
wall-clock budget around the shared battery implementation."""

import time

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
    # dims 4 and 8, all degrees, 100 seeded samples per identity, exact
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
