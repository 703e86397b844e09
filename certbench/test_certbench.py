"""Tests of the benchmark's own gate and reporting; they start no workload.

    python3 -m pytest -q certbench
"""

import json
import sys
from collections import namedtuple
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

GOLDEN = json.loads(run.GOLDEN.read_text())
SPEC = json.loads(run.SPEC.read_text())


def passing_rep(workload: str, traced: bool = False) -> dict:
    """A repetition whose reports equal the seed's."""
    rep = {
        "setup_s": 0.5, "raw_setup_s": 0.9, "wall_s": 6.0, "raw_wall_s": 10.0,
        "slowdown": 1.6, "peak_rss_mb": 85.0, "cache_entries_at_start": 0,
        "cache_at_start": {}, "context": {"backend": "python"},
        "criterion_s": {str(k): 1.0 for k in WORKLOADS[workload]},
        "raw_criterion_s": {str(k): 1.6 for k in WORKLOADS[workload]},
        "criteria": [{"criterion": k, "error": None,
                      "checks": [dict(c, passed=True) for c in GOLDEN[str(k)]]}
                     for k in WORKLOADS[workload]],
    }
    if traced:
        Cache = namedtuple("Cache", "hits misses")
        rep["layers"] = worker.layer_metrics(worker.Tracer(), Cache(0, 0))
    return rep


def test_golden_holds_the_seed_check_counts():
    counts = [len(GOLDEN[str(k)]) for k in range(1, 9)]
    assert counts == [72, 11, 16, 8, 42, 57, 6, 12]
    assert sorted(k for ks in WORKLOADS.values() for k in ks) == list(range(1, 9))


def test_seed_reports_pass_the_gate():
    for workload in WORKLOADS:
        attempted, failed, problems = run.gate(workload, passing_rep(workload), GOLDEN)
        assert (failed, problems) == (0, [])
        assert attempted == sum(len(GOLDEN[str(k)]) for k in WORKLOADS[workload])


def test_one_failing_check_fails_the_gate():
    rep = passing_rep("kato")
    rep["criteria"][0]["checks"][3]["passed"] = False
    attempted, failed, problems = run.gate("kato", rep, GOLDEN)
    assert (attempted, failed) == (12, 1)
    assert "failed" in problems[0]


def test_changed_exact_value_fails_the_gate():
    rep = passing_rep("exact")
    checks = rep["criteria"][2]["checks"]  # criterion 5, all exact-valued
    check = next(c for c in checks if c["exact"] is not None)
    check["exact"] = "7/3"
    assert run.gate("exact", rep, GOLDEN)[1] == 1


def test_raising_criterion_fails_every_check_it_owns():
    rep = passing_rep("numeric")
    rep["criteria"][0] = {"criterion": 3, "error": "ValueError: boom", "checks": []}
    assert run.gate("numeric", rep, GOLDEN)[:2] == (30, 16)


def test_renamed_or_missing_check_fails_the_gate():
    rep = passing_rep("kato")
    checks = rep["criteria"][0]["checks"]
    checks[0]["name"] += " (renamed)"
    checks.pop()
    assert run.gate("kato", rep, GOLDEN)[:2] == (12, 2)


def test_metric_names_match_benchmark_json():
    untraced = run.summarize("exact", [0.5], [passing_rep("exact")], [], 1, 0)
    assert list(untraced) == [m["name"] for m in SPEC["end_to_end"]]
    traced = run.summarize("exact", [0.5], [passing_rep("exact")],
                           [passing_rep("exact", traced=True)], 1, 0)
    assert sorted(traced) == sorted(m["name"] for m in SPEC["per_layer"])


def run_main(monkeypatch, capsys, rep, trace):
    monkeypatch.setattr(run, "measure", lambda *a: ([0.5], [rep], [rep] if trace else []))
    status = run.main(["--workload", "kato", "--trace", str(trace)])
    return status, json.loads(capsys.readouterr().out.splitlines()[-1])


def test_one_failing_check_fails_the_run(monkeypatch, capsys):
    status, result = run_main(monkeypatch, capsys, passing_rep("kato", traced=True), 1)
    assert status == 0 and result["correct"]
    assert result["metrics"]["check_fail_ratio"]["value"] == 0

    rep = passing_rep("kato", traced=True)
    rep["criteria"][0]["checks"][0]["passed"] = False
    status, result = run_main(monkeypatch, capsys, rep, 1)
    assert status == 1
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (24, 2)
    assert result["metrics"]["check_fail_ratio"]["value"] > 0


def test_result_keys(monkeypatch, capsys):
    status, result = run_main(monkeypatch, capsys, passing_rep("kato"), 0)
    assert status == 0
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert all(set(m) == {"value", "unit"} for m in result["metrics"].values())


def test_missing_source_tree_exits_2_without_result(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "kato"]) == 2
    assert capsys.readouterr().out == ""


def test_seed_offset_moves_every_seed_argument():
    calls = []

    def scan(n, samples, seed):
        calls.append((n, samples, seed))

    def berger(R, frame, n, seed=0, triple_samples=60):
        calls.append((n, seed, triple_samples))

    seeded = worker.offset_seed(scan, 5)
    seeded(2, 100, seed=888)
    seeded(2, 100, 888)
    worker.offset_seed(berger, 5)(None, None, 2)
    assert calls == [(2, 100, 893), (2, 100, 893), (2, 5, 60)]
    assert worker._OffsetRandom(5).Random(333).random() == \
        worker.random.Random(338).random()


def test_tracer_self_time_excludes_child_spans():
    import time

    tracer = worker.Tracer()
    inner = tracer.wrap("kernel.inner", lambda: time.sleep(0.02))
    outer = tracer.wrap("forms.outer", lambda: (inner(), time.sleep(0.01)))
    outer()
    assert tracer.calls("kernel.inner") == tracer.calls("forms.outer") == 1
    assert tracer.seconds("forms.outer") >= tracer.seconds("kernel.inner") >= 0.02
    assert 0.01 <= tracer.self_seconds("forms.") < tracer.seconds("forms.outer")


def test_probe_rescales_each_slot_by_its_own_tick():
    ref = worker.PROBE_REFERENCE_S
    probe = worker.SpeedProbe()
    # 1 s at reference speed, then 1 s at half speed; ticks every 0.1 s
    probe.ends = [0.1 * i for i in range(1, 21)]
    probe.samples = [ref] * 10 + [2 * ref] * 10
    assert abs(probe.calibrate(0.0, 1.0) - (1.0 - 10 * ref)) < 1e-9
    assert abs(probe.calibrate(1.0, 2.0) - (1.0 - 20 * ref) / 2) < 1e-9
    # the stretch after the last tick takes that tick's slowdown
    assert abs(probe.calibrate(1.5, 2.5) - ((0.5 - 5 * 2 * ref) / 2 + 0.25)) < 1e-9
    assert probe.calibrate(5.0, 6.0, fallback=4.0) == 0.25  # no tick: the fallback


def test_probe_long_sample_discounts_only_its_slot():
    ref = worker.PROBE_REFERENCE_S
    probe = worker.SpeedProbe()
    probe.ends = [0.1 * i for i in range(1, 21)]
    probe.samples = [ref] * 20
    steady = probe.calibrate(0.0, 2.0)
    probe.samples[5] = 0.05  # a preempted tick
    assert steady - 0.1 < probe.calibrate(0.0, 2.0) < steady


def test_tracer_spans_exclude_probe_time():
    import time

    probe = worker.SpeedProbe()
    tracer = worker.Tracer(probe)

    def work():
        start = time.perf_counter()
        time.sleep(0.05)  # stands for a probe tick inside the span
        probe.spent += time.perf_counter() - start
        time.sleep(0.01)

    tracer.wrap("kernel.work", work)()
    assert 0.01 <= tracer.seconds("kernel.work") < 0.05
