"""Certification benchmark for qkcomp.

Runs the acceptance battery of `qkcomp.suite` as the workloads of
workloads.py.  Every repetition is a fresh interpreter (worker.py), so the
lru_caches of qkcomp start cold, as they do for a user.  Every report is
checked against golden.json, and the last line of standard output is one
JSON object with the metrics that BENCHMARK.json names:

    python3 certbench/run.py --workload exact --seed 0 --seconds 35 --trace 0

`--trace 0` reports the end-to-end metrics of untraced repetitions;
`--trace 1` alternates untraced and traced repetitions and reports the
per-layer metrics.  The line before the result records the run context.
Exit status: 0 when every check passed, 1 when one failed, 2 when the
tree to benchmark is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import BUDGETS, DEFAULT_SEED, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"
SPEC = ROOT / "BENCHMARK.json"

SETUP_ONLY_STARTS = 2  # interpreter starts per run beyond the workload's own
MIN_ROUNDS = 2  # a run's medians never rest on a single repetition
RUN_DEADLINE_S = 170.0  # a run ends, result or not, well inside 180 s
THREADS = "1"  # BLAS threads per worker; one worker runs at a time


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = THREADS
    return env


def spawn(args: list[str], deadline: float) -> dict:
    """One worker process; waits for it and returns its JSON result."""
    spawned_at = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--spawned-at", repr(spawned_at), *args],
        cwd=ROOT, env=worker_env(), capture_output=True, text=True,
        timeout=max(1.0, deadline - spawned_at))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def gate(workload: str, rep: dict, golden: dict) -> tuple[int, int, list]:
    """Check one repetition's reports against the seed's: same check names
    in the same order, every check passed, and every exact-valued
    (Fraction/int) check equal to the seed's.  Those values do not depend
    on the workload seed.  A criterion that raised fails every check it
    owns.  Returns (attempted, failed, descriptions)."""
    attempted = failed = 0
    problems = []
    outcomes = {c["criterion"]: c for c in rep["criteria"]}
    for k in WORKLOADS[workload]:
        expected = golden[str(k)]
        outcome = outcomes.get(k, {"error": "not run", "checks": []})
        if outcome["error"] is not None:
            attempted += len(expected)
            failed += len(expected)
            problems.append(f"criterion {k} raised {outcome['error']}")
            continue
        got = outcome["checks"]
        for i in range(max(len(expected), len(got))):
            attempted += 1
            want = expected[i] if i < len(expected) else None
            have = got[i] if i < len(got) else None
            if want is None or have is None or want["name"] != have["name"]:
                reason = "check list differs from the seed's"
            elif not have["passed"]:
                reason = "failed"
            elif want["exact"] is not None and want["exact"] != have["exact"]:
                reason = f"exact value {have['exact']} != seed's {want['exact']}"
            else:
                continue
            failed += 1
            name = (have or want)["name"]
            problems.append(f"criterion {k}: {name}: {reason}")
    return attempted, failed, problems


def headroom(workload: str, criterion_s: dict) -> float:
    """Minimum budget / elapsed over the workload's budgeted criteria."""
    return min(BUDGETS[k] / criterion_s[str(k)] for k in WORKLOADS[workload] if k in BUDGETS)


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown'
    outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(workload: str, offset: int, seconds: float, trace: bool) -> tuple[list, list, list]:
    """Repeat the workload (untraced, then traced when `trace`) while the
    next round still fits in `seconds`, at least MIN_ROUNDS times.  Returns
    the set-up samples and the untraced and traced repetitions."""
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    setups = [spawn(["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_ONLY_STARTS)]
    plain, traced = [], []
    while True:
        round_start = time.monotonic()
        for is_traced, out in ((False, plain), (True, traced))[:1 + trace]:
            rep = spawn(["--workload", workload, "--seed-offset", str(offset),
                         "--trace", str(int(is_traced))], deadline)
            setups.append(rep["setup_s"])
            out.append(rep)
        now = time.monotonic()
        if len(plain) >= MIN_ROUNDS and now + (now - round_start) > start + seconds:
            return setups, plain, traced


def metric_spec() -> dict:
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def summarize(workload: str, setups: list, plain: list, traced: list,
              attempted: int, failed: int) -> dict:
    """Medians over the repetitions, by BENCHMARK.json metric name."""
    med = statistics.median
    if not traced:
        return {
            "wall_s": med(r["wall_s"] for r in plain),
            "setup_s": med(setups),
            "peak_rss_mb": med(r["peak_rss_mb"] for r in plain),
            "budget_headroom": med(headroom(workload, r["criterion_s"]) for r in plain),
        }
    out = {name: med(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
    out["trace_overhead_s"] = med(r["wall_s"] for r in traced) - med(r["wall_s"] for r in plain)
    out["check_fail_ratio"] = failed / attempted
    out["cache.entries_at_start"] = max(r["cache_entries_at_start"] for r in plain + traced)
    out["probe.slowdown"] = med(r["slowdown"] for r in plain)
    out["probe.raw_wall_s"] = med(r["raw_wall_s"] for r in plain)
    out["probe.raw_budget_headroom"] = med(headroom(workload, r["raw_criterion_s"])
                                           for r in plain)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="offsets every seed of the battery; the default keeps them")
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "qkcomp" / "suite.py").is_file():
        print(f"certbench: no qkcomp source tree at {SRC}", file=sys.stderr)
        return 2
    golden = json.loads(GOLDEN.read_text())
    units = metric_spec()

    setups, plain, traced = measure(args.workload, args.seed - DEFAULT_SEED,
                                    args.seconds, bool(args.trace))
    attempted = failed = 0
    for rep in plain + traced:
        a, f, problems = gate(args.workload, rep, golden)
        attempted += a
        failed += f
        for problem in problems:
            print(f"FAIL {problem}", file=sys.stderr)

    values = summarize(args.workload, setups, plain, traced, attempted, failed)
    first = plain[0]
    print(json.dumps({"context": {
        **first["context"],
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "openblas_num_threads": THREADS,
        "git_sha": git_sha(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "untraced_runs": len(plain), "traced_runs": len(traced),
        "setup_samples": len(setups),
        "raw_wall_s": [r["raw_wall_s"] for r in plain + traced],
        "slowdown": [r["slowdown"] for r in plain + traced],
        "cache_at_start": first["cache_at_start"],
    }}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
