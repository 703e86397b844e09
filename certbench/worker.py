"""Run one certification workload in a fresh interpreter and print one JSON
object: set-up and criterion timings, every check outcome, peak memory and,
when traced, per-layer spans and counts.

    python3 certbench/worker.py --workload exact --seed-offset 0 --trace 0 --spawned-at T

T is the parent's `time.monotonic()` taken just before it started this
process, so `setup_s` covers interpreter start-up and the import of
`qkcomp.suite`.  With `--setup-only` the worker stops after the import.
`src` must be on PYTHONPATH; run.py sets it.
"""

from __future__ import annotations

import argparse
import bisect
import functools
import gc
import inspect
import json
import random
import resource
import signal
import sys
import time
from fractions import Fraction

from workloads import WORKLOADS

# Calls into these public functions are spanned in the traced run.  Each
# function is replaced in every qkcomp module that binds it, so calls from
# the suite and from other modules are both seen.
SPANNED = {
    "kernel": ("qkcomp.kernel", ("wedge_terms", "interior_terms", "accumulate_scaled",
                                 "star_terms", "inner_terms")),
    "forms": ("qkcomp.forms", ("wedge", "hodge_star", "interior", "ext_mult",
                               "form_inner")),
    "identities": ("qkcomp.identities", ("check_star_identities",)),
    "quaternionic": ("qkcomp.quaternionic", ("verify_star_commutation",
                                             "random_traceless_hessian",
                                             "siu_corlette_defect", "kato_gap_scan",
                                             "refined_kato_gap")),
    "model": ("qkcomp.model", ("curvature", "verify_berger", "verify_parallel_four_form",
                               "verify_quaternionic_traces")),
    "levelset": ("qkcomp.levelset", ("level_set_geometry", "verify_gauss_equation",
                                     "verify_weighted_displays")),
    "riccati": ("qkcomp.riccati", ("integrate_riccati",)),
    "spectral": ("qkcomp.spectral", ("lambda1_dirichlet", "rayleigh_quotient")),
}
# comparison is spanned only where the suite calls it: spectral evaluates
# area_density at every mesh node (about 40k calls per solve), and spanning
# those would make the tracer a large part of the spectral time.
COMPARISON = ("hessian_block_bounds", "laplacian_distance", "flat_laplacian_coefficient",
              "flat_laplacian_coefficient_printed", "area_density",
              "volume_ratio_check", "eigenvalue_bounds")


PROBE_PERIOD_S = 0.05
# reference_work's duration at the reference speed: its median on a 2-vCPU
# x86-64 host under this battery, so reference seconds read as that host's
# typical wall seconds
PROBE_REFERENCE_S = 0.0008


def reference_work() -> None:
    """A fixed slice of interpreter work like the battery's: Fraction
    arithmetic and dict stores (the exact layers), `random.randint` calls
    (the samplers) and an integer loop."""
    d = {}
    x = Fraction(1, 3)
    for i in range(60):
        x = x * Fraction(i + 1, 7) + Fraction(1, i + 2)
        d[i] = x
    for _ in range(120):
        _PROBE_RNG.randint(-9, 9)
    s = 0
    for i in range(1000):
        s += i * i % 7


_PROBE_RNG = random.Random(0)


class SpeedProbe:
    """Times `reference_work` every PROBE_PERIOD_S of wall time on the
    workload's own thread (SIGALRM), so it sees the speed the workload's
    vCPU runs at.

    On a shared host that speed swings by up to 2x for seconds at a time,
    independently on each vCPU, which puts a 25% run-to-run spread on raw
    wall time.  `calibrate` rescales an interval to the reference speed,
    where the probe takes PROBE_REFERENCE_S: each slot between two ticks,
    net of the tick, is divided by the slowdown that tick read.  So a speed
    change inside the interval is followed, and a lone long sample (a
    preemption, say) discounts only its own slot.  The cyclic garbage
    collector is off while the probe runs, so a collection over the
    workload's heap never lands in a sample.  `spent` is the probe's total
    time, which spans subtract."""

    def __init__(self):
        self.ends: list[float] = []  # time.monotonic() at the end of each sample
        self.samples: list[float] = []
        self.spent = 0.0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def _tick(self, signum, frame) -> None:
        enabled = gc.isenabled()
        gc.disable()
        start = time.monotonic()
        reference_work()
        end = time.monotonic()
        if enabled:
            gc.enable()
        self.ends.append(end)
        self.samples.append(end - start)
        self.spent += end - start

    def calibrate(self, t0: float, t1: float, fallback: float = 1.0) -> float:
        """Reference seconds of the wall interval [t0, t1] of time.monotonic().
        The stretch after the last tick takes that tick's slowdown;
        `fallback` is the slowdown of an interval without a tick."""
        lo = bisect.bisect_right(self.ends, t0)
        hi = bisect.bisect_right(self.ends, t1)
        reference, prev, slowdown = 0.0, t0, fallback
        for end, sample in zip(self.ends[lo:hi], self.samples[lo:hi]):
            slowdown = sample / PROBE_REFERENCE_S
            reference += (end - prev - sample) / slowdown
            prev = end
        return reference + (t1 - prev) / slowdown


def qkcomp_modules():
    return [m for name, m in list(sys.modules.items())
            if name == "qkcomp" or name.startswith("qkcomp.")]


def replace(module, name: str, make_wrapper, namespaces=None) -> None:
    """Rebind `module.name` to `make_wrapper(current)` in every qkcomp module
    (or in `namespaces`) that binds the same object."""
    current = getattr(module, name)
    wrapper = make_wrapper(current)
    for mod in namespaces or qkcomp_modules():
        for attr, value in list(vars(mod).items()):
            if value is current:
                setattr(mod, attr, wrapper)


class _OffsetRandom:
    """Stands in for the `random` module inside qkcomp.suite, so every
    `random.Random(seed)` the battery makes is seeded at `seed + offset`."""

    def __init__(self, offset: int):
        self.offset = offset

    def Random(self, seed):  # noqa: N802 - mirrors random.Random
        return random.Random(seed + self.offset)


def offset_seed(fn, offset: int):
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def seeded(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        bound.arguments["seed"] += offset
        return fn(*bound.args, **bound.kwargs)
    return seeded


def apply_seed(offset: int) -> None:
    """Move every seeded input of the battery by `offset`; sizes stay fixed.
    Offset 0 leaves the battery's committed seeds, and its reports, as they are."""
    import qkcomp.identities
    import qkcomp.model
    import qkcomp.quaternionic
    import qkcomp.suite

    qkcomp.suite.random = _OffsetRandom(offset)  # criteria 2 and 3 (RK4 initial data)
    for module, name in ((qkcomp.identities, "check_star_identities"),
                         (qkcomp.model, "verify_berger"),
                         (qkcomp.quaternionic, "kato_gap_scan")):
        replace(module, name, lambda fn: offset_seed(fn, offset))


class Tracer:
    """In-memory spans around calls into qkcomp.  Per spanned function it
    keeps calls, inclusive seconds and self seconds (duration minus the
    spans it encloses), both net of the time `probe` spent inside the span;
    `counts` holds what observers read off results."""

    def __init__(self, probe: SpeedProbe | None = None):
        self.probe = probe or SpeedProbe()
        self.stats: dict[str, list] = {}
        self.counts: dict[str, float] = {}
        self._children = [[0.0]]

    def wrap(self, key: str, fn, observe=None):
        stat = self.stats.setdefault(key, [0, 0.0, 0.0])
        children = self._children
        clock = time.perf_counter
        counts = self.counts
        probe = self.probe

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = [0.0]
            children.append(inner)
            probed = probe.spent
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start - (probe.spent - probed)
                children.pop()
                children[-1][0] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - inner[0]
            if observe is not None:
                observe(counts, args, kwargs, result)
            return result
        return traced

    def calls(self, key: str) -> int:
        return self.stats.get(key, [0, 0.0, 0.0])[0]

    def seconds(self, key: str) -> float:
        return self.stats.get(key, [0, 0.0, 0.0])[1]

    def self_seconds(self, prefix: str) -> float:
        return sum(s[2] for k, s in self.stats.items() if k.startswith(prefix))


def _add(counts, key, value):
    counts[key] = counts.get(key, 0) + value


def _observe_riccati(counts, args, kwargs, traj):
    _add(counts, "riccati.steps", len(traj.ts) - 1)
    _add(counts, "riccati.truncated", int(traj.truncated))


def _observe_spectral(counts, args, kwargs, est):
    _add(counts, "spectral.iterations", est.iterations)
    counts["spectral.residual_max"] = max(counts.get("spectral.residual_max", 0.0),
                                          est.residual)


OBSERVERS = {"riccati.integrate_riccati": _observe_riccati,
             "spectral.lambda1_dirichlet": _observe_spectral}


def install_tracer(tracer: Tracer) -> None:
    import qkcomp.comparison
    import qkcomp.suite

    for layer, (modname, names) in SPANNED.items():
        module = sys.modules[modname]
        for name in names:
            key = f"{layer}.{name}"
            observe = OBSERVERS.get(key)
            if key == "quaternionic.kato_gap_scan":
                sig = inspect.signature(getattr(module, name))

                def observe(counts, args, kwargs, result, sig=sig):
                    _add(counts, "quaternionic.kato_gap_scan.samples",
                         sig.bind(*args, **kwargs).arguments["samples"])
            replace(module, name, functools.partial(tracer.wrap, key, observe=observe))
    for name in COMPARISON:
        replace(qkcomp.comparison, name,
                functools.partial(tracer.wrap, f"comparison.{name}"),
                namespaces=[qkcomp.suite])


def layer_metrics(tracer: Tracer, model_cache) -> dict:
    """The per-layer metrics of one traced repetition, by BENCHMARK.json
    name; times are span seconds net of the probe, before rescaling."""
    out = {f"suite.criterion_{k}_s": tracer.seconds(f"suite.criterion_{k}") for k in range(1, 9)}
    out["suite.self_s"] = tracer.self_seconds("suite.")
    for name in SPANNED["kernel"][1]:
        out[f"kernel.{name}.calls"] = tracer.calls(f"kernel.{name}")
        out[f"kernel.{name}.s"] = tracer.seconds(f"kernel.{name}")
    out["forms.calls"] = sum(tracer.calls(f"forms.{n}") for n in SPANNED["forms"][1])
    out["forms.self_s"] = tracer.self_seconds("forms.")
    for key in ("identities.check_star_identities",
                "quaternionic.verify_star_commutation",
                "quaternionic.random_traceless_hessian",
                "quaternionic.siu_corlette_defect",
                "quaternionic.refined_kato_gap",
                "model.curvature",
                "levelset.level_set_geometry",
                "levelset.verify_gauss_equation",
                "levelset.verify_weighted_displays",
                "riccati.integrate_riccati",
                "spectral.lambda1_dirichlet"):
        out[f"{key}.calls"] = tracer.calls(key)
        out[f"{key}.s"] = tracer.seconds(key)
    out["quaternionic.kato_gap_scan.samples"] = tracer.counts.get(
        "quaternionic.kato_gap_scan.samples", 0)
    out["quaternionic.kato_gap_scan.s"] = tracer.seconds("quaternionic.kato_gap_scan")
    for name in ("verify_berger", "verify_parallel_four_form", "verify_quaternionic_traces"):
        out[f"model.{name}.s"] = tracer.seconds(f"model.{name}")
    lookups = model_cache.hits + model_cache.misses
    out["model.model_curvature.hit_ratio"] = model_cache.hits / lookups if lookups else 0.0
    trajectories = tracer.calls("riccati.integrate_riccati")
    out["riccati.steps"] = tracer.counts.get("riccati.steps", 0)
    out["riccati.truncated_ratio"] = (tracer.counts.get("riccati.truncated", 0) / trajectories
                                      if trajectories else 0.0)
    out["comparison.s"] = sum(s[1] for k, s in tracer.stats.items()
                              if k.startswith("comparison."))
    out["spectral.iterations"] = tracer.counts.get("spectral.iterations", 0)
    out["spectral.residual_max"] = tracer.counts.get("spectral.residual_max", 0.0)
    out["spectral.rayleigh_quotient.s"] = tracer.seconds("spectral.rayleigh_quotient")
    return out


def exact_value(v):
    """Canonical text of an exact (Fraction/int, or list of them) check
    value; None for floats and free text, whose digits may legitimately move."""
    if isinstance(v, (list, tuple)):
        items = [exact_value(x) for x in v]
        return None if None in items else "[" + ",".join(items) + "]"
    if isinstance(v, (int, Fraction)):
        return str(Fraction(v))
    return None


def lru_caches():
    return {f"{m.__name__}.{name}": obj for m in qkcomp_modules()
            for name, obj in vars(m).items() if hasattr(obj, "cache_info")}


def run(workload: str, offset: int, traced: bool, probe: SpeedProbe) -> dict:
    import numpy
    import scipy

    import qkcomp
    import qkcomp.model
    import qkcomp.suite

    caches = lru_caches()
    cache_at_start = {name: c.cache_info()._asdict() for name, c in caches.items()}
    entries_at_start = sum(c.cache_info().currsize
                           for c in {id(c): c for c in caches.values()}.values())
    model_curvature = qkcomp.model.model_curvature
    apply_seed(offset)
    tracer = Tracer(probe) if traced else None
    if tracer is not None:
        install_tracer(tracer)

    criteria = WORKLOADS[workload]
    intervals = {}
    outcomes = []
    clock = time.monotonic
    spent = probe.spent
    start = clock()
    for k in criteria:
        fn = qkcomp.suite.CRITERIA[k - 1][1]
        if tracer is not None:
            fn = tracer.wrap(f"suite.criterion_{k}", fn)
        t0 = clock()
        try:
            report = fn()
            checks = [(c.name, c.passed, c.actual) for c in report.checks]
            error = None
        except Exception as exc:  # a raising criterion fails every check it owns
            checks, error = [], f"{type(exc).__name__}: {exc}"
        intervals[k] = (t0, clock())
        outcomes.append((k, checks, error))
    end = clock()
    raw_wall_s = end - start
    wall_s = probe.calibrate(start, end)
    slowdown = (raw_wall_s - (probe.spent - spent)) / wall_s

    result = {
        "wall_s": wall_s,
        "raw_wall_s": raw_wall_s,
        "raw_criterion_s": {k: t1 - t0 for k, (t0, t1) in intervals.items()},
        "slowdown": slowdown,
        "criterion_s": {k: probe.calibrate(t0, t1, slowdown)
                        for k, (t0, t1) in intervals.items()},
        "criteria": [{"criterion": k, "error": error,
                      "checks": [{"name": name, "passed": bool(passed),
                                  "exact": exact_value(actual)}
                                 for name, passed, actual in checks]}
                     for k, checks, error in outcomes],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cache_at_start": cache_at_start,
        "cache_entries_at_start": entries_at_start,
        "context": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                    "scipy": scipy.__version__, "backend": qkcomp.BACKEND},
    }
    if tracer is not None:
        layers = layer_metrics(tracer, model_curvature.cache_info())
        result["layers"] = {name: value / slowdown if name.endswith(("_s", ".s")) else value
                            for name, value in layers.items()}
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed-offset", type=int, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    probe = SpeedProbe()
    probe.start()
    import qkcomp.suite  # noqa: F401 - its import is the set-up being timed

    imported = time.monotonic()
    result = {"setup_s": probe.calibrate(args.spawned_at, imported),
              "raw_setup_s": imported - args.spawned_at}
    if not args.setup_only:
        result.update(run(args.workload, args.seed_offset, bool(args.trace), probe))
    probe.stop()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
