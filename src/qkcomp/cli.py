"""qkcomp command line: verification suites, comparison tables, curvature
reports and spectral estimates, emitted as JSON (canonical) or CSV.

The subcommands build their checks with the parameterized builders of
`qkcomp.suite`, so a run at a criterion's parameters reproduces its checks.

Exit status is 0 when every check in the run passes, 1 on any check
failure, and 2 on usage errors.  Identical invocations emit identical
bytes.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import ExitStack
from fractions import Fraction

import numpy as np

from . import spectral
from . import suite as suite_mod
from .comparison import (
    ModelGeometry,
    area_density,
    ball_volume,
    hessian_block_bounds,
    laplacian_distance,
    volume,
)
from .forms import ContractViolation, contract
from .model import build_model, model_curvature, ricci
from .report import Check, Report, check_true, render_value
from .riccati import DomainError, integrate_riccati
from .spectral import (RadialProblem, ResidualError, StudyError, convergence_study,
                       lambda1_dirichlet, lambda1_row)


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _positive_int(text: str) -> int:
    value = int(text)  # argparse reports a ValueError as an invalid value
    if value < 1:
        raise argparse.ArgumentTypeError(f"need a positive integer, got {text!r}")
    return value


def _radius(text: str) -> float:
    value = float(text)  # argparse reports a ValueError as an invalid value
    if not math.isfinite(value):
        # every comparison with NaN is false, so a NaN radius would pass the
        # range and domain checks and certify a table of nothing
        raise argparse.ArgumentTypeError(f"need a finite radius, got {text!r}")
    return value


def _open_for_writing(path: str):
    """open(path, "w") of a user-given path, which is bad input if it fails."""
    try:
        return open(path, "w")
    except OSError as exc:
        raise ContractViolation(f"cannot write {path}: {exc.strerror}") from exc


def _emit(report: Report, args) -> int:
    args.out.write(report.to_csv() if args.format == "csv" else report.to_json())
    for chk in report.failures():
        print(f"FAIL {chk.name}: expected {render_value(chk.expected)}, "
              f"got {render_value(chk.actual)}", file=sys.stderr)
    return 0 if report.passed else 1


def _check_range(r_min: float, r_max: float) -> None:
    if r_min >= r_max:
        raise ContractViolation(f"need r_min < r_max, got r_min={r_min}, r_max={r_max}")


def _grid(args) -> tuple[float, list[float]]:
    """(r_min, the `steps` evenly spaced radii from r_min to r_max).  A
    given --r-min must lie below --r-max; the default is r_max / steps."""
    if args.r_min is not None:
        _check_range(args.r_min, args.r_max)
    r_min = args.r_min if args.r_min is not None else args.r_max / args.steps
    return r_min, [r_min + (args.r_max - r_min) * i / max(args.steps - 1, 1)
                   for i in range(args.steps)]


def cmd_check_identities(args) -> int:
    degrees = range(1, args.dim + 1) if args.degree is None else [args.degree]
    rep = Report("check-identities", {
        "dim": args.dim, "degree": "all" if args.degree is None else args.degree})
    rep.extend(suite_mod.identity_checks(args.dim, degrees))
    return _emit(rep, args)


def cmd_harmonicity(args) -> int:
    n = args.n
    rep = Report("harmonicity", {"n": n, "samples": args.samples,
                                 "kato_samples": args.kato_samples, "seed": args.seed})
    rep.extend(suite_mod.defect_checks(n, args.seed))
    rep.checks.append(suite_mod.star_commutation_check(n, args.samples, args.seed))
    rep.checks.append(suite_mod.kato_scan_check(n, args.kato_samples, args.seed))
    rep.extend(suite_mod.kato_equality_checks(n))
    rep.extend(suite_mod.busemann_checks(n))
    return _emit(rep, args)


def cmd_compare(args) -> int:
    n, delta = args.n, args.delta
    g = ModelGeometry(n, delta)
    r_min, grid = _grid(args)
    rep = Report("compare", {"n": n, "delta": delta, "r_min": r_min,
                             "r_max": args.r_max, "steps": args.steps})
    rs = np.array(grid)
    line, trans = hessian_block_bounds(g, rs)
    for r, lap, ln, tr, dens in zip(grid, laplacian_distance(g, rs).tolist(), line.tolist(),
                                    trans.tolist(), area_density(g, rs).tolist()):
        rep.results.append({"r": r, "laplacian": lap, "line_block": ln,
                            "transversal_block": tr, "density": dens})
    rep.checks.append(suite_mod.closed_form_check(g, grid))
    # not at r_min: the difference error grows like r^-3 towards 0
    rep.checks.append(suite_mod.log_derivative_check(g, grid[1:]))
    rep.checks.append(suite_mod.sharpening_check(max(n, 50)))
    if delta == 0:
        rep.checks.append(suite_mod.flat_coefficient_check(n, r_min))
        rep.notes.append("delta=0 Laplacian coefficient derives to (4n-1)/r; "
                         "the printed (4n-3)/r is flagged as an erratum")
    rep.notes.append("transversal Hessian bound uses argument r (4 coth r / "
                     "4 cot r); the printed 2t variant is flagged as an erratum")
    return _emit(rep, args)


def cmd_riccati(args) -> int:
    barrier = suite_mod.BLOCKS[args.block](args.delta)
    rep = Report("riccati", {"delta": args.delta, "block": args.block,
                             "m": barrier.m, "K": barrier.K, "r_min": args.r_min,
                             "r_max": args.r_max, "steps": args.steps,
                             "samples": args.samples, "seed": args.seed})
    _check_range(args.r_min, args.r_max)
    barrier.domain_check(args.r_max)
    rep.extend(suite_mod.barrier_residual_checks(args.block, args.delta))
    fine = max(args.steps, 8000)
    stride = max(fine // args.steps, 1)
    traj = integrate_riccati(barrier, barrier(args.r_min), args.r_min,
                             args.r_max, fine)
    at_ts = barrier(traj.ts)
    worst_eq = float(np.abs(traj.us - at_ts).max())
    # a trajectory that blew up has not tracked the barrier up to r_max,
    # however close its points before that came
    detail = f"{worst_eq:.3e}"
    if traj.truncated:
        detail += (f", truncated at t={float(traj.ts[-1])!r}, "
                   f"step {len(traj.ts) - 1} of {fine}")
    rep.checks.append(check_true(
        "equality trajectory tracks the barrier within 1e-8",
        worst_eq <= 1e-8 and not traj.truncated, detail=detail))
    for t, u, b in zip(traj.ts[::stride].tolist(), traj.us[::stride].tolist(),
                       at_ts[::stride].tolist()):
        rep.results.append({"t": t, "u": u, "barrier": b})
    # the comparison trajectories start in [r_min, r_min + span], below r_max
    rep.extend(suite_mod.trajectory_checks(
        [(args.block, args.delta)], args.samples, args.seed,
        args.r_min, min(args.r_min, (args.r_max - args.r_min) / 2), args.r_max,
        args.steps))
    return _emit(rep, args)


def cmd_volume(args) -> int:
    n = args.n
    g = ModelGeometry(n, args.delta)
    r_min, grid = _grid(args)
    rep = Report("volume", {"n": n, "delta": args.delta, "r_min": r_min,
                            "r_max": args.r_max, "steps": args.steps})
    for r, density in zip(grid, area_density(g, np.array(grid)).tolist()):
        rep.results.append({"r": r, "density": density, "volume": volume(g, r)})
    rep.checks.append(suite_mod.volume_ratio_equality_check(
        g, max(r_min, args.r_max / 4), args.r_max))
    if args.delta == 0:
        exact = ball_volume(g, args.r_max)
        rep.checks.append(check_true(
            "flat ball volume matches the closed form",
            abs(rep.results[-1]["volume"] / exact - 1) <= 1e-8,
            detail=f"{rep.results[-1]['volume']:.12g} vs {exact:.12g}"))
    return _emit(rep, args)


def cmd_model(args) -> int:
    n = args.n
    sc = build_model(n)
    R = model_curvature(n)
    Ric = ricci(R)
    rep = Report("model", {"n": n, "scale": args.scale})
    rep.results.append({"n": n, "c": sc.c, "einstein_constant": Ric.fraction(0, 0),
                        "scalar": contract("ii->", Ric).fraction()})
    rep.extend(suite_mod.model_battery(n))
    rep.extend(suite_mod.level_set_battery(n, args.scale))
    if args.components:
        import csv  # only this table and --format csv need it

        writer = csv.writer(args.components, lineterminator="\n")
        writer.writerow(["A", "B", "C", "D", "value"])
        for abcd, v in R.items():
            writer.writerow([*(i + 1 for i in abcd), render_value(v)])
    return _emit(rep, args)


def cmd_lambda1(args) -> int:
    rep = Report("lambda1", {"n": args.n, "rmax": args.rmax,
                             "mesh": args.mesh, "rmin": args.rmin})
    p = RadialProblem(args.n, args.rmin, args.rmax, args.mesh)
    residual_check = f"residual within {spectral.RESIDUAL_TARGET:.0e}"
    if args.study:
        try:
            rows = convergence_study(p)
        except StudyError as exc:
            # the rows that passed, and the largest residual of the others
            rep.results.extend(exc.rows)
            rep.checks.append(Check(
                residual_check,
                f"<= {spectral.RESIDUAL_TARGET:.0e} at r_max={', '.join(map(str, exc.failed))}",
                f"{max(e.residual for e in exc.failed.values()):.3e}", False))
        else:
            rep.results.extend(rows)
            rep.checks.append(suite_mod.convergence_check(args.n, rows))
    else:
        try:
            est, reached = lambda1_dirichlet(p), True
        except ResidualError as exc:
            est, reached = exc.estimate, False
        row = lambda1_row(p, est)
        rep.results.append({"n": args.n, **row})
        rep.checks.append(check_true(
            "Dirichlet estimate sits above the limit value",
            est.lambda1 > row["target"], detail=f"{est.lambda1:.9f} > {row['target']}"))
        rep.checks.append(check_true(residual_check, reached, detail=f"{est.residual:.3e}"))
    return _emit(rep, args)


def cmd_suite(args) -> int:
    status, text, _reports = suite_mod.run_suite()
    args.out.write(text)
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkcomp",
        description="Exact and numerical certification of quaternionic-"
                    "hyperbolic comparison geometry.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, func, seed=True):
        p.add_argument("--format", choices=("csv", "json"), default="json")
        p.add_argument("--out", default="-", help="output path (default stdout)")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        p.set_defaults(func=func)

    p = sub.add_parser("check-identities",
                       help="the six star/interior/exterior operator laws")
    p.add_argument("--dim", type=_positive_int, required=True)
    p.add_argument("--degree", type=_positive_int, default=None,
                   help="single degree (default: all degrees 1..dim)")
    common(p, cmd_check_identities, seed=False)

    p = sub.add_parser("harmonicity",
                       help="quaternionic-harmonicity and refined Kato checks")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--samples", type=_positive_int, default=50)
    p.add_argument("--kato-samples", type=_positive_int, default=10000)
    common(p, cmd_harmonicity)

    def radial_table(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--n", type=int, default=2)
        p.add_argument("--delta", type=int, choices=(-1, 0, 1), default=-1)
        p.add_argument("--r-min", type=_radius, default=None)
        p.add_argument("--r-max", type=_radius, required=True)
        p.add_argument("--steps", type=_positive_int, default=50)
        common(p, func, seed=False)

    radial_table("compare", cmd_compare, "distance Laplacian and Hessian block table")

    p = sub.add_parser("riccati", help="barrier table and comparison trajectories")
    p.add_argument("--delta", type=int, choices=(-1, 0, 1), default=-1)
    p.add_argument("--block", choices=("line", "transversal"), default="line")
    p.add_argument("--r-min", type=_radius, default=0.1)
    p.add_argument("--r-max", type=_radius, default=3.0)
    p.add_argument("--steps", type=_positive_int, default=300)
    p.add_argument("--samples", type=_positive_int, default=25)
    common(p, cmd_riccati)

    radial_table("volume", cmd_volume, "area density and ball volume table")

    p = sub.add_parser("model", help="solvable-model curvature report")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--scale", type=_parse_fraction, default=Fraction(1),
                   help="level-set scale s = e^{-2t} as p/q")
    p.add_argument("--components", default=None,
                   help="also write the nonzero curvature components as CSV")
    common(p, cmd_model, seed=False)

    p = sub.add_parser("lambda1", help="radial Dirichlet spectral estimate")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--rmax", type=_radius, default=RadialProblem.r_max)
    p.add_argument("--rmin", type=_radius, default=RadialProblem.r_min,
                   help="inner Dirichlet radius; every solve of --study starts there too")
    p.add_argument("--mesh", type=int, default=RadialProblem.mesh_points)
    p.add_argument("--study", action="store_true")
    common(p, cmd_lambda1, seed=False)

    p = sub.add_parser("suite", help="run the full acceptance battery")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with ExitStack() as files:
            # the output paths open before the work runs, so that an
            # unwritable one is refused at once; "-" (or an empty --out) is stdout
            args.out = (sys.stdout if args.out in ("", "-")
                        else files.enter_context(_open_for_writing(args.out)))
            if getattr(args, "components", None):
                args.components = files.enter_context(_open_for_writing(args.components))
            return args.func(args)
    except (ContractViolation, DomainError) as exc:
        # bad input only, such as an n or --scale whose exact tables would
        # pass int64; a ModelConstructionError or numpy's ValueError is an
        # internal failure
        parser.exit(2, f"qkcomp: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
