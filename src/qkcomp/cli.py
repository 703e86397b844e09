"""qkcomp command line: verification suites, comparison tables, curvature
reports and spectral estimates, emitted as JSON (canonical) or CSV.

Exit status is 0 when every check in the run passes, 1 on any check
failure, and 2 on usage errors.  Identical invocations emit identical
bytes; the environment variable QKCOMP_SEED overrides --seed.
"""

from __future__ import annotations

import argparse
import math
import os
import random
import sys
from fractions import Fraction

from . import suite as suite_mod
from .comparison import (
    ModelGeometry,
    area_density,
    eigenvalue_bounds,
    flat_laplacian_coefficient,
    flat_laplacian_coefficient_printed,
    hessian_block_bounds,
    laplacian_distance,
    volume,
    volume_ratio_check,
)
from .forms import ContractViolation
from .identities import check_star_identities
from .levelset import (
    level_set_geometry,
    radial_hessian_check,
    verify_gauss_equation,
    verify_level_set_sums,
    verify_second_fundamental,
    verify_weighted_displays,
)
from .model import (
    build_model,
    curvature,
    verify_berger,
    verify_einstein,
    verify_parallel_four_form,
    verify_quaternionic_traces,
    verify_radial_slabs,
)
from .quaternionic import (
    HessianMatrix,
    Layout,
    build_frame,
    busemann_hessian,
    equality_case_hessian,
    kato_gap_scan,
    random_traceless_hessian,
    refined_kato_gap,
    siu_corlette_defect,
    verify_star_commutation,
)
from .report import Check, Report, check_eq, check_true, render_value
from .riccati import (
    integrate_riccati,
    integrate_riccati_batch,
    line_block_problem,
    riccati_barrier,
    transversal_block_problem,
)
from .spectral import RadialProblem, convergence_study, lambda1_dirichlet


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


def _resolve_seed(args) -> int:
    env = os.environ.get("QKCOMP_SEED")
    if env is not None:
        return int(env)
    return args.seed


def _emit(report: Report, args) -> int:
    text = report.to_csv() if args.format == "csv" else report.to_json()
    if args.out and args.out != "-":
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if not report.passed:
        for chk in report.failures():
            print(f"FAIL {chk.name}: expected {render_value(chk.expected)}, "
                  f"got {render_value(chk.actual)}", file=sys.stderr)
        return 1
    return 0


def cmd_check_identities(args) -> int:
    seed = _resolve_seed(args)
    degrees = range(1, args.dim + 1) if args.degree is None else [args.degree]
    rep = Report("check-identities",
                 {"dim": args.dim,
                  "degree": "all" if args.degree is None else args.degree,
                  "trials": args.trials, "seed": seed})
    for degree in degrees:
        idrep = check_star_identities(args.dim, degree, args.trials,
                                      seed + degree)
        for res in idrep.results:
            rep.checks.append(Check(
                f"dim {args.dim} degree {degree} identity {res.name}",
                f"exact on {res.samples} samples",
                "pass" if res.passed else f"fail: {res.counterexample}",
                res.passed))
    return _emit(rep, args)


def cmd_harmonicity(args) -> int:
    seed = _resolve_seed(args)
    n = args.n
    rep = Report("harmonicity", {"n": n, "samples": args.samples,
                                 "kato_samples": args.kato_samples,
                                 "seed": seed})
    frame = build_frame(n, Layout.INTERLEAVED)
    m = frame.dim
    for line in range(1, n + 1):
        h = [[Fraction(0)] * m for _ in range(m)]
        a, b, c, d = frame.line_indices(line)
        h[a - 1][a - 1], h[b - 1][b - 1] = Fraction(2), Fraction(1)
        h[c - 1][c - 1], h[d - 1][d - 1] = Fraction(1), Fraction(1)
        other = frame.line_indices(1 if line != 1 else 2)[0]
        h[other - 1][other - 1] += Fraction(-5)
        H = HessianMatrix(frame, h)
        rep.checks.append(check_eq(
            f"defect coefficient on line {line} = 6 x line sum",
            Fraction(6) * H.line_sum(line),
            siu_corlette_defect(H).coefficient(frame.line_indices(line))))

    rng = random.Random(seed)
    bad = 0
    for _ in range(args.samples):
        if not verify_star_commutation(random_traceless_hessian(frame, rng)):
            bad += 1
    rep.checks.append(Check(
        f"star commutation on {args.samples} random trace-free Hessians",
        f"0 of {args.samples}", f"{bad} of {args.samples}", bad == 0))

    negatives, min_gap = kato_gap_scan(n, args.kato_samples, seed)
    rep.checks.append(Check(
        f"refined Kato gap >= 0 on {args.kato_samples} constrained samples",
        "0 negative", f"{negatives} negative, min gap {render_value(min_gap)}",
        negatives == 0))
    gframe = build_frame(n, Layout.GROUPED)
    rep.checks.append(check_eq(
        "equality-case shape has exact gap 0", Fraction(0),
        refined_kato_gap(equality_case_hessian(gframe, Fraction(1))).gap))

    bus = busemann_hessian(n)
    rep.checks.append(check_eq("Busemann Hessian trace = -2(2n+1)",
                               Fraction(-2 * (2 * n + 1)), bus.trace()))
    rep.checks.append(check_eq("Busemann |H|^2 = 4(n+2)",
                               Fraction(4 * (n + 2)), bus.frobenius_sq()))
    return _emit(rep, args)


def cmd_compare(args) -> int:
    n, delta = args.n, args.delta
    g = ModelGeometry(n, delta)
    r_min = args.r_min if args.r_min is not None else args.r_max / args.steps
    rep = Report("compare", {"n": n, "delta": delta, "r_min": r_min,
                             "r_max": args.r_max, "steps": args.steps})
    for i in range(args.steps):
        r = r_min + (args.r_max - r_min) * i / max(args.steps - 1, 1)
        line, trans = hessian_block_bounds(g, r)
        rep.results.append({
            "r": r,
            "laplacian": laplacian_distance(g, r),
            "line_block": line,
            "transversal_block": trans,
            "density": area_density(g, r),
        })
    worst = max(abs(row["laplacian"]
                    - (row["line_block"] + (n - 1) * row["transversal_block"]))
                for row in rep.results)
    rep.checks.append(check_true("block-sum identity on the grid", worst == 0,
                                 detail=f"max dev {worst:.3e}"))
    fd_bad = 0.0
    for row in rep.results[1:]:
        r = row["r"]
        h = 1e-6 * max(r, 1.0)
        if delta == 1 and r + h >= math.pi / 2:
            continue
        fd = (math.log(area_density(g, r + h))
              - math.log(area_density(g, r - h))) / (2 * h)
        fd_bad = max(fd_bad, abs(fd - row["laplacian"]))
    rep.checks.append(check_true("(d/dr) log J = laplacian (1e-8)",
                                 fd_bad <= 1e-8, detail=f"{fd_bad:.3e}"))
    eb = eigenvalue_bounds(n)
    rep.checks.append(check_true(
        "sharpening: (2n+1)^2 < rescaled Cheng bound",
        eb.quaternionic < eb.real_cheng,
        detail=f"{eb.quaternionic} < {render_value(eb.real_cheng)}"))
    if delta == 0:
        rep.checks.append(check_true(
            "flat coefficient (4n-1)/r used (printed 4n-3 is an erratum)",
            abs(rep.results[0]["laplacian"] * rep.results[0]["r"]
                - flat_laplacian_coefficient(n)) < 1e-9,
            detail=f"derived {flat_laplacian_coefficient(n)}, "
                   f"printed {flat_laplacian_coefficient_printed(n)}"))
        rep.notes.append("delta=0 Laplacian coefficient derives to (4n-1)/r; "
                         "the printed (4n-3)/r is flagged as an erratum")
    rep.notes.append("transversal Hessian bound uses argument r (4 coth r / "
                     "4 cot r); the printed 2t variant is flagged as an erratum")
    return _emit(rep, args)


def cmd_riccati(args) -> int:
    seed = _resolve_seed(args)
    prob = (line_block_problem if args.block == "line"
            else transversal_block_problem)(args.delta)
    barrier = riccati_barrier(prob)
    rep = Report("riccati", {"delta": args.delta, "block": args.block,
                             "m": prob.m, "K": prob.K,
                             "r_min": args.r_min, "r_max": args.r_max,
                             "steps": args.steps, "samples": args.samples,
                             "seed": seed})
    resid = barrier.symbolic_residual()
    rep.checks.append(check_true(
        "symbolic residual of the equality solution is exactly 0",
        all(v == 0 for v in resid.values()),
        detail=",".join(f"{k}={render_value(v)}" for k, v in resid.items())))

    fine = max(args.steps, 8000)
    stride = max(fine // args.steps, 1)
    traj = integrate_riccati(prob, barrier(args.r_min), args.r_min,
                             args.r_max, fine)
    worst_eq = max(abs(u - barrier(t)) for t, u in zip(traj.ts, traj.us))
    rep.checks.append(check_true(
        "equality trajectory tracks the barrier within 1e-8",
        worst_eq <= 1e-8, detail=f"{worst_eq:.3e}"))
    for t, u in list(zip(traj.ts, traj.us))[::stride]:
        rep.results.append({"t": t, "u": u, "barrier": barrier(t)})

    rng = random.Random(seed)
    t0s, u0s = [], []
    for _ in range(args.samples):
        t0s.append(args.r_min * (1 + rng.random()))
        u0s.append(barrier(t0s[-1]) - 3.0 * rng.random())
    batch = integrate_riccati_batch(prob, u0s, t0s, args.r_max, args.steps)
    worst = batch.max_excess(barrier)
    rep.checks.append(check_true(
        f"{args.samples} seeded sub-barrier trajectories stay below barrier + 1e-6",
        worst <= 1e-6, detail=f"max excess {worst:.3e}"))
    return _emit(rep, args)


def cmd_volume(args) -> int:
    g = ModelGeometry(args.n, args.delta)
    r_min = args.r_min if args.r_min is not None else args.r_max / args.steps
    rep = Report("volume", {"n": args.n, "delta": args.delta,
                            "r_min": r_min, "r_max": args.r_max,
                            "steps": args.steps})
    for i in range(args.steps):
        r = r_min + (args.r_max - r_min) * i / max(args.steps - 1, 1)
        rep.results.append({"r": r, "density": area_density(g, r),
                            "volume": volume(g, r)})
    res = volume_ratio_check(lambda r: area_density(g, r), g,
                             max(r_min, args.r_max / 4), args.r_max)
    rep.checks.append(check_true(
        "volume-ratio equality case within 1e-10",
        res.holds and abs(res.ratio / res.model_ratio - 1) <= 1e-10,
        detail=f"|ratio/model-1| = {abs(res.ratio / res.model_ratio - 1):.3e}"))
    if args.delta == 0:
        from .comparison import sphere_area_constant

        r = args.r_max
        exact = sphere_area_constant(args.n) * r ** (4 * args.n) / (4 * args.n)
        rep.checks.append(check_true(
            "flat ball volume matches the closed form",
            abs(rep.results[-1]["volume"] / exact - 1) <= 1e-8,
            detail=f"{rep.results[-1]['volume']:.12g} vs {exact:.12g}"))
    return _emit(rep, args)


def cmd_model(args) -> int:
    scale = args.scale
    sc = build_model(args.n)
    R = curvature(sc)
    frame = build_frame(args.n, Layout.INTERLEAVED)
    ric = R.ricci()
    rep = Report("model", {"n": args.n, "scale": scale})
    rep.results.append({
        "n": args.n,
        "c": sc.c,
        "einstein_constant": ric[0][0],
        "scalar": R.scalar(),
    })
    rep.checks.append(check_eq("tensor symmetries and first Bianchi",
                               0, R.symmetry_violations()))
    rep.extend(verify_einstein(R, args.n))
    rep.extend(verify_radial_slabs(R, args.n))
    rep.extend(verify_quaternionic_traces(R, frame))
    berger = verify_berger(R, frame, args.n)
    rep.extend(berger.checks)
    rep.extend(verify_parallel_four_form(sc, frame, berger).checks)
    lsg = level_set_geometry(sc, scale)
    rep.extend(verify_second_fundamental(lsg))
    rep.extend(verify_level_set_sums(lsg))
    rep.extend(verify_gauss_equation(R, lsg))
    if scale != 1:
        base = level_set_geometry(sc, Fraction(1))
        rep.extend(verify_weighted_displays(R, base, scale))
    rep.extend(radial_hessian_check(sc))

    if args.components:
        import csv
        with open(args.components, "w") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["A", "B", "C", "D", "value"])
            m = R.dim
            for a in range(1, m + 1):
                for b in range(1, m + 1):
                    for c in range(1, m + 1):
                        for d in range(1, m + 1):
                            v = R.entry(a, b, c, d)
                            if v:
                                writer.writerow([a, b, c, d, render_value(v)])
    return _emit(rep, args)


def cmd_lambda1(args) -> int:
    rep = Report("lambda1", {"n": args.n, "rmax": args.rmax,
                             "mesh": args.mesh, "rmin": args.rmin})
    target = (2 * args.n + 1) ** 2
    if args.study:
        rows = convergence_study(args.n, [args.rmax / 2, 3 * args.rmax / 4,
                                          args.rmax], args.mesh)
        rep.results.extend(rows)
        rep.checks.append(check_true(
            "estimates decrease as r_max grows",
            all(a["lambda1"] > b["lambda1"] for a, b in zip(rows, rows[1:])),
            detail=",".join(f"{r['lambda1']:.6f}" for r in rows)))
        rep.checks.append(check_true(
            "all estimates above the limit value",
            all(r["lambda1"] > target for r in rows)))
    else:
        est = lambda1_dirichlet(RadialProblem(args.n, args.rmin, args.rmax,
                                              args.mesh))
        rep.results.append({"n": args.n, "r_max": args.rmax, "mesh": args.mesh,
                            "lambda1": est.lambda1, "target": target,
                            "gap": est.lambda1 - target})
        rep.checks.append(check_true(
            "Dirichlet estimate sits above the limit value",
            est.lambda1 > target, detail=f"{est.lambda1:.9f} > {target}"))
        rep.checks.append(check_true(
            "residual within 1e-8", est.residual <= 1e-8,
            detail=f"{est.residual:.3e}"))
    return _emit(rep, args)


def cmd_suite(args) -> int:
    status, text, reports = suite_mod.run_suite()
    if args.out and args.out != "-":
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkcomp",
        description="Exact and numerical certification of quaternionic-"
                    "hyperbolic comparison geometry.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--format", choices=("csv", "json"), default="json")
        p.add_argument("--out", default="-", help="output path (default stdout)")
        if seed:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("check-identities",
                       help="the six star/interior/exterior operator laws")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--degree", type=int, default=None,
                   help="single degree (default: all degrees 1..dim)")
    p.add_argument("--trials", type=int, default=100)
    common(p)
    p.set_defaults(func=cmd_check_identities)

    p = sub.add_parser("harmonicity",
                       help="quaternionic-harmonicity and refined Kato checks")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--samples", type=_positive_int, default=50)
    p.add_argument("--kato-samples", type=_positive_int, default=10000)
    common(p)
    p.set_defaults(func=cmd_harmonicity)

    p = sub.add_parser("compare", help="distance Laplacian and Hessian block table")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--delta", type=int, choices=(-1, 0, 1), default=-1)
    p.add_argument("--r-min", type=float, default=None)
    p.add_argument("--r-max", type=float, required=True)
    p.add_argument("--steps", type=int, default=50)
    common(p, seed=False)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("riccati", help="barrier table and comparison trajectories")
    p.add_argument("--delta", type=int, choices=(-1, 0, 1), default=-1)
    p.add_argument("--block", choices=("line", "transversal"), default="line")
    p.add_argument("--r-min", type=float, default=0.1)
    p.add_argument("--r-max", type=float, default=3.0)
    p.add_argument("--steps", type=int, default=300)
    p.add_argument("--samples", type=_positive_int, default=25)
    common(p)
    p.set_defaults(func=cmd_riccati)

    p = sub.add_parser("volume", help="area density and ball volume table")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--delta", type=int, choices=(-1, 0, 1), default=-1)
    p.add_argument("--r-min", type=float, default=None)
    p.add_argument("--r-max", type=float, required=True)
    p.add_argument("--steps", type=int, default=50)
    common(p, seed=False)
    p.set_defaults(func=cmd_volume)

    p = sub.add_parser("model", help="solvable-model curvature report")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--scale", type=_parse_fraction, default=Fraction(1),
                   help="level-set scale s = e^{-2t} as p/q")
    p.add_argument("--components", default=None,
                   help="also write the nonzero curvature components as CSV")
    common(p, seed=False)
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("lambda1", help="radial Dirichlet spectral estimate")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--rmax", type=float, default=12.0)
    p.add_argument("--rmin", type=float, default=1e-3)
    p.add_argument("--mesh", type=int, default=20000)
    p.add_argument("--study", action="store_true")
    common(p, seed=False)
    p.set_defaults(func=cmd_lambda1)

    p = sub.add_parser("suite", help="run the full acceptance battery")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ContractViolation, ValueError) as exc:
        parser.exit(2, f"qkcomp: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
