"""The acceptance battery: every numbered criterion as a callable check
suite with fixed seeds, shared by `qkcomp suite` and the test suite.

Each check family is built by one parameterized builder; the criteria call
the builders with their fixed sizes and seeds, and the CLI subcommands call
them with the user's.  Every random stream is made through this module's
`random` name.

Reports carry no timestamps or timings, so repeated runs emit identical
bytes; wall-clock budgets are asserted by the tests around these calls.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from .comparison import (
    ModelGeometry,
    area_density,
    eigenvalue_bounds,
    flat_laplacian_coefficient,
    flat_laplacian_coefficient_printed,
    laplacian_distance,
    volume_ratio_check,
)
from .forms import ExactArray
from .identities import check_operator_identities, operator_tables
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
    model_curvature,
    verify_berger,
    verify_einstein,
    verify_parallel_four_form,
    verify_quaternionic_traces,
    verify_radial_slabs,
)
from .quaternionic import (
    HessianMatrix,
    build_frame,
    busemann_hessian,
    equality_case_hessian,
    kato_gap_scan,
    random_traceless_hessian,
    refined_kato_gap,
    siu_corlette_defect,
    verify_star_commutation,
)
from .report import Check, Report, check_eq, check_true
from .riccati import comparison_excess, line_block, transversal_block
from .spectral import RadialProblem, convergence_study, lambda1_dirichlet, rayleigh_quotient


def _tagged(n: int, checks: list[Check]) -> list[Check]:
    """Prefix each check name with [n=<n>] unless it already starts with n=<n>."""
    for chk in checks:
        if not chk.name.startswith(f"n={n}"):
            chk.name = f"[n={n}] {chk.name}"
    return checks


def identity_checks(dim: int, degrees) -> list[Check]:
    """The six operator identities in dimension `dim` at each degree,
    proved on every basis form and basis index."""
    tables = operator_tables(dim)
    checks = []
    for degree in degrees:
        for res in check_operator_identities(dim, degree, tables):
            checks.append(Check(
                f"dim {dim} degree {degree} identity {res.name}",
                f"exact on the full basis ({res.cases} cases)",
                "pass" if res.passed else
                f"fail: {res.violations} violations, first at {res.first}",
                res.passed))
    return checks


def criterion_1_identities() -> Report:
    """Operator identities: exact on every basis form and basis index,
    dims 4 and 8, all degrees."""
    rep = Report("criterion-1-operator-identities")
    for dim in (4, 8):
        rep.extend(identity_checks(dim, range(1, dim + 1)))
    return rep


def defect_checks(n: int, seed: int) -> list[Check]:
    """The defect form's top coefficient is 6 x the line sum on every line,
    vanishes for the zero Hessian, and is linear on two trace-free Hessians
    drawn from random.Random(seed)."""
    frame = build_frame(n)
    m = frame.dim
    checks = []
    for line in range(1, n + 1):
        entries = {(i - 1, i - 1): v
                   for i, v in zip(frame.line_indices(line), (2, 1, 1, 1))}
        other = frame.line_indices(1 if line != 1 else 2)[0]
        entries[other - 1, other - 1] = -5
        H = HessianMatrix(frame, ExactArray.from_entries((m, m), entries))
        form = siu_corlette_defect(H)
        checks.append(check_eq(
            f"n={n} line {line}: top coefficient = 6 x line sum",
            Fraction(6) * H.line_sum(line),
            form.coefficient(frame.line_indices(line))))
    checks.append(check_true(
        f"n={n} zero Hessian gives the zero defect form",
        siu_corlette_defect(HessianMatrix.zero(frame)).is_zero()))

    rng = random.Random(seed)
    H1 = random_traceless_hessian(frame, rng)
    H2 = random_traceless_hessian(frame, rng)
    lin = siu_corlette_defect(HessianMatrix(frame, 2 * H1.table + 3 * H2.table))
    combo = 2 * siu_corlette_defect(H1) + 3 * siu_corlette_defect(H2)
    checks.append(check_true(f"n={n} defect form is linear in the Hessian",
                             lin == combo))
    return checks


def star_commutation_check(n: int, samples: int, seed: int) -> Check:
    """The star commutation identity on `samples` trace-free Hessians drawn
    from random.Random(seed)."""
    frame = build_frame(n)
    rng = random.Random(seed)
    bad = 0
    for _ in range(samples):
        if not verify_star_commutation(random_traceless_hessian(frame, rng)):
            bad += 1
    return Check(f"star commutation identity, n={n}, {samples} trace-free samples",
                 f"0 of {samples}", f"{bad} of {samples}", bad == 0)


def criterion_2_harmonicity() -> Report:
    """Quaternionic harmonicity: defect coefficient 6 per line; the star
    commutation identity on 200 random trace-free Hessians at n=2 and 50
    at n=3."""
    rep = Report("criterion-2-harmonicity")
    for n in (2, 3):
        rep.extend(defect_checks(n, 1500 + n))
    for n, samples, seed in ((2, 200, 2222), (3, 50, 2333)):
        rep.checks.append(star_commutation_check(n, samples, seed))
    return rep


TRAJECTORY_MARGIN = 1e-6
BLOCKS = {"line": line_block, "transversal": transversal_block}


def barrier_residual_checks(block: str, delta: int) -> list[Check]:
    """The barrier of one block solves the equality Riccati equation:
    symbolic residual exactly 0, floating residual <= 1e-12 at three points."""
    barrier = BLOCKS[block](delta)
    resid = barrier.symbolic_residual()
    ts = np.array((0.2, 0.5, 0.7) if delta == 1 and block == "line" else (0.5, 1.0, 2.0))
    m, K = float(barrier.m), float(barrier.K)
    worst = float(np.abs(barrier.derivative(ts) + barrier(ts) ** 2 / m + m * K).max())
    return [check_true(f"{block} block, delta={delta}: symbolic residual is exactly 0",
                       all(v == 0 for v in resid.values()),
                       detail=",".join(f"{k}={v}" for k, v in resid.items())),
            check_true(f"{block} block, delta={delta}: floating residual <= 1e-12",
                       worst <= 1e-12, detail=f"{worst:.3e}")]


def trajectory_checks(instances, samples: int, seed: int, t0_min: float,
                      t0_span: float, r_max: float, steps: int) -> list[Check]:
    """For each (block, delta) of `instances`: `samples` comparison
    trajectories started below the barrier, at t0 = t0_min + t0_span U and
    u0 = barrier(t0) - 3 U' with U, U' drawn from the instance's own
    random.Random(seed), stay <= barrier + TRAJECTORY_MARGIN up to r_max
    (RK4, `steps` steps; every instance in one batch)."""
    data = []
    for block, delta in instances:
        barrier = BLOCKS[block](delta)
        rng = random.Random(seed)
        draws = np.array([rng.random() for _ in range(2 * samples)]).reshape(-1, 2)
        t0s = t0_min + t0_span * draws[:, 0]
        data.append((barrier, barrier(t0s) - 3.0 * draws[:, 1], t0s))
    return [check_true(
        f"instance ({block} {delta}): {samples} trajectories stay <= barrier + 1e-6",
        worst <= TRAJECTORY_MARGIN, detail=f"max excess {worst:.3e}, truncated {truncated}")
        for (block, delta), (worst, truncated)
        in zip(instances, comparison_excess(data, r_max, steps))]


def criterion_3_riccati() -> Report:
    """Riccati barriers: symbolic residual exactly zero; seeded comparison
    trajectories never exceed barrier + 1e-6."""
    rep = Report("criterion-3-riccati-barriers")
    for block in BLOCKS:
        for delta in (-1, 0, 1):
            rep.extend(barrier_residual_checks(block, delta))
    rep.extend(trajectory_checks([(block, delta) for delta in (-1, 0) for block in BLOCKS],
                                 100, 333, 0.1, 0.4, 3.0, 1200))
    return rep


def closed_form_check(g: ModelGeometry, rgrid) -> Check:
    """The distance Laplacian, one line block plus n-1 transversal blocks,
    equals its closed form on the grid within 1e-12, or 4 ulps of the closed
    form where those are wider (from 2048 on)."""
    n, delta = g.n, g.delta
    rs = np.asarray(rgrid, dtype=float)
    if delta == -1:
        direct = 6 / np.tanh(2 * rs) + 4 * (n - 1) / np.tanh(rs)
    elif delta == 0:
        direct = (4 * n - 1) / rs
    else:
        direct = 6 / np.tan(2 * rs) + 4 * (n - 1) / np.tan(rs)
    dev = np.abs(laplacian_distance(g, rs) - direct)
    ok = bool((dev <= np.maximum(1e-12, 4 * np.spacing(np.abs(direct)))).all())
    return check_true(f"delta={delta}: laplacian = line + (n-1) transversal blocks",
                      ok, detail=f"{float(dev.max(initial=0.0)):.3e}")


def log_derivative_check(g: ModelGeometry, rgrid) -> Check:
    """(d/dr) log J equals the Laplacian within 1e-8 max(1, 1/d), where d is
    the distance from r to the nearest pole of the Laplacian: r itself, and
    for delta=1 also pi/2 - r.  The central difference is
    log(J(r+h)/J(r-h)) over the representable step (r+h) - (r-h), with
    h = 1e-6 d, at every grid point where that step is nonzero; fails when
    no point has one.  The detail is the worst deviation times min(1, d),
    which the bound holds to 1e-8: the difference error grows like 1/d
    towards a pole."""
    rs = np.asarray(rgrid, dtype=float)
    d = np.minimum(rs, math.pi / 2 - rs) if g.delta == 1 else rs
    h = 1e-6 * d
    step = (rs + h) - (rs - h)
    keep = step > 0
    rs, d, h, step = rs[keep], d[keep], h[keep], step[keep]
    fd = np.log(area_density(g, rs + h) / area_density(g, rs - h)) / step
    worst = float((np.abs(fd - laplacian_distance(g, rs)) * np.minimum(1.0, d)).max(initial=0.0))
    points = rs.size
    return check_true(f"(d/dr) log J = laplacian at {points} grid points (1e-8)",
                      points > 0 and worst <= 1e-8, detail=f"{worst:.3e}")


def volume_ratio_equality_check(g: ModelGeometry, r1: float, r2: float) -> Check:
    """The model's ball-volume ratio V(r2)/V(r1), where Bishop-Gromov
    comparison holds with equality, by quadrature matches its closed form
    within 1e-10."""
    ratio, model_ratio = volume_ratio_check(g, r1, r2)
    dev = abs(ratio / model_ratio - 1)
    return check_true("volume ratio equality case within 1e-10",
                      dev <= 1e-10, detail=f"|ratio/model - 1| = {dev:.3e}")


def flat_coefficient_check(n: int, r: float) -> Check:
    """r times the flat Laplacian at r is the derived 4n-1 within 1e-12."""
    val = laplacian_distance(ModelGeometry(n, 0), r) * r
    return check_true(
        "delta=0 coefficient is 4n-1 (printed 4n-3 flagged as erratum)",
        abs(val - flat_laplacian_coefficient(n)) <= 1e-12,
        detail=f"derived {val:.12g}, printed {flat_laplacian_coefficient_printed(n)}")


def sharpening_check(n_max: int = 50) -> Check:
    """(2n+1)^2 lies below the rescaled Cheng bound (4n-1)(n+2) for n = 2..n_max."""
    bad = []
    for k in range(2, n_max + 1):
        eb = eigenvalue_bounds(k)
        if not eb.quaternionic < eb.real_cheng:
            bad.append(k)
    return check_eq(f"sharpening (2n+1)^2 < (4n-1)(n+2), n=2..{n_max}", [], bad)


def criterion_4_comparison() -> Report:
    """Comparison bookkeeping: block-sum assembly, log-derivative of the
    density, the volume-ratio equality case, and the flat-coefficient
    erratum flag."""
    rep = Report("criterion-4-comparison")
    n = 2
    for delta in (-1, 0, 1):
        rep.checks.append(closed_form_check(ModelGeometry(n, delta),
                                            [0.1 + 0.065 * i for i in range(20)]))
    g = ModelGeometry(n, -1)
    rep.checks.append(log_derivative_check(g, [0.3 + 0.15 * i for i in range(20)]))
    rep.checks.append(volume_ratio_equality_check(g, 1.0, 2.0))
    rep.checks.append(flat_coefficient_check(n, 1.7))
    rep.notes.append(
        "flat Laplacian coefficient: derived (4n-1)/r from the block barriers "
        "3/t + 4(n-1)/t; the printed (4n-3)/r is reported as an erratum")
    rep.notes.append(
        "transversal Hessian bound: 4 coth t per the transversal barrier; "
        "the printed 4 coth 2t is reported as an erratum")
    rep.checks.append(check_eq("quaternionic bound (2n+1)^2, n=2", 25,
                               eigenvalue_bounds(n).quaternionic))
    rep.checks.append(sharpening_check())
    return rep


def model_battery(n: int) -> list[Check]:
    """The exact curvature battery of the solvable model of dimension 4n."""
    sc = build_model(n)
    R = model_curvature(n)
    checks: list[Check] = []
    checks.append(check_eq(f"n={n}: derived bracket scale", Fraction(2), sc.c))
    checks.append(check_eq(f"n={n}: tensor symmetries and first Bianchi",
                           0, R.symmetry_violations()))
    checks.extend(verify_einstein(R))
    sec_bad = sum(1 for p in (2, 3, 4) if R.sectional(1, p) != -4)
    sec_bad += sum(1 for al in range(5, 4 * n + 1) if R.sectional(1, al) != -1)
    checks.append(check_eq(f"n={n}: K(e1,e_p) = -4 and K(e1,e_a) = -1", 0, sec_bad))
    checks.extend(verify_radial_slabs(R))
    checks.extend(verify_quaternionic_traces(R))
    berger = verify_berger(R)
    checks.extend(berger.checks)
    checks.extend(verify_parallel_four_form(sc, berger).checks)
    return _tagged(n, checks)


def criterion_5_model_curvature() -> Report:
    """Full model-curvature battery for n = 2 and n = 3, all exact."""
    rep = Report("criterion-5-model-curvature")
    for n in (2, 3):
        rep.extend(model_battery(n))
    return rep


def level_set_battery(n: int, scale: Fraction) -> list[Check]:
    """Horosphere checks at scale s = e^{-2t}: the shape operator and the
    curvature sums at s, the Gauss equation at scales 1 and s, the displays
    weighted by s against scale 1, and the Busemann cross-check."""
    sc = build_model(n)
    R = model_curvature(n)
    base = level_set_geometry(sc, Fraction(1))
    lsg = base if scale == 1 else level_set_geometry(sc, scale)
    checks = (verify_second_fundamental(lsg)
              + verify_level_set_sums(lsg)
              + verify_gauss_equation(R, base))
    if scale != 1:
        checks += verify_gauss_equation(R, lsg) + verify_weighted_displays(R, base, scale)
    return _tagged(n, checks + radial_hessian_check(sc))


def criterion_6_level_sets() -> Report:
    """Gauss equation at scales 1 and 1/4, horosphere curvature sums and
    weighted displays at 1/4."""
    rep = Report("criterion-6-level-sets")
    for n in (2, 3):
        rep.extend(level_set_battery(n, Fraction(1, 4)))
    return rep


def convergence_check(n: int, rows: list[dict]) -> Check:
    """The Dirichlet estimates of a convergence study decrease as r_max
    grows and stay above (2n+1)^2."""
    target = eigenvalue_bounds(n).quaternionic
    decreasing = all(a["lambda1"] > b["lambda1"] for a, b in zip(rows, rows[1:]))
    above = all(row["lambda1"] > target for row in rows)
    return check_true(f"n={n}: estimates decrease in r_max and stay above {target}",
                      decreasing and above,
                      detail=",".join(f"{row['lambda1']:.6f}" for row in rows))


def criterion_7_spectral() -> Report:
    """Spectral sharpness of (2n+1)^2 from above, with the Rayleigh upper
    bound and the sharpening over the rescaled Cheng constant."""
    rep = Report("criterion-7-spectral")
    # the last row solves RadialProblem(2, 1e-3, 12.0, 20000)
    rows = convergence_study(2, [6.0, 9.0, 12.0], 20000)
    last = rows[-1]
    target = last["target"]
    rep.results.append({"n": 2, "r_max": last["r_max"], "mesh": last["mesh"],
                        "lambda1": last["lambda1"], "target": target, "gap": last["gap"]})
    rep.checks.append(check_true(
        f"n=2: lambda1(r_max=12, mesh 20000) in ({target}, {target + 1})",
        target < last["lambda1"] < target + 1, detail=f"{last['lambda1']:.9f}"))

    rep.checks.append(convergence_check(2, rows))
    rep.checks.append(check_true(
        "n=2: gap at r_max=12 below 1",
        last["gap"] < 1.0, detail=f"{last['gap']:.6f}"))

    rmax = 30.0
    trial = lambda r: np.exp(-5 * r) * (1 - r / rmax)
    dtrial = lambda r: np.exp(-5 * r) * (-5 * (1 - r / rmax) - 1 / rmax)
    q = rayleigh_quotient(RadialProblem(2, 1e-3, rmax, 20000), trial, dtrial)
    rep.checks.append(check_true(
        "n=2: Rayleigh quotient of e^{-5r} trial <= 25.6",
        q <= 25.6, detail=f"{q:.6f}"))

    est3 = lambda1_dirichlet(RadialProblem(3, 1e-3, 12.0, 20000))
    target = eigenvalue_bounds(3).quaternionic
    rep.results.append({"n": 3, "r_max": 12.0, "mesh": 20000,
                        "lambda1": est3.lambda1, "target": target,
                        "gap": est3.lambda1 - target})
    rep.checks.append(check_true(
        f"n=3: lambda1(r_max=12, mesh 20000) in ({target}, {target + 1})",
        target < est3.lambda1 < target + 1, detail=f"{est3.lambda1:.9f}"))
    rep.checks.append(sharpening_check())
    return rep


KATO_SAMPLES = 100_000


def kato_scan_check(n: int, samples: int, seed: int) -> Check:
    """The refined Kato gap is >= 0 on `samples` seeded quaternionic-harmonic
    Hessians."""
    negatives, min_gap = kato_gap_scan(n, samples, seed=seed)
    return Check(
        f"gap >= 0 on {samples} seeded quaternionic-harmonic Hessians (n={n})",
        "0 negative", f"{negatives} negative, min gap {min_gap}", negatives == 0)


def kato_equality_checks(n: int) -> list[Check]:
    """The equality-case shape and the zero Hessian have exact Kato gap 0."""
    frame = build_frame(n)
    checks = [check_eq(f"equality-case shape (mu={mu}) has exact gap 0", Fraction(0),
                       refined_kato_gap(equality_case_hessian(frame, mu)).gap)
              for mu in (Fraction(1), Fraction(7, 3))]
    checks.append(check_eq("zero Hessian gap", Fraction(0),
                           refined_kato_gap(HessianMatrix.zero(frame)).gap))
    return checks


def busemann_checks(n: int) -> list[Check]:
    """Trace, norm, line sum and spectrum of the Busemann equality-case Hessian."""
    bus = busemann_hessian(n)
    diag = sorted(bus.diagonal().fractions())
    expected = sorted([Fraction(0)] + [Fraction(-2)] * 3 + [Fraction(-1)] * (4 * n - 4))
    return [
        check_eq(f"n={n}: Busemann Hessian trace = -2(2n+1)",
                 Fraction(-2 * (2 * n + 1)), bus.trace()),
        check_eq(f"n={n}: Busemann |H|^2 = 4(n+2)",
                 Fraction(4 * (n + 2)), bus.frobenius_sq()),
        check_eq(f"n={n}: Busemann line-1 diagonal sum = -6",
                 Fraction(-6), bus.line_sum(1)),
        check_true(f"n={n}: Busemann eigenvalues {{0, -2 x3, -1 x(4n-4)}}",
                   diag == expected),
    ]


def criterion_8_refined_kato() -> Report:
    """Refined Kato gap nonnegative on 1e5 seeded constrained Hessians,
    equality on the stated shape, and the Busemann Hessian identities."""
    rep = Report("criterion-8-refined-kato")
    rep.checks.append(kato_scan_check(2, KATO_SAMPLES, 888))
    rep.extend(kato_equality_checks(2))
    for n in (2, 3):
        rep.extend(busemann_checks(n))
    return rep


CRITERIA = (
    ("criterion 1: operator identities", criterion_1_identities),
    ("criterion 2: quaternionic harmonicity", criterion_2_harmonicity),
    ("criterion 3: riccati barriers", criterion_3_riccati),
    ("criterion 4: comparison bookkeeping", criterion_4_comparison),
    ("criterion 5: model curvature", criterion_5_model_curvature),
    ("criterion 6: gauss and level sets", criterion_6_level_sets),
    ("criterion 7: spectral sharpness", criterion_7_spectral),
    ("criterion 8: refined kato", criterion_8_refined_kato),
)


def run_suite() -> tuple[int, str, list[Report]]:
    """Run the full battery; returns (exit status, summary text, reports)."""
    lines = []
    reports = []
    failed = False
    for label, fn in CRITERIA:
        rep = fn()
        reports.append(rep)
        ok = rep.passed
        failed = failed or not ok
        lines.append(f"{label}: {'PASS' if ok else 'FAIL'} "
                     f"({sum(c.passed for c in rep.checks)}/{len(rep.checks)} checks)")
        for chk in rep.failures():
            lines.append(f"  FAIL {chk.name}: expected {chk.expected}, "
                         f"got {chk.actual}")
    lines.append("suite: " + ("FAIL" if failed else "PASS"))
    return (1 if failed else 0), "\n".join(lines) + "\n", reports
