"""The acceptance battery: every numbered criterion as a callable check
suite with fixed seeds, shared by `qkcomp suite` and the test suite.

Reports carry no timestamps or timings, so repeated runs emit identical
bytes; wall-clock budgets are asserted by the tests around these calls.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .comparison import (
    ModelGeometry,
    area_density,
    eigenvalue_bounds,
    flat_laplacian_coefficient,
    flat_laplacian_coefficient_printed,
    hessian_block_bounds,
    laplacian_distance,
    volume_ratio_check,
)
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
    model_curvature,
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
from .report import Check, Report, check_eq, check_true
from .riccati import integrate_riccati_batch, line_block_problem, riccati_barrier, transversal_block_problem
from .spectral import RadialProblem, convergence_study, lambda1_dirichlet, rayleigh_quotient


def criterion_1_identities() -> Report:
    """Operator identities: exact pass on 100 seeded samples per identity,
    dims 4 and 8, all degrees."""
    rep = Report("criterion-1-operator-identities")
    for dim in (4, 8):
        for degree in range(1, dim + 1):
            idrep = check_star_identities(dim, degree, trials=100,
                                          seed=1000 + 100 * dim + degree)
            for res in idrep.results:
                rep.checks.append(Check(
                    f"dim {dim} degree {degree} identity {res.name}",
                    "exact on 100 samples",
                    "pass" if res.passed else f"fail: {res.counterexample}",
                    res.passed))
    return rep


def criterion_2_harmonicity() -> Report:
    """Quaternionic harmonicity: defect coefficient 6 per line; the star
    commutation identity on 200 random trace-free Hessians at n=2 and 50
    at n=3."""
    rep = Report("criterion-2-harmonicity")
    for n in (2, 3):
        frame = build_frame(n, Layout.INTERLEAVED)
        m = frame.dim
        for line in range(1, n + 1):
            h = [[Fraction(0)] * m for _ in range(m)]
            a, b, c, d = frame.line_indices(line)
            h[a - 1][a - 1] = Fraction(2)
            h[b - 1][b - 1] = Fraction(1)
            h[c - 1][c - 1] = Fraction(1)
            h[d - 1][d - 1] = Fraction(1)
            other = frame.line_indices(1 if line != 1 else 2)[0]
            h[other - 1][other - 1] += Fraction(-5)
            H = HessianMatrix(frame, h)
            form = siu_corlette_defect(H)
            rep.checks.append(check_eq(
                f"n={n} line {line}: top coefficient = 6 x line sum",
                Fraction(6) * H.line_sum(line),
                form.coefficient(frame.line_indices(line))))
        rep.checks.append(check_true(
            f"n={n} zero Hessian gives the zero defect form",
            siu_corlette_defect(HessianMatrix.zero(frame)).is_zero()))

        rng = random.Random(1500 + n)
        H1 = random_traceless_hessian(frame, rng)
        H2 = random_traceless_hessian(frame, rng)
        lin = siu_corlette_defect(HessianMatrix(
            frame, [[2 * H1.entries[i][j] + 3 * H2.entries[i][j]
                     for j in range(m)] for i in range(m)]))
        combo = 2 * siu_corlette_defect(H1) + 3 * siu_corlette_defect(H2)
        rep.checks.append(check_true(f"n={n} defect form is linear in the Hessian",
                                     lin == combo))

    for n, samples, seed in ((2, 200, 2222), (3, 50, 2333)):
        frame = build_frame(n, Layout.INTERLEAVED)
        rng = random.Random(seed)
        bad = 0
        for _ in range(samples):
            if not verify_star_commutation(random_traceless_hessian(frame, rng)):
                bad += 1
        rep.checks.append(Check(
            f"star commutation identity, n={n}, {samples} trace-free samples",
            f"0 of {samples}", f"{bad} of {samples}", bad == 0))
    return rep


TRAJECTORY_MARGIN = 1e-6


def criterion_3_riccati() -> Report:
    """Riccati barriers: symbolic residual exactly zero; seeded comparison
    trajectories never exceed barrier + 1e-6."""
    rep = Report("criterion-3-riccati-barriers")
    for name, prob in (("line", line_block_problem), ("transversal", transversal_block_problem)):
        for delta in (-1, 0, 1):
            barrier = riccati_barrier(prob(delta))
            resid = barrier.symbolic_residual()
            rep.checks.append(check_true(
                f"{name} block, delta={delta}: symbolic residual is exactly 0",
                all(v == 0 for v in resid.values()),
                detail=",".join(f"{k}={v}" for k, v in resid.items())))
            ts = (0.2, 0.5, 0.7) if delta == 1 and name == "line" else (0.5, 1.0, 2.0)
            worst = max(abs(barrier.derivative(t)
                            + barrier(t) ** 2 / float(prob(delta).m)
                            + float(prob(delta).m) * float(prob(delta).K))
                        for t in ts)
            rep.checks.append(check_true(
                f"{name} block, delta={delta}: floating residual <= 1e-12",
                worst <= 1e-12, detail=f"{worst:.3e}"))

    for name, prob in (("line -1", line_block_problem(-1)),
                       ("transversal -1", transversal_block_problem(-1)),
                       ("line 0", line_block_problem(0)),
                       ("transversal 0", transversal_block_problem(0))):
        barrier = riccati_barrier(prob)
        rng = random.Random(333)
        t0s, u0s = [], []
        for _ in range(100):
            t0s.append(0.1 + 0.4 * rng.random())
            u0s.append(barrier(t0s[-1]) - 3.0 * rng.random())
        batch = integrate_riccati_batch(prob, u0s, t0s, 3.0, steps=1200)
        worst = batch.max_excess(barrier)
        truncated = int(batch.truncated.sum())
        rep.checks.append(check_true(
            f"instance ({name}): 100 trajectories stay <= barrier + 1e-6",
            worst <= TRAJECTORY_MARGIN,
            detail=f"max excess {worst:.3e}, truncated {truncated}"))
    return rep


def criterion_4_comparison() -> Report:
    """Comparison bookkeeping: block-sum assembly, log-derivative of the
    density, the volume-ratio equality case, and the flat-coefficient
    erratum flag."""
    rep = Report("criterion-4-comparison")
    n = 2
    for delta in (-1, 0, 1):
        g = ModelGeometry(n, delta)
        rgrid = [0.1 + 0.065 * i for i in range(20)]
        worst = 0.0
        for r in rgrid:
            line, trans = hessian_block_bounds(g, r)
            if delta == -1:
                direct = 6 / math.tanh(2 * r) + 4 * (n - 1) / math.tanh(r)
            elif delta == 0:
                direct = (4 * n - 1) / r
            else:
                direct = 6 / math.tan(2 * r) + 4 * (n - 1) / math.tan(r)
            worst = max(worst, abs(line + (n - 1) * trans - direct),
                        abs(laplacian_distance(g, r) - direct))
        rep.checks.append(check_true(
            f"delta={delta}: laplacian = line + (n-1) transversal blocks",
            worst <= 1e-12, detail=f"{worst:.3e}"))

    g = ModelGeometry(n, -1)
    fd_step = 1e-6
    worst = 0.0
    for i in range(20):
        r = 0.3 + 0.15 * i
        fd = (math.log(area_density(g, r + fd_step))
              - math.log(area_density(g, r - fd_step))) / (2 * fd_step)
        worst = max(worst, abs(fd - laplacian_distance(g, r)))
    rep.checks.append(check_true(
        "(d/dr) log J = laplacian at 20 grid points (1e-8)",
        worst <= 1e-8, detail=f"{worst:.3e}"))

    res = volume_ratio_check(lambda r: area_density(g, r), g, 1.0, 2.0)
    rep.checks.append(check_true(
        "volume ratio equality case within 1e-10",
        abs(res.ratio / res.model_ratio - 1) <= 1e-10 and res.holds,
        detail=f"|ratio/model - 1| = {abs(res.ratio / res.model_ratio - 1):.3e}"))

    flat = ModelGeometry(n, 0)
    val = laplacian_distance(flat, 1.7) * 1.7
    rep.checks.append(check_true(
        "delta=0 coefficient is 4n-1 (printed 4n-3 flagged as erratum)",
        abs(val - flat_laplacian_coefficient(n)) <= 1e-12,
        detail=f"derived {val:.12g}, printed {flat_laplacian_coefficient_printed(n)}"))
    rep.notes.append(
        "flat Laplacian coefficient: derived (4n-1)/r from the block barriers "
        "3/t + 4(n-1)/t; the printed (4n-3)/r is reported as an erratum")
    rep.notes.append(
        "transversal Hessian bound: 4 coth t per the transversal barrier; "
        "the printed 4 coth 2t is reported as an erratum")

    eb = eigenvalue_bounds(n)
    rep.checks.append(check_eq("quaternionic bound (2n+1)^2, n=2", 25, eb.quaternionic))
    sharp_bad = [k for k in range(2, 51)
                 if not (2 * k + 1) ** 2 < (4 * k - 1) * (k + 2)]
    rep.checks.append(check_eq("sharpening (2n+1)^2 < (4n-1)(n+2), n=2..50",
                               [], sharp_bad))
    return rep


def _model_battery(n: int) -> list[Check]:
    sc = build_model(n)
    R = model_curvature(n)
    frame = build_frame(n, Layout.INTERLEAVED)
    checks: list[Check] = []
    checks.append(check_eq(f"n={n}: derived bracket scale", Fraction(2), sc.c))
    checks.append(check_eq(f"n={n}: tensor symmetries and first Bianchi",
                           0, R.symmetry_violations()))
    checks.extend(verify_einstein(R, n))
    sec_bad = sum(1 for p in (2, 3, 4) if R.sectional(1, p) != -4)
    sec_bad += sum(1 for al in range(5, 4 * n + 1) if R.sectional(1, al) != -1)
    checks.append(check_eq(f"n={n}: K(e1,e_p) = -4 and K(e1,e_a) = -1", 0, sec_bad))
    checks.extend(verify_radial_slabs(R, n))
    checks.extend(verify_quaternionic_traces(R, frame))
    berger = verify_berger(R, frame, n)
    checks.extend(berger.checks)
    checks.extend(verify_parallel_four_form(sc, frame, berger).checks)
    return checks


def criterion_5_model_curvature() -> Report:
    """Full model-curvature battery for n = 2 and n = 3, all exact."""
    rep = Report("criterion-5-model-curvature")
    for n in (2, 3):
        for chk in _model_battery(n):
            chk.name = f"[n={n}] {chk.name}" if not chk.name.startswith(
                f"n={n}") else chk.name
            rep.checks.append(chk)
    return rep


def criterion_6_level_sets() -> Report:
    """Gauss equation and horosphere curvature sums at scales 1 and 1/4."""
    rep = Report("criterion-6-level-sets")
    for n in (2, 3):
        sc = build_model(n)
        R = model_curvature(n)
        lsg1 = level_set_geometry(sc, Fraction(1))
        checks = (verify_second_fundamental(lsg1)
                  + verify_level_set_sums(lsg1)
                  + verify_gauss_equation(R, lsg1)
                  + verify_gauss_equation(R, level_set_geometry(sc, Fraction(1, 4)))
                  + verify_weighted_displays(R, lsg1, Fraction(1, 4))
                  + radial_hessian_check(sc))
        for chk in checks:
            chk.name = f"[n={n}] {chk.name}"
            rep.checks.append(chk)
    return rep


def criterion_7_spectral() -> Report:
    """Spectral sharpness of (2n+1)^2 from above, with the Rayleigh upper
    bound and the sharpening over the rescaled Cheng constant."""
    rep = Report("criterion-7-spectral")
    est2 = lambda1_dirichlet(RadialProblem(2, 1e-3, 12.0, 20000))
    rep.results.append({"n": 2, "r_max": 12.0, "mesh": 20000,
                        "lambda1": est2.lambda1, "target": 25,
                        "gap": est2.lambda1 - 25})
    rep.checks.append(check_true(
        "n=2: lambda1(r_max=12, mesh 20000) in (25, 26)",
        25 < est2.lambda1 < 26, detail=f"{est2.lambda1:.9f}"))

    rows = convergence_study(2, [6.0, 9.0, 12.0], 20000)
    decreasing = all(a["lambda1"] > b["lambda1"] for a, b in zip(rows, rows[1:]))
    above = all(row["lambda1"] > 25 for row in rows)
    rep.checks.append(check_true(
        "n=2: estimates decrease in r_max and stay above 25",
        decreasing and above,
        detail=",".join(f"{row['lambda1']:.6f}" for row in rows)))
    rep.checks.append(check_true(
        "n=2: gap at r_max=12 below 1",
        rows[-1]["gap"] < 1.0, detail=f"{rows[-1]['gap']:.6f}"))

    rmax = 30.0
    trial = lambda r: math.exp(-5 * r) * (1 - r / rmax)
    dtrial = lambda r: math.exp(-5 * r) * (-5 * (1 - r / rmax) - 1 / rmax)
    q = rayleigh_quotient(RadialProblem(2, 1e-3, rmax, 20000), trial, dtrial)
    rep.checks.append(check_true(
        "n=2: Rayleigh quotient of e^{-5r} trial <= 25.6",
        q <= 25.6, detail=f"{q:.6f}"))

    est3 = lambda1_dirichlet(RadialProblem(3, 1e-3, 12.0, 20000))
    rep.results.append({"n": 3, "r_max": 12.0, "mesh": 20000,
                        "lambda1": est3.lambda1, "target": 49,
                        "gap": est3.lambda1 - 49})
    rep.checks.append(check_true(
        "n=3: lambda1(r_max=12, mesh 20000) in (49, 50)",
        49 < est3.lambda1 < 50, detail=f"{est3.lambda1:.9f}"))

    sharp_bad = [k for k in range(2, 51)
                 if not (2 * k + 1) ** 2 < (4 * k - 1) * (k + 2)]
    rep.checks.append(check_eq("sharpening (2n+1)^2 < (4n-1)(n+2), n=2..50",
                               [], sharp_bad))
    return rep


KATO_SAMPLES = 100_000


def criterion_8_refined_kato() -> Report:
    """Refined Kato gap nonnegative on 1e5 seeded constrained Hessians,
    equality on the stated shape, and the Busemann Hessian identities."""
    rep = Report("criterion-8-refined-kato")
    negatives, min_gap = kato_gap_scan(2, KATO_SAMPLES, seed=888)
    rep.checks.append(Check(
        f"gap >= 0 on {KATO_SAMPLES} seeded quaternionic-harmonic Hessians (n=2)",
        "0 negative", f"{negatives} negative, min gap {min_gap}",
        negatives == 0))

    frame = build_frame(2, Layout.GROUPED)
    for mu in (Fraction(1), Fraction(7, 3)):
        repo = refined_kato_gap(equality_case_hessian(frame, mu))
        rep.checks.append(check_eq(
            f"equality-case shape (mu={mu}) has exact gap 0", Fraction(0), repo.gap))
    zero = refined_kato_gap(HessianMatrix.zero(frame))
    rep.checks.append(check_eq("zero Hessian gap", Fraction(0), zero.gap))

    for n in (2, 3):
        bus = busemann_hessian(n)
        rep.checks.append(check_eq(
            f"n={n}: Busemann Hessian trace = -2(2n+1)",
            Fraction(-2 * (2 * n + 1)), bus.trace()))
        rep.checks.append(check_eq(
            f"n={n}: Busemann |H|^2 = 4(n+2)",
            Fraction(4 * (n + 2)), bus.frobenius_sq()))
        rep.checks.append(check_eq(
            f"n={n}: Busemann line-1 diagonal sum = -6",
            Fraction(-6), bus.line_sum(1)))
        diag = sorted(bus.entries[i][i] for i in range(bus.dim))
        expected = sorted([Fraction(0)] + [Fraction(-2)] * 3
                          + [Fraction(-1)] * (4 * n - 4))
        rep.checks.append(check_true(
            f"n={n}: Busemann eigenvalues {{0, -2 x3, -1 x(4n-4)}}",
            diag == expected))
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
