"""Riccati barriers: closed forms, exact residuals, and the comparison
principle for the certifying integrator."""

import inspect
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from qkcomp.forms import ContractViolation
from qkcomp.riccati import (
    BLOWUP_LIMIT,
    WINDOW,
    ComparisonFunction,
    DomainError,
    _rk4_windows,
    comparison_excess,
    integrate_riccati,
    line_block,
    rational_sqrt,
    transversal_block,
)
from qkcomp.suite import barrier_residual_checks


# -- references: the scalar RK4 loop, one trajectory at a time ----------------
# The integrator steps w = u/m under w' = -(w^2 + K), so reference_rk4_w,
# the same loop in Python floats, is its bitwise oracle.  reference_rk4 is
# the textbook loop in u that the integrator stepped before; RK4 commutes
# with the scaling u = m w, so the two differ only by rounding, and it is
# the differential oracle within W_FORM_RTOL.

# largest |u_w - u_u| / |u_u| between the w-form and the u-form over
# criterion 3's 400 rows (measured 4.8e-15)
W_FORM_RTOL = 2e-14
# largest |u - m w(t)| against the closed-form solution w(t) on every 5th
# of criterion 3's rows (measured 1.06e-8) and on the delta = 1
# trajectories of test_cot_trajectories_match_the_tan_form
CLOSED_FORM_TOL = 2e-8


def reference_rk4(p, u0, t0, t1, steps):
    """(ts, us, truncated) of classical RK4 on u' = -u^2/m - m K in Python
    floats; a value that is not finite or exceeds BLOWUP_LIMIT in size ends
    the trajectory before it."""
    m, K = float(p.m), float(p.K)

    def rhs(u):
        return -u * u / m - m * K

    h = (t1 - t0) / steps
    ts, us = [t0], [u0]
    t, u = t0, u0
    for _ in range(steps):
        k1 = rhs(u)
        k2 = rhs(u + 0.5 * h * k1)
        k3 = rhs(u + 0.5 * h * k2)
        k4 = rhs(u + h * k3)
        u = u + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t = t + h
        if not math.isfinite(u) or abs(u) > BLOWUP_LIMIT:
            return ts, us, True
        ts.append(t)
        us.append(u)
    return ts, us, False


def reference_rk4_w(p, u0, t0, t1, steps):
    """(ts, ws, truncated) of classical RK4 on w' = -(w^2 + K) from
    w0 = u0/m in Python floats, with the stage sum 2 (k2 + k3) + k1 + k4;
    a w that is not finite or exceeds BLOWUP_LIMIT / m in size ends the
    trajectory before it."""
    m, K = float(p.m), float(p.K)

    def rhs(w):
        return -(w * w + K)

    h = (t1 - t0) / steps
    ts, ws = [t0], [u0 / m]
    t, w = ts[0], ws[0]
    for _ in range(steps):
        k1 = rhs(w)
        k2 = rhs(w + 0.5 * h * k1)
        k3 = rhs(w + 0.5 * h * k2)
        k4 = rhs(w + h * k3)
        w = w + (h / 6.0) * (2 * (k2 + k3) + k1 + k4)
        t = t + h
        if not math.isfinite(w) or abs(w) > BLOWUP_LIMIT / m:
            return ts, ws, True
        ts.append(t)
        ws.append(w)
    return ts, ws, False


def closed_form_w(p, w0, tau):
    """The exact solution of w' = -(w^2 + K) with w(0) = w0, at the float
    array tau >= 0 (before any pole)."""
    K = float(p.K)
    if K == 0:
        return w0 / (1 + w0 * tau)
    b = p.frequency
    if K < 0:
        th = np.tanh(b * tau)
        return (b * th + w0) / (1 + (w0 / b) * th)
    tn = np.tan(b * tau)
    return (w0 - b * tn) / (1 + (w0 / b) * tn)


# -- reference: the barrier as the five-field type built it -------------------
# That type stored kind, m, K, |K| and the exact sqrt(|K|) (or None), took its
# amplitude as float(m) times the float frequency, and was made from (m, K)
# by a factory; ComparisonFunction(m, K) works all of that out itself.

def reference_block_barrier(m, K):
    """(barrier, derivative) of u' + u^2/m + m K = 0 with u ~ m/t at 0, as
    functions of a float array, computed as the five-field type did."""
    m_float = float(m)
    if K == 0:
        return (lambda t: m_float / t), (lambda t: -m_float / (t * t))
    root = rational_sqrt(abs(F(K)))
    b = float(root) if root is not None else math.sqrt(float(abs(F(K))))
    a = m_float * b
    tan_or_tanh, sin_or_sinh = (np.tan, np.sin) if K > 0 else (np.tanh, np.sinh)

    def derivative(t):
        s = sin_or_sinh(b * t)
        return -a * b / (s * s)

    return (lambda t: a / tan_or_tanh(b * t)), derivative


# criterion 4's grids: the closed-form check's and the log-derivative check's
CRITERION_4_RADII = ([0.1 + 0.065 * i for i in range(20)]
                     + [0.3 + 0.15 * i for i in range(20)])


# -- reference: the barrier one float at a time, with libm ---------------------

def reference_domain_check(barrier, t):
    if t <= 0:
        raise DomainError(f"barrier domain is t > 0, got t={t}")
    pole = barrier.pole
    if pole is not None and t >= pole:
        raise DomainError(f"cot barrier valid on (0, {pole:.6g}), got t={t}")


def reference_barrier(barrier, t):
    """The barrier at a float t, with libm's tan/tanh."""
    reference_domain_check(barrier, t)
    if barrier.kind == "reciprocal":
        return float(barrier.m) / t
    if barrier.kind == "coth":
        return barrier.amplitude / math.tanh(barrier.frequency * t)
    return barrier.amplitude / math.tan(barrier.frequency * t)


def reference_barrier_derivative(barrier, t):
    """The barrier's derivative at a float t, with libm's sin/sinh."""
    reference_domain_check(barrier, t)
    if barrier.kind == "reciprocal":
        return -float(barrier.m) / (t * t)
    b = barrier.frequency
    a = barrier.amplitude
    s = math.sinh(b * t) if barrier.kind == "coth" else math.sin(b * t)
    return -a * b / (s * s)


def reference_excess(barrier, u0s, t0s, t1, steps):
    """(largest u - barrier(t) over every valid point, number truncated) of
    reference_rk4_w's trajectories from (u0s, t0s), as m (w - barrier/m)."""
    m = float(barrier.m)
    worst, truncated = -math.inf, 0
    for u0, t0 in zip(u0s, t0s):
        ts, ws, cut = reference_rk4_w(barrier, u0, t0, t1, steps)
        worst = max(worst, float(m * (np.array(ws) - barrier(np.array(ts)) / m).max()))
        truncated += cut
    return worst, truncated


def criterion_3_inputs(barrier, count=100):
    """The seeded initial data of criterion 3 in qkcomp.suite."""
    rng = random.Random(333)
    t0s, u0s = [], []
    for _ in range(count):
        t0s.append(0.1 + 0.4 * rng.random())
        u0s.append(barrier(t0s[-1]) - 3.0 * rng.random())
    return u0s, t0s


CRITERION_3_INSTANCES = [line_block(-1), transversal_block(-1),
                         line_block(0), transversal_block(0)]


def test_barrier_forms_match_the_displayed_bounds():
    b = line_block(-1)
    assert b.kind == "coth" and b.amplitude == 6.0 and b.frequency == 2.0
    b = transversal_block(-1)
    assert b.kind == "coth" and b.amplitude == 4.0 and b.frequency == 1.0
    b = line_block(0)
    assert b.kind == "reciprocal"
    assert b(2.0) == 1.5
    b = transversal_block(0)
    assert b(2.0) == 2.0
    b = line_block(1)
    assert b.kind == "cot" and b.amplitude == 6.0 and b.frequency == 2.0
    b = transversal_block(1)
    assert b.kind == "cot" and b.amplitude == 4.0 and b.frequency == 1.0


@pytest.mark.parametrize("delta", [-1, 0, 1])
@pytest.mark.parametrize("block", [line_block, transversal_block])
def test_symbolic_residual_vanishes(block, delta):
    barrier = block(delta)
    assert all(v == 0 for v in barrier.symbolic_residual().values())


def test_symbolic_residual_nonzero_for_wrong_flat_constant(monkeypatch):
    # c/t solves the K = 0 equation only for c = m: with the exact amplitude
    # set to 2m the t^-2 coefficient -c + c^2/m survives
    monkeypatch.setattr(ComparisonFunction, "a", property(lambda self: 2 * F(self.m)))
    assert transversal_block(0).symbolic_residual() == {"t^-2": 8, "1": 0}


@pytest.mark.parametrize("block, delta, residual", [
    ("line", -1, {"coth^2": -3, "1": -6}),
    ("transversal", -1, {"coth^2": 0, "1": 0}),
    ("line", 0, {"t^-2": 0, "1": 0}),
    ("line", 1, {"cot^2": -3, "1": 6}),
])
def test_residual_checks_fail_with_the_amplitude_set_to_m(monkeypatch, block, delta, residual):
    # the symbolic residual is computed from the exact a and b whose floats
    # the barrier evaluates, so an amplitude m instead of m b shows in it and
    # in the floating residual; at b = 1 and at K = 0, m b is m
    monkeypatch.setattr(ComparisonFunction, "a", property(lambda self: F(self.m)))
    symbolic, floating = barrier_residual_checks(block, delta)
    assert symbolic.actual == ",".join(f"{k}={v}" for k, v in residual.items())
    wrong = any(residual.values())
    assert symbolic.passed == floating.passed == (not wrong)


def test_comparison_function_is_m_and_K():
    # kind, frequency, amplitude and pole are worked out from (m, K)
    assert list(inspect.signature(ComparisonFunction).parameters) == ["m", "K"]
    barrier = ComparisonFunction(F(3), F(-4))
    assert (barrier.kind, barrier.b, barrier.a) == ("coth", 2, 6)
    barrier = ComparisonFunction(F(4), F(1, 9))
    assert (barrier.kind, barrier.b, barrier.a) == ("cot", F(1, 3), F(4, 3))
    assert barrier.pole == pytest.approx(3 * math.pi)
    with pytest.raises(AttributeError):
        barrier.m = F(5)


def test_floating_residual_on_grid():
    for barrier in (line_block(-1), transversal_block(-1)):
        for t in (0.5, 1.0, 2.0):
            resid = (barrier.derivative(t) + barrier(t) ** 2 / float(barrier.m)
                     + float(barrier.m * barrier.K))
            assert abs(resid) <= 1e-12


def test_equality_solution_tracked_to_1e8():
    barrier = line_block(-1)
    traj = integrate_riccati(barrier, barrier(0.1), 0.1, 3.0, steps=10000)
    assert not traj.truncated
    assert np.abs(np.array(traj.us) - barrier(np.array(traj.ts))).max() <= 1e-8


def test_flat_equality_solution():
    barrier = transversal_block(0)
    traj = integrate_riccati(barrier, 4.0 / 0.5, 0.5, 4.0, steps=5000)
    worst = max(abs(u - 4.0 / t) for t, u in zip(traj.ts, traj.us))
    assert worst <= 1e-8


def test_comparison_principle_oracle_high_resolution():
    # one trajectory checked against the barrier at oracle step count 1e5
    barrier = line_block(-1)
    traj = integrate_riccati(barrier, barrier(0.1) - 0.5, 0.1, 3.0, steps=100000)
    assert (np.array(traj.us) <= barrier(np.array(traj.ts)) + 1e-6).all()
    # sub-barrier solutions converge up toward the barrier (whose limit is
    # the asymptote 6) without ever crossing it
    assert 5.9 <= traj.us[-1] <= barrier(3.0)


def test_deep_substart_blows_down_and_truncates():
    barrier = line_block(-1)
    traj = integrate_riccati(barrier, -60.0, 0.2, 3.0, steps=5000)
    assert traj.truncated
    assert traj.us[-1] < 0


def test_integrator_preconditions():
    barrier = line_block(-1)
    with pytest.raises(ContractViolation):
        integrate_riccati(barrier, barrier(0.5) + 1.0, 0.5, 2.0, steps=1000)
    with pytest.raises(ContractViolation):
        integrate_riccati(barrier, 0.0, -0.5, 2.0, steps=1000)
    with pytest.raises(ContractViolation):
        integrate_riccati(barrier, 0.0, 0.5, 2.0, steps=10)


def test_cot_barrier_domain():
    barrier = line_block(1)
    assert barrier.pole == pytest.approx(math.pi / 2)
    barrier(0.7)
    with pytest.raises(DomainError):
        barrier(math.pi / 2)
    with pytest.raises(DomainError):
        barrier(-1.0)


def test_problem_validation():
    with pytest.raises(ContractViolation, match="block weight must be positive"):
        ComparisonFunction(F(0), F(1))
    with pytest.raises(ContractViolation, match="block weight must be positive"):
        ComparisonFunction(F(-3), F(-4))
    # sqrt(2) is irrational, so no exact amplitude or residual exists
    with pytest.raises(ContractViolation, match="rational square"):
        ComparisonFunction(F(4), F(2))
    with pytest.raises(ContractViolation, match="rational square"):
        ComparisonFunction(F(3), F(-1, 2))


def test_rational_sqrt():
    assert rational_sqrt(F(4)) == 2
    assert rational_sqrt(F(1, 4)) == F(1, 2)
    assert rational_sqrt(F(2)) is None
    assert rational_sqrt(F(0)) == 0


# -- the RK4 loop against the scalar reference ----------------------------------
# `integrate_riccati` steps one trajectory (a batch of one, on numpy scalars);
# `comparison_excess` steps a batch of rows, criterion 3's 400 among them.

def assert_matches_reference(barrier, u0, t0, t1, steps):
    """integrate_riccati's trajectory is reference_rk4_w's, times m past
    the start, bit for bit, and ends where reference_rk4's does."""
    traj = integrate_riccati(barrier, u0, t0, t1, steps)
    ts, ws, truncated = reference_rk4_w(barrier, u0, t0, t1, steps)
    us = float(barrier.m) * np.array(ws)
    us[0] = u0
    assert traj.ts.tobytes() == np.array(ts).tobytes()
    assert traj.us.tobytes() == us.tobytes()
    assert traj.truncated is truncated
    u_ts, _, u_truncated = reference_rk4(barrier, u0, t0, t1, steps)
    assert (len(u_ts), u_truncated) == (len(ts), truncated)
    return traj


@pytest.mark.parametrize("prob", CRITERION_3_INSTANCES)
def test_batch_matches_scalar_reference_bitwise(prob):
    # criterion 3's seeded inputs, at its 1200 steps and at 1234, which is
    # not a multiple of WINDOW; integrate_riccati on every 10th start, as
    # each of its windows costs what a window of the whole batch does
    assert 1200 % WINDOW == 0 and 1234 % WINDOW != 0
    u0s, t0s = criterion_3_inputs(prob)
    for steps in (1200, 1234):
        for u0, t0 in list(zip(u0s, t0s))[::10]:
            assert_matches_reference(prob, u0, t0, 3.0, steps)
        (worst, truncated), = comparison_excess([(prob, u0s, t0s)], 3.0, steps)
        want_worst, want_truncated = reference_excess(prob, u0s, t0s, 3.0, steps)
        assert (worst.hex(), truncated) == (want_worst.hex(), want_truncated)


def test_batch_truncates_like_scalar_reference():
    # -60 at t0=0.2 blows down; the others stay finite
    barrier = line_block(-1)
    u0s, t0s = [-60.0, 1.0, -200.0, 5.0], [0.2, 0.3, 0.25, 0.5]
    flags = [assert_matches_reference(barrier, u0, t0, 3.0, 5000).truncated
             for u0, t0 in zip(u0s, t0s)]
    assert flags == [True, False, True, False]
    assert comparison_excess([(barrier, u0s, t0s)], 3.0, 5000) == \
        [reference_excess(barrier, u0s, t0s, 3.0, 5000)]


def batch_tables(instances, t1, steps):
    """(ts, us, lengths) of every row of the instances as comparison_excess's
    batch steps them, with u = m w at every point."""
    sizes = [len(u0s) for _, u0s, _ in instances]
    m = np.repeat([float(barrier.m) for barrier, _, _ in instances], sizes)
    K = np.repeat([float(barrier.K) for barrier, _, _ in instances], sizes)
    u0s = np.concatenate([u0s for _, u0s, _ in instances])
    t0s = np.concatenate([t0s for _, _, t0s in instances])
    ts, us = np.empty((2, u0s.size, steps + 1))
    for start, window_ts, window_ws, lengths in _rk4_windows(m, K, u0s, t0s, t1, steps):
        ts[:, start:start + window_ts.shape[1]] = window_ts
        us[:, start:start + window_ws.shape[1]] = m[:, None] * window_ws
    return ts, us, lengths


def test_w_form_matches_the_u_form_on_criterion_3():
    # the differential test of the w-form against the textbook loop in u
    # that it replaced, on criterion 3's 400 rows at its 1200 steps: the
    # times are the same bits, every u agrees within W_FORM_RTOL, and each
    # instance's largest excess prints the same 4 digits in the suite
    instances = [(prob, *criterion_3_inputs(prob)) for prob in CRITERION_3_INSTANCES]
    ts, us, lengths = batch_tables(instances, 3.0, 1200)
    assert (lengths == 1201).all()
    rows = iter(zip(ts, us))
    for (prob, u0s, t0s), (worst, truncated) in zip(instances,
                                                   comparison_excess(instances, 3.0, 1200)):
        u_form_worst = -math.inf
        for u0, t0 in zip(u0s, t0s):
            row_ts, row_us = next(rows)
            want_ts, want_us, cut = reference_rk4(prob, u0, t0, 3.0, 1200)
            want_us = np.array(want_us)
            assert not cut and row_ts.tobytes() == np.array(want_ts).tobytes()
            assert (np.abs(row_us - want_us) <= W_FORM_RTOL * np.abs(want_us)).all()
            u_form_worst = max(u_form_worst, float((want_us - prob(row_ts)).max()))
        assert (f"{worst:.3e}", truncated) == (f"{u_form_worst:.3e}", 0)


def assert_matches_closed_form(prob, u0, t0, t1, steps):
    traj = integrate_riccati(prob, u0, t0, t1, steps)
    assert not traj.truncated
    m = float(prob.m)
    exact = m * closed_form_w(prob, u0 / m, traj.ts - t0)
    assert np.abs(traj.us - exact).max() <= CLOSED_FORM_TOL


@pytest.mark.parametrize("prob", CRITERION_3_INSTANCES)
def test_criterion_3_trajectories_match_the_closed_form(prob):
    # the coth and reciprocal forms, on every 5th of criterion 3's rows
    u0s, t0s = criterion_3_inputs(prob)
    for u0, t0 in list(zip(u0s, t0s))[::5]:
        assert_matches_closed_form(prob, u0, t0, 3.0, 1200)


def test_cot_trajectories_match_the_tan_form():
    # delta = 1: each block's equality trajectory as the CLI steps it, from
    # t = 0.1 at 8000 steps (the line block to 1.4, below its pole pi/2;
    # the transversal block to 3, below pi), and line-block starts in the
    # CLI's range [0.1, 0.2] at criterion 3's 1200 steps
    for block, t1 in ((line_block, 1.4), (transversal_block, 3.0)):
        prob = block(1)
        assert t1 < prob.pole
        assert_matches_closed_form(prob, prob(0.1), 0.1, t1, 8000)
    prob, u0s, t0s = seeded_instance(line_block(1), 20, 1, t0_span=0.1)
    for u0, t0 in zip(u0s, t0s):
        assert_matches_closed_form(prob, u0, t0, 1.4, 1200)


def test_single_trajectory_is_batch_of_one():
    barrier = line_block(-1)
    traj = assert_matches_reference(barrier, barrier(0.1), 0.1, 3.0, 10000)
    assert traj.truncated is False
    assert traj.ts.dtype == traj.us.dtype == np.float64
    assert traj.ts.shape == traj.us.shape == (10001,)


def test_batch_preconditions():
    barrier = line_block(-1)
    with pytest.raises(ContractViolation):
        comparison_excess([(barrier, [], [])], 3.0, steps=1000)
    with pytest.raises(ContractViolation):
        comparison_excess([(barrier, [0.0, 0.0], [0.5])], 3.0, steps=1000)
    with pytest.raises(ContractViolation, match="starts above"):
        comparison_excess([(barrier, [0.0, barrier(0.5) + 1.0], [0.5, 0.5])],
                          3.0, steps=1000)
    with pytest.raises(ContractViolation, match="need t0 > 0"):
        comparison_excess([(barrier, [0.0, 0.0], [0.5, -0.5])], 3.0, steps=1000)


@pytest.mark.parametrize("t0", [3.0, 3.5])
def test_batch_refuses_to_step_backwards(t0):
    # the comparison principle is a forward statement: t0 >= t1 would step
    # with h <= 0 and certify nothing
    barrier = line_block(-1)
    with pytest.raises(ContractViolation, match="need t0 < t1"):
        comparison_excess([(barrier, [0.0, 0.0], [0.5, t0])], 3.0, steps=1000)
    with pytest.raises(ContractViolation, match="need t0 < t1"):
        integrate_riccati(barrier, 0.0, t0, 3.0, steps=1000)


def test_vectorized_barrier_values_and_domain():
    # a float goes through the ufuncs an array entry does
    for barrier in CRITERION_3_INSTANCES + [line_block(1)]:
        ts = np.array([0.1, 0.4, 0.7, 1.5])
        assert barrier(ts).tolist() == [float(barrier(t)) for t in ts.tolist()]
        assert barrier.derivative(ts).tolist() == [float(barrier.derivative(t))
                                                   for t in ts.tolist()]
    cot = line_block(1)
    ts = np.array([[0.5, 1.0], [math.pi / 2, 0.0]])
    # the first entry outside (0, pi/2) in row-major order raises, with the
    # message the scalar reference gives
    with pytest.raises(DomainError) as exc:
        cot(ts)
    with pytest.raises(DomainError) as scalar:
        reference_barrier(cot, math.pi / 2)
    assert str(exc.value) == str(scalar.value)
    with pytest.raises(DomainError, match="t > 0"):
        line_block(0)(np.array([1.0, -1.0]))


# every block's Riccati problem, which is also its barrier
ALL_BLOCKS = [block(delta) for block in (line_block, transversal_block)
              for delta in (-1, 0, 1)]


@pytest.mark.parametrize("prob", ALL_BLOCKS)
def test_barrier_matches_the_math_reference(prob):
    # criterion 3's trajectory start times and residual points
    _, t0s = criterion_3_inputs(lambda t: reference_barrier(prob, t))
    ts = np.array(t0s + [0.2, 0.5, 0.7, 1.0, 2.0])
    if prob.pole is not None:
        ts = ts[ts < prob.pole]
    assert prob(ts).tolist() == pytest.approx(
        [reference_barrier(prob, t) for t in ts.tolist()], rel=1e-14)
    assert prob.derivative(ts).tolist() == pytest.approx(
        [reference_barrier_derivative(prob, t) for t in ts.tolist()], rel=1e-14)


@pytest.mark.parametrize("delta", [-1, 0, 1])
@pytest.mark.parametrize("block, m, K_per_delta", [(line_block, 3, 4), (transversal_block, 4, 1)])
def test_barrier_is_bitwise_the_five_field_reference(block, m, K_per_delta, delta):
    # criterion 3's 100 seeded start times and residual points, and
    # criterion 4's radii with its flat-coefficient radius (those below the
    # cot pole)
    barrier = block(delta)
    value, derivative = reference_block_barrier(m, K_per_delta * delta)
    _, t0s = criterion_3_inputs(value)
    ts = np.array(t0s + [0.2, 0.5, 0.7, 1.0, 2.0] + CRITERION_4_RADII + [1.7])
    if delta == 1:
        ts = ts[ts < math.pi / (2 if block is line_block else 1)]
    assert barrier(ts).tobytes() == value(ts).tobytes()
    assert barrier.derivative(ts).tobytes() == derivative(ts).tobytes()


@pytest.mark.parametrize("prob", ALL_BLOCKS)
@pytest.mark.parametrize("bad", [0.0, -1e-300, -2.0, math.pi / 2, 3.0])
def test_array_domain_error_matches_the_scalar_reference(prob, bad):
    try:
        reference_barrier(prob, bad)
    except DomainError as exc:
        want = str(exc)
    else:
        want = None
    ts = np.array([[0.3, 0.6], [bad, -5.0]])
    for f in (prob, prob.derivative, prob.domain_check):
        if want is None:
            f(ts[0])
            f(np.array([bad]))
            continue
        with pytest.raises(DomainError) as exc:
            f(ts)
        assert str(exc.value) == want
        with pytest.raises(DomainError) as exc:
            f(bad)
        assert str(exc.value) == want


# -- comparison_excess: one windowed batch against the per-instance tables ------

def excess_oracle(instances, t1, steps):
    """(max excess, truncated count) of each instance from the tables of its
    batch of rows, stepped one by one by reference_rk4."""
    return [reference_excess(barrier, u0s, t0s, t1, steps) for barrier, u0s, t0s in instances]


def seeded_instance(barrier, count, seed, t0_span=0.4):
    rng = random.Random(seed)
    t0s = [0.1 + t0_span * rng.random() for _ in range(count)]
    return barrier, [barrier(t0) - 3.0 * rng.random() for t0 in t0s], t0s


@pytest.mark.parametrize("steps", [1200, 1234])
def test_comparison_excess_matches_batch_tables_across_barrier_kinds(steps):
    # coth (delta = -1), reciprocal (delta = 0) and cot (delta = 1, t1 = 1.5
    # below the pole pi/2) in one call, of different sizes; 1200 is a
    # multiple of WINDOW and 1234 is not
    assert 1200 % WINDOW == 0 and 1234 % WINDOW != 0
    instances = [seeded_instance(line_block(-1), 30, 1),
                 seeded_instance(transversal_block(0), 7, 2),
                 seeded_instance(line_block(1), 12, 3),
                 seeded_instance(transversal_block(1), 1, 4)]
    got = comparison_excess(instances, 1.5, steps)
    want = excess_oracle(instances, 1.5, steps)
    assert [(x.hex(), n) for x, n in got] == [(x.hex(), n) for x, n in want]


def test_comparison_excess_counts_truncations_like_the_batch():
    # the -60 and -200 starts blow down at different windows; the others stay
    truncating = (line_block(-1), [-60.0, 1.0, -200.0, 5.0], [0.2, 0.3, 0.25, 0.5])
    instances = [seeded_instance(transversal_block(-1), 5, 7), truncating]
    got = comparison_excess(instances, 3.0, 5000)
    assert got == excess_oracle(instances, 3.0, 5000)
    assert [n for _, n in got] == [0, 2]


def test_comparison_excess_when_every_row_ends_inside_one_window(monkeypatch):
    # every row blows down within the first window, so the loop stops after
    # it, and the columns past each row's end, which may hold inf or nan,
    # never reach the barrier
    barrier = line_block(-1)
    instances = [(barrier, [-1e6, -5e5], [0.2, 0.3]), (barrier, [-2e6], [0.25])]
    lengths = []
    for barrier_, u0s, t0s in instances:
        lengths += [len(integrate_riccati(barrier_, u0, t0, 3.0, 1200).ts)
                    for u0, t0 in zip(u0s, t0s)]
    assert max(lengths) < WINDOW
    want = excess_oracle(instances, 3.0, 1200)
    points = []
    barrier_call = ComparisonFunction.__call__

    def counting_call(self, t):
        points.append(np.size(t))
        return barrier_call(self, t)

    monkeypatch.setattr(ComparisonFunction, "__call__", counting_call)
    got = comparison_excess(instances, 3.0, 1200)
    assert got == want
    assert [n for _, n in got] == [2, 1]
    # the start points once for the preconditions, then the valid points
    assert sum(points) == len(lengths) + sum(lengths)


def test_a_start_on_the_barrier_never_reads_above_it():
    # m (u0/m) may round an ulp above u0, which near t0 = 1e-300 is about
    # 1e284, far past any margin; taken as m (w - barrier/m), the excess of
    # a start on the barrier is 0, since u0/m and barrier(t0)/m round alike.
    # Each row blows up at its first step, so its start is its only point
    barrier = line_block(-1)
    t0s = [1.4341718354537837e-300, 1.1910670915023905e-300]
    u0s = [float(barrier(t0)) for t0 in t0s]
    assert all(3.0 * (u0 / 3.0) > u0 for u0 in u0s)
    assert comparison_excess([(barrier, u0s, t0s)], 3.0, 1200) == [(0.0, 2)]


def test_comparison_excess_preconditions_match_the_batch():
    # the instance's bad row raises as the single trajectory from it does
    barrier = line_block(-1)
    good = seeded_instance(barrier, 3, 5)
    bad = (barrier, [0.0, barrier(0.5) + 1.0], [0.5, 0.5])
    with pytest.raises(ContractViolation) as want:
        integrate_riccati(barrier, bad[1][1], bad[2][1], 3.0, 1000)
    assert "starts above" in str(want.value)
    with pytest.raises(ContractViolation) as got:
        comparison_excess([good, bad], 3.0, 1000)
    assert str(got.value) == str(want.value)


# -- blow-up at window edges: the per-window test against the scalar loop ------

def start_ending_at(barrier, t0, t1, steps, length):
    """A start u0 below the barrier at t0 whose reference_rk4 trajectory
    keeps exactly `length` points, found by bisection on u0: deeper starts
    blow down sooner."""
    deep, shallow = -1e8, barrier(t0)
    for _ in range(200):
        u0 = 0.5 * (deep + shallow)
        kept = len(reference_rk4(barrier, u0, t0, t1, steps)[0])
        if kept == length:
            return u0
        if kept < length:
            deep = u0
        else:
            shallow = u0
    raise AssertionError(f"no start keeps {length} points")


def assert_batch_matches_reference(instances, t1, steps):
    got = comparison_excess(instances, t1, steps)
    want = excess_oracle(instances, t1, steps)
    assert [(x.hex(), n) for x, n in got] == [(x.hex(), n) for x, n in want]
    return got


@pytest.mark.parametrize("column", [1, WINDOW])
def test_blowup_at_a_window_edge_matches_the_reference(column):
    # the row's last valid point is step 3 WINDOW + column - 1, so it blows
    # down at column `column` of the fourth window: its first step, or its
    # last, whose value also opens the next window
    barrier = line_block(-1)
    length = 3 * WINDOW + column
    u0 = start_ending_at(barrier, 0.2, 3.0, 1200, length)
    traj = assert_matches_reference(barrier, u0, 0.2, 3.0, 1200)
    assert traj.truncated and len(traj.ts) == length
    # alone in its instance, beside one that lives to t1
    got = assert_batch_matches_reference(
        [(barrier, [u0], [0.2]), seeded_instance(transversal_block(-1), 3, 8)], 3.0, 1200)
    assert [n for _, n in got] == [1, 0]


def test_two_rows_ending_in_one_window_match_the_reference():
    # both blow down inside the third window, at different columns, while
    # a third row lives on
    barrier = line_block(-1)
    u0s = [start_ending_at(barrier, t0, 3.0, 1200, length)
           for t0, length in ((0.2, 2 * WINDOW + 7), (0.3, 2 * WINDOW + 61))]
    for u0, t0 in zip(u0s, (0.2, 0.3)):
        assert assert_matches_reference(barrier, u0, t0, 3.0, 1200).truncated
    got = assert_batch_matches_reference(
        [(barrier, u0s + [1.0], [0.2, 0.3, 0.4])], 3.0, 1200)
    assert [n for _, n in got] == [2]


def test_an_ended_row_that_blows_down_again_keeps_its_length():
    # on the cot block an ended row restarts the next window at u = 0 and
    # blows down again pi/4 later; at 200 steps to t1 = 3, past the pole
    # pi/2, a window spans 1.4, so that happens inside one window.  Only
    # live rows are tested for blow-up, so the row keeps its first length
    # and no point past the pole reaches the barrier
    cot = line_block(1)
    assert len(reference_rk4(cot, -1e6, 0.2, 3.0, 200)[0]) == 1
    got = assert_batch_matches_reference(
        [(cot, [-1e6], [0.2]), seeded_instance(line_block(-1), 3, 9)], 3.0, 200)
    assert [n for _, n in got] == [1, 0]
