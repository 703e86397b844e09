"""Closed-form Riccati barriers and a certifying fixed-step integrator.

The normal form is u' + u^2/m + m K <= 0 with u(t) ~ m/t as t -> 0+.
One type, `ComparisonFunction(m, K)`, is a block's equation and its
closed-form barrier.  The two instances that occur are (m=3, K=4*delta)
for the quaternionic line block (`line_block`) and (m=4, K=delta) for
each transversal block (`transversal_block`).  The equality solutions
are

    K > 0:  m sqrt(K)  cot(sqrt(K) t)     on (0, pi/sqrt(K))
    K = 0:  m / t
    K < 0:  m sqrt(-K) coth(sqrt(-K) t)

and they dominate every sub-solution with the same initial asymptote.
K is accepted when |K| is a rational square, so that sqrt(|K|) and the
amplitude m sqrt(|K|) are exact and the residual of the barrier is an
exact rational; delta in {-1, 0, 1} gives K in {0, +-1, +-4}.

A barrier, its derivative and its domain check are numpy expressions
that take a float or an array: one call evaluates a whole grid, and a
float goes through the same ufuncs as an array entry.

The integrator is one RK4 loop over rows that may each carry their own
(m, K), stepping w = u/m under w' = -(w^2 + K): RK4 commutes with that
scaling, so only rounding moves, and m stays out of the loop.  It steps
WINDOW steps at a time into one time-major buffer, one contiguous store
per step; each window's times are one running sum and its blow-up test
one max and one min per row.  `comparison_excess` steps several
barriers' trajectories as one batch and keeps only each barrier's
largest u - barrier(t), so its memory does not grow with the step count;
`integrate_riccati` steps one trajectory through the same loop, on
numpy scalars, and writes every window into one table.  Both give the
bits of the scalar RK4 loop in w, times m.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

import numpy as np

from .forms import ContractViolation, Frozen

Rational = Fraction | int


class DomainError(ValueError):
    """Argument outside the function's domain of validity."""


def first_outside(x, upper: float | None) -> float | None:
    """The first entry of x (a float or an array, in row-major order) that
    lies outside (0, upper), or outside (0, inf) when upper is None; None
    when there is none."""
    x = np.asarray(x, dtype=float)
    outside = x <= 0 if upper is None else (x <= 0) | (x >= upper)
    return float(x.flat[np.argmax(outside)]) if outside.any() else None


def rational_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if x < 0:
        raise ValueError("negative argument")
    num = math.isqrt(x.numerator)
    den = math.isqrt(x.denominator)
    if num * num == x.numerator and den * den == x.denominator:
        return Fraction(num, den)
    return None


class ComparisonFunction(Frozen):
    """The Riccati equation u' + u^2/m + m K = 0 of one Hessian block, with
    block weight m > 0 and a curvature constant K whose |K| is a rational
    square, and its equality solution a c(b t) with u ~ m/t as t -> 0+.

    Everything else is worked out from (m, K): the kind of c ("cot" for
    K > 0, "coth" for K < 0, "reciprocal" at K = 0, where the solution is
    a/t), the exact b = sqrt(|K|) and a = m b (a = m at K = 0), and the
    floats `frequency`, `amplitude` and `pole` that the barrier evaluates.
    """

    def __init__(self, m: Fraction, K: Fraction):
        if m <= 0:
            raise ContractViolation(f"block weight must be positive, got {m}")
        self.__dict__.update(m=m, K=K)
        if self.b is None:
            raise ContractViolation(f"need |K| a rational square, got K={self.K}")

    @cached_property
    def kind(self) -> str:
        if self.K == 0:
            return "reciprocal"
        return "cot" if self.K > 0 else "coth"

    @cached_property
    def b(self) -> Fraction | None:
        """The exact frequency sqrt(|K|); None, which the constructor
        refuses, when it is irrational."""
        return rational_sqrt(abs(Fraction(self.K)))

    @cached_property
    def a(self) -> Fraction:
        """The exact amplitude: m b, and m at K = 0."""
        return Fraction(self.m) * self.b if self.K != 0 else Fraction(self.m)

    @cached_property
    def frequency(self) -> float:
        return float(self.b)

    @cached_property
    def amplitude(self) -> float:
        return float(self.a)

    @cached_property
    def pole(self) -> float | None:
        """First barrier pole (cot only): t = pi / b."""
        if self.kind == "cot":
            return math.pi / self.frequency
        return None

    def domain_check(self, t) -> None:
        """DomainError unless t, a float or every entry of an array, lies
        in the barrier's domain; an array raises at its first entry outside
        it, in row-major order."""
        bad = first_outside(t, self.pole)
        if bad is None:
            return
        if bad <= 0:
            raise DomainError(f"barrier domain is t > 0, got t={bad}")
        raise DomainError(f"cot barrier valid on (0, {self.pole:.6g}), got t={bad}")

    def __call__(self, t):
        """The barrier at t, a float or elementwise for an array."""
        self.domain_check(t)
        t = np.asarray(t, dtype=float)
        if self.kind == "reciprocal":
            return self.amplitude / t
        tan_or_tanh = np.tanh if self.kind == "coth" else np.tan
        return self.amplitude / tan_or_tanh(self.frequency * t)

    def derivative(self, t):
        """The barrier's derivative at t, a float or elementwise for an array."""
        self.domain_check(t)
        t = np.asarray(t, dtype=float)
        if self.kind == "reciprocal":
            return -self.amplitude / (t * t)
        s = (np.sinh if self.kind == "coth" else np.sin)(self.frequency * t)
        return -self.amplitude * self.frequency / (s * s)

    def symbolic_residual(self) -> dict[str, Fraction]:
        """Exact coefficients of u' + u^2/m + m K for u = a c(b t), in the
        basis {c^2, 1} with c = coth(bt), cot(bt), or 1/t, from the a and b
        whose floats the barrier evaluates.  Both vanish for the equality
        solution."""
        m, K, a, b = Fraction(self.m), Fraction(self.K), self.a, self.b
        if self.kind == "reciprocal":
            # u = a/t: u' = -a/t^2, u^2/m = a^2/(m t^2)
            return {"t^-2": -a + a * a / m, "1": m * K}
        # u' = -+ a b (c^2 -+ 1), u^2/m = (a^2/m) c^2
        if self.kind == "coth":
            return {"coth^2": -a * b + a * a / m, "1": a * b + m * K}
        return {"cot^2": -a * b + a * a / m, "1": -a * b + m * K}


def line_block(delta: int) -> ComparisonFunction:
    """m = 3, K = 4 delta: the quaternionic line block of the Hessian."""
    return ComparisonFunction(Fraction(3), Fraction(4 * delta))


def transversal_block(delta: int) -> ComparisonFunction:
    """m = 4, K = delta: one transversal quaternionic block."""
    return ComparisonFunction(Fraction(4), Fraction(delta))


class Trajectory:
    """The valid points of one trajectory, as float arrays."""

    __slots__ = ("ts", "us", "truncated")

    def __init__(self, ts: np.ndarray, us: np.ndarray, truncated: bool):
        self.ts, self.us, self.truncated = ts, us, truncated


BLOWUP_LIMIT = 1.0e9
WINDOW = 100  # RK4 steps held at once


def _validated(barrier: ComparisonFunction, u0s, t0s, t1: float,
               steps: int) -> tuple[np.ndarray, np.ndarray]:
    """(u0s, t0s) as float arrays, once they are 1-d, of one nonzero
    length, start at 0 < t0 < t1 at or below the barrier, and `steps` is
    at least 100; ContractViolation otherwise."""
    u0s = np.asarray(u0s, dtype=float)
    t0s = np.asarray(t0s, dtype=float)
    if u0s.ndim != 1 or u0s.shape != t0s.shape:
        raise ContractViolation("need u0s and t0s as 1-d sequences of one length")
    if u0s.size == 0:
        raise ContractViolation("need at least one trajectory")
    if (t0s <= 0).any():
        raise ContractViolation(f"need t0 > 0, got {float(t0s[np.argmax(t0s <= 0)])}")
    if (t0s >= t1).any():
        # the comparison principle runs forward from t0 only
        raise ContractViolation(
            f"need t0 < t1, got t0={float(t0s[np.argmax(t0s >= t1)])} >= t1={t1}")
    if steps < 100:
        raise ContractViolation(f"need at least 100 steps, got {steps}")
    at_start = barrier(t0s)
    if (u0s > at_start).any():
        j = int(np.argmax(u0s > at_start))
        raise ContractViolation(f"u0={float(u0s[j])} starts above the barrier "
                                f"{float(at_start[j])} at t0={float(t0s[j])}")
    return u0s, t0s


def _rk4_windows(m: np.ndarray, K: np.ndarray, u0s: np.ndarray, t0s: np.ndarray,
                 t1: float, steps: int):
    """Classical fixed-step RK4 for w = u/m under w' = -(w^2 + K), row j
    with its own m[j] and K[j], from (t0s[j], u0s[j] / m[j]) to t1 in
    `steps` steps of its own size.

    Yields (start, ts, ws, lengths) for each window of at most WINDOW
    steps: columns c of ts and ws hold step start + c, so column 0 repeats
    the last column of the window before (the start point in the first).
    ts and ws are (rows, columns) views of one time-major buffer, which
    the next window overwrites.  lengths[j] counts row j's valid points
    from step 0; it is final once the row ends.  A row ends before its
    first step whose w is not finite or exceeds BLOWUP_LIMIT / m[j] in
    size; that test runs once per window, over the live rows, so columns
    past a row's end may hold anything, inf and nan included.  An ended
    row restarts the next window at w = 0, and once every row has ended
    the windows stop.

    Each stage steps g = w^2 + K = -k and v = half g - w = -(w + half k),
    negations that change no bits and that squaring does not see; the
    stage sum is 2 (g2 + g3) + g1 + g4.  The augmented operators update
    arrays in place, and one row steps on numpy float64 scalars, on which
    the same statements rebind, without an array's per-call cost."""
    h = (t1 - t0s) / steps
    limit, w = BLOWUP_LIMIT / m, u0s / m
    lengths = np.full(u0s.size, steps + 1)
    if u0s.size == 1:
        K, h, w = K[0], h[0], w[0]
    half, sixth = 0.5 * h, h / 6.0
    start = 0
    # one buffer for every window: a fresh pair per window took criterion
    # 3's peak RSS from 1.3 to 1.9 MB above import
    ts_buf, ws_buf = np.empty((2, min(WINDOW, steps) + 1, u0s.size))
    ts_buf[0] = t0s
    while start < steps:
        n = min(WINDOW, steps - start)
        ts, ws = ts_buf[:n + 1], ws_buf[:n + 1]
        # the left-to-right sums t + h + h + ... of stepping t = t + h
        ts[1:] = h
        np.add.accumulate(ts, out=ts)
        ws[0] = w
        with np.errstate(over="ignore", invalid="ignore"):
            for c in range(1, n + 1):
                g1 = w * w
                g1 += K
                v = g1 * half
                v -= w
                g2 = v * v
                g2 += K
                v = g2 * half
                v -= w
                g3 = v * v
                g3 += K
                v = g3 * h
                v -= w
                g4 = v * v
                g4 += K
                g2 += g3
                g2 *= 2
                g2 += g1
                g2 += g4
                g2 *= sixth
                w = w - g2
                ws[c] = w
            top, bottom = np.maximum.reduce(ws[1:]), np.minimum.reduce(ws[1:])
        # nan reaches both reductions and fails both comparisons
        blown = np.flatnonzero(~((top <= limit) & (bottom >= -limit)) & (lengths > steps))
        unbounded = ~(np.abs(ws[1:, blown]) <= limit[blown])  # True for inf and nan
        lengths[blown] = start + 1 + unbounded.argmax(axis=0)
        yield start, ts.T, ws.T, lengths
        ended = lengths <= steps
        if ended.all():
            return
        if ended.any():
            w = np.where(ended, 0.0, w)
        ts_buf[0] = ts[n]
        start += n


def comparison_excess(instances, t1: float, steps: int) -> list[tuple[float, int]]:
    """(largest u - barrier(t) over every valid point, number truncated)
    for each (barrier, u0s, t0s) instance: the trajectories of
    integrate_riccati(barrier, u0, t0, t1, steps), stepped as one batch
    WINDOW steps at a time, so only one window of every instance is held
    at once.  The excess is m max(w - barrier(t)/m): u0 <= barrier(t0)
    rounds to u0/m <= barrier(t0)/m, so no start reads above the barrier."""
    barriers = [f for f, _, _ in instances]
    u0s, t0s = zip(*(_validated(f, u0, t0, t1, steps) for f, u0, t0 in instances))
    sizes = [u0.size for u0 in u0s]
    weights = [float(f.m) for f in barriers]
    m = np.repeat(weights, sizes)
    K = np.repeat([float(f.K) for f in barriers], sizes)
    ends = np.cumsum([0] + sizes)
    rows = [slice(a, b) for a, b in zip(ends, ends[1:])]
    excess = [-math.inf] * len(barriers)
    windows = _rk4_windows(m, K, np.concatenate(u0s), np.concatenate(t0s), t1, steps)
    for start, ts, ws, lengths in windows:
        # every point is valid until a row ends; from then on the lengths
        # mask each window, whose unwritten columns lie past every length
        valid = (None if lengths.min() >= start + ts.shape[1]
                 else np.arange(start, start + ts.shape[1]) < lengths[:, None])
        for i, (r, barrier, mi) in enumerate(zip(rows, barriers, weights)):
            w, t = (ws[r], ts[r]) if valid is None else (ws[r][valid[r]], ts[r][valid[r]])
            if w.size:
                excess[i] = max(excess[i], mi * float((w - barrier(t) / mi).max()))
    return [(worst, int((lengths[r] <= steps).sum())) for worst, r in zip(excess, rows)]


def integrate_riccati(barrier: ComparisonFunction, u0: float, t0: float, t1: float,
                      steps: int) -> Trajectory:
    """Classical fixed-step RK4 for the equality ODE u' = -u^2/m - m K from
    (t0, u0) to t1 in `steps` steps, stepped as w = u/m.

    A solution starting at or below the barrier stays below it; it may
    reach -infinity in finite time.  The trajectory ends before a value
    that is not finite or exceeds BLOWUP_LIMIT in size, and is then
    flagged truncated."""
    u0s, t0s = _validated(barrier, [u0], [t0], t1, steps)
    m, K = np.array([float(barrier.m)]), np.array([float(barrier.K)])
    # one table for every window: per-window copies joined at the end were
    # about 10% slower at 100k steps
    ts, us = np.empty(steps + 1), np.empty(steps + 1)
    for start, window_ts, window_ws, lengths in _rk4_windows(m, K, u0s, t0s, t1, steps):
        ts[start:start + window_ts.shape[1]] = window_ts[0]
        us[start:start + window_ws.shape[1]] = window_ws[0]
    k = int(lengths[0])
    us[:k] *= m[0]  # the table holds w = u/m; its start is u0 itself
    us[0] = u0s[0]
    return Trajectory(ts[:k], us[:k], k <= steps)
