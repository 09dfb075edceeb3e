"""Deterministic cross-check solver on mapped fixed coordinates.

Pulling the moving interval (0, a_t) back to (0, 1) through y = x / a_t
turns the heat equation into a fixed-domain problem with a drift:

    v_t = (1 / a_t^2) v_yy + (a'_t y / a_t) v_y,   v(t, 0) = v(t, 1) = 0,

where u(t, x) = v(t, x / a_t).  Crank-Nicolson in time with central
differences for both terms gives a tridiagonal solve per step; this path
shares nothing with the spectral solver and is used to validate it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import basis
from .domain import DomainMotion
from .errors import NumericalError
from .integrator import saved_steps, whole_steps


@dataclass(frozen=True, eq=False)
class MappedGridSolution:
    """Solution samples v(t, y) on the unit interval plus the map back."""

    ys: np.ndarray
    times: np.ndarray  # saved times
    v: np.ndarray  # (n_saved, M+1)
    l2_history: np.ndarray  # |u(t)|_{L^2(0,a_t)} at every step
    step_times: np.ndarray
    domain: DomainMotion

    def values_at(self, t: float) -> np.ndarray:
        idx = _time_index(self.times, t, "finite-difference")
        return self.v[idx]


def fd_solve(
    domain: DomainMotion,
    u0,
    M: int,
    dt_fd: float,
    t_end: float,
    save_stride: int = 1,
) -> MappedGridSolution:
    """Crank-Nicolson march of the mapped equation on an (M+1)-point grid.

    The boundary is sampled once, at every step time, and the operator L(t_i)
    is built once per time: step i+1 reuses it on its right-hand side.  A
    non-finite state or norm, or a singular system, raises ``NumericalError``.
    """
    from scipy.linalg.lapack import dgtsv  # imported here: scipy is slow to load

    if M < 16:
        raise ValueError(f"M must be >= 16, got {M}")
    if not dt_fd > 0:
        raise ValueError(f"dt_fd must be positive, got {dt_fd}")
    n_steps = whole_steps(t_end, dt_fd)
    if not n_steps:
        raise ValueError(f"t_end/dt_fd = {t_end / dt_fd} must be an integer")

    ys = np.linspace(0.0, 1.0, M + 1)
    interior = ys[1:-1]
    dy = 1.0 / M
    half = 0.5 * dt_fd
    step_times = np.arange(n_steps + 1) * dt_fd
    a, a_prime = domain.a_at(step_times), domain.a_prime_at(step_times)
    v = np.asarray(u0(a[0] * ys), dtype=float).copy()
    v[0] = 0.0
    v[-1] = 0.0

    steps = saved_steps(n_steps, save_stride)
    out = np.empty((len(steps), M + 1))
    l2_hist = np.empty(n_steps + 1)
    row = 0
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite norms are reported
        for i in range(n_steps + 1):
            # lower, main and upper diagonals of L(t_i) on the interior nodes
            diff = 1.0 / (a[i] * a[i] * dy * dy)
            conv = a_prime[i] * interior / (a[i] * 2.0 * dy)
            lower, main, upper = diff - conv, -2.0 * diff, diff + conv
            if i:  # solve (I - dt/2 L(t_i)) v(t_i) = rhs = (I + dt/2 L(t_{i-1})) v(t_{i-1})
                x, info = dgtsv(-half * lower[1:], np.full(M - 1, 1.0 - half * main),
                                -half * upper[:-1], rhs)[3:]
                v[1:-1] = x
                if info:
                    raise NumericalError(f"singular Crank-Nicolson system at "
                                         f"t={step_times[i]:.6g} (LAPACK gtsv info {info})")
            l2_hist[i] = np.sqrt(a[i] * np.trapezoid(v**2, ys))
            if not math.isfinite(l2_hist[i]):
                raise NumericalError(f"non-finite finite-difference state or L2 norm at "
                                     f"t={step_times[i]:.6g}")
            if i == steps[row]:
                out[row] = v
                row += 1
            rhs = v[1:-1] + half * (main * v[1:-1] + lower * v[:-2] + upper * v[2:])

    times = steps * dt_fd
    times[-1] = t_end
    return MappedGridSolution(ys, times, out, l2_hist, step_times, domain)


def compare_with_spectral(traj, sol: MappedGridSolution, t: float) -> float:
    """L^2(0, a_t) discrepancy between the spectral and mapped-grid fields.

    The spectral field is synthesized at the mapped points x = a_t y_i and
    the squared difference integrated with the trapezoid rule.
    """
    ti = _time_index(traj.times, t, "spectral")
    v = sol.values_at(t)
    a_t = traj.a_t[ti]
    xs = a_t * sol.ys
    u_spec = basis.sine_series(traj.coeffs[ti], xs, a_t)
    u_spec[0] = 0.0
    u_spec[-1] = 0.0
    return float(np.sqrt(np.trapezoid((u_spec - v) ** 2, xs)))


def _time_index(times: np.ndarray, t: float, grid: str) -> int:
    idx = int(np.argmin(np.abs(times - t)))
    if abs(times[idx] - t) > 1e-9 * max(1.0, abs(t)):
        raise ValueError(f"time {t} not among the {grid} saved times")
    return idx
