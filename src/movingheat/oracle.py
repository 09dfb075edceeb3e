"""Deterministic cross-check solver on mapped fixed coordinates.

Pulling the moving interval (0, a_t) back to (0, 1) through y = x / a_t
turns the heat equation into a fixed-domain problem with a drift:

    v_t = (1 / a_t^2) v_yy + (a'_t y / a_t) v_y,   v(t, 0) = v(t, 1) = 0,

where u(t, x) = v(t, x / a_t).  Crank-Nicolson in time with central
differences for both terms gives a tridiagonal solve per step; this path
shares nothing with the spectral solver and is used to validate it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from . import basis
from .domain import DomainMotion
from .errors import NumericalError
from .integrator import saved_steps

_PIVOT_FLOOR = 1e-14


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
    """Crank-Nicolson march of the mapped equation on an (M+1)-point grid."""
    if M < 16:
        raise ValueError(f"M must be >= 16, got {M}")
    if dt_fd <= 0:
        raise ValueError(f"dt_fd must be positive, got {dt_fd}")
    n_steps = round(t_end / dt_fd)
    if abs(t_end / dt_fd - n_steps) > 1e-9 or n_steps < 1:
        raise ValueError(f"t_end/dt_fd = {t_end / dt_fd} must be an integer")

    ys = np.linspace(0.0, 1.0, M + 1)
    dy = 1.0 / M
    a0 = domain.a_at(0.0)
    v = np.asarray(u0(a0 * ys), dtype=float).copy()
    v[0] = 0.0
    v[-1] = 0.0

    steps = saved_steps(n_steps, save_stride)
    save_set = set(steps.tolist())
    out = np.empty((len(steps), M + 1))
    times = np.empty(len(steps))
    l2_hist = np.empty(n_steps + 1)
    step_times = np.arange(n_steps + 1) * dt_fd

    out[0] = v
    times[0] = 0.0
    row = 1
    l2_hist[0] = _mapped_l2(v, ys, a0)

    interior = ys[1:-1]
    for i in range(n_steps):
        t0 = i * dt_fd
        t1 = (i + 1) * dt_fd
        lo0, di0, up0 = _operator_diagonals(domain, t0, interior, dy)
        lo1, di1, up1 = _operator_diagonals(domain, t1, interior, dy)

        # rhs = (I + dt/2 L(t0)) v on the interior
        half = 0.5 * dt_fd
        rhs = v[1:-1] + half * (di0 * v[1:-1] + lo0 * v[:-2] + up0 * v[2:])

        # lhs = I - dt/2 L(t1), tridiagonal in banded storage
        main = 1.0 - half * di1
        lower = -half * lo1
        upper = -half * up1
        if float(np.min(np.abs(main))) < _PIVOT_FLOOR:
            raise NumericalError(
                f"near-singular Crank-Nicolson system at t={t1:.6g} "
                f"(diagonal entry below {_PIVOT_FLOOR})"
            )
        ab = np.zeros((3, M - 1))
        ab[0, 1:] = upper[:-1]
        ab[1, :] = main
        ab[2, :-1] = lower[1:]
        try:
            v_int = solve_banded((1, 1), ab, rhs)
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise NumericalError(f"singular linear system at t={t1:.6g}: {exc}") from None
        v = np.concatenate(([0.0], v_int, [0.0]))
        l2_hist[i + 1] = _mapped_l2(v, ys, domain.a_at(t1))
        if i + 1 in save_set:
            out[row] = v
            times[row] = t1
            row += 1

    times[-1] = t_end
    return MappedGridSolution(ys, times, out, l2_hist, step_times, domain)


def _operator_diagonals(domain, t, interior, dy):
    """Lower/main/upper diagonals of L(t) on the interior nodes."""
    a = domain.a_at(t)
    ap = domain.a_prime_at(t)
    diff = 1.0 / (a * a * dy * dy)
    conv = ap * interior / (a * 2.0 * dy)
    lower = diff - conv
    main = np.full_like(interior, -2.0 * diff)
    upper = diff + conv
    return lower, main, upper


def _mapped_l2(v, ys, a_t):
    return float(np.sqrt(a_t * np.trapezoid(v**2, ys)))


def compare_with_spectral(traj, sol: MappedGridSolution, t: float) -> float:
    """L^2(0, a_t) discrepancy between the spectral and mapped-grid fields.

    The spectral field is synthesized at the mapped points x = a_t y_i and
    the squared difference integrated with the trapezoid rule.
    """
    ti = _time_index(traj.times, t, "spectral")
    v = sol.values_at(t)
    a_t = traj.config.domain.a_at(t)
    xs = a_t * sol.ys
    state = traj.state_at(ti)
    u_spec = basis.evaluate(state, xs, traj.config.domain)
    u_spec[0] = 0.0
    u_spec[-1] = 0.0
    return float(np.sqrt(np.trapezoid((u_spec - v) ** 2, xs)))


def _time_index(times: np.ndarray, t: float, grid: str) -> int:
    idx = int(np.argmin(np.abs(times - t)))
    if abs(times[idx] - t) > 1e-9 * max(1.0, abs(t)):
        raise ValueError(f"time {t} not among the {grid} saved times")
    return idx
