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

from . import basis
from .domain import DomainMotion
from .errors import NumericalError
from .integrator import saved_steps, whole_steps


# steps whose operators, states and norms are built together; at M = 1024 the block's
# arrays take about 1 MB, and they grow with the block
_BLOCK_STEPS = 16


@dataclass(frozen=True, eq=False)
class MappedGridSolution:
    """Solution samples v(t, y) on the unit interval."""

    ys: np.ndarray
    times: np.ndarray  # saved times
    v: np.ndarray  # (n_saved, M+1)
    l2_history: np.ndarray  # |u(t)|_{L^2(0,a_t)} at every step
    step_times: np.ndarray

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

    The boundary is sampled once, at every step time.  The steps run in blocks
    of ``_BLOCK_STEPS``: for each block the operators L(t_i) and the system
    matrices I - dt/2 L(t_i) are built as one array per diagonal, so the step
    loop only solves each tridiagonal system with LAPACK ``gtsv`` and builds the
    next right-hand side (I + dt/2 L(t_i)) v(t_i) into reused buffers.  The
    block's states are kept, and their L2 norms taken by one trapezoid rule
    over the block.  Every value is bitwise the one a step-by-step march gives.
    A non-finite state or norm, or a singular system, raises ``NumericalError``
    at the earliest step where it happens.
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

    steps = saved_steps(n_steps, save_stride)
    out = np.empty((len(steps), M + 1))
    l2_hist = np.empty(n_steps + 1)
    block = np.zeros((_BLOCK_STEPS, M + 1))  # the states of a block; columns 0 and M stay 0
    block[0] = np.asarray(u0(a[0] * ys), dtype=float)
    block[0, 0] = 0.0
    block[0, -1] = 0.0
    diag, rhs, term = np.empty(M - 1), np.empty(M - 1), np.empty(M - 1)

    def check_norms(i0: int, k: int) -> None:
        """Norms of the block's first k states into l2_hist; raise at the first non-finite."""
        norms = l2_hist[i0:i0 + k]
        np.sqrt(a[i0:i0 + k] * np.trapezoid(np.square(block[:k]), ys, axis=-1), out=norms)
        bad = np.flatnonzero(~np.isfinite(norms))
        if bad.size:
            raise NumericalError(f"non-finite finite-difference state or L2 norm at "
                                 f"t={step_times[i0 + bad[0]]:.6g}")

    row = 0
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite norms are reported
        for i0 in range(0, n_steps + 1, _BLOCK_STEPS):
            k_end = min(_BLOCK_STEPS, n_steps + 1 - i0)
            ab, apb = a[i0:i0 + k_end], a_prime[i0:i0 + k_end]
            # lower, main and upper diagonals of L(t_i) on the interior nodes, a row per step
            diff = 1.0 / (ab * ab * dy * dy)
            conv = apb[:, None] * interior / (ab[:, None] * 2.0 * dy)
            lower, main, upper = diff[:, None] - conv, -2.0 * diff, diff[:, None] + conv
            # I - dt/2 L(t_i); gtsv overwrites a row, and each row serves one step
            sub, mid, sup = -half * lower[:, 1:], 1.0 - half * main, -half * upper[:, :-1]
            for k in range(k_end):
                v = block[k]
                # solve (I - dt/2 L(t_i)) v(t_i) = rhs = (I + dt/2 L(t_{i-1})) v(t_{i-1})
                if i0 + k:
                    diag.fill(mid[k])
                    x, info = dgtsv(sub[k], diag, sup[k], rhs, 1, 1, 1, 1)[3:]
                    v[1:-1] = x
                    if info:
                        check_norms(i0, k)  # an earlier non-finite state fails first
                        raise NumericalError(f"singular Crank-Nicolson system at t="
                                             f"{step_times[i0 + k]:.6g} (LAPACK gtsv info {info})")
                # rhs = v + dt/2 (main v + lower v[:-2] + upper v[2:]), in that order
                np.multiply(main[k], v[1:-1], out=rhs)
                rhs += np.multiply(lower[k], v[:-2], out=term)
                rhs += np.multiply(upper[k], v[2:], out=term)
                rhs *= half
                rhs += v[1:-1]
            check_norms(i0, k_end)
            while row < len(steps) and steps[row] < i0 + k_end:
                out[row] = block[steps[row] - i0]
                row += 1

    times = steps * dt_fd
    times[-1] = t_end
    return MappedGridSolution(ys, times, out, l2_hist, step_times)


def compare_with_spectral(traj, sol: MappedGridSolution, t: float) -> float:
    """L^2(0, a_t) discrepancy between the spectral and mapped-grid fields.

    The spectral field is synthesized (``basis.synthesize``) at the mapped points
    x = a_t y_i of the uniform grid ys and the squared difference integrated with the
    trapezoid rule.
    """
    ti = _time_index(traj.times, t, "spectral")
    v = sol.values_at(t)
    [xs], [u_spec] = basis.synthesize(traj.coeffs[ti:ti + 1], traj.a_t[ti:ti + 1], sol.ys.size)
    return float(np.sqrt(np.trapezoid((u_spec - v) ** 2, xs)))


def _time_index(times: np.ndarray, t: float, grid: str) -> int:
    idx = int(np.argmin(np.abs(times - t)))
    if abs(times[idx] - t) > 1e-9 * max(1.0, abs(t)):
        raise ValueError(f"time {t} not among the {grid} saved times")
    return idx
