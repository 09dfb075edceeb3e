"""Energy residuals, Monte Carlo moments and convergence studies, read from
the integrator's results."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import integrator
from .basis import interval_eigenvalues, level_gap
# EnergyLedger is re-exported: the benchmark tracer patches it as diagnostics.EnergyLedger
from .integrator import EnergyLedger, mean_and_se  # noqa: F401
from .noise import MAX_SEED


def energy_residuals(traj) -> np.ndarray:
    """Residual at every saved step."""
    return traj.l2_sq - traj.e0 + traj.visc - traj.sto - traj.hs


def moment_rows(ensemble) -> list[tuple[str, float, float]]:
    """The moments.csv rows (name, mean, standard error) of sup_t |u|^2, the dissipation
    integral and |u(T)|^2; from 2 paths on, also the squares of the first two before
    |u(T)|^2 and the mean energy balance last.  Computed in row order."""
    sup, ysq = ensemble.sup_l2_sq, ensemble.y_norm_sq
    with np.errstate(over="ignore"):  # an overflowed square fails its statistic
        squares = ({"sup_l2_sq_p2": sup**2, "y_norm_sq_p2": ysq**2} if ensemble.n_paths > 1
                   else {})
    columns = {"sup_l2_sq": sup, "y_norm_sq": ysq, **squares, "final_l2_sq": ensemble.final_l2_sq}
    rows = [(name, *map(float, mean_and_se(values, name))) for name, values in columns.items()]
    return (rows + [("energy_balance", *mean_energy_balance(ensemble))]) if squares else rows


@dataclass(frozen=True)
class ConvergenceRow:
    seed: int
    n: int
    d_x: float
    d_y: float


def self_convergence_study(config_base, u0, levels, n_seeds: int) -> list[ConvergenceRow]:
    """Distance between successive truncation levels under shared noise.

    For each seed and each n in ``levels`` (which must double), runs the
    solver at n and 2n with the same driving increments and reports
    d_x = sup over saved t of |u_2n - u_n|_t and the squared time-integrated
    gradient distance d_y.  Both split over the common first n modes plus
    the tail of the finer solution.  Every level's config and the whole seed
    range are validated before any step.  The seeds then run as the rows of
    ``integrator._step_blocks``, whose blocks step all levels together on one
    draw of increments per chunk of steps and return the squared distances, so
    no coefficients are kept.  A failure names the lowest failed seed, then its
    lowest failed level.
    """
    if n_seeds < 1:
        raise ValueError(f"number of seeds must be >= 1, got {n_seeds}")
    levels = list(levels)
    if not levels:
        raise ValueError("levels must name at least one truncation")
    for lo, hi in zip(levels, levels[1:]):
        if hi != 2 * lo:
            raise ValueError(f"levels must double: got {levels}")
    configs = [config_base.with_updates(n=n) for n in levels + [2 * levels[-1]]]
    last = config_base.seed + n_seeds - 1
    if last >= MAX_SEED:
        raise ValueError(f"seeds {config_base.seed}..{last} must lie in [0, {MAX_SEED})")
    a0s = [integrator._initial_coeffs(cfg, u0) for cfg in configs]
    seeds, rows = [(seed, 0) for seed in range(config_base.seed, last + 1)], []
    for block, (steps, _, _, pairs) in integrator._step_blocks(configs, a0s, seeds):
        times = steps * config_base.dt
        rows += [ConvergenceRow(seed, n, *_distances(gap[:, r], times))
                 for r, (seed, _) in enumerate(block) for n, gap in zip(levels, pairs)]
    return rows


def level_distance(traj_n, traj_2n) -> tuple[float, float]:
    """(sup-in-time L^2 distance, integrated H^1 distance^2) between levels."""
    if not np.array_equal(traj_n.times, traj_2n.times):  # False on a shape mismatch too
        raise ValueError("trajectories must share the same saved time grid")
    neg_lam = -interval_eigenvalues(traj_2n.coeffs.shape[1], traj_n.a_t[:, None])
    return _distances(level_gap(traj_2n.coeffs, traj_n.coeffs, neg_lam), traj_n.times)


def _distances(gap, times) -> tuple[float, float]:
    """(d_x, d_y): the square root of the largest squared L^2 distance gap[0] and the
    trapezoid over ``times`` of the squared H^1 distances gap[1]."""
    return float(np.sqrt(np.max(gap[0]))), float(np.trapezoid(gap[1], times))


def mean_energy_balance(ensemble) -> tuple[float, float]:
    """(balance defect, combined standard error) of the ensemble-mean identity.

    In expectation the martingale term drops out, so
    mean |u(T)|^2 - e0 + mean visc(T) - mean hs(T) should vanish within
    Monte Carlo error.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite defect fails below
        defect = ensemble.final_l2_sq - ensemble.e0 + ensemble.final_visc - ensemble.final_hs
    return tuple(float(x) for x in mean_and_se(defect, "energy_balance"))
