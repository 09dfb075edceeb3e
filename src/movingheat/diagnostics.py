"""Energy bookkeeping, space-time norms and convergence studies.

The ledger tracks the three integral terms balancing |u(t)|^2 against the
initial energy: accumulated dissipation, the martingale (noise work) term
and the quadratic-variation term.  Sums over time use the left endpoint
throughout; the martingale term requires it (any other evaluation point
introduces an O(1) Stratonovich bias) and using it for the dissipation as
well keeps the whole residual first order in dt, which is what the
refinement ratio tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import mode_numbers


@dataclass
class EnergyLedger:
    """Running discrete sums of the energy-balance terms of P paths.

    r(t) = |u(t)|^2 - |u(0)|^2 + visc(t) - sto(t) - hs(t) should vanish as
    dt -> 0: ``visc`` accumulates 2 ||u(t_i)||^2 dt, ``sto`` accumulates
    2 sum_k A_k(t_i) kick_k(t_i), ``hs`` accumulates ||sigma||_HS^2 dt.  They
    are (P,) views of the rows of ``sums``, which may be the caller's array.
    """

    sums: np.ndarray  # (3, P)

    def __post_init__(self):
        self.visc, self.sto, self.hs = self.sums

    def record_step(self, h1_sq, sto_increment, hs_sq, dt: float) -> None:
        self.visc += 2.0 * h1_sq * dt
        self.sto += sto_increment
        self.hs += hs_sq * dt


def energy_residual(traj, t_index: int) -> float:
    """Discrete energy-identity residual at the t_index-th saved step."""
    if not 0 <= t_index < len(traj.times):
        raise IndexError(f"t_index {t_index} outside saved range 0..{len(traj.times) - 1}")
    return float(energy_residuals(traj)[t_index])


def energy_residuals(traj) -> np.ndarray:
    """Residual at every saved step."""
    return traj.l2_sq - traj.e0 + traj.visc - traj.sto - traj.hs


def x_norm(traj) -> float:
    """sup over saved times of |u(t)|_t (the continuous-in-time norm)."""
    return float(np.sqrt(np.max(traj.l2_sq)))


def y_norm_sq(traj) -> float:
    """Trapezoid approximation of the time integral of ||u(t)||^2."""
    return float(np.trapezoid(traj.h1_sq, traj.times))


@dataclass(frozen=True)
class MomentReport:
    """Monte Carlo moment estimates with standard errors."""

    n_paths: int
    e_sup_l2_sq: float
    se_sup_l2_sq: float
    e_y_norm_sq: float
    se_y_norm_sq: float
    e_sup_l2_sq_p2: float
    se_sup_l2_sq_p2: float
    e_y_norm_sq_p2: float
    se_y_norm_sq_p2: float

    def rows(self):
        return [
            ("sup_l2_sq", self.e_sup_l2_sq, self.se_sup_l2_sq),
            ("y_norm_sq", self.e_y_norm_sq, self.se_y_norm_sq),
            ("sup_l2_sq_p2", self.e_sup_l2_sq_p2, self.se_sup_l2_sq_p2),
            ("y_norm_sq_p2", self.e_y_norm_sq_p2, self.se_y_norm_sq_p2),
        ]


def moment_report(ensemble) -> MomentReport:
    """First and second moments of sup_t |u|^2 and of the dissipation integral."""
    sup = ensemble.sup_l2_sq
    ysq = ensemble.y_norm_sq
    if sup.shape[0] < 2:
        raise ValueError("moment_report needs at least 2 paths")
    return MomentReport(
        n_paths=sup.shape[0],
        e_sup_l2_sq=float(np.mean(sup)),
        se_sup_l2_sq=_se(sup),
        e_y_norm_sq=float(np.mean(ysq)),
        se_y_norm_sq=_se(ysq),
        e_sup_l2_sq_p2=float(np.mean(sup**2)),
        se_sup_l2_sq_p2=_se(sup**2),
        e_y_norm_sq_p2=float(np.mean(ysq**2)),
        se_y_norm_sq_p2=_se(ysq**2),
    )


def _se(values: np.ndarray) -> float:
    return float(np.std(values, ddof=1) / np.sqrt(values.shape[0]))


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
    the tail of the finer solution.
    """
    if n_seeds < 1:
        raise ValueError(f"number of seeds must be >= 1, got {n_seeds}")
    levels = list(levels)
    for lo, hi in zip(levels, levels[1:]):
        if hi != 2 * lo:
            raise ValueError(f"levels must double: got {levels}")
    from .integrator import simulate

    rows = []
    for s in range(n_seeds):
        trajs = {}
        for n in levels + [2 * levels[-1]]:
            cfg = config_base.with_updates(n=n, seed=config_base.seed + s)
            trajs[n] = simulate(cfg, u0)
        for n in levels:
            d_x, d_y = level_distance(trajs[n], trajs[2 * n], config_base.domain)
            rows.append(ConvergenceRow(config_base.seed + s, n, d_x, d_y))
    return rows


def level_distance(traj_n, traj_2n, domain) -> tuple[float, float]:
    """(sup-in-time L^2 distance, integrated H^1 distance^2) between levels."""
    if not np.array_equal(traj_n.times, traj_2n.times):  # False on a shape mismatch too
        raise ValueError("trajectories must share the same saved time grid")
    n = traj_n.coeffs.shape[1]
    diff = traj_2n.coeffs[:, :n] - traj_n.coeffs
    tail = traj_2n.coeffs[:, n:]
    l2_sq = np.sum(diff**2, axis=1) + np.sum(tail**2, axis=1)
    d_x = float(np.sqrt(np.max(l2_sq)))

    a_vals = np.asarray(domain.a_at(traj_n.times), dtype=float)
    neg_lam = (mode_numbers(traj_2n.coeffs.shape[1]) / a_vals[:, None]) ** 2
    h1_sq = np.sum(neg_lam[:, :n] * diff**2, axis=1) + np.sum(
        neg_lam[:, n:] * tail**2, axis=1
    )
    d_y = float(np.trapezoid(h1_sq, traj_n.times))
    return d_x, d_y


def mean_energy_balance(ensemble) -> tuple[float, float]:
    """(balance defect, combined standard error) of the ensemble-mean identity.

    In expectation the martingale term drops out, so
    mean |u(T)|^2 - e0 + mean visc(T) - mean hs(T) should vanish within
    Monte Carlo error.
    """
    defect = (
        ensemble.final_l2_sq
        - ensemble.e0
        + ensemble.final_visc
        - ensemble.final_hs
    )
    return float(np.mean(defect)), _se(defect)
