import math
import warnings

import numpy as np
import pytest

from movingheat import (
    ModeInitial,
    ModesInitial,
    NumericalError,
    ParabolaInitial,
    SimulationConfig,
    eigenvalues,
    energy_residual,
    energy_residuals,
    level_distance,
    mean_energy_balance,
    moment_report,
    moving_diagonal,
    self_convergence_study,
    simulate,
    simulate_ensemble,
    x_norm,
    y_norm_sq,
    zero_model,
)
from movingheat.diagnostics import mean_and_se


def decay_residual_oracle(lam, T, h):
    """Closed form of the deterministic residual for a single decaying mode.

    Node values are exact under the exponential scheme, so the residual is
    the defect of the left-endpoint sum of 2(-lam) e^(2 lam t) against the
    exact integral; both sides are geometric series.
    """
    N = round(T / h)
    q = np.exp(2 * lam * h)
    visc = 2.0 * (-lam) * h * (1.0 - q**N) / (1.0 - q)
    return np.exp(2 * lam * T) - 1.0 + visc


class TestEnergyResidual:
    def test_zero_at_start(self, unit_domain):
        cfg = SimulationConfig(domain=unit_domain, n=4, model=zero_model(4),
                               dt=1e-3, t_end=0.1)
        traj = simulate(cfg, ModeInitial(1, 1.0, 1.0))
        assert energy_residual(traj, 0) == 0.0

    def test_deterministic_matches_closed_form(self, unit_domain):
        lam = -np.pi**2
        for dt in (1e-3, 5e-4):
            cfg = SimulationConfig(domain=unit_domain, n=4, model=zero_model(4),
                                   dt=dt, t_end=0.5)
            traj = simulate(cfg, ModeInitial(1, 1.0, 1.0))
            r = energy_residual(traj, len(traj.times) - 1)
            assert r == pytest.approx(decay_residual_oracle(lam, 0.5, dt), abs=1e-11)

    def test_refinement_halves_residual(self, unit_domain):
        values = {}
        for dt in (1e-3, 5e-4):
            cfg = SimulationConfig(domain=unit_domain, n=4, model=zero_model(4),
                                   dt=dt, t_end=0.5)
            traj = simulate(cfg, ModeInitial(1, 1.0, 1.0))
            values[dt] = abs(energy_residual(traj, len(traj.times) - 1))
        assert values[1e-3] <= 2e-2
        assert 1.6 <= values[1e-3] / values[5e-4] <= 2.4

    def test_index_validation(self, unit_domain):
        cfg = SimulationConfig(domain=unit_domain, n=2, model=zero_model(2),
                               dt=1e-3, t_end=0.1)
        traj = simulate(cfg, ModeInitial(1, 1.0, 1.0))
        with pytest.raises(IndexError):
            energy_residual(traj, 500)


class TestSpaceTimeNorms:
    def test_zero_trajectory(self, unit_domain):
        cfg = SimulationConfig(domain=unit_domain, n=4, model=zero_model(4),
                               dt=1e-3, t_end=0.1)
        traj = simulate(cfg, lambda x: 0.0 * x)
        assert x_norm(traj) == 0.0
        assert y_norm_sq(traj) == 0.0

    def test_decaying_mode_values(self, unit_domain):
        T = 0.5
        cfg = SimulationConfig(domain=unit_domain, n=4, model=zero_model(4),
                               dt=1e-3, t_end=T)
        traj = simulate(cfg, ModeInitial(1, 1.0, 1.0))
        assert x_norm(traj) == pytest.approx(1.0, abs=1e-10)
        exact = (1.0 - np.exp(-2 * np.pi**2 * T)) / 2.0
        assert abs(y_norm_sq(traj) - exact) <= 2e-4
        assert x_norm(traj) >= np.sqrt(traj.l2_sq[-1])


class TestMomentReport:
    def test_zero_model_deterministic(self, unit_domain):
        cfg = SimulationConfig(domain=unit_domain, n=4, model=zero_model(4),
                               dt=1e-3, t_end=0.1, n_paths=4)
        summ = simulate_ensemble(cfg, ModeInitial(1, 1.0, 1.0))
        report = moment_report(summ)
        traj = simulate(cfg, ModeInitial(1, 1.0, 1.0))
        assert report.e_sup_l2_sq == pytest.approx(np.max(traj.l2_sq), rel=1e-12)
        assert report.se_sup_l2_sq <= 1e-14
        assert report.e_y_norm_sq == pytest.approx(y_norm_sq(traj), rel=1e-12)

    def test_ou_second_moment_small_ensemble(self, unit_domain):
        # additive diagonal noise on a fixed domain decouples into scalar
        # OU equations with exactly known second moments
        gamma, n, T = 0.3, 8, 0.25
        model = moving_diagonal(gamma=gamma, beta=0.0, decay_p=1.0, m=n)
        cfg = SimulationConfig(domain=unit_domain, n=n, model=model, dt=1e-3,
                               t_end=T, seed=314, n_paths=400, snapshot_stride=50)
        summ = simulate_ensemble(cfg, ModeInitial(1, 1.0, 1.0))
        lam = eigenvalues(n, 0.0, unit_domain)
        q = np.arange(1, n + 1, dtype=float) ** -1.0
        a0_sq = np.zeros(n)
        a0_sq[0] = 1.0
        exact = np.sum(
            a0_sq * np.exp(2 * lam * T)
            + q**2 * gamma**2 * (1 - np.exp(2 * lam * T)) / (-2 * lam)
        )
        mean = float(np.mean(summ.final_l2_sq))
        se = float(np.std(summ.final_l2_sq, ddof=1) / np.sqrt(summ.n_paths))
        assert abs(mean - exact) <= 3 * se

    def test_needs_two_paths(self, unit_domain):
        cfg = SimulationConfig(domain=unit_domain, n=2, model=zero_model(2),
                               dt=1e-3, t_end=0.1, n_paths=1)
        summ = simulate_ensemble(cfg, ModeInitial(1, 1.0, 1.0))
        with pytest.raises(ValueError):
            moment_report(summ)


class TestMeanEnergyBalance:
    def test_additive_ensemble_within_three_se(self, unit_domain):
        model = moving_diagonal(gamma=1.0, beta=0.0, decay_p=1.0, m=8)
        cfg = SimulationConfig(domain=unit_domain, n=8, model=model, dt=1e-3,
                               t_end=0.1, seed=3, n_paths=2000, snapshot_stride=100)
        summ = simulate_ensemble(cfg, ModeInitial(1, 1.0, 1.0), workers=4)
        defect, se = mean_energy_balance(summ)
        assert abs(defect) <= 3 * se


class TestMeanAndSe:
    def test_columns_and_scalars(self):
        values = np.random.default_rng(5).normal(size=(7, 3))
        mean, se = mean_and_se(values, "x", np.arange(3.0))
        assert mean.tobytes() == np.mean(values, axis=0).tobytes()
        assert se.tobytes() == (np.std(values, axis=0, ddof=1) / math.sqrt(7)).tobytes()
        mean, se = mean_and_se(values[:, 1], "x")
        assert (mean, se) == (np.mean(values[:, 1]), np.std(values[:, 1], ddof=1) / np.sqrt(7))

    def test_single_path_has_zero_standard_error(self):
        mean, se = mean_and_se(np.array([[1.5, -2.0]]), "x", np.arange(2.0))
        assert mean.tolist() == [1.5, -2.0] and se.tolist() == [0.0, 0.0]
        assert mean_and_se(np.array([3.0]), "x") == (3.0, 0.0)

    @pytest.mark.parametrize("values,message", [
        (np.array([[1.0, 1e308], [1.0, -1e308], [1.0, 1e308]]),
         "non-finite standard error of l2_sq over 3 paths at t=0.5"),
        (np.array([[1.0, 1.0, 1e308], [1.0, 1e308, 1e308]]),
         "non-finite mean of l2_sq over 2 paths at t=1"),
        (np.array([[0.0, np.nan]]), "non-finite mean of l2_sq over 1 paths at t=0.5"),
    ])
    def test_per_time_failure_names_statistic_and_time(self, values, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=f"^{message}$"):
                mean_and_se(values, "l2_sq", np.array([0.0, 0.5, 1.0])[:values.shape[1]])

    def test_scalar_failure_names_statistic(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="^non-finite standard error of y_norm_sq_p2 "
                                                     "over 2 paths$"):
                mean_and_se(np.array([1e308, -1e308]), "y_norm_sq_p2")


class TestSelfConvergence:
    def test_resolved_initial_data_gives_zero_distance(self, unit_domain):
        # zero noise + fixed domain: modes decouple, so once u0 fits inside
        # the coarse level both levels integrate identical equations
        cfg = SimulationConfig(domain=unit_domain, n=8, model=zero_model(64),
                               dt=1e-3, t_end=0.2, seed=0, snapshot_stride=20)
        u0 = ModesInitial((1.0, 0.0, 0.3), 1.0)
        rows = self_convergence_study(cfg, u0, [8, 16], n_seeds=1)
        for row in rows:
            assert row.d_x <= 1e-9
            assert row.d_y <= 1e-9

    def test_parabola_tail_decreases(self, sin_domain):
        cfg = SimulationConfig(domain=sin_domain, n=8, model=zero_model(64),
                               dt=1e-3, t_end=0.2, seed=0, snapshot_stride=5)
        rows = self_convergence_study(cfg, ParabolaInitial(1.0, 1.0), [8, 16, 32],
                                      n_seeds=1)
        dx = {r.n: r.d_x for r in rows}
        dy = {r.n: r.d_y for r in rows}
        assert dx[8] > dx[16] > dx[32]
        assert dy[8] > dy[16] > dy[32]

    def test_levels_must_double(self, unit_domain):
        cfg = SimulationConfig(domain=unit_domain, n=8, model=zero_model(8),
                               dt=1e-3, t_end=0.1)
        with pytest.raises(ValueError, match="double"):
            self_convergence_study(cfg, ModeInitial(1, 1.0, 1.0), [8, 24], 1)

    def test_level_distance_parseval_split(self, sin_domain):
        cfg8 = SimulationConfig(domain=sin_domain, n=8, model=zero_model(16),
                                dt=1e-3, t_end=0.1, snapshot_stride=10)
        cfg16 = cfg8.with_updates(n=16)
        u0 = ParabolaInitial(1.0, 1.0)
        t8, t16 = simulate(cfg8, u0), simulate(cfg16, u0)
        d_x, d_y = level_distance(t8, t16, sin_domain)
        # brute-force the same quantities from the saved coefficients
        sup = 0.0
        for i, t in enumerate(t8.times):
            diff = t16.coeffs[i, :8] - t8.coeffs[i]
            tail = t16.coeffs[i, 8:]
            sup = max(sup, np.sqrt(np.sum(diff**2) + np.sum(tail**2)))
        assert d_x == pytest.approx(sup, rel=1e-12)
        assert d_y > 0.0


def test_energy_residuals_vector(unit_domain):
    cfg = SimulationConfig(domain=unit_domain, n=4, model=zero_model(4),
                           dt=1e-3, t_end=0.1)
    traj = simulate(cfg, ModeInitial(1, 1.0, 1.0))
    rs = energy_residuals(traj)
    for i in (0, 5, len(traj.times) - 1):
        assert rs[i] == energy_residual(traj, i)
