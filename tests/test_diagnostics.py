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
    energy_residuals,
    general_matrix,
    level_distance,
    mean_energy_balance,
    moment_rows,
    moving_diagonal,
    self_convergence_study,
    simulate,
    simulate_ensemble,
    zero_model,
)
from movingheat import basis, integrator, noise
from movingheat.diagnostics import mean_and_se
from movingheat.errors import ConfigError


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
        assert energy_residuals(traj)[0] == 0.0

    def test_deterministic_matches_closed_form(self, unit_domain):
        lam = -np.pi**2
        for dt in (1e-3, 5e-4):
            cfg = SimulationConfig(domain=unit_domain, n=4, model=zero_model(4),
                                   dt=dt, t_end=0.5)
            traj = simulate(cfg, ModeInitial(1, 1.0, 1.0))
            r = energy_residuals(traj)[-1]
            assert r == pytest.approx(decay_residual_oracle(lam, 0.5, dt), abs=1e-11)

    def test_refinement_halves_residual(self, unit_domain):
        values = {}
        for dt in (1e-3, 5e-4):
            cfg = SimulationConfig(domain=unit_domain, n=4, model=zero_model(4),
                                   dt=dt, t_end=0.5)
            traj = simulate(cfg, ModeInitial(1, 1.0, 1.0))
            values[dt] = abs(energy_residuals(traj)[-1])
        assert values[1e-3] <= 2e-2
        assert 1.6 <= values[1e-3] / values[5e-4] <= 2.4

    def test_index_validation(self, unit_domain):
        # one residual per saved step, so an index past the saved range fails
        cfg = SimulationConfig(domain=unit_domain, n=2, model=zero_model(2),
                               dt=1e-3, t_end=0.1, snapshot_stride=7)
        traj = simulate(cfg, ModeInitial(1, 1.0, 1.0))
        assert energy_residuals(traj).shape == traj.times.shape == (16,)
        with pytest.raises(IndexError):
            energy_residuals(traj)[16]


class TestSpaceTimeNorms:
    """The per-path sup_t |u|^2 and time integral of ||u||^2 of an ensemble summary."""

    def test_zero_trajectory(self, unit_domain):
        cfg = SimulationConfig(domain=unit_domain, n=4, model=zero_model(4),
                               dt=1e-3, t_end=0.1)
        summ = simulate_ensemble(cfg, lambda x: 0.0 * x)
        assert summ.sup_l2_sq.tolist() == [0.0]
        assert summ.y_norm_sq.tolist() == [0.0]

    def test_decaying_mode_values(self, unit_domain):
        T = 0.5
        cfg = SimulationConfig(domain=unit_domain, n=4, model=zero_model(4),
                               dt=1e-3, t_end=T)
        summ = simulate_ensemble(cfg, ModeInitial(1, 1.0, 1.0))
        assert np.sqrt(summ.sup_l2_sq[0]) == pytest.approx(1.0, abs=1e-10)
        exact = (1.0 - np.exp(-2 * np.pi**2 * T)) / 2.0
        assert abs(summ.y_norm_sq[0] - exact) <= 2e-4
        assert summ.sup_l2_sq[0] >= summ.final_l2_sq[0]


class TestMomentReport:
    def test_zero_model_deterministic(self, unit_domain):
        cfg = SimulationConfig(domain=unit_domain, n=4, model=zero_model(4),
                               dt=1e-3, t_end=0.1, n_paths=4)
        summ = simulate_ensemble(cfg, ModeInitial(1, 1.0, 1.0))
        rows = {name: (mean, se) for name, mean, se in moment_rows(summ)}
        traj = simulate(cfg, ModeInitial(1, 1.0, 1.0))
        assert rows["sup_l2_sq"][0] == pytest.approx(np.max(traj.l2_sq), rel=1e-12)
        assert rows["sup_l2_sq"][1] <= 1e-14
        assert rows["y_norm_sq"][0] == pytest.approx(np.trapezoid(traj.h1_sq, traj.times),
                                                     rel=1e-12)

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

    def test_failure_names_the_first_failed_row(self, unit_domain):
        cfg = SimulationConfig(domain=unit_domain, n=2, model=zero_model(2),
                               dt=1e-3, t_end=0.01, n_paths=2)
        summ = simulate_ensemble(cfg, ModeInitial(1, 1.0, 1.0))
        # the sup is finite but its square overflows: the first failed row is sup_l2_sq_p2
        summ.sup_l2_sq[:] = [1e160, 1e160]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="^non-finite mean of sup_l2_sq_p2 "):
                moment_rows(summ)


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

    @pytest.mark.parametrize("block_rows,budget", [(None, None), (1, 20)])
    @pytest.mark.parametrize("kind", ["moving_diagonal", "general_matrix"])
    @pytest.mark.parametrize("scheme", ["exponential_em", "explicit_em"])
    @pytest.mark.parametrize("levels,m", [([2, 4], 5), ([4, 8, 16], 12)])
    def test_study_matches_independent_runs_bitwise(self, monkeypatch, sin_domain, levels, m,
                                                    scheme, kind, block_rows, budget):
        # m = 5 is odd; m = 12 makes the HS norms sum more than 8 terms, so a sum in another
        # order would show.  The table has 3 n_1 columns, fewer than the finest level's modes
        models = {
            "moving_diagonal": moving_diagonal(gamma=0.4, beta=0.3, decay_p=1.0, m=m),
            "general_matrix": general_matrix(
                np.random.default_rng(4).normal(scale=0.3, size=(m, 3 * levels[0])),
                lipschitz_k=100.0),
        }
        ns = levels + [2 * levels[-1]]
        dt = 2.0**-12
        while scheme == "explicit_em" and dt > integrator.explicit_dt_bound(sin_domain, ns[-1]):
            dt /= 2
        cfg = SimulationConfig(domain=sin_domain, n=2, model=models[kind], dt=dt,
                               t_end=37 * dt, scheme=scheme, seed=7, snapshot_stride=4)
        u0 = ParabolaInitial(1.0, 1.0)
        alone = {(seed, n): simulate(cfg.with_updates(n=n, seed=seed), u0)
                 for seed in (7, 8, 9) for n in ns}
        expected = {(seed, n): level_distance(alone[seed, n], alone[seed, 2 * n])
                    for seed in (7, 8, 9) for n in levels}

        if block_rows is not None:
            monkeypatch.setattr(integrator, "MAX_BLOCK_ROWS", block_rows)
        if budget is not None:
            monkeypatch.setattr(noise, "DRAW_BUDGET", budget)
        draws, projected = [], []
        draw, project = integrator.draw_increment, basis.project_initial

        def draw_spy(streams, step_index, steps, m, dt):
            draws.append((tuple(s.seed for s in streams), step_index, steps))
            return draw(streams, step_index, steps, m, dt)

        def project_spy(u0, n, domain):
            projected.append(n)
            return project(u0, n, domain)

        monkeypatch.setattr(integrator, "draw_increment", draw_spy)
        monkeypatch.setattr(basis, "project_initial", project_spy)
        rows = self_convergence_study(cfg, u0, levels, 3)
        assert [(r.seed, r.n) for r in rows] == [(s, n) for s in (7, 8, 9) for n in levels]
        for r in rows:
            assert (r.d_x, r.d_y) == expected[r.seed, r.n]
        assert projected == ns  # once per level, not per seed
        # ceil(N/S) draws per block of seeds, however many levels the block steps
        blocks = [(7,), (8,), (9,)] if block_rows == 1 else [(7, 8, 9)]
        want = []
        for block in blocks:
            per_draw = noise.steps_per_draw(len(block), m, sum(ns), len(ns))
            want += [(block, s, min(per_draw, 37 - s)) for s in range(0, 37, per_draw)]
        assert draws == want
        # the whole ledger too: its HS sums are the only sums the distances do not read
        configs = [cfg.with_updates(n=n) for n in ns]
        for seed, trajs in integrator.level_trajectories(configs, u0, range(7, 10)):
            for n, traj in zip(ns, trajs):
                want = alone[seed, n]
                for name in ("coeffs", "l2_sq", "h1_sq", "visc", "sto", "hs"):
                    assert getattr(traj, name).tobytes() == getattr(want, name).tobytes()

    @pytest.mark.parametrize("kept,sizes", [
        (None, [5]),        # everything fits: one block
        (2 * 4 * 14, [2, 2, 1]),  # two rows of 4 saved steps x (2 + 4 + 8) modes
        (1, [1] * 5),       # never below one row
    ])
    def test_blocks_cap_the_kept_coefficients(self, monkeypatch, unit_domain, kept, sizes):
        if kept is not None:
            monkeypatch.setattr(integrator, "MAX_KEPT_COEFFS", kept)
        rows = []
        step_paths = integrator._step_paths

        def spy(configs, a0s, block, *args, **kwargs):
            rows.append(len(block))
            return step_paths(configs, a0s, block, *args, **kwargs)

        monkeypatch.setattr(integrator, "_step_paths", spy)
        cfg = SimulationConfig(domain=unit_domain, n=2, model=moving_diagonal(0.3, 0.0, m=4),
                               dt=1e-3, t_end=0.03, snapshot_stride=10)
        self_convergence_study(cfg, ModeInitial(1, 1.0, 1.0), [2, 4], 5)
        assert rows == sizes

    # 5985 and 2449 words give the 3-row block chunks of 57 and 23 steps: step 112 is the
    # 55th of steps 58-114 and the 20th of steps 93-115; seed 24's n=2 and n=4 fail at the
    # last step of the chunk 58-114, and its n=1 at the 7th step of the next chunk
    @pytest.mark.parametrize("draw_budget", [1, None, 5985, 2449], indirect=True,
                             ids=["budget=1", "budget=default", "budget=5985", "budget=2449"])
    @pytest.mark.parametrize("seed,step", [(2, 112), (24, 121)])
    def test_failure_names_lowest_seed_then_lowest_level(self, unit_domain, draw_budget,
                                                         seed, step):
        # each level starts from A_1 = 5.4e-17, the rounding residue of projecting mode 2
        # onto mode 1, and from n = 2 on from A_2 = 1.  From seed 2 the failures are seed 2
        # at every level after 112 steps and seed 3 at every level after 107.  From seed 24
        # they are seed 24 at n=1 after 121 steps, but at n=2 and n=4 after 114, where
        # mode 2 overflows first, and seed 25 at every level after 108.  The report is the
        # lowest seed, then its lowest level: seed 2, n=1 and seed 24, n=1
        model = moving_diagonal(gamma=0.0, beta=2000.0, decay_p=0.6, m=2)
        cfg = SimulationConfig(domain=unit_domain, n=1, model=model, dt=1e-3, t_end=0.2,
                               seed=seed)
        message = rf"^seed {seed}, n=1, step {step}: non-finite energy ledger at t=0\.{step}$"
        with pytest.raises(NumericalError, match=message):
            self_convergence_study(cfg, ModeInitial(2, 1.0, 1.0), [1, 2], 3)

    @pytest.mark.parametrize("levels,seed,n_seeds,error,message", [
        ([], 0, 1, ValueError, "levels must name at least one truncation"),
        # n = 16 and 32 are stable at dt = 1e-4; n = 64 is not
        ([16, 32, 64], 0, 2, ConfigError, "explicit_em is unstable at dt=0.0001 for n=64"),
        ([2], 2**64 - 1, 2, ValueError,
         r"seeds 18446744073709551615\.\.18446744073709551616 must lie"),
    ])
    def test_invalid_study_fails_before_the_first_step(self, monkeypatch, unit_domain, levels,
                                                       seed, n_seeds, error, message):
        def no_step(*args, **kwargs):
            raise AssertionError("stepped before the study was validated")

        monkeypatch.setattr(integrator, "_step_paths", no_step)
        monkeypatch.setattr(basis, "project_initial", no_step)
        cfg = SimulationConfig(domain=unit_domain, n=2, model=zero_model(2), dt=1e-4,
                               t_end=0.01, scheme="explicit_em", seed=seed)
        with pytest.raises(error, match=message):
            self_convergence_study(cfg, ModeInitial(1, 1.0, 1.0), levels, n_seeds)

    def test_level_distance_parseval_split(self, sin_domain):
        cfg8 = SimulationConfig(domain=sin_domain, n=8, model=zero_model(16),
                                dt=1e-3, t_end=0.1, snapshot_stride=10)
        cfg16 = cfg8.with_updates(n=16)
        u0 = ParabolaInitial(1.0, 1.0)
        t8, t16 = simulate(cfg8, u0), simulate(cfg16, u0)
        d_x, d_y = level_distance(t8, t16)
        # brute-force the same quantities from the saved coefficients
        sup = 0.0
        for i, t in enumerate(t8.times):
            diff = t16.coeffs[i, :8] - t8.coeffs[i]
            tail = t16.coeffs[i, 8:]
            sup = max(sup, np.sqrt(np.sum(diff**2) + np.sum(tail**2)))
        assert d_x == pytest.approx(sup, rel=1e-12)
        assert d_y > 0.0

    # stride 5 saves more steps; stride 20 to t_end = 0.2 saves as many, at other times
    @pytest.mark.parametrize("stride,t_end", [(5, 0.1), (20, 0.2)])
    def test_level_distance_rejects_different_time_grids(self, sin_domain, stride, t_end):
        cfg8 = SimulationConfig(domain=sin_domain, n=8, model=zero_model(16),
                                dt=1e-3, t_end=0.1, snapshot_stride=10)
        cfg16 = cfg8.with_updates(n=16, snapshot_stride=stride, t_end=t_end)
        u0 = ParabolaInitial(1.0, 1.0)
        with pytest.raises(ValueError, match="^trajectories must share the same saved time grid$"):
            level_distance(simulate(cfg8, u0), simulate(cfg16, u0))


def test_energy_residuals_vector(unit_domain):
    cfg = SimulationConfig(domain=unit_domain, n=4, model=zero_model(4),
                           dt=1e-3, t_end=0.1)
    traj = simulate(cfg, ModeInitial(1, 1.0, 1.0))
    rs = energy_residuals(traj)
    for i in (0, 5, len(traj.times) - 1):
        assert rs[i] == traj.l2_sq[i] - traj.e0 + traj.visc[i] - traj.sto[i] - traj.hs[i]
