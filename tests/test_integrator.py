import concurrent.futures

import numpy as np
import pytest

from movingheat import (
    CoefficientState,
    ConfigError,
    ModeInitial,
    ModesInitial,
    NumericalError,
    SimulationConfig,
    coupling_matrix,
    explicit_dt_bound,
    general_matrix,
    make_domain,
    moving_diagonal,
    simulate,
    simulate_ensemble,
    zero_model,
)
from movingheat import basis, integrator, noise
from movingheat.integrator import saved_steps


def config(domain, **kw):
    defaults = dict(n=4, model=zero_model(4), dt=1e-3, t_end=0.5)
    defaults.update(kw)
    return SimulationConfig(domain=domain, **defaults)


class TestConfigValidation:
    def test_nonuniform_grid_rejected(self, unit_domain):
        with pytest.raises(ConfigError, match="uniform"):
            config(unit_domain, dt=3e-4, t_end=0.5)

    def test_t_end_beyond_horizon(self, unit_domain):
        with pytest.raises(ConfigError, match="horizon"):
            config(unit_domain, t_end=2.0)

    def test_stability_guard(self, unit_domain):
        bound = explicit_dt_bound(unit_domain, 64)
        assert bound == pytest.approx(1.9 * (0.99 / (64 * np.pi)) ** 2, rel=1e-12)
        with pytest.raises(ConfigError, match="unstable") as err:
            config(unit_domain, n=64, scheme="explicit_em", dt=0.01, t_end=0.5)
        assert f"{bound:.6g}" in str(err.value)

    def test_stability_guard_bounds_the_coupling_from_two_modes(self):
        # |a'/a| <= big_l / delta0 and C_n's spectral radius is below pi n; C_1 = 0
        steep = make_domain("linear", {"a0": 1.0, "slope": 1e308}, 1e-3)
        assert explicit_dt_bound(steep, 1) == 1.9 * (steep.delta0 / np.pi) ** 2
        assert explicit_dt_bound(steep, 3) == steep.delta0 / (3 * np.pi) / steep.big_l

    def test_stability_bound_overflows_to_inf(self):
        # (delta0 / pi)^2 is beyond the float range: no bound, not an OverflowError
        wide = make_domain("constant", {"a0": 1e308}, 0.5)
        assert explicit_dt_bound(wide, 1) == np.inf
        assert config(wide, n=1, scheme="explicit_em", dt=0.25, t_end=0.5).n_steps == 2

    def test_explicit_under_bound_accepted(self, unit_domain):
        cfg = config(unit_domain, n=4, scheme="explicit_em", dt=1e-3, t_end=0.1)
        assert cfg.n_steps == 100

    def test_bad_scheme_and_counts(self, unit_domain):
        with pytest.raises(ConfigError):
            config(unit_domain, scheme="milstein")
        with pytest.raises(ConfigError):
            config(unit_domain, n=0)
        assert config(unit_domain, n=4096).n == 4096
        with pytest.raises(ConfigError, match=r"^truncation n must lie in \[1, 4096\], got 4097$"):
            config(unit_domain, n=4097)
        with pytest.raises(ConfigError):
            config(unit_domain, snapshot_stride=0)
        with pytest.raises(ConfigError):
            config(unit_domain, seed=-1)
        # the seed is a 64-bit word of the Philox key
        assert config(unit_domain, seed=2**64 - 1).seed == 2**64 - 1
        with pytest.raises(ConfigError, match=r"^seed must lie in \[0, 18446744073709551616\)"):
            config(unit_domain, seed=2**64)


class TestDrift:
    def test_coupling_quadratic_form_vanishes_exactly(self, sin_domain):
        # pair (j,k)/(k,j) contributions cancel bitwise because the matrix is
        # bitwise skew and (A_j A_k) b_jk == -(A_k A_j) b_kj
        rng = np.random.default_rng(4)
        b = coupling_matrix(16, 0.3, sin_domain)
        for _ in range(100):
            coeffs = rng.normal(size=16)
            s = np.outer(coeffs, coeffs) * b
            assert np.all(s + s.T == 0.0)


class TestStep:
    """One step of the stepper: ``simulate`` from a CoefficientState with t_end = dt."""

    def test_exponential_pure_decay(self, unit_domain):
        dt = 2.0**-7  # dyadic so t_end/dt is an exact integer
        cfg = config(unit_domain, n=1, model=zero_model(1), dt=dt, t_end=dt)
        traj = simulate(cfg, CoefficientState(0.0, np.array([1.0])))
        assert traj.coeffs[-1, 0] == pytest.approx(np.exp(-np.pi**2 * dt), rel=1e-15)
        assert traj.times.tolist() == [0.0, dt]

    def test_zero_drift_hook_is_identity(self, unit_domain):
        cfg = config(unit_domain, n=3, dt=1e-3, t_end=1e-3)
        a0 = np.array([1.0, -0.5, 2.0])
        traj = simulate(cfg, CoefficientState(0.0, a0), zero_eigenvalues=True)
        assert np.array_equal(traj.coeffs[-1], a0)

    def test_explicit_one_step_example(self, lin_domain):
        cfg = SimulationConfig(
            domain=lin_domain, n=2, model=zero_model(2),
            dt=1e-3, t_end=1e-3, scheme="explicit_em",
        )
        traj = simulate(cfg, CoefficientState(0.0, np.array([1.0, 0.0])))
        assert traj.coeffs[-1, 0] == pytest.approx(1.0 - np.pi**2 * 1e-3, abs=1e-15)
        assert traj.coeffs[-1, 1] == pytest.approx(4.0 / 3.0 * 1e-3, abs=1e-18)

    @pytest.mark.parametrize("a1,what", [(1e10, "coefficients"), (1.0, "norms")])
    def test_overflow_reports_non_finite_coefficients(self, a1, what):
        # exponential_em has no a'/a guard (explicit_em rejects this config at validation).
        # At a'/a = 1e308 and A = (A_1, 0, 0) the first step adds (C_3^T A) (a'/a dt), whose
        # entries are (4/3, -3/4) A_1 1e305 after mode 1: at A_1 = 1e10 the true step
        # overflows, so the coefficients of step 1 are non-finite while the ledger of step 0
        # is finite; at A_1 = 1 they are finite, near 1.3e305, and their |A|^2 overflows
        steep = make_domain("linear", {"a0": 1.0, "slope": 1e308}, 1e-3)
        cfg = SimulationConfig(
            domain=steep, n=3, model=zero_model(3),
            dt=1e-3, t_end=1e-3, scheme="exponential_em",
        )
        with pytest.raises(NumericalError,
                           match=rf"^path 0, step 1: non-finite {what} at t=0\.001$"):
            simulate(cfg, CoefficientState(0.0, np.array([a1, 0.0, 0.0])))


class TestSimulate:
    def test_exact_decoupled_solution(self, unit_domain):
        cfg = config(unit_domain, n=8, model=zero_model(8), dt=1e-3, t_end=0.5)
        traj = simulate(cfg, ModeInitial(1, 1.0, 1.0))
        final = traj.coeffs[-1][0]
        assert final == pytest.approx(np.exp(-np.pi**2 * 0.5), abs=1e-10)
        assert abs(final - 0.0071918833558) <= 1e-10

    def test_two_mode_exact(self, unit_domain):
        cfg = config(unit_domain, n=8, model=zero_model(8), dt=1e-3, t_end=0.5)
        traj = simulate(cfg, ModesInitial((1.0, 0.0, 0.3), 1.0))
        a3 = traj.coeffs[-1][2]
        assert abs(a3 - 0.3 * np.exp(-9 * np.pi**2 * 0.5)) <= 1e-12

    def test_times_grid(self, unit_domain):
        cfg = config(unit_domain, dt=1e-3, t_end=0.5, snapshot_stride=100)
        traj = simulate(cfg, ModeInitial(1, 1.0, 1.0))
        assert traj.times[0] == 0.0
        assert traj.times[-1] == 0.5
        assert np.all(np.diff(traj.times) > 0)
        assert list(traj.steps) == [0, 100, 200, 300, 400, 500]

    def test_rerun_bitwise_identical(self, sin_domain):
        model = moving_diagonal(gamma=0.4, beta=0.3, decay_p=1.0, m=8)
        cfg = SimulationConfig(domain=sin_domain, n=8, model=model, dt=1e-3,
                               t_end=0.2, seed=77)
        t1 = simulate(cfg, ModeInitial(1, 1.0, 1.0))
        t2 = simulate(cfg, ModeInitial(1, 1.0, 1.0))
        assert np.array_equal(t1.coeffs, t2.coeffs)
        assert np.array_equal(t1.sto, t2.sto)

    def test_stride_does_not_change_path(self, sin_domain):
        # pathwise-uniqueness probe: identical noise, different buffer layout
        model = moving_diagonal(gamma=0.4, beta=0.3, decay_p=1.0, m=8)
        base = dict(domain=sin_domain, n=8, model=model, dt=1e-3, t_end=0.2, seed=5)
        dense = simulate(SimulationConfig(snapshot_stride=1, **base), ModeInitial(1, 1.0, 1.0))
        sparse = simulate(SimulationConfig(snapshot_stride=10, **base), ModeInitial(1, 1.0, 1.0))
        shared = np.isin(dense.steps, sparse.steps)
        assert np.array_equal(dense.coeffs[shared], sparse.coeffs)
        assert np.array_equal(dense.times[shared], sparse.times)
        assert np.array_equal(dense.visc[shared], sparse.visc)

    def test_monotone_dissipation(self, sin_domain):
        cfg = SimulationConfig(domain=sin_domain, n=32, model=zero_model(1),
                               dt=1e-3, t_end=0.5)
        traj = simulate(cfg, lambda x: x * (sin_domain.a_at(0.0) - x))
        assert np.all(np.diff(traj.l2_sq) <= 1e-9)

    def test_initial_state_passthrough(self, unit_domain):
        cfg = config(unit_domain, n=3)
        state = CoefficientState(0.0, np.array([0.5, 0.25, -0.1]))
        traj = simulate(cfg, state)
        assert np.array_equal(traj.coeffs[0], state.coeffs)
        with pytest.raises(ConfigError):
            simulate(cfg, CoefficientState(0.0, np.zeros(7)))


class TestOtherDomainFamilies:
    def test_table_domain_tracks_linear(self):
        # a table built from samples of a line must reproduce the linear
        # domain's dynamics to spline-roundoff accuracy
        from movingheat import make_domain

        ts = np.linspace(0.0, 0.5, 51)
        table = make_domain("table", {"t": ts, "a": 1.0 + 0.25 * ts}, 0.5)
        linear = make_domain("linear", {"a0": 1.0, "slope": 0.25}, 0.5)
        u0 = ModeInitial(1, 1.0, 1.0)
        out = {}
        for name, dom in (("table", table), ("linear", linear)):
            cfg = SimulationConfig(domain=dom, n=16, model=zero_model(1),
                                   dt=1e-3, t_end=0.5, snapshot_stride=500)
            out[name] = simulate(cfg, u0).coeffs[-1]
        assert np.max(np.abs(out["table"] - out["linear"])) <= 1e-8

    def test_exponential_domain_dissipates(self):
        from movingheat import make_domain

        dom = make_domain("exponential", {"a0": 1.0, "slope": -0.4}, 0.5)
        cfg = SimulationConfig(domain=dom, n=16, model=zero_model(1),
                               dt=1e-3, t_end=0.5)
        traj = simulate(cfg, ModeInitial(1, 1.0, 1.0))
        assert np.all(np.diff(traj.l2_sq) <= 1e-9)
        # shrinking domain decays faster than the fixed-domain rate
        assert traj.l2_sq[-1] < np.exp(-2 * np.pi**2 * 0.5)


class TestTransportConservation:
    def test_exact_flow_conserves_energy(self, sin_domain):
        # with the decay zeroed and no noise the coupling is skew, so the
        # continuous flow conserves sum A_k^2; the explicit drift grows it
        # at O(dt) per unit time
        drifts = {}
        for dt in (1e-3, 5e-4):
            cfg = SimulationConfig(domain=sin_domain, n=8, model=zero_model(8),
                                   dt=dt, t_end=0.5, scheme="explicit_em")
            traj = simulate(cfg, ModeInitial(1, 1.0, 1.0), zero_eigenvalues=True)
            drifts[dt] = abs(traj.l2_sq[-1] - traj.l2_sq[0])
        ratio = drifts[1e-3] / drifts[5e-4]
        assert 1.6 <= ratio <= 2.4

    def test_exponential_scheme_transport(self, sin_domain):
        cfg = SimulationConfig(domain=sin_domain, n=8, model=zero_model(8),
                               dt=1e-3, t_end=0.5)
        traj = simulate(cfg, ModeInitial(1, 1.0, 1.0), zero_eigenvalues=True)
        assert traj.l2_sq[-1] == pytest.approx(traj.l2_sq[0], abs=5e-3)

    @pytest.mark.parametrize("n,dt", [(basis._FFT_MIN_N, 2.0**-15), (1024, 2.0**-16)])
    def test_exponential_scheme_transport_above_the_fft_crossover(self, sin_domain, n, dt):
        # the same transport with the coupling applied by FFT; the coupling step is
        # explicit, so dt n stays near the n = 8 case's 8e-3 (at dt = 1e-3 it is unstable
        # from n = 256 on, below the crossover too)
        cfg = SimulationConfig(domain=sin_domain, n=n, model=zero_model(8),
                               dt=dt, t_end=0.25)
        traj = simulate(cfg, ModeInitial(1, 1.0, 1.0), zero_eigenvalues=True)
        assert traj.l2_sq[-1] == pytest.approx(traj.l2_sq[0], abs=5e-3)


class TestEnsemble:
    def test_single_path_matches_simulate(self, sin_domain):
        model = moving_diagonal(gamma=0.4, beta=0.0, decay_p=1.0, m=4)
        cfg = SimulationConfig(domain=sin_domain, n=4, model=model, dt=1e-3,
                               t_end=0.1, seed=3, n_paths=1)
        summ = simulate_ensemble(cfg, ModeInitial(1, 1.0, 1.0))
        traj = simulate(cfg, ModeInitial(1, 1.0, 1.0), path_index=0)
        assert np.array_equal(summ.mean_l2_sq, traj.l2_sq)
        assert np.all(summ.se_l2_sq == 0.0)

    def test_zero_model_zero_variance(self, unit_domain):
        cfg = config(unit_domain, n=4, t_end=0.1, n_paths=8)
        summ = simulate_ensemble(cfg, ModeInitial(1, 1.0, 1.0))
        # paths are bitwise identical; the std estimator only leaves
        # rounding dust from its internal mean
        assert np.ptp(summ.final_l2_sq) == 0.0
        assert np.ptp(summ.sup_l2_sq) == 0.0
        assert np.max(summ.se_l2_sq) <= 1e-14

    def test_workers_bitwise_identical(self, sin_domain):
        model = moving_diagonal(gamma=0.4, beta=0.3, decay_p=1.0, m=8)
        cfg = SimulationConfig(domain=sin_domain, n=8, model=model, dt=1e-3,
                               t_end=0.1, seed=21, n_paths=12, snapshot_stride=10)
        u0 = ModeInitial(1, 1.0, 1.0)
        serial = simulate_ensemble(cfg, u0, workers=1)
        parallel = simulate_ensemble(cfg, u0, workers=4)
        assert np.array_equal(serial.mean_l2_sq, parallel.mean_l2_sq)
        assert np.array_equal(serial.sup_l2_sq, parallel.sup_l2_sq)
        assert np.array_equal(serial.final_sto, parallel.final_sto)

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("kind", ["moving_diagonal", "general_matrix", "zero"])
    @pytest.mark.parametrize("scheme", ["exponential_em", "explicit_em"])
    @pytest.mark.parametrize("n", [1, 4, 16, 64])
    def test_reductions_match_per_path_loop(self, sin_domain, n, scheme, kind, workers):
        # 5 paths in one block at 1 worker and in blocks [0], [1, 2], [3, 4] at 3 workers: a
        # row's bits must not depend on its block.  Stride 7 does not divide the 64 steps,
        # so the last step is saved on its own.
        models = {
            "moving_diagonal": moving_diagonal(gamma=0.4, beta=0.3, decay_p=1.0, m=6),
            "general_matrix": general_matrix(
                np.random.default_rng(n).normal(scale=0.3, size=(5, n)), lipschitz_k=100.0),
            "zero": zero_model(4),
        }
        dt = 2.0**-10
        while scheme == "explicit_em" and dt > explicit_dt_bound(sin_domain, n):
            dt /= 2
        cfg = SimulationConfig(domain=sin_domain, n=n, model=models[kind], dt=dt, t_end=64 * dt,
                               scheme=scheme, seed=5, n_paths=5, snapshot_stride=7)
        u0 = ModeInitial(1, 0.7, 1.0)
        summ = simulate_ensemble(cfg, u0, workers=workers)
        trajs = [simulate(cfg, u0, path_index=p) for p in range(5)]
        assert np.array_equal(summ.times, trajs[0].times)
        assert summ.e0 == trajs[0].e0
        for p, traj in enumerate(trajs):
            assert summ.sup_l2_sq[p] == np.max(traj.l2_sq)
            assert summ.y_norm_sq[p] == np.trapezoid(traj.h1_sq, traj.times)
            assert summ.final_l2_sq[p] == traj.l2_sq[-1]
            assert summ.final_visc[p] == traj.visc[-1]
            assert summ.final_sto[p] == traj.sto[-1]
            assert summ.final_hs[p] == traj.hs[-1]
        for name, col in (("l2_sq", summ.mean_l2_sq), ("h1_sq", summ.mean_h1_sq)):
            rows = np.stack([getattr(traj, name) for traj in trajs])
            assert col.tobytes() == np.mean(rows, axis=0).tobytes()
        # any rows, in any order, step as they do alone
        a0 = trajs[0].coeffs[0]
        steps, a_t, [((l2, h1, visc, sto, hs), coeffs)], pairs = integrator._step_paths(
            [cfg], [a0], [(cfg.seed, p) for p in [4, 1, 3]], keep_coeffs=True)
        assert (steps * cfg.dt).tobytes() == summ.times.tobytes()
        assert pairs.shape == (0, 2, 3, len(summ.times))  # one level has no pairs
        assert a_t.tobytes() == summ.a_t.tobytes() == sin_domain.a_at(summ.times).tobytes()
        for r, p in enumerate([4, 1, 3]):
            assert coeffs[r].tobytes() == trajs[p].coeffs.tobytes()
            assert sto[r].tobytes() == trajs[p].sto.tobytes()
            assert h1[r].tobytes() == trajs[p].h1_sq.tobytes()


def exact_additive_moments(domain, model, n, dt, steps):
    """E|u_N|^2, E visc_N, hs_N and the covariance Sigma_N = E[A A^T] of exponential_em from
    u0 = 0 under the additive diagonal ``model``, with no sampling error.

    The coefficients' covariance obeys Sigma_{i+1} = M_i Sigma_i M_i^T + D_i Q D_i dt, with
    M_i = D_i (I + dt b(t_i)^T), D_i = diag e^{lambda_k dt} at a(t_i + dt/2) and
    Q = diag (q_k gamma)^2; E visc_N = 2 dt sum_i tr(-Lambda(t_i) Sigma_i), left endpoints.
    """
    k_pi = np.arange(1, n + 1) * np.pi
    d = min(model.m, n)
    var = np.zeros(n)
    var[:d] = (model.q[:d] * model.gamma) ** 2
    times = np.arange(steps + 1) * dt
    a_t, a_mid = domain.a_at(times), domain.a_at(times[:-1] + dt / 2)
    sigma, visc = np.zeros((n, n)), 0.0
    for i in range(steps):
        visc += 2.0 * dt * np.sum((k_pi / a_t[i]) ** 2 * np.diag(sigma))
        decay = np.exp(-((k_pi / a_mid[i]) ** 2) * dt)
        step = decay[:, None] * (np.eye(n) + dt * coupling_matrix(n, times[i], domain).T)
        sigma = step @ sigma @ step.T + np.diag(decay**2 * var * dt)
    return np.trace(sigma), visc, steps * dt * var.sum(), sigma


@pytest.mark.parametrize("n, n_paths", [(16, 2000), (64, 1000)])
def test_ensemble_matches_the_schemes_exact_moments(sin_domain, n, n_paths):
    # Over seeds 1..24 the z-scores of final_l2_sq and final_visc against the recursion
    # spread like N(0, 1): |z| <= 2.3 at n = 16 and <= 3.2 at n = 64 (seed 21's visc).  A
    # bound of 4 se fails a correct stepper with probability 6e-5 per statistic.
    model = moving_diagonal(gamma=0.5, beta=0.0, decay_p=1.0, m=n)
    cfg = SimulationConfig(domain=sin_domain, n=n, model=model, dt=1e-3, t_end=0.25, seed=7,
                           n_paths=n_paths, snapshot_stride=250)
    summ = simulate_ensemble(cfg, CoefficientState(0.0, np.zeros(n)), workers=2)
    l2, visc, hs, _ = exact_additive_moments(sin_domain, model, n, cfg.dt, cfg.n_steps)
    for values, exact in ((summ.final_l2_sq, l2), (summ.final_visc, visc)):
        se = np.std(values, ddof=1) / np.sqrt(n_paths)
        assert abs(np.mean(values) - exact) <= 4.0 * se
    # the ledger's hs term does not depend on the path
    np.testing.assert_allclose(summ.final_hs, hs, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("domain", ["linear", "constant"])
def test_additive_noise_couples_the_modes(lin_domain, unit_domain, domain):
    # The moving basis couples the modes even under additive noise: from u0 = 0 the final
    # second moments E[A_j A_k] of 4000 paths (seed 0) match the scheme's exact covariance
    # Sigma entry by entry.  Over seeds 0..23 the largest |z| of the 36 entries was
    # 1.88-4.51 on a = 1 + t and 1.49-4.02 on the static domain; the bound is 5.5.  On
    # a = 1 + t, Sigma's largest off-diagonal correlation, 0.133, is 8.4 standard errors, so
    # a stepper without the coupling drift misses that entry by more than the bound (by
    # 6.1-11.3 over the same seeds).  On the static domain Sigma is exactly diagonal
    n, n_paths, z_bound = 8, 4000, 5.5
    dom = {"linear": lin_domain, "constant": unit_domain}[domain]
    model = moving_diagonal(gamma=0.5, beta=0.0, decay_p=1.0, m=n)
    cfg = SimulationConfig(domain=dom, n=n, model=model, dt=1e-3, t_end=0.5,
                           snapshot_stride=500)
    rows, block, finals = [(0, p) for p in range(n_paths)], integrator.MAX_BLOCK_ROWS, []
    for lo in range(0, n_paths, block):
        *_, [(_, coeffs)], _ = integrator._step_paths([cfg], [np.zeros(n)], rows[lo:lo + block],
                                                      keep_coeffs=True)
        finals.append(coeffs[:, -1])
    finals = np.concatenate(finals)
    *_, sigma = exact_additive_moments(dom, model, n, cfg.dt, cfg.n_steps)
    products = finals[:, :, None] * finals[:, None, :]
    se = np.std(products, axis=0, ddof=1) / np.sqrt(n_paths)
    assert np.max(np.abs(np.mean(products, axis=0) - sigma) / se) <= z_bound
    corr = sigma / np.sqrt(np.outer(np.diag(sigma), np.diag(sigma)))
    off_diagonal = np.max(np.abs(corr - np.diag(np.diag(corr))))
    if domain == "linear":
        assert off_diagonal * np.sqrt(n_paths) >= z_bound + 2.0
    else:
        assert np.array_equal(sigma, np.diag(np.diag(sigma)))


@pytest.mark.parametrize("kind", ["moving_diagonal", "general_matrix"])
@pytest.mark.parametrize("scheme", ["exponential_em", "explicit_em"])
def test_draw_chunking_changes_no_bit(monkeypatch, sin_domain, scheme, kind):
    # m = 5 is odd; a budget of one word draws one step at a time, 450 words 4 steps at a
    # time with a short last draw of 1, the default budget and 1e9 every step at once.  A
    # step takes 84 words: 3 rows x 8 of increments, 2 x 6 of tables, 3 x 4 of ledger terms
    # and h1 norms, and 2 x 3 x 6 of states and kicks; the chunk's start 36 more: its ledger
    # terms and h1 norms (3 x 4), its states (3 x 6) and its H1 weights (6)
    models = {
        "moving_diagonal": moving_diagonal(gamma=0.4, beta=0.3, decay_p=1.0, m=5),
        "general_matrix": general_matrix(
            np.random.default_rng(2).normal(scale=0.3, size=(5, 6)), lipschitz_k=100.0),
    }
    dt = 2.0**-12
    cfg = SimulationConfig(domain=sin_domain, n=6, model=models[kind], dt=dt, t_end=37 * dt,
                           scheme=scheme, seed=3, n_paths=3, snapshot_stride=4)
    a0 = np.linspace(1.0, 0.5, 6)
    draws, positioned = [], []
    draw, generator_at = integrator.draw_increment, noise.NoiseStream.generator_at

    def draw_spy(streams, step_index, steps, m, dt):
        draws.append((step_index, steps))
        return draw(streams, step_index, steps, m, dt)

    def generator_spy(stream, *args):
        positioned.append(stream.path_index)
        return generator_at(stream, *args)

    monkeypatch.setattr(integrator, "draw_increment", draw_spy)
    monkeypatch.setattr(noise.NoiseStream, "generator_at", generator_spy)
    outputs = set()
    for budget in (1, 450, integrator.DRAW_BUDGET, 10**9):
        monkeypatch.setattr(integrator, "DRAW_BUDGET", budget)
        draws.clear()
        positioned.clear()
        *_, [(series, coeffs)], _ = integrator._step_paths([cfg], [a0], [(3, 2), (3, 0), (3, 1)],
                                                           keep_coeffs=True)
        outputs.add((series.tobytes(), coeffs.tobytes()))
        per_draw = min(max(1, (budget - 36) // 84), 37)
        starts = list(range(0, 37, per_draw))
        assert draws == [(s, min(per_draw, 37 - s)) for s in starts]
        assert positioned == [2, 0, 1]
    assert len(outputs) == 1


def reference_loop(cfg, a0):
    """Path 0 of ``cfg`` stepped one step at a time from the scheme formulas: the
    coefficients and the ledger sums visc, sto and hs after every step."""
    n, dt, model, domain = cfg.n, cfg.dt, cfg.model, cfg.domain
    times = np.arange(cfg.n_steps + 1) * dt
    a_t = domain.a_at(times)
    ratio = domain.a_prime_at(times[:-1]) / domain.a_at(times[:-1])
    explicit = cfg.scheme == "explicit_em"
    a_decay = domain.a_at(times[:-1] if explicit else times[:-1] + 0.5 * dt)
    increments = noise.draw_increment([noise.NoiseStream(cfg.seed, 0)], 0, cfg.n_steps,
                                      model.m, dt)[0]
    a, visc, sto, hs = a0, 0.0, 0.0, 0.0
    out = [(a, visc, sto, hs)]
    for i, increment in enumerate(increments):
        h1 = np.dot(-basis.interval_eigenvalues(n, a_t[i]), a * a)
        kick = noise.noise_kick(model, a, increment)
        visc += 2.0 * h1 * dt
        sto += 2.0 * np.dot(a, kick)
        hs += noise.hs_norm_sq(model, a) * dt
        coupling = np.matmul(a[None, None, :], basis.coupling_pattern(n))[0, 0]
        lam = basis.interval_eigenvalues(n, a_decay[i])
        if explicit:
            a = a + (coupling * ratio[i] + lam * a) * dt + kick
        else:
            a = np.exp(lam * dt) * (a + coupling * (ratio[i] * dt) + kick)
        out.append((a, visc, sto, hs))
    return [np.array(series) for series in zip(*out)]


# one step per chunk; chunks of 2 steps, (118 - 4 - 6 - 6) // (8 + 2 x 6 + 4 + 2 x 6) words,
# and a short last chunk of 1; every step in one chunk
@pytest.mark.parametrize("draw_budget", [1, 118, None], indirect=True,
                         ids=["budget=1", "budget=118", "budget=default"])
@pytest.mark.parametrize("kind", ["moving_diagonal", "general_matrix"])
@pytest.mark.parametrize("scheme", ["exponential_em", "explicit_em"])
@pytest.mark.parametrize("domain", ["sinusoidal", "table"])
def test_stepper_matches_reference_loop(sin_domain, domain, scheme, kind, draw_budget):
    # the block stepper and its energy ledger against the plain loop, bitwise
    domains = {
        "sinusoidal": sin_domain,
        "table": make_domain("table", {"t": np.linspace(0.0, 0.5, 6),
                                       "a": [1.0, 1.1, 0.95, 1.05, 1.2, 1.0]}, 0.5),
    }
    models = {
        "moving_diagonal": moving_diagonal(gamma=0.4, beta=0.3, decay_p=1.0, m=5),
        "general_matrix": general_matrix(
            np.random.default_rng(2).normal(scale=0.3, size=(5, 6)), lipschitz_k=100.0),
    }
    dt = 2.0**-12
    cfg = SimulationConfig(domain=domains[domain], n=6, model=models[kind], dt=dt,
                           t_end=37 * dt, scheme=scheme, seed=3)
    a0 = np.linspace(1.0, 0.5, 6)
    traj = simulate(cfg, CoefficientState(0.0, a0))
    coeffs, visc, sto, hs = reference_loop(cfg, a0)
    assert traj.coeffs.tobytes() == coeffs.tobytes()
    assert traj.visc.tobytes() == visc.tobytes()
    assert traj.sto.tobytes() == sto.tobytes()
    assert traj.hs.tobytes() == hs.tobytes()


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size and runs blocks in-process."""

    sizes: list = []
    blocks: list = []

    def __init__(self, max_workers):
        RecordingPool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        jobs = list(zip(*iterables))
        RecordingPool.blocks.append([[path for _, path in job[-1]] for job in jobs])
        return [fn(*job) for job in jobs]


@pytest.mark.parametrize("n_paths,workers,cpus,size,blocks", [
    (12, 4, 2, 2, 4),    # test_workers_bitwise_identical: 4 blocks through 2 processes
    (16, 8, 2, 2, 8),    # criterion 9 on a 2-CPU host
    (16, 8, 64, 8, 8),
    (3, 8, 64, 3, 3),    # never more processes than blocks
    (600, 2, 64, 2, 3),  # blocks hold at most MAX_BLOCK_ROWS = 256 paths
    (12, 4, 1, None, 4),  # one usable CPU: no pool
])
def test_pool_size_is_bounded_by_blocks_and_cpus(monkeypatch, unit_domain, n_paths, workers,
                                                cpus, size, blocks):
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(RecordingPool, "blocks", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(integrator.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    stepped, step_paths = [], integrator._step_paths

    def spy(configs, a0s, rows):
        stepped.append([path for _, path in rows])
        return step_paths(configs, a0s, rows)

    monkeypatch.setattr(integrator, "_step_paths", spy)
    cfg = config(unit_domain, n=2, model=zero_model(1), t_end=0.01, n_paths=n_paths)
    summ = simulate_ensemble(cfg, ModeInitial(1, 1.0, 1.0), workers=workers)
    assert summ.final_l2_sq.shape == (n_paths,)
    assert RecordingPool.sizes == ([] if size is None else [size])
    # with or without a pool, the same contiguous blocks in path order
    assert RecordingPool.blocks == ([] if size is None else [stepped])
    assert len(stepped) == blocks
    assert sum(stepped, []) == list(range(n_paths))
    assert max(map(len, stepped)) <= integrator.MAX_BLOCK_ROWS


@pytest.mark.parametrize("n_steps,stride,expected", [
    (10, 5, [0, 5, 10]),
    (10, 3, [0, 3, 6, 9, 10]),
    (3, 7, [0, 3]),
    (4, 1, [0, 1, 2, 3, 4]),
])
def test_saved_steps(n_steps, stride, expected):
    assert saved_steps(n_steps, stride).tolist() == expected


def test_initial_data_match_raw_sine_formula():
    # the multiplication order (amplitude * sqrt(2/a0)) * sin(...) is part of the
    # bitwise contract of saved runs
    a0 = 1.3
    x = np.linspace(0.0, a0, 41)
    root = np.sqrt(2.0 / a0)
    raw = 2.7 * root * np.sin(3 * np.pi * x / a0)
    assert np.array_equal(ModeInitial(3, 2.7, a0)(x), raw)
    amps = (1.0, 0.0, 0.3, -0.7)
    raw = np.zeros_like(x)
    for k, c in enumerate(amps, start=1):
        if c:
            raw = raw + c * root * np.sin(k * np.pi * x / a0)
    assert np.array_equal(ModesInitial(amps, a0)(x), raw)


def overflowing_config(domain):
    # n = 1 is the scalar product A_k = prod (1 + beta dB_i) e^(lambda dt): at beta = 2000
    # the HS term (beta A)^2 of the ledger overflows first, at steps 102, 99, 104 and 101
    # of paths 0 to 3
    return SimulationConfig(domain=domain, n=1, model=moving_diagonal(0.0, 2000.0, 1.0, 1),
                            dt=1e-3, t_end=0.2, n_paths=4)


# 4263 and 2163 words put the failing step 102 first (chunks of 101 steps) and last (51)
# in a chunk of the one 4-row block at 1 worker; the 2-row blocks at 2 workers then step 193
# and 97 at a time
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("draw_budget", [1, None, 4263, 2163], indirect=True,
                         ids=["budget=1", "budget=default", "budget=4263", "budget=2163"])
def test_numerical_failure_names_the_path(unit_domain, workers, draw_budget):
    with pytest.raises(NumericalError,
                       match=r"^path 0, step 102: non-finite energy ledger at t=0\.102$"):
        simulate_ensemble(overflowing_config(unit_domain), ModeInitial(1, 1.0, 1.0),
                          workers=workers)


# 2079 and 1407 words put path 1's failing step 99 first (chunks of 49 steps) and last (33)
# in a chunk of the one 4-row block at 1 worker
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("draw_budget", [1, None, 2079, 1407], indirect=True,
                         ids=["budget=1", "budget=default", "budget=2079", "budget=1407"])
def test_failure_of_a_later_path_when_path_0_survives(unit_domain, workers, draw_budget):
    # seed 9: paths 0 and 3 reach t_end, path 2 fails at step 96 and path 1 at step 99;
    # at 1 worker the one block must step past path 2's failure and report path 1
    cfg = overflowing_config(unit_domain).with_updates(seed=9, t_end=0.1)
    message = r"^path 1, step 99: non-finite energy ledger at t=0\.099$"
    with pytest.raises(NumericalError, match=message):
        simulate_ensemble(cfg, ModeInitial(1, 1.0, 1.0), workers=workers)
    with pytest.raises(NumericalError, match=message):
        simulate(cfg, ModeInitial(1, 1.0, 1.0), path_index=1)
    with pytest.raises(NumericalError, match=r"^path 2, step 96: "):
        simulate(cfg, ModeInitial(1, 1.0, 1.0), path_index=2)
    simulate(cfg, ModeInitial(1, 1.0, 1.0), path_index=0)
    simulate(cfg, ModeInitial(1, 1.0, 1.0), path_index=3)


# 1652 and 868 words put step 30 first (chunks of 29 steps) and last (15) in a chunk of the
# 3-row block; the default budget steps all 60 at once
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("draw_budget", [1, None, 1652, 868], indirect=True,
                         ids=["budget=1", "budget=default", "budget=1652", "budget=868"])
def test_coefficient_failure_names_its_own_step(monkeypatch, sin_domain, draw_budget):
    # a drift that turns path 1's coefficients infinite on step 30 of 60: they fail there,
    # one step before the ledger, wherever the step falls in its chunk.  The domain moves:
    # a static one calls no drift
    flat_coupling = basis.flat_coupling

    def spiking(spans):
        drift, calls = flat_coupling(spans), []

        def spiked(coeffs, out):
            drift(coeffs, out)
            calls.append(None)
            if len(calls) == 30:
                out[1] = np.inf
            return out

        return spiked

    monkeypatch.setattr(basis, "flat_coupling", spiking)
    cfg = config(sin_domain, model=moving_diagonal(0.3, 0.0, m=4), t_end=0.06, n_paths=3)
    with pytest.raises(NumericalError,
                       match=r"^path 1, step 30: non-finite coefficients at t=0\.03$"):
        simulate_ensemble(cfg, ModeInitial(1, 1.0, 1.0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_numerical_failure_names_a_later_path(unit_domain):
    with pytest.raises(NumericalError,
                       match=r"^path 2, step 104: non-finite energy ledger at t=0\.104$"):
        simulate(overflowing_config(unit_domain), ModeInitial(1, 1.0, 1.0), path_index=2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_saved_norm_is_a_failure(unit_domain):
    # |A|^2 = 1e400 overflows although A itself is finite
    cfg = config(unit_domain, n=1, model=zero_model(1))
    with pytest.raises(NumericalError, match=r"^path 0, step 0: non-finite norms at t=0$"):
        simulate(cfg, CoefficientState(0.0, np.array([1e200])))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case,message", [
    ("steep", r"^path 1, step 1: non-finite coefficients at t=0\.001$"),
    ("fast", r"^path 1, step 164: non-finite energy ledger at t=0\.164$"),
])
def test_additive_noise_failure_names_its_step(case, message):
    # beta = 0: the noise diagonal and HS norm are built once per block, not from the
    # coefficients, and a row that turns non-finite still fails where it did when they
    # were rebuilt every step: at step 1 where a'/a = 1e308 makes the first step's
    # coupling (C_3^T A) (a'/a dt) overflow for A of order 1e10, and where the transport
    # (decay zeroed) of a fast-moving boundary overflows the ledger
    domain, n = {
        "steep": (make_domain("linear", {"a0": 1.0, "slope": 1e308}, 1e-2), 3),
        "fast": (make_domain("sinusoidal", {"a0": 1.0, "amp": 0.5, "omega": 1000.0}, 1.0), 16),
    }[case]
    cfg = SimulationConfig(domain=domain, n=n, model=moving_diagonal(0.5, 0.0, 1.0, 4),
                           dt=1e-3, t_end=1e-2 if case == "steep" else 0.5,
                           snapshot_stride=1000)
    scale = 1e10 if case == "steep" else 1.0
    with pytest.raises(NumericalError, match=message):
        simulate(cfg, CoefficientState(0.0, scale * np.linspace(1.0, 0.2, n)), path_index=1,
                 zero_eigenvalues=case == "fast")


def test_path_and_step_counts_fit_the_noise_keys(unit_domain):
    # paths and steps are capped at 2^32 each by the noise stream
    assert config(unit_domain, n_paths=2**32).n_paths == 2**32
    with pytest.raises(ConfigError, match="n_paths"):
        config(unit_domain, n_paths=2**32 + 1)
    assert config(unit_domain, dt=2.0**-32, t_end=1.0).n_steps == 2**32
    with pytest.raises(ConfigError, match="steps exceeds"):
        config(unit_domain, dt=2.0**-33, t_end=1.0)


@pytest.mark.parametrize("zero_eigenvalues", [False, True])
@pytest.mark.parametrize("kind", ["moving_diagonal", "general_matrix"])
@pytest.mark.parametrize("scheme", ["exponential_em", "explicit_em"])
def test_levels_in_any_order_step_as_they_do_alone(sin_domain, scheme, kind,
                                                   zero_eigenvalues):
    # the widest level comes first: every level's coupling is the leading block of the
    # widest level's matrix, wherever that level sits in the block
    model = {
        "moving_diagonal": moving_diagonal(gamma=0.4, beta=0.3, decay_p=1.0, m=12),
        "general_matrix": general_matrix(
            np.random.default_rng(3).normal(scale=0.3, size=(12, 10)), lipschitz_k=100.0),
    }[kind]
    levels = [16, 4, 8]
    dt = 2.0**-12
    while scheme == "explicit_em" and dt > explicit_dt_bound(sin_domain, max(levels)):
        dt /= 2
    configs = [SimulationConfig(domain=sin_domain, n=n, model=model, dt=dt, t_end=37 * dt,
                                scheme=scheme, snapshot_stride=5) for n in levels]
    a0s = [np.linspace(1.0, 0.1, n) * (-1.0) ** np.arange(n) for n in levels]
    rows = [(6, 2), (6, 0), (6, 1)]
    steps, a_t, together, pairs = integrator._step_paths(configs, a0s, rows, zero_eigenvalues,
                                                         keep_coeffs=True)
    for cfg, a0, (series, coeffs) in zip(configs, a0s, together):
        steps_alone, a_t_alone, [(want_series, want_coeffs)], _ = integrator._step_paths(
            [cfg], [a0], rows, zero_eigenvalues, keep_coeffs=True)
        assert steps.tobytes() == steps_alone.tobytes()
        assert a_t.tobytes() == a_t_alone.tobytes()
        assert series.tobytes() == want_series.tobytes()
        assert coeffs.tobytes() == want_coeffs.tobytes()
    assert_pairs_are_level_gaps(pairs, [coeffs for _, coeffs in together], a_t)


def assert_pairs_are_level_gaps(pairs, coeffs, a_t):
    """Pair l of the stepper's distances is, bit for bit, ``basis.level_gap`` of the
    (P, saved, n) saved coefficients coeffs[l] and coeffs[l + 1], the wider first."""
    assert len(pairs) == len(coeffs) - 1
    for pair, one, other in zip(pairs, coeffs, coeffs[1:]):
        wide, narrow = sorted((one, other), key=lambda c: -c.shape[-1])
        weights = (basis.mode_numbers(wide.shape[-1]) / a_t[:, None]) ** 2
        assert pair.tobytes() == basis.level_gap(wide, narrow, weights).tobytes()


def test_levels_across_the_fft_crossover_step_as_they_do_alone(sin_domain):
    # levels below and above the crossover side by side: the dense table is built at the
    # widest level below it, the others take the FFT, and each level keeps its bits
    model = moving_diagonal(gamma=0.4, beta=0.3, decay_p=1.0, m=12)
    levels = [2 * basis._FFT_MIN_N, 16, basis._FFT_MIN_N - 1, basis._FFT_MIN_N]
    dt = 2.0**-14
    configs = [SimulationConfig(domain=sin_domain, n=n, model=model, dt=dt, t_end=9 * dt,
                                snapshot_stride=4) for n in levels]
    a0s = [np.linspace(1.0, 0.1, n) * (-1.0) ** np.arange(n) for n in levels]
    rows = [(6, 2), (6, 0), (6, 1)]
    _, a_t, together, pairs = integrator._step_paths(configs, a0s, rows, keep_coeffs=True)
    for cfg, a0, (series, coeffs) in zip(configs, a0s, together):
        *_, [(want_series, want_coeffs)], _ = integrator._step_paths([cfg], [a0], rows,
                                                                     keep_coeffs=True)
        assert series.tobytes() == want_series.tobytes()
        assert coeffs.tobytes() == want_coeffs.tobytes()
    assert_pairs_are_level_gaps(pairs, [coeffs for _, coeffs in together], a_t)


@pytest.mark.parametrize("scheme,levels", [("exponential_em", [16, basis._FFT_MIN_N]),
                                           ("explicit_em", [4, 8])])
def test_static_domain_steps_as_the_decoupled_system(unit_domain, scheme, levels):
    # a'/a = 0: the stepper skips the drift, dense or FFT, and each level's states and
    # ledger are bitwise those of the plain loop, which scales its drift by a'/a = 0 every
    # step
    model = moving_diagonal(gamma=0.4, beta=0.3, decay_p=1.0, m=12)
    dt = 2.0**-12
    configs = [SimulationConfig(domain=unit_domain, n=n, model=model, dt=dt, t_end=9 * dt,
                                scheme=scheme, seed=6, snapshot_stride=4) for n in levels]
    a0s = [np.linspace(1.0, 0.1, n) * (-1.0) ** np.arange(n) for n in levels]
    saved, _, coupled, _ = integrator._step_paths(configs, a0s, [(6, 2), (6, 0)],
                                                  keep_coeffs=True)
    assert saved.tolist() == [0, 4, 8, 9]
    for cfg, a0, (series, coeffs) in zip(configs, a0s, coupled):
        want_coeffs, *want_ledger = reference_loop(cfg, a0)  # path 0: row 1
        assert coeffs[1].tobytes() == want_coeffs[saved].tobytes()
        for got, want in zip(series[2:, 1], want_ledger):
            assert got.tobytes() == want[saved].tobytes()


def test_static_domain_calls_no_drift(monkeypatch, unit_domain, sin_domain):
    # whether to couple is decided once per run: a static domain never builds or calls
    # the drift, a moving one calls it once a step
    built, calls = [], []
    flat_coupling = basis.flat_coupling

    def spy(spans):
        drift = flat_coupling(spans)
        built.append(spans)

        def counted(coeffs, out):
            calls.append(None)
            return drift(coeffs, out)

        return counted

    monkeypatch.setattr(basis, "flat_coupling", spy)
    model = moving_diagonal(gamma=0.4, beta=0.3, decay_p=1.0, m=12)
    for domain, want in ((unit_domain, 0), (sin_domain, 9)):
        configs = [SimulationConfig(domain=domain, n=n, model=model, dt=2.0**-12,
                                    t_end=9 * 2.0**-12) for n in (16, basis._FFT_MIN_N)]
        a0s = [np.linspace(1.0, 0.1, cfg.n) for cfg in configs]
        built.clear()
        calls.clear()
        integrator._step_paths(configs, a0s, [(6, 0)])
        assert (len(built), len(calls)) == (min(want, 1), want)
