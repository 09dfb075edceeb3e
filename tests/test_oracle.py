import warnings

import numpy as np
import pytest

from movingheat import (
    MappedGridSolution,
    ModeInitial,
    NumericalError,
    ParabolaInitial,
    SimulationConfig,
    compare_with_spectral,
    fd_solve,
    level_distance,
    make_domain,
    moving_diagonal,
    self_convergence_study,
    simulate,
    simulate_ensemble,
    synthesize,
    zero_model,
)
from movingheat import integrator


class TestFixedDomain:
    def test_single_mode_decay(self, unit_domain):
        u0 = lambda x: np.sin(np.pi * x)
        sol = fd_solve(unit_domain, u0, M=512, dt_fd=1e-4, t_end=0.5, save_stride=5000)
        exact = np.sin(np.pi * sol.ys) * np.exp(-np.pi**2 * 0.5)
        assert np.max(np.abs(sol.values_at(0.5) - exact)) <= 1e-6

    def test_decay_rate_from_log_slope(self):
        a0 = 1.7
        d = make_domain("constant", {"a0": a0}, 1.0)
        u0 = lambda x: np.sin(np.pi * x / a0)
        sol = fd_solve(d, u0, M=256, dt_fd=1e-3, t_end=0.5)
        # |u(t)| decays like exp(-(pi/a0)^2 t); fit the slope of the log
        rate = np.polyfit(sol.step_times, np.log(sol.l2_history), 1)[0]
        assert abs(-rate - (np.pi / a0) ** 2) <= 1e-3 * (np.pi / a0) ** 2

    def test_zero_initial_stays_zero(self, unit_domain):
        sol = fd_solve(unit_domain, lambda x: 0.0 * x, M=64, dt_fd=1e-3, t_end=0.1)
        assert np.all(sol.v == 0.0)

    def test_second_order_in_space(self, unit_domain):
        u0 = lambda x: np.sin(np.pi * x)
        errs = {}
        for M in (32, 64):
            sol = fd_solve(unit_domain, u0, M=M, dt_fd=1e-4, t_end=0.1, save_stride=1000)
            exact = np.sin(np.pi * sol.ys) * np.exp(-np.pi**2 * 0.1)
            errs[M] = np.max(np.abs(sol.values_at(0.1) - exact))
        assert 3.0 <= errs[32] / errs[64] <= 5.0


class TestMovingDomain:
    def test_norm_nonincreasing(self):
        d = make_domain("sinusoidal", {"a0": 1.0, "amp": 0.5, "omega": 1.0}, 1.0)
        sol = fd_solve(d, ParabolaInitial(1.0, 1.0), M=128, dt_fd=1e-3, t_end=0.5)
        assert np.all(np.diff(sol.l2_history) <= 1e-9)

    def test_maximum_principle(self):
        d = make_domain("linear", {"a0": 1.0, "slope": 0.25}, 0.5)
        sol = fd_solve(d, ParabolaInitial(1.0, 1.0), M=128, dt_fd=1e-3, t_end=0.5)
        assert np.min(sol.v) >= -1e-8

    def test_dirichlet_rows(self):
        d = make_domain("linear", {"a0": 1.0, "slope": 0.25}, 0.5)
        sol = fd_solve(d, ParabolaInitial(1.0, 1.0), M=64, dt_fd=1e-3, t_end=0.2)
        assert np.all(sol.v[:, 0] == 0.0)
        assert np.all(sol.v[:, -1] == 0.0)


class TestCompare:
    def test_cross_solver_fixed_domain(self, unit_domain):
        u0 = ModeInitial(1, 1.0, 1.0)
        cfg = SimulationConfig(domain=unit_domain, n=32, model=zero_model(1),
                               dt=1e-3, t_end=0.5, snapshot_stride=500)
        traj = simulate(cfg, u0)
        sol = fd_solve(unit_domain, u0, M=512, dt_fd=1e-4, t_end=0.5, save_stride=5000)
        assert compare_with_spectral(traj, sol, 0.5) <= 1e-5

    def test_discrepancy_with_self_is_zero(self, sin_domain):
        # feed the spectral field itself through the mapped-grid container
        u0 = ModeInitial(1, 1.0, 1.0)
        cfg = SimulationConfig(domain=sin_domain, n=8, model=zero_model(1),
                               dt=1e-3, t_end=0.2, snapshot_stride=200)
        traj = simulate(cfg, u0)
        ys = np.linspace(0.0, 1.0, 65)
        t = 0.2
        a_t = sin_domain.a_at(t)
        [vals] = synthesize(traj.coeffs[-1:], np.array([a_t]), ys.size)[1]
        sol = MappedGridSolution(
            ys=ys,
            times=np.array([t]),
            v=vals[None, :],
            l2_history=np.array([0.0]),
            step_times=np.array([t]),
        )
        assert compare_with_spectral(traj, sol, t) == 0.0

    def test_time_not_covered(self, unit_domain):
        u0 = ModeInitial(1, 1.0, 1.0)
        cfg = SimulationConfig(domain=unit_domain, n=4, model=zero_model(1),
                               dt=1e-3, t_end=0.1)
        traj = simulate(cfg, u0)
        sol = fd_solve(unit_domain, u0, M=64, dt_fd=1e-3, t_end=0.1)
        with pytest.raises(ValueError, match="not among"):
            compare_with_spectral(traj, sol, 0.25)


class TestValidation:
    def test_small_grid_rejected(self, unit_domain):
        with pytest.raises(ValueError):
            fd_solve(unit_domain, lambda x: x, M=8, dt_fd=1e-3, t_end=0.1)

    def test_bad_dt(self, unit_domain):
        with pytest.raises(ValueError):
            fd_solve(unit_domain, lambda x: x, M=32, dt_fd=3e-4, t_end=0.1)

    @pytest.mark.parametrize("dt_fd", [float("nan"), 0.0, -1e-3])
    def test_non_positive_dt_rejected(self, unit_domain, dt_fd):
        with pytest.raises(ValueError, match="dt_fd must be positive"):
            fd_solve(unit_domain, lambda x: x, M=32, dt_fd=dt_fd, t_end=0.1)

    def test_dt_below_the_float_range_of_the_step_count(self, unit_domain):
        with pytest.raises(ValueError, match="t_end/dt_fd = inf must be an integer"):
            fd_solve(unit_domain, lambda x: x, M=32, dt_fd=5e-324, t_end=0.1)


class TestNumericalFailures:
    @pytest.mark.parametrize("scale", [1e308, 1e300])
    def test_overflowing_state_is_a_numerical_error(self, unit_domain, scale):
        # |v|^2 overflows at t = 0; with 1e308 the first right-hand side overflows too
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="non-finite finite-difference state or L2 "
                                                     "norm at t=0$"):
                fd_solve(unit_domain, ParabolaInitial(1.0, scale), M=32, dt_fd=1e-3, t_end=0.1)

    def test_non_finite_state_later_names_its_time(self, sin_domain, monkeypatch):
        poison_dgtsv(monkeypatch, nan_at=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="L2 norm at t=0.003$"):
                fd_solve(sin_domain, ParabolaInitial(1.0, 1.0), M=32, dt_fd=1e-3, t_end=0.1)

    def test_lapack_failure_is_a_numerical_error(self, unit_domain, monkeypatch):
        import scipy.linalg.lapack

        solve = scipy.linalg.lapack.dgtsv
        monkeypatch.setattr(scipy.linalg.lapack, "dgtsv",
                            lambda *args: (*solve(*args)[:4], 5))
        with pytest.raises(NumericalError, match=r"singular Crank-Nicolson system at "
                                                 r"t=0.001 \(LAPACK gtsv info 5\)"):
            fd_solve(unit_domain, ParabolaInitial(1.0, 1.0), M=32, dt_fd=1e-3, t_end=0.1)

    # the steps run in blocks of 16: solves 1-15 are the first block, 16-31 the second
    @pytest.mark.parametrize("nan_at,info_at,message", [
        (3, 5, "non-finite finite-difference state or L2 norm at t=0.003$"),
        (5, 3, r"singular Crank-Nicolson system at t=0.003 \(LAPACK gtsv info 7\)$"),
        (20, None, "non-finite finite-difference state or L2 norm at t=0.02$"),
        (None, 20, r"singular Crank-Nicolson system at t=0.02 \(LAPACK gtsv info 7\)$"),
        (17, 20, "non-finite finite-difference state or L2 norm at t=0.017$"),
    ])
    def test_the_earliest_failure_names_its_time(self, sin_domain, monkeypatch, nan_at,
                                                 info_at, message):
        poison_dgtsv(monkeypatch, nan_at=nan_at, info_at=info_at)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=message):
                fd_solve(sin_domain, ParabolaInitial(1.0, 1.0), M=32, dt_fd=1e-3, t_end=0.1)


def poison_dgtsv(monkeypatch, nan_at=None, info_at=None):
    """Make the nan_at-th solve return NaN and the info_at-th report info 7 (1-based)."""
    import scipy.linalg.lapack

    solve = scipy.linalg.lapack.dgtsv
    calls = []

    def poisoned(*args):
        calls.append(1)
        du2, d, du, x, info = solve(*args)
        if len(calls) == nan_at:
            x = x * np.nan
        return du2, d, du, x, 7 if len(calls) == info_at else info

    monkeypatch.setattr(scipy.linalg.lapack, "dgtsv", poisoned)


def banded_reference(domain, u0, M, dt_fd, n_steps):
    """The Crank-Nicolson march written step by step: both operators rebuilt from scalar
    boundary calls every step and each system solved by ``solve_banded``."""
    from scipy.linalg import solve_banded

    ys = np.linspace(0.0, 1.0, M + 1)
    dy, half, interior = 1.0 / M, 0.5 * dt_fd, ys[1:-1]

    def operator(t):
        a, ap = domain.a_at(t), domain.a_prime_at(t)
        diff = 1.0 / (a * a * dy * dy)
        conv = ap * interior / (a * 2.0 * dy)
        return diff - conv, np.full_like(interior, -2.0 * diff), diff + conv

    v = np.asarray(u0(domain.a_at(0.0) * ys), dtype=float).copy()
    v[0] = v[-1] = 0.0
    states, norms = [v], [np.sqrt(domain.a_at(0.0) * np.trapezoid(v**2, ys))]
    for i in range(n_steps):
        lo0, di0, up0 = operator(i * dt_fd)
        lo1, di1, up1 = operator((i + 1) * dt_fd)
        rhs = v[1:-1] + half * (di0 * v[1:-1] + lo0 * v[:-2] + up0 * v[2:])
        ab = np.zeros((3, M - 1))
        ab[0, 1:] = (-half * up1)[:-1]
        ab[1] = 1.0 - half * di1
        ab[2, :-1] = (-half * lo1)[1:]
        v = np.concatenate(([0.0], solve_banded((1, 1), ab, rhs), [0.0]))
        states.append(v)
        norms.append(np.sqrt(domain.a_at((i + 1) * dt_fd) * np.trapezoid(v**2, ys)))
    return np.array(states), np.array(norms)


@pytest.mark.parametrize("kind,params", [
    ("sinusoidal", {"a0": 1.0, "amp": 0.5, "omega": 3.0}),
    ("exponential", {"a0": 1.0, "slope": -0.7}),
    ("linear", {"a0": 1.0, "slope": 0.4}),
    ("table", {"t": np.linspace(0.0, 1.0, 6), "a": [1.0, 1.2, 0.9, 1.1, 1.3, 1.0]}),
])
@pytest.mark.parametrize("n_steps", [1, 15, 16, 17, 40, 100])  # below, at and across blocks
def test_matches_the_banded_step_by_step_march_bitwise(kind, params, n_steps):
    domain = make_domain(kind, params, 1.0)
    u0 = ParabolaInitial(1.0, 1.0)
    sol = fd_solve(domain, u0, M=48, dt_fd=2e-3, t_end=n_steps * 2e-3)
    states, norms = banded_reference(domain, u0, 48, 2e-3, n_steps)
    assert sol.v.tobytes() == states.tobytes()
    assert sol.l2_history.tobytes() == norms.tobytes()


@pytest.mark.parametrize("solver", ["fd_solve", "simulate"])
def test_boundary_calls_do_not_grow_with_the_step_count(boundary_calls, sin_domain, solver):
    seen = []
    for steps in (10, 40):
        dt = 0.2 / steps
        if solver == "fd_solve":
            fd_solve(sin_domain, ParabolaInitial(1.0, 1.0), M=32, dt_fd=dt, t_end=0.2)
        else:
            simulate(SimulationConfig(domain=sin_domain, n=6, model=zero_model(1), dt=dt,
                                      t_end=0.2, snapshot_stride=steps), ParabolaInitial(1.0, 1.0))
        seen.append(dict(boundary_calls))
        boundary_calls.update(a_at=0, a_prime_at=0)
    assert seen[0] == seen[1]


@pytest.mark.parametrize("scheme,a_at_calls", [("exponential_em", 3), ("explicit_em", 2)])
def test_simulate_samples_each_boundary_array_once(boundary_calls, sin_domain, scheme,
                                                   a_at_calls):
    # a(0) for the projection, then a(t_i) and a'(t_i) over the grid, and a at the step
    # midpoints for exponential_em only: explicit_em decays with a(t_i) itself
    simulate(SimulationConfig(domain=sin_domain, n=6, model=zero_model(1), dt=1e-3, t_end=0.2,
                              scheme=scheme, snapshot_stride=50), ParabolaInitial(1.0, 1.0))
    assert boundary_calls == {"a_at": a_at_calls, "a_prime_at": 1}


@pytest.mark.parametrize("scheme,a_at_calls", [("exponential_em", 3), ("explicit_em", 2)])
def test_nothing_samples_the_boundary_after_the_stepper(monkeypatch, boundary_calls, sin_domain,
                                                        scheme, a_at_calls):
    # every result carries a(t) at its saved times, so no consumer asks the domain again
    u0 = ParabolaInitial(1.0, 1.0)
    cfg = SimulationConfig(domain=sin_domain, n=3, model=moving_diagonal(0.4, 0.3, m=3),
                           dt=1e-3, t_end=0.2, scheme=scheme, n_paths=3, snapshot_stride=50)
    simulate_calls = {"a_at": a_at_calls, "a_prime_at": 1}  # the projection's a(0) included
    traj = simulate(cfg, u0)
    assert boundary_calls == simulate_calls
    finer = simulate(cfg.with_updates(n=6), u0)
    sol = fd_solve(sin_domain, u0, M=32, dt_fd=1e-3, t_end=0.2, save_stride=50)
    boundary_calls.update(a_at=0, a_prime_at=0)
    synthesize(traj.coeffs, traj.a_t, 17)
    for t in traj.times:
        compare_with_spectral(traj, sol, float(t))
    level_distance(traj, finer)
    assert boundary_calls == {"a_at": 0, "a_prime_at": 0}

    simulate_ensemble(cfg, u0, workers=1)
    assert boundary_calls == simulate_calls

    # seeds 0, 1 and 2 in blocks [0, 1] and [2]: a(0) once per level (3, 6 and 12 modes),
    # then the stepper's boundary arrays once per block
    monkeypatch.setattr(integrator, "MAX_BLOCK_ROWS", 2)
    boundary_calls.update(a_at=0, a_prime_at=0)
    self_convergence_study(cfg, u0, [3, 6], 3)
    assert boundary_calls == {"a_at": 3 + 2 * (a_at_calls - 1), "a_prime_at": 2}
