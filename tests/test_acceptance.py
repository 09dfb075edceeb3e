"""Acceptance suite: one test per shipped guarantee, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` for one PASS/FAIL line per
criterion (add ``-s`` to also see the measured numbers).
"""

import json
import time

import numpy as np
import pytest
import sympy as sp

from movingheat import (
    ModeInitial,
    ModesInitial,
    ParabolaInitial,
    SimulationConfig,
    check_assumptions,
    compare_with_spectral,
    coupling,
    coupling_matrix,
    eigenvalues,
    energy_residuals,
    fd_solve,
    general_matrix,
    make_domain,
    moving_diagonal,
    self_convergence_study,
    sigma_coeff,
    simulate,
    simulate_ensemble,
    zero_model,
)
from movingheat.basis import CoefficientState
from movingheat.cli import main as cli_main


def report(name, elapsed, budget, **numbers):
    detail = "  ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                       for k, v in numbers.items())
    print(f"\n[acceptance] {name}: PASS  ({elapsed:.1f}s / budget {budget:.0f}s)  {detail}")


def test_criterion_1_coupling_coefficient_oracle(sin_domain):
    started = time.monotonic()
    t_sym, x_sym = sp.symbols("t x", real=True)
    a_sym = 1 + sp.Rational(1, 2) * sp.sin(t_sym)

    worst = 0.0
    for tt in (0.0, 0.3, 0.7):
        a = float(sin_domain.a_at(tt))
        for k in range(1, 65):
            e_k = sp.sqrt(2 / a_sym) * sp.sin(k * sp.pi * x_sym / a_sym)
            dek = sp.lambdify((t_sym, x_sym), sp.diff(e_k, t_sym), "numpy")
            nodes = 4 * (64 + k) + 16
            xs, ws = np.polynomial.legendre.leggauss(nodes)
            xs = 0.5 * a * (xs + 1.0)
            ws = 0.5 * a * ws
            integrand_right = ws * dek(tt, xs)
            js = np.arange(1, 65, dtype=float)[:, None]
            ej = np.sqrt(2.0 / a) * np.sin(js * np.pi * xs[None, :] / a)
            quad = ej @ integrand_right
            closed = np.array([coupling(j, k, tt, sin_domain) for j in range(1, 65)])
            worst = max(worst, float(np.max(np.abs(quad - closed))))
        b = coupling_matrix(64, tt, sin_domain)
        assert np.all(b + b.T == 0.0)

    assert worst <= 1e-8
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    report("criterion 1 coupling oracle", elapsed, 30, worst_error=worst)


def test_criterion_2_fixed_domain_exactness(unit_domain):
    started = time.monotonic()
    cfg = SimulationConfig(domain=unit_domain, n=8, model=zero_model(8),
                           dt=1e-3, t_end=0.5, scheme="exponential_em")
    traj = simulate(cfg, ModesInitial((1.0, 0.0, 0.3), 1.0))
    lam = eigenvalues(8, 0.0, unit_domain)
    exact = traj.coeffs[0][None, :] * np.exp(lam[None, :] * traj.times[:, None])
    worst = float(np.max(np.abs(traj.coeffs - exact)))
    assert worst <= 1e-10
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    report("criterion 2 fixed-domain exactness", elapsed, 1, worst_error=worst)


def test_criterion_3_cross_solver_validation():
    started = time.monotonic()
    domain = make_domain("linear", {"a0": 1.0, "slope": 0.25}, 0.5)
    u0 = ModeInitial(1, 1.0, 1.0)

    cfg = SimulationConfig(domain=domain, n=48, model=zero_model(1),
                           dt=2e-4, t_end=0.5, snapshot_stride=2500)
    traj = simulate(cfg, u0)
    sol = fd_solve(domain, u0, M=1024, dt_fd=1e-4, t_end=0.5, save_stride=5000)
    disc = compare_with_spectral(traj, sol, 0.5)
    assert disc <= 5e-3

    cfg2 = cfg.with_updates(n=96, dt=1e-4, snapshot_stride=5000)
    traj2 = simulate(cfg2, u0)
    sol2 = fd_solve(domain, u0, M=2048, dt_fd=5e-5, t_end=0.5, save_stride=10000)
    disc2 = compare_with_spectral(traj2, sol2, 0.5)
    assert disc >= 1.5 * disc2

    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    report("criterion 3 cross-solver validation", elapsed, 60,
           discrepancy=disc, refined=disc2, shrink=disc / disc2)


# the second set's block holds dense (80, 160) and FFT (320, 640) levels side by side
@pytest.mark.parametrize("levels", [[8, 16, 32], [80, 160, 320]], ids=["8-16-32", "80-160-320"])
def test_criterion_4_self_convergence_in_n(sin_domain, levels):
    started = time.monotonic()
    model = moving_diagonal(gamma=0.5, beta=0.5, decay_p=1.0, m=64)
    base = SimulationConfig(domain=sin_domain, n=8, model=model, dt=1e-3,
                            t_end=0.5, seed=1000, snapshot_stride=5)
    rows = self_convergence_study(base, ParabolaInitial(1.0, 1.0), levels, n_seeds=10)
    per_seed = {}
    for r in rows:
        per_seed.setdefault(r.seed, {})[r.n] = (r.d_x, r.d_y)
    coarse, mid, fine = levels
    wins_x = sum(
        1 for by_n in per_seed.values()
        if by_n[coarse][0] > by_n[mid][0] > by_n[fine][0]
    )
    wins_y = sum(
        1 for by_n in per_seed.values()
        if by_n[coarse][1] > by_n[mid][1] > by_n[fine][1]
    )
    assert wins_x >= 9
    assert wins_y >= 9
    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    report(f"criterion 4 self-convergence in n, levels {levels}", elapsed, 300,
           wins_x=wins_x, wins_y=wins_y)


def test_criterion_5_mean_energy_vs_ou_oracle(unit_domain):
    started = time.monotonic()
    gamma, n, T = 0.3, 16, 0.25
    model = moving_diagonal(gamma=gamma, beta=0.0, decay_p=1.0, m=n)
    cfg = SimulationConfig(domain=unit_domain, n=n, model=model, dt=1e-3,
                           t_end=T, seed=42, n_paths=2000, snapshot_stride=250)
    summ = simulate_ensemble(cfg, ModeInitial(1, 1.0, 1.0), workers=4)

    lam = eigenvalues(n, 0.0, unit_domain)
    q = np.arange(1, n + 1, dtype=float) ** -1.0
    a0_sq = np.zeros(n)
    a0_sq[0] = 1.0
    exact = float(np.sum(
        a0_sq * np.exp(2 * lam * T)
        + q**2 * gamma**2 * (1 - np.exp(2 * lam * T)) / (-2 * lam)
    ))
    mean = float(np.mean(summ.final_l2_sq))
    se = float(np.std(summ.final_l2_sq, ddof=1) / np.sqrt(summ.n_paths))
    assert abs(mean - exact) <= 3 * se
    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    report("criterion 5 mean energy vs OU oracle", elapsed, 300,
           mean=mean, exact=exact, diff=abs(mean - exact), three_se=3 * se)


def test_criterion_6_energy_identity_residual(unit_domain, sin_domain):
    started = time.monotonic()

    # deterministic refinement: the residual is O(dt)
    sup_at = {}
    for dt in (2e-3, 1e-3, 5e-4):
        cfg = SimulationConfig(domain=unit_domain, n=4, model=zero_model(4),
                               dt=dt, t_end=0.5)
        traj = simulate(cfg, ModeInitial(1, 1.0, 1.0))
        sup_at[dt] = abs(float(energy_residuals(traj)[-1]))
    ratio_a = sup_at[2e-3] / sup_at[1e-3]
    ratio_b = sup_at[1e-3] / sup_at[5e-4]
    assert 1.6 <= ratio_a <= 2.4
    assert 1.6 <= ratio_b <= 2.4

    # stochastic refinement: sup_t |r| decreasing across the three steps
    model = moving_diagonal(gamma=0.3, beta=0.0, decay_p=1.0, m=16)
    u0 = ModeInitial(1, 2.0, 1.0)
    wins = 0
    for seed in range(10):
        sups = []
        for dt in (4e-3, 2e-3, 1e-3):
            cfg = SimulationConfig(domain=sin_domain, n=16, model=model, dt=dt,
                                   t_end=0.5, seed=seed)
            traj = simulate(cfg, u0)
            sups.append(float(np.max(np.abs(energy_residuals(traj)))))
        wins += sups[0] > sups[1] > sups[2]
    assert wins >= 9

    elapsed = time.monotonic() - started
    assert elapsed < 180.0
    report("criterion 6 energy-identity residual", elapsed, 180,
           det_ratio_a=ratio_a, det_ratio_b=ratio_b, stochastic_wins=wins)


def test_criterion_7_moment_bound_uniformity(sin_domain):
    started = time.monotonic()
    model = moving_diagonal(gamma=0.5, beta=0.5, decay_p=1.0, m=64)
    estimates = {}
    # n = 1024 runs the coupling by FFT, where the paper's n -> infinity claim is tested
    for n in (16, 32, 1024):
        cfg = SimulationConfig(domain=sin_domain, n=n, model=model, dt=1e-3,
                               t_end=0.5, seed=7, n_paths=200, snapshot_stride=10)
        summ = simulate_ensemble(cfg, ParabolaInitial(1.0, 1.0), workers=4)
        estimates[n] = float(np.mean(summ.sup_l2_sq + summ.y_norm_sq))
    ratio = estimates[32] / estimates[16]
    ratio_1024 = estimates[1024] / estimates[16]
    assert 0.8 <= ratio <= 1.25
    assert 0.8 <= ratio_1024 <= 1.25
    elapsed = time.monotonic() - started
    assert elapsed < 180.0
    report("criterion 7 moment-bound uniformity", elapsed, 180,
           e16=estimates[16], e32=estimates[32], e1024=estimates[1024], ratio=ratio,
           ratio_1024=ratio_1024)


def test_criterion_8_noise_assumption_suite():
    started = time.monotonic()
    shipped = [
        (zero_model(8), 8),
        (moving_diagonal(gamma=0.3, beta=0.0, decay_p=1.0, m=8), 8),
        (moving_diagonal(gamma=0.5, beta=0.5, decay_p=1.0, m=8), 8),
        (moving_diagonal(gamma=1.0, beta=0.25, decay_p=1.5, m=8), 8),
        (general_matrix(np.diag([1.0, 0.5, 0.25]), lipschitz_k=1.2), 3),
    ]
    for model, n in shipped:
        rep = check_assumptions(model, n=n, n_pairs=200, seed=12)
        assert rep["lipschitz_ratio"] <= 1.0 + 1e-9
        assert rep["growth_ratio"] <= 1.0 + 1e-9
        if model.kind == "moving_diagonal":
            rng = np.random.default_rng(1)
            st = CoefficientState(0.0, rng.normal(size=n))
            for j in range(1, model.m + 1):
                for k in range(1, n + 1):
                    if j != k:
                        assert sigma_coeff(model, j, k, st) == 0.0
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    report("criterion 8 noise assumption suite", elapsed, 5, models=len(shipped))


CLI_CFG = """
[domain]
kind = sinusoidal
a0 = 1.0
amp = 0.5
omega = 1.0
T = 1.0

[noise]
kind = moving_diagonal
gamma = 0.4
beta = 0.2
m = 8

[sim]
n = 8
dt = 0.001
t_end = 0.1
seed = 12345
n_paths = 16

[output]
grid_size = 65
snapshot_stride = 10
"""


def test_criterion_9_reproducibility(tmp_path):
    started = time.monotonic()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CLI_CFG, encoding="utf-8")

    assert cli_main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s1")]) == 0
    assert cli_main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s2")]) == 0
    assert (tmp_path / "s1" / "trajectory.csv").read_bytes() == (
        tmp_path / "s2" / "trajectory.csv"
    ).read_bytes()

    assert cli_main(["ensemble", "--config", str(cfg), "--out", str(tmp_path / "w1"),
                     "--workers", "1"]) == 0
    assert cli_main(["ensemble", "--config", str(cfg), "--out", str(tmp_path / "w8"),
                     "--workers", "8"]) == 0
    for name in ("ensemble.csv", "moments.csv"):
        assert (tmp_path / "w1" / name).read_bytes() == (
            tmp_path / "w8" / name
        ).read_bytes()

    manifest = json.loads((tmp_path / "s1" / "manifest.json").read_text())
    assert manifest["seed"] == 12345
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    report("criterion 9 reproducibility", elapsed, 60)
