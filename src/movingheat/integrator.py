"""Time stepping of the n-mode interacting coefficient system.

The coefficients obey dA_k = [sum_j b_jk(t) A_j + lambda_k(t) A_k] dt
+ sum_j sigma_jk dB_j.  The stiff diagonal part grows like (n pi / a)^2, so
the default scheme integrates it with an exact exponential factor (midpoint
coefficient) and keeps the order-one coupling and noise terms explicit; the
plain Euler-Maruyama scheme is retained behind a step-size guard.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import basis, noise
from .basis import CoefficientState
from .diagnostics import EnergyLedger
from .domain import DomainMotion
from .errors import ConfigError, NumericalError
from .noise import DiffusionModel, NoiseStream, draw_increment

SCHEMES = ("explicit_em", "exponential_em")
STABILITY_FACTOR = 1.9


def saved_steps(n_steps: int, stride: int) -> np.ndarray:
    """Indices of the saved steps: every stride-th step, plus the last."""
    return np.unique(np.r_[np.arange(0, n_steps + 1, stride), n_steps])


def explicit_dt_bound(domain: DomainMotion, n: int) -> float:
    """Step-size guard for explicit_em: dt <= 1.9 (delta0 / (n pi))^2."""
    return STABILITY_FACTOR * (domain.delta0 / (n * np.pi)) ** 2


@dataclass(frozen=True, eq=False)
class SimulationConfig:
    """Validated bundle of everything one run needs."""

    domain: DomainMotion
    n: int
    model: DiffusionModel
    dt: float
    t_end: float
    scheme: str = "exponential_em"
    seed: int = 0
    n_paths: int = 1
    grid_size: int = 129
    snapshot_stride: int = 1

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        if self.n < 1:
            raise ConfigError(f"truncation n must be >= 1, got {self.n}")
        if self.dt <= 0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if not 0 < self.t_end <= self.domain.horizon:
            raise ConfigError(
                f"t_end={self.t_end} must lie in (0, horizon={self.domain.horizon}]"
            )
        ratio = self.t_end / self.dt
        steps = round(ratio)
        if steps < 1 or abs(ratio - steps) > 0.5 * np.spacing(ratio):
            raise ConfigError(
                f"t_end/dt = {ratio!r} is not an integer; the time grid must be uniform"
            )
        if self.scheme == "explicit_em":
            bound = explicit_dt_bound(self.domain, self.n)
            if self.dt > bound:
                raise ConfigError(
                    f"explicit_em is unstable at dt={self.dt} for n={self.n}: "
                    f"requires dt <= {bound:.6g}"
                )
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.n_paths < 1:
            raise ConfigError(f"n_paths must be >= 1, got {self.n_paths}")
        if self.grid_size < 2:
            raise ConfigError(f"grid_size must be >= 2, got {self.grid_size}")
        if self.snapshot_stride < 1:
            raise ConfigError(f"snapshot_stride must be >= 1, got {self.snapshot_stride}")

    @property
    def n_steps(self) -> int:
        return round(self.t_end / self.dt)

    def with_updates(self, **kwargs) -> "SimulationConfig":
        return replace(self, **kwargs)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Saved states of one path plus the aligned energy-ledger series."""

    times: np.ndarray
    coeffs: np.ndarray  # (n_saved, n)
    l2_sq: np.ndarray
    h1_sq: np.ndarray
    visc: np.ndarray
    sto: np.ndarray
    hs: np.ndarray
    e0: float
    steps: np.ndarray  # global step index of each saved row
    config: SimulationConfig

    def state_at(self, index: int) -> CoefficientState:
        return CoefficientState(float(self.times[index]), self.coeffs[index].copy())


def drift(state: CoefficientState, domain: DomainMotion) -> np.ndarray:
    """Full drift vector: coupling transfer plus diagonal decay."""
    b = basis.coupling_matrix(state.n, state.t, domain)
    lam = basis.eigenvalues(state.n, state.t, domain)
    return b.T @ state.coeffs + lam * state.coeffs


def step(
    state: CoefficientState,
    config: SimulationConfig,
    increment: np.ndarray,
    zero_eigenvalues: bool = False,
) -> CoefficientState:
    """Advance one time step; ``zero_eigenvalues`` is a diagnostic hook that
    drops the decay term so pure coupling transport can be studied."""
    kick = noise.noise_kick(config.model, state, increment)
    return _advance(state, config, kick, zero_eigenvalues)


def _advance(
    state: CoefficientState,
    config: SimulationConfig,
    kick: np.ndarray,
    zero_eigenvalues: bool,
) -> CoefficientState:
    t, dt, domain = state.t, config.dt, config.domain
    a = state.coeffs
    b = basis.coupling_matrix(state.n, t, domain)
    coupling_part = b.T @ a
    if config.scheme == "explicit_em":
        lam = (
            np.zeros(state.n)
            if zero_eigenvalues
            else basis.eigenvalues(state.n, t, domain)
        )
        new = a + (coupling_part + lam * a) * dt + kick
    else:
        lam_mid = (
            np.zeros(state.n)
            if zero_eigenvalues
            else basis.eigenvalues(state.n, t + 0.5 * dt, domain)
        )
        new = np.exp(lam_mid * dt) * (a + coupling_part * dt + kick)
    if not np.all(np.isfinite(new)):
        raise NumericalError(
            f"non-finite coefficients at t={t + dt:.6g}"
            + (
                f"; explicit_em stability requires dt <= "
                f"{explicit_dt_bound(domain, state.n):.6g}"
                if config.scheme == "explicit_em"
                else ""
            )
        )
    return CoefficientState(t + dt, new)


def simulate(
    config: SimulationConfig,
    u0,
    path_index: int = 0,
    zero_eigenvalues: bool = False,
) -> Trajectory:
    """Project u0, step to t_end, and record strided snapshots plus ledger.

    ``u0`` is either a callable on (0, a_0) or a ready CoefficientState.
    The noise stream is keyed by (config.seed, path_index, step), so reruns
    are bitwise identical and the snapshot stride cannot change the path.
    """
    if isinstance(u0, CoefficientState):
        if u0.n != config.n:
            raise ConfigError(f"initial state has n={u0.n}, config has n={config.n}")
        state = CoefficientState(0.0, np.asarray(u0.coeffs, dtype=float).copy())
    else:
        state = basis.project_initial(u0, config.n, config.domain)

    n_steps = config.n_steps
    steps = saved_steps(n_steps, config.snapshot_stride)
    save_set = set(steps.tolist())

    ledger = EnergyLedger(e0=basis.l2_norm_sq(state))
    stream = NoiseStream(config.seed, path_index)
    m, dt, model, domain = config.model.m, config.dt, config.model, config.domain

    n_saved = len(steps)
    times = np.empty(n_saved)
    coeffs = np.empty((n_saved, config.n))
    l2 = np.empty(n_saved)
    h1 = np.empty(n_saved)
    visc = np.empty(n_saved)
    sto = np.empty(n_saved)
    hs = np.empty(n_saved)

    row = 0

    def save(st: CoefficientState):
        nonlocal row
        times[row] = st.t
        coeffs[row] = st.coeffs
        l2[row] = basis.l2_norm_sq(st)
        h1[row] = basis.h1_norm_sq(st, domain)
        visc[row] = ledger.visc
        sto[row] = ledger.sto
        hs[row] = ledger.hs
        row += 1

    save(state)
    for i in range(n_steps):
        if model.kind == "zero":
            kick = np.zeros(config.n)
            stream.step_index += 1  # keep the stream aligned with stochastic runs
            hs_sq = 0.0
        else:
            incr = draw_increment(stream, m, dt)
            kick = noise.noise_kick(model, state, incr)
            hs_sq = noise.hs_norm_sq(model, state)
        sto_inc = 2.0 * float(np.dot(state.coeffs, kick))
        ledger.record_step(basis.h1_norm_sq(state, domain), sto_inc, hs_sq, dt)
        try:
            state = _advance(state, config, kick, zero_eigenvalues)
        except NumericalError as exc:
            raise NumericalError(f"step {i + 1}: {exc}") from None
        state = CoefficientState((i + 1) * dt, state.coeffs)
        if i + 1 in save_set:
            save(state)

    return Trajectory(times, coeffs, l2, h1, visc, sto, hs, ledger.e0, steps, config)


@dataclass(frozen=True, eq=False)
class EnsembleSummary:
    """Per-time and per-path reductions over a Monte Carlo ensemble."""

    times: np.ndarray
    a_t: np.ndarray
    mean_l2_sq: np.ndarray
    se_l2_sq: np.ndarray
    mean_h1_sq: np.ndarray
    se_h1_sq: np.ndarray
    sup_l2_sq: np.ndarray  # per path
    y_norm_sq: np.ndarray  # per path
    final_l2_sq: np.ndarray  # per path
    final_visc: np.ndarray
    final_sto: np.ndarray
    final_hs: np.ndarray
    e0: float
    n_paths: int
    config: SimulationConfig


def _path_series(args) -> np.ndarray:
    """The (5, saved) series l2, h1, visc, sto, hs of one path."""
    config, u0, p = args
    traj = simulate(config, u0, path_index=p)
    return np.stack([traj.l2_sq, traj.h1_sq, traj.visc, traj.sto, traj.hs])


def simulate_ensemble(config: SimulationConfig, u0, workers: int = 1) -> EnsembleSummary:
    """Run config.n_paths independent paths and reduce deterministically.

    Per-path results land in arrays indexed by path number before any
    reduction, so means and standard errors do not depend on worker count
    or completion order.
    """
    n_paths = config.n_paths
    jobs = [(config, u0, p) for p in range(n_paths)]
    if workers > 1 and n_paths > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, n_paths // (4 * workers))
            series = list(pool.map(_path_series, jobs, chunksize=chunk))  # in path order
    else:
        series = [_path_series(j) for j in jobs]
    l2, h1, visc, sto, hs = np.stack(series, axis=1)  # each (n_paths, saved)

    times = saved_steps(config.n_steps, config.snapshot_stride) * config.dt
    if n_paths > 1:
        se_l2 = np.std(l2, axis=0, ddof=1) / math.sqrt(n_paths)
        se_h1 = np.std(h1, axis=0, ddof=1) / math.sqrt(n_paths)
    else:
        se_l2 = se_h1 = np.zeros_like(times)

    return EnsembleSummary(
        times=times,
        a_t=np.asarray(config.domain.a_at(times), dtype=float),
        mean_l2_sq=np.mean(l2, axis=0),
        se_l2_sq=se_l2,
        mean_h1_sq=np.mean(h1, axis=0),
        se_h1_sq=se_h1,
        sup_l2_sq=np.max(l2, axis=1),
        y_norm_sq=np.trapezoid(h1, times, axis=1),
        final_l2_sq=l2[:, -1],
        final_visc=visc[:, -1],
        final_sto=sto[:, -1],
        final_hs=hs[:, -1],
        e0=float(l2[0, 0]),  # every path starts from the same projected state
        n_paths=n_paths,
        config=config,
    )


@dataclass(frozen=True)
class ModeInitial:
    """u0 = amplitude * e_k(0, x); picklable for worker processes."""

    mode: int
    amplitude: float = 1.0
    a0: float = 1.0

    def __call__(self, x):
        return basis.sine_modes(self.mode, np.asarray(x, dtype=float), self.a0, self.amplitude)


@dataclass(frozen=True)
class ModesInitial:
    """u0 = sum_k amps[k-1] * e_k(0, x)."""

    amplitudes: tuple
    a0: float = 1.0

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for k, c in enumerate(self.amplitudes, start=1):
            if c:
                out = out + basis.sine_modes(k, x, self.a0, c)
        return out


@dataclass(frozen=True)
class ParabolaInitial:
    """u0 = scale * x (a0 - x): smooth bump exciting every odd mode."""

    a0: float = 1.0
    scale: float = 1.0

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return self.scale * x * (self.a0 - x)
