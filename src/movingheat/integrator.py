"""Time stepping of the n-mode interacting coefficient system.

The coefficients obey dA_k = [sum_j b_jk(t) A_j + lambda_k(t) A_k] dt
+ sum_j sigma_jk dB_j.  The stiff diagonal part grows like (n pi / a)^2, so
the default scheme integrates it with an exact exponential factor (midpoint
coefficient) and keeps the order-one coupling and noise terms explicit; the
plain Euler-Maruyama scheme is retained behind a step-size guard.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np

from . import basis, noise
from .basis import CoefficientState
from .diagnostics import EnergyLedger
from .domain import DomainMotion
from .errors import ConfigError, NumericalError
from .noise import MAX_INDEX, MAX_MODES, DiffusionModel, NoiseStream, draw_increment

SCHEMES = ("explicit_em", "exponential_em")
STABILITY_FACTOR = 1.9
# Rows of one (paths, n) block of the ensemble stepper; bounds its working set
MAX_BLOCK_ROWS = 256


def saved_steps(n_steps: int, stride: int) -> np.ndarray:
    """Indices of the saved steps: every stride-th step, plus the last."""
    return np.unique(np.r_[np.arange(0, n_steps + 1, stride), n_steps])


def explicit_dt_bound(domain: DomainMotion, n: int) -> float:
    """Step-size guard for explicit_em: dt <= 1.9 (delta0 / (n pi))^2."""
    ratio = domain.delta0 / (n * np.pi)
    return STABILITY_FACTOR * (ratio * ratio)  # float ** 2 raises on overflow, * gives inf


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
        if not 1 <= self.n <= MAX_MODES:
            raise ConfigError(f"truncation n must lie in [1, {MAX_MODES}], got {self.n}")
        if self.dt <= 0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if not 0 < self.t_end <= self.domain.horizon:
            raise ConfigError(
                f"t_end={self.t_end} must lie in (0, horizon={self.domain.horizon}]"
            )
        ratio = self.t_end / self.dt
        steps = round(ratio) if math.isfinite(ratio) else 0
        if steps < 1 or abs(ratio - steps) > 0.5 * math.ulp(ratio):  # finite at the largest float
            raise ConfigError(
                f"t_end/dt = {ratio!r} is not an integer; the time grid must be uniform"
            )
        if steps > MAX_INDEX:
            raise ConfigError(f"t_end/dt = {steps} steps exceeds the noise stream's {MAX_INDEX}")
        if self.scheme == "explicit_em":
            bound = explicit_dt_bound(self.domain, self.n)
            if self.dt > bound:
                raise ConfigError(
                    f"explicit_em is unstable at dt={self.dt} for n={self.n}: "
                    f"requires dt <= {bound:.6g}"
                )
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if not 1 <= self.n_paths <= MAX_INDEX:
            raise ConfigError(f"n_paths must lie in [1, {MAX_INDEX}], got {self.n_paths}")
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


def step(state: CoefficientState, config: SimulationConfig, increment: np.ndarray,
         zero_eigenvalues: bool = False) -> CoefficientState:
    """Advance one time step; ``zero_eigenvalues`` is a diagnostic hook that
    drops the decay term so pure coupling transport can be studied."""
    kick = noise.noise_kick(config.model, state.coeffs, increment)
    new = _update(config, state.t, state.coeffs[None], kick[None], zero_eigenvalues)[0]
    if not np.all(np.isfinite(new)):
        raise NumericalError(_coefficient_failure(config, state.t + config.dt))
    return CoefficientState(state.t + config.dt, new)


def _update(config: SimulationConfig, t: float, a: np.ndarray, kick: np.ndarray,
            zero_eigenvalues: bool) -> np.ndarray:
    """The scheme's step from t to t + dt of the (P, n) coefficients ``a``, row by row."""
    n, dt, domain = config.n, config.dt, config.domain
    b = basis.coupling_matrix(n, t, domain)
    coupling_part = np.matmul(a[:, None, :], b)[:, 0, :]  # row p: b.T @ a[p]
    if config.scheme == "explicit_em":
        lam = 0.0 if zero_eigenvalues else basis.eigenvalues(n, t, domain)
        return a + (coupling_part + lam * a) * dt + kick
    lam_mid = 0.0 if zero_eigenvalues else basis.eigenvalues(n, t + 0.5 * dt, domain)
    return np.exp(lam_mid * dt) * (a + coupling_part * dt + kick)


def _coefficient_failure(config: SimulationConfig, t: float) -> str:
    if config.scheme != "explicit_em":
        return f"non-finite coefficients at t={t:.6g}"
    return (f"non-finite coefficients at t={t:.6g}; explicit_em stability requires "
            f"dt <= {explicit_dt_bound(config.domain, config.n):.6g}")


def _initial_coeffs(config: SimulationConfig, u0) -> np.ndarray:
    """Coefficients at t = 0: u0 projected, or a ready CoefficientState's own."""
    if isinstance(u0, CoefficientState):
        if u0.n != config.n:
            raise ConfigError(f"initial state has n={u0.n}, config has n={config.n}")
        return np.asarray(u0.coeffs, dtype=float)
    return basis.project_initial(u0, config.n, config.domain).coeffs


def _step_paths(config: SimulationConfig, a0: np.ndarray, paths, zero_eigenvalues=False,
                keep_coeffs=False):
    """Step paths[r], as row r of one (P, n) block, from the coefficients a0 to t_end.

    Rows draw from their own (seed, path, step) keys and every product is taken
    row by row, so a row's bits do not depend on the rows beside it.  Returns the
    (5, P, saved) series l2, h1, visc, sto, hs and, with ``keep_coeffs``, the
    (P, saved, n) saved coefficients.  A row fails at the first non-finite value
    of its ledger, coefficients or saved norms, checked in that order; the error
    names the lowest failed path.
    """
    n, m, dt, model, domain = config.n, config.model.m, config.dt, config.model, config.domain
    saved = saved_steps(config.n_steps, config.snapshot_stride).tolist()
    n_rows = len(paths)
    streams = [NoiseStream(config.seed, p) for p in paths]
    increments = np.empty((n_rows, m))
    series = np.empty((5, n_rows, len(saved)))
    coeffs = np.empty((n_rows, len(saved), n)) if keep_coeffs else None
    failures: dict[int, str] = {}  # row -> its first failure

    def fail(values, i, message):  # rows run along the last axis of ``values``
        for r in np.flatnonzero(~np.isfinite(values).reshape(-1, n_rows).all(axis=0)).tolist():
            failures.setdefault(r, f"path {paths[r]}, step {i}: {message}")

    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values are checked
        a = np.tile(a0, (n_rows, 1))
        # l2, h1 and the ledger sums of each row; h1 is also the next step's ledger term
        cur = np.zeros((5, n_rows))
        l2, h1 = cur[0], cur[1]
        np.vecdot(a, a, out=l2)
        np.vecdot(-basis.eigenvalues(n, 0.0, domain), a**2, out=h1)
        ledger = EnergyLedger(cur[2:])
        row = 0
        for i in range(config.n_steps + 1):
            if i:
                for r, stream in enumerate(streams):
                    increments[r] = draw_increment(stream, m, dt)
                kick = noise.noise_kick(model, a, increments)
                ledger.record_step(h1, 2.0 * np.vecdot(a, kick), noise.hs_norm_sq(model, a), dt)
                t = (i - 1) * dt
                a = _update(config, t, a, kick, zero_eigenvalues)
                np.vecdot(-basis.eigenvalues(n, i * dt, domain), a**2, out=h1)
            is_saved = i == saved[row]
            if is_saved:
                np.vecdot(a, a, out=l2)
            # non-finite coefficients make h1 non-finite: one sum catches every failure
            if not math.isfinite(cur.sum()):
                if i:
                    fail(ledger.sums, i, f"non-finite energy ledger at t={i * dt:.6g}")
                    fail(a.T, i, _coefficient_failure(config, t + dt))
                if is_saved:
                    fail(cur[:2], i, f"non-finite norms at t={i * dt:.6g}")
                if 0 in failures:
                    break
            if is_saved:
                series[:, :, row] = cur
                if keep_coeffs:
                    coeffs[:, row] = a
                row += 1
    if failures:
        raise NumericalError(failures[min(failures)])
    return series, coeffs


def simulate(config: SimulationConfig, u0, path_index: int = 0,
             zero_eigenvalues: bool = False) -> Trajectory:
    """Project u0, step to t_end, and record strided snapshots plus ledger.

    ``u0`` is either a callable on (0, a_0) or a ready CoefficientState.
    The path is row [path_index] of the block stepper: its noise is keyed by
    (config.seed, path_index, step), so reruns are bitwise identical and the
    snapshot stride cannot change the path.
    """
    (l2, h1, visc, sto, hs), coeffs = _step_paths(
        config, _initial_coeffs(config, u0), [path_index], zero_eigenvalues, keep_coeffs=True)
    steps = saved_steps(config.n_steps, config.snapshot_stride)
    return Trajectory(steps * config.dt, coeffs[0], l2[0], h1[0], visc[0], sto[0], hs[0],
                      float(l2[0, 0]), steps, config)


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


def _blocks(n_paths: int, workers: int) -> list[range]:
    """Contiguous path blocks: as many as ``workers``, each at most MAX_BLOCK_ROWS rows."""
    count = max(min(workers, n_paths), -(-n_paths // MAX_BLOCK_ROWS))
    bounds = [b * n_paths // count for b in range(count + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def simulate_ensemble(config: SimulationConfig, u0, workers: int = 1) -> EnsembleSummary:
    """Run config.n_paths independent paths and reduce deterministically.

    The blocks of paths go to a pool of at most ``workers`` processes, never
    more than there are blocks or usable CPUs.  Per-path results land in
    arrays indexed by path number before any reduction, so means and standard
    errors do not depend on worker count or completion order, and a failure
    names the lowest failed path.
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    n_paths = config.n_paths
    blocks = _blocks(n_paths, workers)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    pool_size = min(workers, len(blocks), cpus or 1)
    args = (repeat(config), repeat(_initial_coeffs(config, u0)), blocks)
    if pool_size > 1:
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            parts = list(pool.map(_step_paths, *args))  # in path order
    else:
        parts = list(map(_step_paths, *args))
    l2, h1, visc, sto, hs = np.concatenate([series for series, _ in parts], axis=1)

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
