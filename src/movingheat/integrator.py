"""Time stepping of the n-mode interacting coefficient system.

The coefficients obey dA_k = [sum_j b_jk(t) A_j + lambda_k(t) A_k] dt
+ sum_j sigma_jk dB_j.  The stiff diagonal part grows like (n pi / a)^2, so
the default scheme integrates it with an exact exponential factor (midpoint
coefficient) and keeps the order-one coupling and noise terms explicit, the
coupling b(t) = (a'/a) C_n as the unscaled drift C_n^T A times a'/a dt; the
plain Euler-Maruyama scheme is retained behind a step-size guard.

One stepper serves a single path, an ensemble block and a level study: the
paths are the rows and the truncation levels the column spans of one
C-ordered (paths, sum of n) array, so every elementwise part of a step is one
call for the whole block.  Products and sums stay per row and per level, on
C-ordered operands: numpy sums a Fortran-ordered operand in another order,
and the bits of a path must not depend on what it is stepped beside.

Each path keeps an energy ledger: the three integral terms balancing |u(t)|^2
against the initial energy.  Its sums over time use the left endpoint
throughout; the martingale term requires it (any other evaluation point
introduces an O(1) Stratonovich bias) and using it for the dissipation as
well keeps the whole residual first order in dt, which is what the
refinement ratio tests assert.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np

from . import basis, noise
from .basis import CoefficientState
from .domain import DomainMotion
from .errors import ConfigError, NumericalError
from .noise import MAX_INDEX, MAX_MODES, MAX_SEED, DiffusionModel, NoiseStream, draw_increment

SCHEMES = ("explicit_em", "exponential_em")
STABILITY_FACTOR = 1.9
# Rows of one (paths, n) block of the stepper; bounds its working set
MAX_BLOCK_ROWS = 256
# Saved coefficients (rows x saved steps x sum of n) a block of the level study keeps
MAX_KEPT_COEFFS = 2**20


def saved_steps(n_steps: int, stride: int) -> np.ndarray:
    """Indices of the saved steps: every stride-th step, plus the last."""
    return np.unique(np.r_[np.arange(0, n_steps + 1, stride), n_steps])


def whole_steps(span: float, dt: float) -> int:
    """round(span/dt) when that is >= 1 and within 1e-9 of span/dt, else 0."""
    ratio = span / dt
    steps = round(ratio) if math.isfinite(ratio) else 0
    return steps if steps >= 1 and abs(ratio - steps) <= 1e-9 else 0


def explicit_dt_bound(domain: DomainMotion, n: int) -> float:
    """Step-size guard for explicit_em: dt <= 1.9 (delta0 / (n pi))^2 and, for n >= 2,
    dt (big_l / delta0) pi n <= 1.

    The second bounds the explicit coupling step: |a'/a| <= big_l / delta0, and the
    spectral radius of C_n lies below pi n (C_1 = 0, so it does not apply at n = 1).
    """
    ratio = domain.delta0 / (n * np.pi)
    bound = STABILITY_FACTOR * (ratio * ratio)  # float ** 2 raises on overflow, * gives inf
    return min(bound, ratio / domain.big_l) if n >= 2 else bound


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
        steps = whole_steps(self.t_end, self.dt)
        if not steps:
            raise ConfigError(f"t_end/dt = {self.t_end / self.dt!r} is not an integer; "
                              "the time grid must be uniform")
        if steps > MAX_INDEX:
            raise ConfigError(f"t_end/dt = {steps} steps exceeds the noise stream's {MAX_INDEX}")
        if self.scheme == "explicit_em":
            bound = explicit_dt_bound(self.domain, self.n)
            if self.dt > bound:
                raise ConfigError(
                    f"explicit_em is unstable at dt={self.dt} for n={self.n}: "
                    f"requires dt <= {bound:.6g}"
                )
        if not 0 <= self.seed < MAX_SEED:
            raise ConfigError(f"seed must lie in [0, {MAX_SEED}), got {self.seed}")
        if not 1 <= self.n_paths <= MAX_INDEX:
            raise ConfigError(f"n_paths must lie in [1, {MAX_INDEX}], got {self.n_paths}")
        if self.grid_size < 2:
            raise ConfigError(f"grid_size must be >= 2, got {self.grid_size}")
        if self.snapshot_stride < 1:
            raise ConfigError(f"snapshot_stride must be >= 1, got {self.snapshot_stride}")

    @property
    def n_steps(self) -> int:
        return whole_steps(self.t_end, self.dt)

    def with_updates(self, **kwargs) -> "SimulationConfig":
        return replace(self, **kwargs)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Saved states of one path, the boundary a(t) they live on, and the aligned
    energy-ledger series."""

    times: np.ndarray
    a_t: np.ndarray
    coeffs: np.ndarray  # (n_saved, n)
    l2_sq: np.ndarray
    h1_sq: np.ndarray
    visc: np.ndarray
    sto: np.ndarray
    hs: np.ndarray
    e0: float
    steps: np.ndarray  # global step index of each saved row


@dataclass
class EnergyLedger:
    """Running discrete sums of the energy-balance terms of P paths.

    r(t) = |u(t)|^2 - |u(0)|^2 + visc(t) - sto(t) - hs(t) should vanish as
    dt -> 0: ``visc`` accumulates 2 ||u(t_i)||^2 dt, ``sto`` accumulates
    2 sum_k A_k(t_i) kick_k(t_i), ``hs`` accumulates ||sigma||_HS^2 dt.  Rows 0, 1
    and 2 of ``sums`` hold visc, sto and hs: one sum per path, or per level and path.
    The steps are added a chunk at a time.
    """

    sums: np.ndarray  # (3, P) or (3, L, P)

    def record_step(self, terms: np.ndarray, dt: float) -> None:
        """Add S steps: rows 1..S of the (S + 1, 3, ...) ``terms`` hold each step's raw
        terms ||u(t_i)||^2, sum_k A_k(t_i) kick_k(t_i) and ||sigma||_HS^2.  Row 0 receives
        the sums so far and row s the sums after s steps; each term is scaled and added
        left to right as a step at a time would do it, so the sums do not depend on how
        the steps are grouped."""
        terms[0] = self.sums
        terms[1:, :2] *= 2.0  # (2 h1) dt, 2 sto and hs dt, each product in a step's order
        terms[1:, ::2] *= dt
        np.add.accumulate(terms, axis=0, out=terms)
        self.sums[...] = terms[-1]


def _initial_coeffs(config: SimulationConfig, u0) -> np.ndarray:
    """Coefficients at t = 0: u0 projected, or a ready CoefficientState's own."""
    if isinstance(u0, CoefficientState):
        if u0.n != config.n:
            raise ConfigError(f"initial state has n={u0.n}, config has n={config.n}")
        return np.asarray(u0.coeffs, dtype=float)
    return basis.project_initial(u0, config.n, config.domain).coeffs


def _step_paths(configs, a0s, rows, zero_eigenvalues=False, keep_coeffs=False):
    """Step the (seed, path) pairs ``rows`` at every level configs[l], from the coefficients
    a0s[l], to t_end.

    The levels share one time grid, domain, scheme and noise model and differ only in n.
    They live side by side in one C-ordered (P, sum n_l) state whose row r is the path
    rows[r] and whose columns spans[l] hold level l, so each elementwise part of a step
    (noise factor gamma + beta A, the update itself) is one call for every level, and so is
    the unscaled coupling drift C_n^T A (``basis.flat_coupling``, built once per block),
    which the update e^(lambda dt) (A + (C_n^T A) (a'/a dt) + kick) scales by a'/a dt.
    The steps run in chunks of S steps (``noise.steps_per_draw``).  A chunk draws its
    increments, builds (S, sum n_l) tables of decay factors (e^(lambda dt), or lambda for
    explicit_em) and H1 weights (k pi / a)^2, and keeps its (S + 1, P, sum n_l) states and
    (S, P, sum n_l) kicks: a step makes only its kick, drift and next state.  Once per chunk,
    batched calls over the kept states then take the ledger terms (h1 of the state before
    each step, sum_k A_k kick_k and the HS norm), which ``EnergyLedger.record_step`` adds,
    the norms and coefficients of the saved steps, and the failure checks.
    Products and sums stay per row and per level and run on C-ordered operands, in the
    order a lone level takes them, so a row's bits do not depend on the rows or levels
    beside it, on their order or on how the steps are grouped into chunks.
    Returns a(t) at the saved steps and, per level, the (5, P, saved) series l2, h1, visc,
    sto, hs and, with ``keep_coeffs``, the (P, saved, n_l) saved coefficients.  A row fails
    at the first non-finite value of its ledger or coefficients (from step 1 on) or of its
    saved norms, checked in that order; the error ``{label}, step {i}: non-finite {what} at t={t}``
    names the lowest failed row, then its lowest failed level, labelled ``path p`` for one
    level and ``seed s, n=N`` for several.  The stepping stops at the end of the chunk in
    which row 0 fails at level 0.
    """
    config, domain = configs[0], configs[0].domain
    m, dt, model = config.model.m, config.dt, config.model
    explicit = config.scheme == "explicit_em"
    saved = saved_steps(config.n_steps, config.snapshot_stride)
    times = np.arange(config.n_steps + 1) * dt
    a_t = domain.a_at(times)
    ratio = domain.a_prime_at(times[:-1]) / a_t[:-1]  # a'/a at each step start
    scale = ratio if explicit else ratio * dt  # of the drift C_n^T A in the update
    # a at the decay time: the step start for explicit_em, the midpoint for exponential_em
    a_decay = a_t[:-1] if explicit else domain.a_at(times[:-1] + dt / 2)
    bounds = np.cumsum([0] + [cfg.n for cfg in configs]).tolist()
    spans = tuple(zip(bounds, bounds[1:]))
    k_pi = np.concatenate([basis.mode_numbers(cfg.n) for cfg in configs])
    n_rows, n_levels = len(rows), len(configs)
    streams = [NoiseStream(seed, path) for seed, path in rows]
    chunk = noise.steps_per_draw(n_rows, m, bounds[-1], n_levels)
    kick_of, norms_of = noise.flat_kick(model, spans)
    drift = basis.flat_coupling(spans)
    series = np.zeros((n_levels, 5, n_rows, len(saved)))  # state 0's ledger sums are 0
    coeffs = [np.empty((n_rows, len(saved), cfg.n)) if keep_coeffs else None for cfg in configs]
    failures: dict[tuple[int, int], tuple] = {}  # (row, level) -> least (step, kind, message)

    def fail(bad, step_of, kind):  # bad[j, level, r]: row r's level fails at step_of[j]
        for level, r in np.argwhere(bad.any(axis=0)).tolist():
            i = int(step_of[np.argmax(bad[:, level, r])])
            seed, path = rows[r]
            label = f"path {path}" if n_levels == 1 else f"seed {seed}, n={configs[level].n}"
            what = ("energy ledger", "coefficients", "norms")[kind]
            failure = (i, kind, f"{label}, step {i}: non-finite {what} at t={times[i]:.6g}")
            failures[r, level] = min(failures.get((r, level), failure), failure)

    def per_level(x, y):  # the (S, L, P) dot products of the (S, P or 1, sum n_l) x and y
        out = np.empty((len(y), n_levels, n_rows))
        for level, (lo, hi) in enumerate(spans):
            np.vecdot(x[:, :, lo:hi], y[:, :, lo:hi], out=out[:, level])
        return out

    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values are checked
        states = np.concatenate([np.tile(a0, (n_rows, 1)) for a0 in a0s], axis=1)[None]
        h1 = per_level((k_pi / a_t[:1, None, None]) ** 2, states**2)  # h1 of state 0
        ledger = EnergyLedger(np.zeros((3, n_levels, n_rows)))
        coupling = np.empty(states.shape[1:])
        row = 0
        for start in range(0, config.n_steps, chunk):
            steps = min(chunk, config.n_steps - start)
            new = range(start + 1, start + steps + 1)  # the steps of the chunk's new states
            increments = draw_increment(streams, start, steps, m, dt)
            decay = (np.zeros((steps, k_pi.size)) if zero_eigenvalues
                     else -((k_pi / a_decay[start:start + steps, None]) ** 2))
            if not explicit:  # lambda becomes e^(lambda dt) in place
                decay *= dt
                np.exp(decay, out=decay)
            states, last = np.empty((steps + 1, *coupling.shape)), states[-1]
            states[0] = last
            kicks = np.zeros((steps, *coupling.shape))
            terms = np.zeros((steps + 1, 3, n_levels, n_rows))  # see EnergyLedger.record_step
            for s in range(steps):
                a = states[s]
                kick_of(a, increments[:, s], kicks[s])
                drift(a, coupling)
                coupling *= scale[start + s]
                if explicit:
                    np.add(a + (coupling + decay[s] * a) * dt, kicks[s], out=states[s + 1])
                else:
                    np.multiply(decay[s], a + coupling + kicks[s], out=states[s + 1])
            terms[1:, 1] = per_level(states[:-1], kicks)
            norms_of(states[:-1], terms[1:, 2])
            np.square(states[1:], out=kicks)  # the kicks are spent: their buffer takes A^2
            h1 = np.concatenate([h1[-1:], per_level((k_pi / a_t[new, None, None]) ** 2, kicks)])
            terms[1:, 0] = h1[:-1]
            ledger.record_step(terms, dt)
            if not math.isfinite(terms[-1].sum()):  # a non-finite sum stays so
                fail(~np.isfinite(terms[1:]).all(axis=1), new, 0)
            first_row, row = row, int(np.searchsorted(saved, start + steps, side="right"))
            at = saved[first_row:row] - start  # the chunk's saved states
            kept = states[at]
            norms = np.stack([per_level(kept, kept), h1[at]], axis=1)  # l2 and h1
            # non-finite coefficients make h1 non-finite: one sum catches them and the norms
            if not math.isfinite(h1.sum() + norms.sum()):
                fail(np.stack([~np.isfinite(states[1:, :, lo:hi]).all(axis=-1)
                               for lo, hi in spans], axis=1), new, 1)
                fail(~np.isfinite(norms).all(axis=1), at + start, 2)
            series[:, :2, :, first_row:row] = norms.transpose(2, 1, 3, 0)
            series[:, 2:, :, first_row:row] = terms[at].transpose(2, 1, 3, 0)
            if keep_coeffs:
                for level_coeffs, (lo, hi) in zip(coeffs, spans):
                    level_coeffs[:, first_row:row] = kept[:, :, lo:hi].transpose(1, 0, 2)
            if (0, 0) in failures:  # the lowest key: no later failure is reported
                break
    if failures:
        raise NumericalError(failures[min(failures)][2])
    return a_t[saved], list(zip(series, coeffs))


def _trajectory(config: SimulationConfig, a_t: np.ndarray, series: np.ndarray,
                coeffs: np.ndarray, row: int) -> Trajectory:
    """Row ``row`` of one level's block output as the Trajectory of its path."""
    l2, h1, visc, sto, hs = series[:, row]
    steps = saved_steps(config.n_steps, config.snapshot_stride)
    return Trajectory(steps * config.dt, a_t, coeffs[row], l2, h1, visc, sto, hs,
                      float(l2[0]), steps)


def simulate(config: SimulationConfig, u0, path_index: int = 0,
             zero_eigenvalues: bool = False) -> Trajectory:
    """Project u0, step to t_end, and record strided snapshots plus ledger.

    ``u0`` is either a callable on (0, a_0) or a ready CoefficientState.
    ``zero_eigenvalues`` is a diagnostic hook that drops the decay term, so pure
    coupling transport can be studied.
    The path is the one-row block [(config.seed, path_index)] of the stepper: its
    noise is that stream, so reruns are bitwise identical and the snapshot stride
    cannot change the path.
    """
    a_t, [(series, coeffs)] = _step_paths([config], [_initial_coeffs(config, u0)],
                                          [(config.seed, path_index)], zero_eigenvalues,
                                          keep_coeffs=True)
    return _trajectory(config, a_t, series, coeffs, 0)


def level_trajectories(configs, u0, seeds):
    """Yield (seed, [Trajectory per level]) for each seed: path 0 of that seed at every
    level configs[l], every level driven by the same increments.

    u0 is projected once per level.  The seeds run as the rows of blocks of at most
    MAX_BLOCK_ROWS rows whose kept coefficients, rows x saved steps x the sum of the
    levels' n, stay within MAX_KEPT_COEFFS words (never below one row); each block steps
    all its levels in lockstep, one draw of increments per chunk of steps.
    """
    a0s = [_initial_coeffs(cfg, u0) for cfg in configs]
    config = configs[0]
    row_words = (len(saved_steps(config.n_steps, config.snapshot_stride))
                 * sum(cfg.n for cfg in configs))
    size = max(1, min(MAX_BLOCK_ROWS, MAX_KEPT_COEFFS // row_words))
    for lo in range(0, len(seeds), size):
        block = seeds[lo:lo + size]
        a_t, levels = _step_paths(configs, a0s, [(seed, 0) for seed in block],
                                  keep_coeffs=True)
        for r, seed in enumerate(block):
            yield seed, [_trajectory(cfg, a_t, series, coeffs, r)
                         for cfg, (series, coeffs) in zip(configs, levels)]


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


def _blocks(n_paths: int, workers: int) -> list[range]:
    """Contiguous path blocks: as many as ``workers``, each at most MAX_BLOCK_ROWS rows."""
    count = max(min(workers, n_paths), -(-n_paths // MAX_BLOCK_ROWS))
    bounds = [b * n_paths // count for b in range(count + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def mean_and_se(values: np.ndarray, name: str, times=None):
    """Mean and standard error over the paths (axis 0) of ``values``, (P,) or (P, T).

    A single path has standard error 0.  A non-finite result raises
    ``NumericalError`` naming ``name`` and, when the columns are per-time, the
    first time ``times[j]`` at which it fails.
    """
    n_paths = values.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite results are reported
        mean = np.mean(values, axis=0)
        se = (np.std(values, axis=0, ddof=1) / math.sqrt(n_paths) if n_paths > 1
              else np.zeros_like(mean))
    for stat, result in (("mean", mean), ("standard error", se)):
        bad = ~np.isfinite(result)
        if bad.any():
            when = "" if times is None else f" at t={times[np.argmax(bad)]:.6g}"
            raise NumericalError(f"non-finite {stat} of {name} over {n_paths} paths{when}")
    return mean, se


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
    args = (repeat([config]), repeat([_initial_coeffs(config, u0)]),
            [[(config.seed, path) for path in block] for block in blocks])
    if pool_size > 1:
        from concurrent.futures import ProcessPoolExecutor  # loaded only when a pool starts

        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            parts = list(pool.map(_step_paths, *args))  # in path order
    else:
        parts = list(map(_step_paths, *args))
    l2, h1, visc, sto, hs = np.concatenate([series for _, [(series, _)] in parts], axis=1)

    times = saved_steps(config.n_steps, config.snapshot_stride) * config.dt
    mean_l2, se_l2 = mean_and_se(l2, "l2_sq", times)
    mean_h1, se_h1 = mean_and_se(h1, "h1_sq", times)
    with np.errstate(over="ignore"):  # an overflowed integral fails its moment statistic
        y_norm_sq = np.trapezoid(h1, times, axis=1)

    return EnsembleSummary(
        times=times,
        a_t=parts[0][0],  # every block samples the same boundary
        mean_l2_sq=mean_l2,
        se_l2_sq=se_l2,
        mean_h1_sq=mean_h1,
        se_h1_sq=se_h1,
        sup_l2_sq=np.max(l2, axis=1),
        y_norm_sq=y_norm_sq,
        final_l2_sq=l2[:, -1],
        final_visc=visc[:, -1],
        final_sto=sto[:, -1],
        final_hs=hs[:, -1],
        e0=float(l2[0, 0]),  # every path starts from the same projected state
        n_paths=n_paths,
    )


@dataclass(frozen=True)
class ModeInitial:
    """u0 = amplitude * e_k(0, x)."""

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
