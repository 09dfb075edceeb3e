"""Noise coefficient models and the driving Brownian increments.

A model supplies the coefficients sigma_jk(t, u) that couple the j-th
driving Brownian motion to the k-th moving-basis mode.  The flagship
``moving_diagonal`` family acts diagonally in the moving basis with mode
weights q_j = j^(-p), which keeps the operator's range inside functions
vanishing outside the current interval; a fixed-in-space additive noise
would not.  Increments come from a counter-based Philox stream keyed by
(seed, path, step), so any path/step is reproducible on any worker.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import CoefficientState

# Philox keys hold the path and step indices in 32 bits each
MAX_INDEX = 2**32
MAX_MODES = 4096  # cap on the truncations n and m; the dense (n, n) coupling is 128 MiB


@dataclass(frozen=True, eq=False)
class DiffusionModel:
    """Affine noise coefficients sigma_jk(u) = table_jk + delta_jk q_j (gamma + beta A_j).

    ``m`` is the number of driving Brownian motions and ``kind`` names the
    constructor.  ``moving_diagonal`` holds the diagonal part (weights
    q_j = j^(-p)), ``general_matrix`` the constant (m, n) table, ``zero``
    neither; a missing part is None and costs nothing per step.
    """

    kind: str
    m: int
    gamma: float = 0.0
    beta: float = 0.0
    q: np.ndarray | None = None
    lipschitz_k: float = 0.0
    table: np.ndarray | None = None


def zero_model(m: int = 1) -> DiffusionModel:
    """No noise; sigma identically zero."""
    _check_m(m)
    return DiffusionModel("zero", m)


def moving_diagonal(
    gamma: float,
    beta: float,
    decay_p: float = 1.0,
    m: int = 16,
    lipschitz_k: float | None = None,
) -> DiffusionModel:
    """Diagonal action in the moving basis: sigma_jj = q_j (gamma + beta A_j).

    When ``lipschitz_k`` is omitted it is set to
    max(gamma sqrt(sum q_j^2), beta max q_j), which dominates both the
    Lipschitz and the linear-growth inequality.
    """
    _check_m(m)
    if gamma < 0 or beta < 0:
        raise ValueError("gamma and beta must be nonnegative")
    if decay_p <= 0.5:
        raise ValueError(f"decay_p must exceed 1/2 for a finite HS norm, got {decay_p}")
    q = np.arange(1, m + 1, dtype=float) ** (-decay_p)
    if lipschitz_k is None:
        lipschitz_k = max(gamma * float(np.sqrt(np.sum(q**2))), beta * float(np.max(q)))
    return DiffusionModel("moving_diagonal", m, gamma, beta, q, float(lipschitz_k))


def general_matrix(table, lipschitz_k: float) -> DiffusionModel:
    """Constant coefficient table sigma_jk = table[j-1, k-1] (additive noise).

    The caller declares ``lipschitz_k``; the growth bound is checked here,
    the range condition stays the caller's obligation.
    """
    table = np.atleast_2d(np.asarray(table, dtype=float))
    if table.ndim != 2 or table.size == 0 or not np.all(np.isfinite(table)):
        raise ValueError("coefficient table must be a nonempty, finite 2-D array")
    _check_m(table.shape[0])
    hs = float(np.sqrt(np.sum(table**2)))
    if lipschitz_k < hs:
        raise ValueError(
            f"declared lipschitz_k={lipschitz_k} is below the table's "
            f"Hilbert-Schmidt norm {hs:.6g}; growth bound would fail at u=0"
        )
    return DiffusionModel(
        "general_matrix", table.shape[0], lipschitz_k=float(lipschitz_k), table=table
    )


def _diagonal(model: DiffusionModel, coeffs: np.ndarray) -> np.ndarray:
    """The diagonal part q_j (gamma + beta A_j) for j <= min(m, n), per row of ``coeffs``."""
    d = min(model.m, coeffs.shape[-1])
    return model.q[:d] * (model.gamma + model.beta * coeffs[..., :d])


def _sigma(model: DiffusionModel, coeffs: np.ndarray) -> np.ndarray:
    """Dense (m, n) coefficient matrix sigma_jk at the coefficients ``coeffs``."""
    sigma = np.zeros((model.m, coeffs.shape[0]))
    if model.q is not None:
        diag = _diagonal(model, coeffs)
        sigma[range(diag.size), range(diag.size)] = diag
    if model.table is not None:
        cols = min(coeffs.shape[0], model.table.shape[1])
        sigma[:, :cols] += model.table[:, :cols]
    return sigma


def sigma_coeff(model: DiffusionModel, j: int, k: int, state: CoefficientState) -> float:
    """Single coefficient sigma_jk at the given state."""
    if not 1 <= j <= model.m:
        raise ValueError(f"noise index j={j} outside 1..{model.m}")
    if not 1 <= k <= state.n:
        raise ValueError(f"mode index k={k} outside 1..{state.n}")
    return float(_sigma(model, state.coeffs)[j - 1, k - 1])


def hs_norm_sq(model: DiffusionModel, coeffs: np.ndarray) -> np.ndarray:
    """Squared Hilbert-Schmidt norm, the sum over j <= m, k <= n of sigma_jk^2, for each
    row of the (..., n) coefficients; summed part by part (no constructor gives both)."""
    if model.q is not None:
        total = np.sum(_diagonal(model, coeffs) ** 2, axis=-1)
    else:
        total = np.zeros(coeffs.shape[:-1])
    if model.table is not None:
        total = total + np.sum(model.table[:, : min(coeffs.shape[-1], model.table.shape[1])] ** 2)
    return total


def noise_kick(model: DiffusionModel, coeffs: np.ndarray, increment: np.ndarray) -> np.ndarray:
    """Coefficient-space kick kick_k = sum_j sigma_jk dB_j for each row of the (..., n)
    coefficients and the (..., m) increments, every row computed on its own."""
    increment = np.asarray(increment, dtype=float)
    shape = coeffs.shape[:-1] + (model.m,)
    if increment.shape != shape:
        raise ValueError(f"increment has shape {increment.shape}, expected {shape}")
    kick = np.zeros(coeffs.shape)
    if model.q is not None:
        diag = _diagonal(model, coeffs)
        kick[..., : diag.shape[-1]] = diag * increment[..., : diag.shape[-1]]
    if model.table is not None:
        cols = min(coeffs.shape[-1], model.table.shape[1])
        kick[..., :cols] += np.matmul(increment[..., None, :], model.table[:, :cols])[..., 0, :]
    return kick


class NoiseStream:
    """Counter-based Gaussian increment source for one Monte Carlo path.

    Each step's draws come from a fresh Philox generator keyed by
    (seed, path_index, step_index): identical keys give bitwise identical
    increments, distinct keys give independent streams, so paths can be
    generated in any order on any worker.
    """

    def __init__(self, seed: int, path_index: int = 0, step_index: int = 0):
        if seed < 0:
            raise ValueError("seed must be nonnegative")
        _check_index("path_index", path_index)
        _check_index("step_index", step_index)
        self.seed = int(seed)
        self.path_index = int(path_index)
        self.step_index = int(step_index)

    def generator_at(self, step_index: int) -> np.random.Generator:
        _check_index("step_index", step_index)
        key = np.array(
            [np.uint64(self.seed), np.uint64((self.path_index << 32) | step_index)],
            dtype=np.uint64,
        )
        return np.random.Generator(np.random.Philox(key=key))


def _check_index(name: str, index: int) -> None:
    if not 0 <= index < MAX_INDEX:
        raise ValueError(f"{name} must lie in [0, {MAX_INDEX}), got {index}")


def draw_increment(stream: NoiseStream, m: int, dt: float) -> np.ndarray:
    """m independent N(0, dt) draws for the stream's current step, then advance."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    rng = stream.generator_at(stream.step_index)
    stream.step_index += 1
    return rng.standard_normal(m) * np.sqrt(dt)


def check_assumptions(model: DiffusionModel, n: int, n_pairs: int = 200, seed: int = 0) -> dict:
    """Empirical check of the Lipschitz, growth and diagonality properties.

    Draws ``n_pairs`` random pairs of n-mode coefficient vectors (sigma does
    not depend on time) and returns the worst observed ratios; a conforming
    model keeps lipschitz and growth ratios <= 1.
    """
    rng = np.random.default_rng(seed)
    worst_lip = 0.0
    worst_growth = 0.0
    for _ in range(n_pairs):
        u = rng.normal(scale=2.0, size=n)
        v = rng.normal(scale=2.0, size=n)
        du = float(np.linalg.norm(u - v))
        diff = float(np.linalg.norm(_sigma(model, u) - _sigma(model, v)))
        if du > 0 and model.lipschitz_k > 0:
            worst_lip = max(worst_lip, diff / (model.lipschitz_k * du))
        norm_u = float(np.linalg.norm(u))
        if model.lipschitz_k > 0:
            growth = np.sqrt(hs_norm_sq(model, u)) / (model.lipschitz_k * (norm_u + 1.0))
            worst_growth = max(worst_growth, growth)
    off = _sigma(model, rng.normal(size=n))
    np.fill_diagonal(off, 0.0)
    return {
        "lipschitz_ratio": float(worst_lip),
        "growth_ratio": float(worst_growth),
        "max_offdiagonal": float(np.max(np.abs(off))),
    }


def _check_m(m: int) -> None:
    if not isinstance(m, (int, np.integer)) or not 1 <= m <= MAX_MODES:
        raise ValueError(f"noise truncation m must be an integer in [1, {MAX_MODES}], got {m!r}")
