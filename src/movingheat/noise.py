"""Noise coefficient models and the driving Brownian increments.

A model supplies the coefficients sigma_jk(t, u) that couple the j-th
driving Brownian motion to the k-th moving-basis mode.  The flagship
``moving_diagonal`` family acts diagonally in the moving basis with mode
weights q_j = j^(-p), which keeps the operator's range inside functions
vanishing outside the current interval; a fixed-in-space additive noise
would not.  Each path draws its increments from one counter-based
Philox4x64-10 stream keyed by (seed, path); step s of an m-wide stream owns
the counter blocks s B + 1 .. s B + B, B = ceil(m/4), and turns them into
normals by Box-Muller.  Every increment is a pure function of
(seed, path, step, j), so any path or step is reproducible on any worker and
a run may draw many steps of many paths at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import CoefficientState

# Path and step indices lie below 2^32; step * ceil(m/4) then never wraps the counter
MAX_INDEX = 2**32
MAX_SEED = 2**64  # the seed is one 64-bit word of the Philox key
# The increment stream's layout; every manifest names it, since a change of it
# changes every noisy output
STREAM = "philox4x64-10 key=(seed,path) counter=step*ceil(m/4) box-muller-53"
# words per chunk of steps: bounds the working set of draw_increment and of the stepper
DRAW_BUDGET = 2**15
MAX_MODES = 4096  # cap on the truncations n and m; the dense (n, n) coupling is 128 MiB


@dataclass(frozen=True, eq=False)
class DiffusionModel:
    """Affine noise coefficients sigma_jk(u) = table_jk + delta_jk q_j (gamma + beta A_j).

    ``m`` is the number of driving Brownian motions and ``kind`` names the
    constructor.  Every model holds both parts, the diagonal weights ``q``
    (``moving_diagonal``: q_j = j^(-p)) and the constant (m, k) ``table``
    (``general_matrix``); a missing part is empty, a length-0 ``q`` or an
    (m, 0) table, and costs nothing per step.
    """

    kind: str
    m: int
    q: np.ndarray
    table: np.ndarray
    gamma: float = 0.0
    beta: float = 0.0
    lipschitz_k: float = 0.0


def zero_model(m: int = 1) -> DiffusionModel:
    """No noise; sigma identically zero."""
    _check_m(m)
    return DiffusionModel("zero", m, np.zeros(0), np.zeros((m, 0)))


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
    return DiffusionModel("moving_diagonal", m, q, np.zeros((m, 0)), gamma, beta,
                          float(lipschitz_k))


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
    return DiffusionModel("general_matrix", table.shape[0], np.zeros(0), table,
                          lipschitz_k=float(lipschitz_k))


def _diagonal(model: DiffusionModel, coeffs: np.ndarray) -> np.ndarray:
    """The diagonal part q_j (gamma + beta A_j) for j <= min(len(q), n), per row of the
    (..., n) coefficients ``coeffs``."""
    q = model.q[:coeffs.shape[-1]]
    return q * (model.gamma + model.beta * coeffs[..., :q.size])


def _sigma(model: DiffusionModel, coeffs: np.ndarray) -> np.ndarray:
    """Dense (m, n) coefficient matrix sigma_jk at the coefficients ``coeffs``."""
    sigma = np.zeros((model.m, coeffs.shape[0]))
    diag = _diagonal(model, coeffs)
    sigma[range(diag.size), range(diag.size)] = diag
    sigma[:, :model.table.shape[1]] += model.table[:, :sigma.shape[1]]
    return sigma


def sigma_coeff(model: DiffusionModel, j: int, k: int, state: CoefficientState) -> float:
    """Single coefficient sigma_jk at the given state."""
    if not 1 <= j <= model.m:
        raise ValueError(f"noise index j={j} outside 1..{model.m}")
    if not 1 <= k <= state.n:
        raise ValueError(f"mode index k={k} outside 1..{state.n}")
    return float(_sigma(model, state.coeffs)[j - 1, k - 1])


def flat_kick(model: DiffusionModel, spans):
    """The kick and the norm functions of a flat block of L truncation levels under ``model``.

    Level l holds the columns spans[l] = (lo, hi) of C-ordered (P, sum n_l) coefficients,
    and every level is driven by the same (P, m) increments.  The returned
    kick(coeffs, increment, kick) writes the (P, sum n_l) kick kick_k = sum_j sigma_jk dB_j
    into its out-array, zero on entry (None gives fresh zeros), and returns it.  The
    returned norms(states, out) does the same with the (..., L, P) squared HS norms of the
    (..., P, sum n_l) states, the sum over j <= m, k <= n_l of sigma_jk^2 (summed part by
    part), so a stepper takes them once for a chunk of kept states.  Each row and level is
    computed on its own.  Level l's diagonal scales the leading d = min(len(q), n_l)
    columns of its span by q_1..q_d into a fresh C-ordered (..., P, d) array, whose norm
    then sums in the order a lone level sums it.  What does not depend on the coefficients
    is built here once: each level's table slice and its norm and, when beta = 0, each
    level's diagonal q_{1..d} gamma and its norm, so that a step only scales the
    increments.  An empty part adds no product to a step.
    """
    widths = [min(model.q.size, hi - lo) for lo, hi in spans]
    tables = [model.table[:, :hi - lo] for lo, hi in spans]
    fixed = np.array([[np.sum(table**2)] for table in tables])  # the (L, 1) constant norms
    diagonals = [model.q[:d] * model.gamma for d in widths]  # each level's, when beta = 0
    if not model.beta:
        fixed += [[np.add.reduce(diag**2)] for diag in diagonals]
    # a step visits only the nonempty parts, and adds the constant norms when there are some
    diagonal_levels = [(level, spans[level][0], d) for level, d in enumerate(widths) if d]
    table_levels = [(lo, table) for (lo, _), table in zip(spans, tables) if table.size]
    constant = bool(table_levels or diagonal_levels and not model.beta)

    def kick_of(coeffs: np.ndarray, increment: np.ndarray,
                kick: np.ndarray | None = None) -> np.ndarray:
        if kick is None:
            kick = np.zeros(coeffs.shape)
        if model.beta:
            factor = model.gamma + model.beta * coeffs
        for level, lo, d in diagonal_levels:
            diag = model.q[:d] * factor[:, lo:lo + d] if model.beta else diagonals[level]
            np.multiply(diag, increment[:, :d], out=kick[:, lo:lo + d])
        for lo, table in table_levels:
            kick[:, lo:lo + table.shape[1]] += np.matmul(increment[:, None, :], table)[:, 0, :]
        return kick

    def norms_of(states: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            out = np.zeros((*states.shape[:-2], len(spans), states.shape[-2]))
        if model.beta:
            factor = model.gamma + model.beta * states
            for level, lo, d in diagonal_levels:
                out[..., level, :] = np.add.reduce((model.q[:d] * factor[..., lo:lo + d])**2,
                                                   axis=-1)
        if constant:
            out += fixed
        return out

    return kick_of, norms_of


def hs_norm_sq(model: DiffusionModel, coeffs: np.ndarray) -> np.ndarray:
    """Squared Hilbert-Schmidt norm, the sum over j <= m, k <= n of sigma_jk^2, for each
    row of the (..., n) coefficients; summed part by part."""
    return np.sum(_diagonal(model, coeffs)**2, -1) + np.sum(model.table[:, :coeffs.shape[-1]]**2)


def noise_kick(model: DiffusionModel, coeffs: np.ndarray, increment: np.ndarray) -> np.ndarray:
    """Coefficient-space kick kick_k = sum_j sigma_jk dB_j for each row of the (..., n)
    coefficients and the (..., m) increments, every row computed on its own."""
    increment = np.asarray(increment, dtype=float)
    shape = coeffs.shape[:-1] + (model.m,)
    if increment.shape != shape:
        raise ValueError(f"increment has shape {increment.shape}, expected {shape}")
    kick = np.zeros(coeffs.shape)
    diag = _diagonal(model, coeffs)
    kick[..., :diag.shape[-1]] = diag * increment[..., :diag.shape[-1]]
    table = model.table[:, :coeffs.shape[-1]]
    kick[..., :table.shape[1]] += np.matmul(increment[..., None, :], table)[..., 0, :]
    return kick


def words_per_step(m: int) -> int:
    """Raw 64-bit words one step of an m-wide stream owns: ceil(m/4) Philox blocks."""
    return 4 * -(-m // 4)


def steps_per_draw(rows: int, m: int, width: int, levels: int) -> int:
    """Steps per chunk of a stepper on ``rows`` streams and ``levels`` truncation levels
    of total width ``width``: as many as fit DRAW_BUDGET words with the chunk's raw
    increments, its two (steps, width) tables, its (steps + 1, rows, width) states and
    (steps, rows, width) kicks, and its (steps + 1, 3, levels, rows) ledger terms and
    (steps + 1, levels, rows) h1 norms; at least one."""
    ledger, state = 4 * levels * rows, rows * width
    return max(1, (DRAW_BUDGET - ledger - state)
               // (rows * words_per_step(m) + 2 * width + ledger + 2 * state))


class NoiseStream:
    """The increment stream of one Monte Carlo path: Philox4x64-10 keyed by (seed, path).

    Identical keys give bitwise identical increments, distinct keys give
    independent streams, and the counter carries the step, so paths and steps
    can be drawn in any order and any grouping on any worker.  A stream keeps one
    Philox, positioned where its last draw ended: a draw that goes on from there (the
    next steps, at the same m) reads on without re-keying, so a stepper that draws its
    chunks in order keys each stream once.  So a draw moves the stream: share none
    between threads.
    """

    def __init__(self, seed: int, path_index: int = 0):
        if not 0 <= seed < MAX_SEED:
            raise ValueError(f"seed must lie in [0, {MAX_SEED}), got {seed}")
        _check_index("path_index", path_index)
        self.seed = int(seed)
        self.path_index = int(path_index)
        self._philox, self._next_draw = None, None  # the Philox and the (step, m) it is at

    def generator_at(self, step_index: int, m: int) -> np.random.Philox:
        """A Philox of this path positioned at the first word of step ``step_index`` of an
        m-wide stream."""
        _check_index("step_index", step_index)
        # numpy bumps the counter before each block: counter s B with an empty
        # buffer makes s B + 1 the next block
        return np.random.Philox(
            counter=np.array([step_index * (words_per_step(m) // 4), 0, 0, 0], dtype=np.uint64),
            key=np.array([self.seed, self.path_index], dtype=np.uint64))


def _check_index(name: str, index: int) -> None:
    if not 0 <= index < MAX_INDEX:
        raise ValueError(f"{name} must lie in [0, {MAX_INDEX}), got {index}")


def draw_increment(streams, step_index: int, steps: int, m: int, dt: float) -> np.ndarray:
    """(P, steps, m) independent N(0, dt) draws: steps step_index, step_index + 1, ...
    of each of the P ``streams``.  A stream whose last draw ended elsewhere, or at
    another m, is re-keyed (``NoiseStream.generator_at``); the bits do not depend on it.

    Each pair of 53-bit uniforms (u, v) gives r cos(2 pi v), r sin(2 pi v) with
    r = sqrt(-2 dt log1p(-u)) (Box-Muller); an odd m drops the last sine.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    _check_index("step_index", step_index + steps - 1)
    words = words_per_step(m)
    raw = np.empty((len(streams), steps * words), dtype=np.uint64)
    for row, stream in zip(raw, streams):
        if stream._next_draw != (step_index, m):
            stream._philox = stream.generator_at(step_index, m)
        row[:] = stream._philox.random_raw(row.size)
        stream._next_draw = (step_index + steps, m)
    u = (raw.reshape(-1, steps, words)[..., : 2 * -(-m // 2)] >> 11) * 2.0**-53
    radius = np.sqrt(-2.0 * dt * np.log1p(-u[..., 0::2]))
    angle = 2.0 * np.pi * u[..., 1::2]
    normals = np.empty(u.shape)
    normals[..., 0::2] = radius * np.cos(angle)
    normals[..., 1::2] = radius * np.sin(angle)
    return normals[..., :m]


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
