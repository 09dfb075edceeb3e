"""Moving Dirichlet sine eigenbasis on (0, a(t)).

Eigenpairs of the Dirichlet Laplacian on the instantaneous interval,
the mode-coupling coefficients induced by the boundary motion, and the
projection/synthesis maps between coefficient space and physical grids.
Norms are computed through the Parseval identities, never by quadrature
(quadrature appears only in the test oracles and in the initial
projection).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .domain import DomainMotion
from .errors import NumericalError

PROJECTION_RTOL = 1e-10
_PROJECTION_PANELS = 8
_PROJECTION_NODES = 16
_PROJECTION_MAX_DOUBLINGS = 6
# Words of one block of the projection's mode-by-node table
_PROJECTION_BLOCK_WORDS = 2**15
# Modes from which apply_coupling uses the FFT: the crossover with the dense product,
# measured with single-threaded BLAS
_FFT_MIN_N = 320


@dataclass(frozen=True, eq=False)
class CoefficientState:
    """Time t plus the moving-basis coefficient vector (A_1, ..., A_n)."""

    t: float
    coeffs: np.ndarray

    @property
    def n(self) -> int:
        return self.coeffs.shape[0]


def eigenvalues(n: int, t: float, domain: DomainMotion) -> np.ndarray:
    """Vector of the first n eigenvalues -(k pi / a_t)^2 at time t."""
    return interval_eigenvalues(n, domain.a_at(t))


def interval_eigenvalues(n: int, a) -> np.ndarray:
    """The first n Dirichlet eigenvalues -(k pi / a)^2 of (0, a), broadcast over the modes."""
    return -((mode_numbers(n) / a) ** 2)


def sine_modes(ks, x, a, scale=1.0):
    """scale sqrt(2/a) sin(k pi x / a), broadcast over mode indices ks and points x."""
    return scale * np.sqrt(2.0 / a) * np.sin(ks * np.pi * x / a)


def mode_numbers(n: int) -> np.ndarray:
    """The vector k pi for k = 1..n."""
    _check_mode(n)
    return np.arange(1, n + 1, dtype=float) * np.pi


def coupling_pattern(n: int) -> np.ndarray:
    """Read-only (n, n) table C_n of the coupling b_jk(t) = (a'_t/a_t) C_jk.

    C_jk = (-1)^(j+k) 2jk/(j^2-k^2) off the diagonal, +0.0 on it.  The strict
    upper triangle is computed and mirrored with a sign flip, so C_n is
    exactly skew-symmetric.  Built once per n below _FFT_MIN_N, the widths the
    stepper applies densely; wider tables (up to 128 MiB) are built afresh.
    """
    _check_mode(n)
    return _pattern(n) if n < _FFT_MIN_N else _pattern.__wrapped__(n)


@lru_cache(maxsize=16)
def _pattern(n: int) -> np.ndarray:
    ks = np.arange(1, n + 1, dtype=float)
    j, k = ks[:, None], ks[None, :]
    sign = np.where((j + k) % 2, -1.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 on the diagonal
        upper = np.triu(sign * (2.0 * j * k / (j * j - k * k)), 1)
    c = upper - upper.T
    c.flags.writeable = False
    return c


def coupling(j: int, k: int, t: float, domain: DomainMotion) -> float:
    """Mode-coupling coefficient b_jk(t) = integral of e_j d/dt e_k over (0, a_t).

    The [j-1, k-1] entry of ``coupling_matrix``, so b_jk == -b_kj bitwise;
    builds the max(j, k) table.
    """
    _check_mode(min(j, k))  # coupling_pattern checks the larger index
    return float(coupling_matrix(max(j, k), t, domain)[j - 1, k - 1])


def coupling_matrix(n: int, t: float, domain: DomainMotion) -> np.ndarray:
    """Dense (n, n) matrix b(t) = (a'_t/a_t) C_n, entry [j-1, k-1] = b_jk(t).

    Exactly skew-symmetric, with a +0.0 diagonal whatever the sign of a'_t,
    and all +0.0 on a static domain.
    """
    return scaled_coupling(n, domain.a_prime_at(t) / domain.a_at(t))


def scaled_coupling(n: int, ratio, out=None) -> np.ndarray:
    """The coupling matrix (a'/a) C_n for the boundary ratio ``ratio`` = a'/a, written
    into the C-contiguous (n, n) array ``out`` when one is given."""
    b = np.empty((n, n)) if out is None else out
    if ratio:
        np.multiply(ratio, coupling_pattern(n), out=b)
    else:
        b.fill(0.0)
    b.ravel()[:: n + 1] = 0.0  # a negative ratio leaves -0.0 there
    return b


def dense_width(widths) -> int:
    """The widest of ``widths`` whose coupling ``apply_coupling`` takes from a dense
    table, 0 when every one is applied by FFT."""
    return max((n for n in widths if n < _FFT_MIN_N), default=0)


def apply_coupling(coeffs: np.ndarray, ratio, table=None, out=None) -> np.ndarray:
    """The coupling drift of each row A of the (P, n) coefficients ``coeffs``: the row
    A b = ratio C_n^T A, written into ``out`` when one is given.

    Below _FFT_MIN_N modes row p is coeffs[p] @ table[:n, :n], ``table`` being
    scaled_coupling(N, ratio) for some N >= n (built here when not given), whose leading
    block is bitwise ratio C_n.  From _FFT_MIN_N on no table is built: one rfft/irfft
    pair of the block applies C_n^T by circulant embedding (``_fft_coupling``), equal to
    the dense product to rounding.  Either way each row is computed on its own.
    """
    n = coeffs.shape[-1]
    if out is None:
        out = np.empty(coeffs.shape)
    if n < _FFT_MIN_N:
        if table is None:
            table = scaled_coupling(n, ratio)
        np.matmul(coeffs[:, None], table[:n, :n], out=out[:, None])
    elif ratio:
        np.multiply(ratio, _fft_coupling(coeffs), out=out)
    else:
        out.fill(0.0)
    return out


def _fft_coupling(coeffs: np.ndarray) -> np.ndarray:
    """C_n^T A for each row A of the (P, n) coefficients, in O(n log n) per row.

    With 2jk/(j^2-k^2) = j (1/(j-k) - 1/(j+k)) and z_j = (-1)^j j A_j,
    (C_n^T A)_k = (-1)^k [sum_{j!=k} z_j/(j-k) - sum_j z_j/(j+k)] + A_k/2, the last
    term putting the j = k summand back into the second sum.  The first sum is a
    Toeplitz, the second a Hankel product; both are convolutions that fit one circulant
    of length L >= 2n - 1, and the Hankel one convolves the reversed z, whose transform
    is conj(Z).  So the spectra add before a single inverse transform.  Weighting the
    input by j, not the output by k, keeps the rounding error of a decaying spectrum at
    about 1e-15 of the largest drift.
    """
    n = coeffs.shape[-1]
    length, toeplitz, hankel, signed_j, signs = _coupling_spectra(n)
    z = np.fft.rfft(coeffs * signed_j, length)
    conv = np.fft.irfft(z * toeplitz + z.conj() * hankel, length)[:, :n]
    return signs * conv + 0.5 * coeffs


@lru_cache(maxsize=4)
def _coupling_spectra(n: int):
    """FFT length L, the spectra of the Toeplitz and the Hankel kernel (each with its sign)
    and the vectors (-1)^j j and (-1)^k of ``_fft_coupling`` at n modes.

    Row index i holds mode j = i + 1.  The Toeplitz sum is minus the circular
    convolution of z with 1/d at d = k - j (0 at d = 0); the Hankel sum is the
    convolution of the reversed z with 1/(s + 2) at s = j + k - 2.
    """
    length = 1 << (2 * n - 2).bit_length()  # the least power of two >= 2n - 1
    inverse = 1.0 / np.arange(1, 2 * n + 1, dtype=float)
    toeplitz = np.zeros(length)
    toeplitz[1:n] = inverse[: n - 1]
    toeplitz[length - n + 1:] = -inverse[: n - 1][::-1]
    hankel = np.zeros(length)
    hankel[: 2 * n - 1] = inverse[1:]
    signs = np.where(np.arange(1, n + 1) % 2, -1.0, 1.0)
    return (length, -np.fft.rfft(toeplitz), -np.fft.rfft(hankel),
            signs * np.arange(1, n + 1), signs)


def project_initial(u0, n: int, domain: DomainMotion) -> CoefficientState:
    """Expand u0 on (0, a_0) over the first n modes at t = 0.

    Composite Gauss-Legendre quadrature starting at 8 panels x 16 nodes,
    panel count doubled until two successive coefficient vectors agree to
    1e-10 relative; raises ``NumericalError`` after 6 doublings.
    """
    _check_mode(n)
    a0 = domain.a_at(0.0)
    panels = max(_PROJECTION_PANELS, -(-n // 4))
    prev = _project_composite(u0, n, a0, panels)
    for _ in range(_PROJECTION_MAX_DOUBLINGS):
        panels *= 2
        cur = _project_composite(u0, n, a0, panels)
        scale = max(float(np.max(np.abs(cur))), 1.0)
        if float(np.max(np.abs(cur - prev))) <= PROJECTION_RTOL * scale:
            return CoefficientState(0.0, cur)
        prev = cur
    raise NumericalError(
        f"initial projection did not converge to rtol={PROJECTION_RTOL} "
        f"after {_PROJECTION_MAX_DOUBLINGS} panel doublings ({panels} panels)"
    )


def _project_composite(u0, n: int, a0: float, panels: int) -> np.ndarray:
    """The n quadrature sums sum_i w_i u0(x_i) e_k(0, x_i), over blocks of modes.

    Each block of the mode-by-node table holds a multiple of 16 rows, about
    _PROJECTION_BLOCK_WORDS words, and the last block also takes the rows left over,
    so a block's row groups and tail line up with the whole table's: under
    single-threaded BLAS each row's dot product is the one-shot product's, bitwise.
    """
    xs, ws = composite_gauss_nodes(0.0, a0, panels, _PROJECTION_NODES)
    wfx = ws * np.asarray(u0(xs), dtype=float)
    ks = np.arange(1, n + 1, dtype=float)[:, None]
    rows = max(16, _PROJECTION_BLOCK_WORDS // xs.size // 16 * 16)
    bounds = [*range(0, rows * max(1, n // rows), rows), n]
    return np.concatenate([sine_modes(ks[lo:hi], xs[None, :], a0) @ wfx
                           for lo, hi in zip(bounds, bounds[1:])])


@lru_cache(maxsize=64)
def _gauss_nodes(n_nodes: int):
    return np.polynomial.legendre.leggauss(n_nodes)


def composite_gauss_nodes(lo: float, hi: float, panels: int, nodes_per_panel: int):
    """Nodes and weights of a composite Gauss-Legendre rule on [lo, hi]."""
    base_x, base_w = _gauss_nodes(nodes_per_panel)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    xs = (mid[:, None] + half[:, None] * base_x[None, :]).ravel()
    ws = (half[:, None] * base_w[None, :]).ravel()
    return xs, ws


def evaluate(state: CoefficientState, xs, domain: DomainMotion) -> np.ndarray:
    """Field values sum_k A_k e_k(t, x) at the given points."""
    return sine_series(state.coeffs, xs, domain.a_at(state.t))


def sine_series(coeffs: np.ndarray, xs, a) -> np.ndarray:
    """sum_k coeffs[k-1] sqrt(2/a) sin(k pi x / a) at the points ``xs`` of [0, a]."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ks = np.arange(1, coeffs.shape[0] + 1, dtype=float)[:, None]
    return coeffs @ sine_modes(ks, xs[None, :], a)


def synthesize(coeffs: np.ndarray, a: np.ndarray, grid_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample the S fields of the (S, n) coefficient rows ``coeffs``, row s on the
    uniform inclusive grid over [0, a[s]]: the (S, grid_size) arrays (xs, values).

    Endpoint values are pinned to exactly 0 (Dirichlet); sin(k pi) would
    otherwise leave O(eps) dust at x = a.
    """
    if grid_size < 2:
        raise ValueError(f"grid_size must be >= 2, got {grid_size}")
    xs = np.linspace(0.0, a, grid_size, axis=-1)
    values = np.empty(xs.shape)
    for row, (c, x, a_s) in enumerate(zip(coeffs, xs, a, strict=True)):
        values[row] = sine_series(c, x, a_s)
    values[:, [0, -1]] = 0.0
    return xs, values


def h1_norm_sq(state: CoefficientState, domain: DomainMotion) -> float:
    """||u(t)||^2 in H^1_0(0, a_t): -sum_k lambda_k(t) A_k^2."""
    return float(np.dot(-eigenvalues(state.n, state.t, domain), state.coeffs**2))


def _check_mode(k: int) -> None:
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"mode index must be a positive integer, got {k!r}")
