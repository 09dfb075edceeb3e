"""Moving Dirichlet sine eigenbasis on (0, a(t)).

Eigenpairs of the Dirichlet Laplacian on the instantaneous interval,
the mode-coupling coefficients induced by the boundary motion, and the
projection/synthesis maps between coefficient space and physical grids.
Both maps are sine transforms, O(points log points + n) rather than a sine
table of n rows: the initial projection is one FFT over the panels of its
composite Gauss rule per Gauss offset, and the synthesis on a uniform grid of
M + 1 points folds the modes onto M - 1 bins of one shared sine table.
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
# Modes from which a level of flat_coupling applies the coupling by FFT: the crossover
# with the dense product, measured with single-threaded BLAS
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
    exactly skew-symmetric.  Built afresh on every call: up to 128 MiB at n = 4096.
    """
    _check_mode(n)
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

    The [j-1, k-1] entry of ``coupling_matrix`` bit for bit, so b_jk == -b_kj bitwise,
    from the closed form in the table's operand order, without building the table.
    """
    _check_mode(min(j, k))
    _check_mode(max(j, k))
    ratio = domain.a_prime_at(t) / domain.a_at(t)
    if j == k or not ratio:
        return 0.0
    lo, hi = float(min(j, k)), float(max(j, k))
    upper = (-1.0 if (j + k) % 2 else 1.0) * (2.0 * lo * hi / (lo * lo - hi * hi))
    return float(ratio * (upper if j < k else 0.0 - upper))


def coupling_matrix(n: int, t: float, domain: DomainMotion) -> np.ndarray:
    """Dense (n, n) matrix b(t) = (a'_t/a_t) C_n, entry [j-1, k-1] = b_jk(t).

    Exactly skew-symmetric, with a +0.0 diagonal whatever the sign of a'_t,
    and all +0.0 on a static domain.
    """
    return scaled_coupling(n, domain.a_prime_at(t) / domain.a_at(t))


def scaled_coupling(n: int, ratio) -> np.ndarray:
    """The coupling matrix (a'/a) C_n for the boundary ratio ``ratio`` = a'/a."""
    b = np.multiply(ratio, coupling_pattern(n)) if ratio else np.zeros((n, n))
    b.ravel()[:: n + 1] = 0.0  # a negative ratio leaves -0.0 there
    return b


def flat_coupling(spans):
    """The unscaled coupling drift of a flat block of L truncation levels.

    Level l holds the columns spans[l] = (lo, hi) of C-ordered (P, sum n_l)
    coefficients.  The returned drift(coeffs, out) writes each row A's C_n^T A (n = hi - lo),
    which the caller scales by a'/a, into the level's span of ``out`` and returns ``out``,
    each row and level computed on its own.  Below _FFT_MIN_N modes a level multiplies its
    rows by the leading n x n block of the read-only C_N of the widest such level N, which
    is bitwise C_n.  From _FFT_MIN_N on a level builds no table: one rfft/irfft pair
    applies C_n^T by circulant embedding (``_fft_coupling``), equal to the dense product to
    rounding.  C_N and the spectra are built here, once.
    """
    widths = [hi - lo for lo, hi in spans]
    wide = max((n for n in widths if n < _FFT_MIN_N), default=0)
    pattern = coupling_pattern(wide) if wide else None
    spectra = {n: _coupling_spectra(n) for n in widths if n >= _FFT_MIN_N}

    def drift(coeffs: np.ndarray, out: np.ndarray) -> np.ndarray:
        for n, (lo, hi) in zip(widths, spans):
            if n < _FFT_MIN_N:
                np.matmul(coeffs[:, None, lo:hi], pattern[:n, :n], out=out[:, None, lo:hi])
            else:
                out[:, lo:hi] = _fft_coupling(coeffs[:, lo:hi], *spectra[n])
        return out

    return drift


def _fft_coupling(coeffs: np.ndarray, length, toeplitz, hankel, signed_j, signs) -> np.ndarray:
    """C_n^T A for each row A of the (P, n) coefficients, in O(n log n) per row, from the
    n-mode ``_coupling_spectra``.

    With 2jk/(j^2-k^2) = j (1/(j-k) - 1/(j+k)) and z_j = (-1)^j j A_j,
    (C_n^T A)_k = (-1)^k [sum_{j!=k} z_j/(j-k) - sum_j z_j/(j+k)] + A_k/2, the last
    term putting the j = k summand back into the second sum.  The first sum is a
    Toeplitz, the second a Hankel product; both are convolutions that fit one circulant
    of length L >= 2n - 1, and the Hankel one convolves the reversed z, whose transform
    is conj(Z).  So the spectra add before a single inverse transform.  Weighting the
    input by j, not the output by k, keeps the rounding error of a decaying spectrum at
    about 1e-15 of the largest drift.
    """
    z = np.fft.rfft(coeffs * signed_j, length)
    conv = np.fft.irfft(z * toeplitz + z.conj() * hankel, length)[:, :coeffs.shape[-1]]
    return signs * conv + 0.5 * coeffs


def _coupling_spectra(n: int):
    """FFT length L, the spectra of the Toeplitz and the Hankel kernel (each with its sign)
    and the vectors (-1)^j j and (-1)^k of ``_fft_coupling`` at n modes.

    Row index i holds mode j = i + 1.  The Toeplitz sum is minus the circular
    convolution of z with 1/d at d = k - j (0 at d = 0); the Hankel sum is the
    convolution of the reversed z with 1/(s + 2) at s = j + k - 2.
    """
    length = _smooth_length(2 * n - 1)
    inverse = 1.0 / np.arange(1, 2 * n + 1, dtype=float)
    toeplitz = np.zeros(length)
    toeplitz[1:n] = inverse[: n - 1]
    toeplitz[length - n + 1:] = -inverse[: n - 1][::-1]
    hankel = np.zeros(length)
    hankel[: 2 * n - 1] = inverse[1:]
    signs = np.where(np.arange(1, n + 1) % 2, -1.0, 1.0)
    return (length, -np.fft.rfft(toeplitz), -np.fft.rfft(hankel),
            signs * np.arange(1, n + 1), signs)


def _smooth_length(target: int) -> int:
    """The least 5-smooth integer (2^a 3^b 5^c) >= target: a length pocketfft transforms
    with its radix-2, 3 and 5 passes."""
    length = target
    while True:
        rest = length
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return length
        length += 1


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
    """The n quadrature sums sum_i w_i u0(x_i) e_k(0, x_i) of the composite rule, by FFT.

    Panel p's node q is x = h (2p + 1 + xi_q), h = a0 / (2P), so k pi x / a0 =
    theta_k 2p + theta_k (1 + xi_q) with theta_k = k pi / (2P).  For each Gauss offset q
    the sum over panels is then one length-2P DFT, read at bin k mod 2P, and
    A_k = sqrt(2/a0) Im sum_q e^(i theta_k (1 + xi_q)) G_q(k): O(16 P log P + 16 n) work
    in place of the O(16 P n) sine table.
    """
    xs, ws = composite_gauss_nodes(a0, panels)
    weighted = (ws.ravel() * np.asarray(u0(xs.ravel()), dtype=float)).reshape(xs.shape)
    ks = np.arange(1, n + 1)
    sums = np.fft.ifft(weighted, 2 * panels, axis=0, norm="forward")[ks % (2 * panels)]
    offsets = 1.0 + _gauss_nodes(_PROJECTION_NODES)[0]
    phases = np.exp(1j * (np.pi / (2 * panels)) * np.multiply.outer(ks, offsets))
    return np.sqrt(2.0 / a0) * np.sum(phases * sums, axis=-1).imag


@lru_cache(maxsize=64)
def _gauss_nodes(n_nodes: int):
    return np.polynomial.legendre.leggauss(n_nodes)


def composite_gauss_nodes(a0: float, panels: int):
    """Nodes h (2p + 1 + xi_q) and weights h w_q, h = a0 / (2 panels), of the composite
    16-point Gauss-Legendre rule on [0, a0]: two (panels, 16) arrays, a row per panel."""
    base_x, base_w = _gauss_nodes(_PROJECTION_NODES)
    h = a0 / (2 * panels)
    xs = h * (2.0 * np.arange(panels)[:, None] + (1.0 + base_x))
    return xs, np.tile(h * base_w, (panels, 1))


def evaluate(state: CoefficientState, xs, domain: DomainMotion) -> np.ndarray:
    """Field values sum_k A_k e_k(t, x) at the given points."""
    return sine_series(state.coeffs, xs, domain.a_at(state.t))


def sine_series(coeffs: np.ndarray, xs, a) -> np.ndarray:
    """sum_k coeffs[k-1] sqrt(2/a) sin(k pi x / a) at the points ``xs`` of [0, a], k x / a
    reduced modulo 2 exactly (x split at 26 bits, k < 2^26, ``np.fmod`` by 2a) before pi."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ks = np.arange(1, coeffs.shape[0] + 1, dtype=float)[:, None]
    split = 134217729.0 * xs  # (2^27 + 1) x
    high = split - (split - xs)
    turns = np.fmod(ks * high, 2.0 * a) + np.fmod(ks * (xs - high), 2.0 * a)
    return coeffs @ (np.sqrt(2.0 / a) * np.sin(np.pi * (turns / a)))


def synthesize(coeffs: np.ndarray, a: np.ndarray, grid_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample the S fields of the (S, n) coefficient rows ``coeffs``, row s on the
    uniform inclusive grid over [0, a[s]]: the (S, grid_size) arrays (xs, values).

    On the grid x_i = i a / M, M = grid_size - 1, sin(k pi x_i / a) = sin(k pi i / M): it
    does not depend on a, and it is 2M-periodic and odd in k.  So coefficient k folds into
    bin k mod 2M, and from there, with its sign, into the bins 1 .. M - 1 (bins 0 and M
    vanish on the grid).  One sine table of those bins, built from the exact integer
    arguments k i mod 2M, serves every row, and row s is scaled by sqrt(2/a_s).  The
    endpoint values are exactly 0 (Dirichlet).
    """
    if grid_size < 2:
        raise ValueError(f"grid_size must be >= 2, got {grid_size}")
    xs = np.linspace(0.0, a, grid_size, axis=-1)
    rows, n = coeffs.shape
    m = grid_size - 1
    bins = np.zeros((rows, -(-(n + 1) // (2 * m)) * 2 * m))
    bins[:, 1:n + 1] = coeffs
    bins = bins.reshape(rows, -1, 2 * m).sum(axis=1)  # bin r: the sum over k = r mod 2M
    width = min(n, m - 1)
    folded = bins[:, 1:width + 1] - np.flip(bins, -1)[:, :width]  # bin b less bin 2M - b
    table = np.sin(np.pi / m * (np.outer(np.arange(1, width + 1), np.arange(1, m)) % (2 * m)))
    values = np.zeros(xs.shape)
    values[:, 1:-1] = np.sqrt(2.0 / a)[:, None] * (folded @ table)
    return xs, values


def h1_norm_sq(state: CoefficientState, domain: DomainMotion) -> float:
    """||u(t)||^2 in H^1_0(0, a_t): -sum_k lambda_k(t) A_k^2."""
    return float(np.dot(-eigenvalues(state.n, state.t, domain), state.coeffs**2))


def _check_mode(k: int) -> None:
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"mode index must be a positive integer, got {k!r}")
