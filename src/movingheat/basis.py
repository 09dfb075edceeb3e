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


@dataclass(frozen=True, eq=False)
class CoefficientState:
    """Time t plus the moving-basis coefficient vector (A_1, ..., A_n)."""

    t: float
    coeffs: np.ndarray

    @property
    def n(self) -> int:
        return self.coeffs.shape[0]


@dataclass(frozen=True, eq=False)
class FieldSnapshot:
    """Physical-space view of a coefficient state on a uniform grid."""

    t: float
    xs: np.ndarray
    values: np.ndarray


def eigenvalue(k: int, t: float, domain: DomainMotion) -> float:
    """k-th Dirichlet eigenvalue -(k pi / a_t)^2; strictly negative."""
    _check_mode(k)
    a = domain.a_at(t)
    return -((k * np.pi / a) ** 2)


def eigenvalues(n: int, t: float, domain: DomainMotion) -> np.ndarray:
    """Vector of the first n eigenvalues at time t."""
    _check_mode(n)
    a = domain.a_at(t)
    ks = np.arange(1, n + 1, dtype=float)
    return -((ks * np.pi / a) ** 2)


def eigenfunction(k: int, t: float, x, domain: DomainMotion):
    """Normalized sine mode sqrt(2/a_t) sin(k pi x / a_t); vanishes at 0 and a_t."""
    _check_mode(k)
    a = domain.a_at(t)
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0) or np.any(x > a * (1 + 1e-12)):
        raise ValueError(f"x outside [0, {a}] at t={t}")
    return sine_modes(k, x, a)


def sine_modes(ks, x, a, scale=1.0):
    """scale sqrt(2/a) sin(k pi x / a), broadcast over mode indices ks and points x."""
    return scale * np.sqrt(2.0 / a) * np.sin(ks * np.pi * x / a)


def coupling(j: int, k: int, t: float, domain: DomainMotion) -> float:
    """Mode-coupling coefficient b_jk(t) = integral of e_j d/dt e_k over (0, a_t).

    Closed form: (-1)^(j+k) (a'_t/a_t) 2jk/(j^2-k^2) off the diagonal, 0 on it.
    Computed once for j < k and negated for j > k, so b_jk == -b_kj bitwise.
    """
    _check_mode(j)
    _check_mode(k)
    if j == k:
        return 0.0
    if j > k:
        return -_coupling_upper(k, j, t, domain)
    return _coupling_upper(j, k, t, domain)


def _coupling_upper(j: int, k: int, t: float, domain: DomainMotion) -> float:
    ratio = domain.a_prime_at(t) / domain.a_at(t)
    sign = -1.0 if (j + k) % 2 else 1.0
    return sign * ratio * (2.0 * j * k / (j * j - k * k))


def coupling_matrix(n: int, t: float, domain: DomainMotion) -> np.ndarray:
    """Dense (n, n) matrix with entry [j-1, k-1] = b_jk(t).

    Exactly skew-symmetric: the strict upper triangle (j < k) is computed
    from the closed form and mirrored with a sign flip.
    """
    _check_mode(n)
    b = np.zeros((n, n))
    ratio = domain.a_prime_at(t) / domain.a_at(t)
    if ratio == 0.0 or n == 1:
        return b
    jj, kk = np.triu_indices(n, 1)
    j = (jj + 1).astype(float)
    k = (kk + 1).astype(float)
    sign = np.where((jj + kk) % 2, -1.0, 1.0)  # (-1)^(j+k) with j+k = jj+kk+2
    upper = sign * ratio * (2.0 * j * k / (j * j - k * k))
    b[jj, kk] = upper
    b[kk, jj] = -upper
    return b


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
        scale = max(float(np.max(np.abs(cur))), 1e-300)
        if float(np.max(np.abs(cur - prev))) <= PROJECTION_RTOL * max(scale, 1.0):
            return CoefficientState(0.0, cur)
        prev = cur
    raise NumericalError(
        f"initial projection did not converge to rtol={PROJECTION_RTOL} "
        f"after {_PROJECTION_MAX_DOUBLINGS} panel doublings ({panels} panels)"
    )


def _project_composite(u0, n: int, a0: float, panels: int) -> np.ndarray:
    xs, ws = composite_gauss_nodes(0.0, a0, panels, _PROJECTION_NODES)
    fx = np.asarray(u0(xs), dtype=float)
    ks = np.arange(1, n + 1, dtype=float)[:, None]
    return sine_modes(ks, xs[None, :], a0) @ (ws * fx)


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
    a = domain.a_at(state.t)
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ks = np.arange(1, state.n + 1, dtype=float)[:, None]
    return state.coeffs @ sine_modes(ks, xs[None, :], a)


def synthesize(state: CoefficientState, grid_size: int, domain: DomainMotion) -> FieldSnapshot:
    """Sample the field on a uniform inclusive grid over [0, a_t].

    Endpoint values are pinned to exactly 0 (Dirichlet); sin(k pi) would
    otherwise leave O(eps) dust at x = a_t.
    """
    if grid_size < 2:
        raise ValueError(f"grid_size must be >= 2, got {grid_size}")
    a = domain.a_at(state.t)
    xs = np.linspace(0.0, a, grid_size)
    values = evaluate(state, xs, domain)
    values[0] = 0.0
    values[-1] = 0.0
    return FieldSnapshot(state.t, xs, values)


def l2_norm_sq(state: CoefficientState) -> float:
    """|u(t)|^2 in L^2(0, a_t) via Parseval: sum of squared coefficients."""
    return float(np.dot(state.coeffs, state.coeffs))


def h1_norm_sq(state: CoefficientState, domain: DomainMotion) -> float:
    """||u(t)||^2 in H^1_0(0, a_t): -sum_k lambda_k(t) A_k^2."""
    lam = eigenvalues(state.n, state.t, domain)
    return float(np.dot(-lam, state.coeffs**2))


def _check_mode(k: int) -> None:
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"mode index must be a positive integer, got {k!r}")
