"""Property tests of the two sine transforms of ``basis`` against dense sums: the initial
projection's panel FFT (``_project_composite``) and the field synthesis's fold onto one
sine table (``synthesize``); and of the dense sum ``sine_series`` itself against angles
reduced exactly."""

from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from movingheat import basis  # noqa: E402
from movingheat.basis import sine_modes, sine_series, synthesize  # noqa: E402

BLOCK = 256  # modes per block of a dense reference, so that no (n, nodes) table is held


@st.composite
def snapshots(draw):
    """S in [1, 20] coefficient rows of n in [1, 4096] modes, each on its own a in
    [0.05, 20], and a grid of 2 to 200 points, so that n > 2M is common.  The rows are
    normals scaled by k^-decay, decay in [1, 3]: the spectra of H^1 states."""
    rows, n = draw(st.integers(1, 20)), draw(st.integers(1, 4096))
    a = np.array(draw(st.lists(st.floats(0.05, 20.0), min_size=rows, max_size=rows)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coeffs = rng.normal(size=(rows, n)) * np.arange(1, n + 1) ** -draw(st.floats(1.0, 3.0))
    return coeffs, a, draw(st.integers(2, 200))


@settings(max_examples=60, deadline=None)
@given(snapshots())
def test_synthesize_matches_the_dense_sine_series(snapshot):
    # white coefficients would measure the grid's own rounding instead: the point
    # x_i = i a / M is rounded, and k pi / a magnifies that to about 1e-12 of the field at
    # n = 4096, where the fold's integer arguments k i mod 2M carry none
    coeffs, a, grid_size = snapshot
    xs, values = synthesize(coeffs, a, grid_size)
    assert xs.shape == values.shape == (len(a), grid_size)
    for s, a_s in enumerate(a.tolist()):
        x = np.linspace(0.0, a_s, grid_size)
        ref = sine_series(coeffs[s], x, a_s)
        assert xs[s].tobytes() == x.tobytes()
        assert values[s, 0] == 0.0 and values[s, -1] == 0.0
        gap = np.max(np.abs(values[s, 1:-1] - ref[1:-1]), initial=0.0)
        assert gap <= 1e-13 * max(np.max(np.abs(ref)), 1.0)


def reduced_sums(weighted, n):
    """The sums sum_pq g_pq sin(k pi x_pq / a0) of the (P, 16) weighted integrand g, from
    the angle k pi x / a0 = pi (k p mod 2P) / P + k pi (1 + xi_q) / (2P) with its first
    part reduced exactly: a dense O(n P) DFT."""
    panels = weighted.shape[0]
    offsets = 1.0 + np.polynomial.legendre.leggauss(16)[0]
    out = np.empty(n)
    for lo in range(0, n, BLOCK):
        ks = np.arange(lo + 1, min(n, lo + BLOCK) + 1)
        outer = np.pi / panels * (np.outer(ks, np.arange(panels)) % (2 * panels))
        inner = np.pi / (2 * panels) * np.multiply.outer(ks, offsets)
        out[lo:lo + BLOCK] = np.sum(np.cos(inner) * (np.sin(outer) @ weighted)
                                    + np.sin(inner) * (np.cos(outer) @ weighted), axis=-1)
    return out


def sine_mode_sums(xs, weighted, n, a0):
    """The composite sums sum_i w_i u0(x_i) e_k(0, x_i) from ``sine_modes`` at the nodes."""
    out = np.empty(n)
    for lo in range(0, n, BLOCK):
        ks = np.arange(lo + 1, min(n, lo + BLOCK) + 1, dtype=float)[:, None]
        out[lo:lo + BLOCK] = sine_modes(ks, xs.ravel()[None, :], a0) @ weighted.ravel()
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4096), st.floats(0.05, 20.0), st.integers(0, 1),
       st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4), st.integers(1, 8),
       st.floats(0.0, 20.0))
def test_projection_matches_the_dense_composite_sums(n, a0, doublings, c, j, f):
    # at the panel counts project_initial takes, P = max(8, ceil(n / 4)) and 2P, so bin
    # k mod 2P wraps for every n > 2P; a smooth u0 of a parabola, a mode, a cosine and a
    # constant.  The sine_modes sums carry the rounding of k pi x / a0, which reaches
    # 1e-13 of the sums at n = 4096, so they are the reference up to n = 1024 and the
    # exactly reduced DFT everywhere
    panels = max(8, -(-n // 4)) * 2**doublings

    def u0(x):
        return (c[0] * x * (a0 - x) / a0**2 + c[1] * np.sin(j * np.pi * x / a0)
                + c[2] * np.cos(f * x / a0) + c[3])

    got = basis._project_composite(u0, n, a0, panels)
    xs, ws = basis.composite_gauss_nodes(a0, panels)
    weighted = ws * u0(xs)
    refs = [np.sqrt(2.0 / a0) * reduced_sums(weighted, n)]
    if n <= 1024:
        refs.append(sine_mode_sums(xs, weighted, n, a0))
    for ref in refs:
        assert np.max(np.abs(got - ref)) <= 1e-13 * max(np.max(np.abs(ref)), 1.0)


def reduced_angles(n, xs, a):
    """The (n, points) table of k x / a mod 2, k = 1..n, reduced in exact rational
    arithmetic and rounded once."""
    out = np.empty((n, len(xs)))
    for i, x in enumerate(xs.tolist()):
        ratio = Fraction(x) / Fraction(a)
        num, den = ratio.numerator, ratio.denominator
        out[:, i] = [k * num % (2 * den) / den for k in range(1, n + 1)]
    return out


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4096), st.floats(0.05, 20.0), st.integers(0, 2**32 - 1),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
def test_sine_series_matches_exactly_reduced_angles(n, a, seed, fractions):
    # white coefficients, whose field sums every mode's rounding with the same weight.  The
    # scale sqrt(2/a) |A| is the field's root mean square times sqrt(2) (Parseval): the
    # reduced angles leave gaps up to 2e-15 of it, and with k pi x / a formed in floating
    # point the gap reached 2e-12 of it at n = 4096 (80 draws each)
    coeffs = np.random.default_rng(seed).normal(size=n)
    xs = np.array([0.0, a, *(a * f for f in fractions)])
    ref = coeffs @ (np.sqrt(2.0 / a) * np.sin(np.pi * reduced_angles(n, xs, a)))
    gap = np.max(np.abs(sine_series(coeffs, xs, a) - ref))
    assert gap <= 1e-14 * np.sqrt(2.0 / a) * np.linalg.norm(coeffs)
