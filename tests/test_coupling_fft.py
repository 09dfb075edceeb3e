"""The coupling drift by FFT against the dense product with the coupling table."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from movingheat.basis import _FFT_MIN_N, _coupling_spectra, coupling_pattern  # noqa: E402

from conftest import lone_drift  # noqa: E402


def dense_drift(coeffs, ratio, block=256):
    """coeffs @ (ratio C_n), with C_n built from its closed form here, 256 columns at a
    time so that no (n, n) table is held."""
    n = coeffs.shape[-1]
    j = np.arange(1, n + 1, dtype=float)[:, None]
    out = np.empty(coeffs.shape)
    for lo in range(0, n, block):
        k = np.arange(lo + 1, min(n, lo + block) + 1, dtype=float)[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            c = np.where(j == k, 0.0, (-1.0) ** (j + k) * 2.0 * j * k / (j * j - k * k))
        out[:, lo:lo + block] = coeffs @ (ratio * c)
    return out


@settings(max_examples=25, deadline=None)
@given(st.integers(_FFT_MIN_N, 4096), st.integers(1, 4),
       st.floats(1e-6, 50.0), st.booleans(), st.floats(0.0, 3.0), st.integers(0, 2**32 - 1))
def test_fft_drift_matches_the_dense_product(n, rows, ratio, negative, decay, seed):
    # rows of normals scaled by j^-decay: white noise up to the smooth spectra of a
    # heat-equation state.  |a'/a| >= 1e-6 keeps the drift out of the subnormal range,
    # where neither product has relative precision left
    ratio = -ratio if negative else ratio
    coeffs = np.random.default_rng(seed).normal(size=(rows, n)) * np.arange(1, n + 1) ** -decay
    ref = dense_drift(coeffs, ratio)
    got = lone_drift(coeffs, ratio)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [_FFT_MIN_N, 1000, 1024])
def test_fft_rows_do_not_depend_on_the_block(n):
    # a row computed alone is bitwise the same row inside blocks of 3, 64 and 65 rows
    coeffs = np.random.default_rng(n).normal(size=(65, n))
    alone = [lone_drift(coeffs[r:r + 1], 0.37)[0] for r in range(65)]
    for rows in (3, 64, 65):
        block = lone_drift(coeffs[:rows], 0.37)
        for r in range(rows):
            assert block[r].tobytes() == alone[r].tobytes()


def test_static_domain_drift_is_zero_above_the_crossover():
    coeffs = np.random.default_rng(2).normal(size=(2, _FFT_MIN_N))
    drift = lone_drift(coeffs, 0.0)
    assert np.all(drift == 0.0) and not np.any(np.signbit(drift))


def test_circulant_pads_to_a_5_smooth_length():
    # the least 2^a 3^b 5^c >= 2n - 1, not the least power of two (2048 at n = 513)
    assert [_coupling_spectra(n)[0] for n in (320, 513, 1000, 1024)] == [640, 1080, 2000, 2048]


@pytest.mark.parametrize("n", [320, 513, 1000])
def test_fft_drift_matches_the_coupling_pattern_product(n):
    # at lengths 640, 1080 and 2000 the circulant product is the dense one to rounding
    coeffs = np.random.default_rng(n).normal(size=(3, n)) / np.arange(1, n + 1)
    ref = coeffs @ (0.37 * coupling_pattern(n))
    assert np.max(np.abs(lone_drift(coeffs, 0.37) - ref)) <= 1e-13 * np.max(np.abs(ref))
