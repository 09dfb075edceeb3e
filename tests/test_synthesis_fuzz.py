"""Property test of the batched field synthesis against a per-snapshot loop."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from movingheat.basis import sine_series, synthesize  # noqa: E402


@st.composite
def snapshots(draw):
    """S in [1, 50] coefficient rows of n in [1, 64] modes, each on its own a in
    [0.05, 20], and a grid of 2 to 200 points."""
    rows, n = draw(st.integers(1, 50)), draw(st.integers(1, 64))
    a = np.array(draw(st.lists(st.floats(0.05, 20.0), min_size=rows, max_size=rows)))
    coeffs = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=(rows, n))
    return coeffs, a, draw(st.integers(2, 200))


@settings(max_examples=200, deadline=None)
@given(snapshots())
def test_synthesize_matches_the_per_snapshot_loop_bitwise(snapshot):
    coeffs, a, grid_size = snapshot
    xs, values = synthesize(coeffs, a, grid_size)
    assert xs.shape == values.shape == (len(a), grid_size)
    for s, a_s in enumerate(a.tolist()):
        x = np.linspace(0.0, a_s, grid_size)
        u = sine_series(coeffs[s], x, a_s)
        u[0] = 0.0
        u[-1] = 0.0
        assert xs[s].tobytes() == x.tobytes()
        assert values[s].tobytes() == u.tobytes()
