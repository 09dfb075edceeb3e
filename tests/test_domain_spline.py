"""Property test of the table family's natural cubic spline against scipy's."""

import pickle

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from scipy.interpolate import CubicSpline  # noqa: E402

from movingheat.domain import DomainMotion, _natural_spline  # noqa: E402


@st.composite
def knot_tables(draw):
    """4-64 strictly increasing knots from 0 (gaps within a factor 100 of each other, on
    a drawn time scale) and values in [-10, 10]."""
    size = draw(st.integers(4, 64))
    scale = draw(st.floats(1e-3, 1e3))
    gaps = draw(st.lists(st.floats(0.01, 1.0), min_size=size - 1, max_size=size - 1))
    ts = np.concatenate(([0.0], np.cumsum(gaps) * scale))
    # + 0.0: a knot value -0.0 evaluates to +0.0 (c3 + x (...) at x = 0)
    values = st.floats(-10.0, 10.0).map(lambda v: v + 0.0)
    vals = np.array(draw(st.lists(values, min_size=size, max_size=size)))
    return ts, vals


@settings(max_examples=200, deadline=None)
@given(knot_tables())
def test_spline_matches_scipy_natural_cubic_spline(table):
    ts, vals = table
    # the spline alone: make_domain would also reject the tables that reach a <= 0
    motion = DomainMotion("table", {"t": ts, "a": vals}, float(ts[-1]), np.nan, np.nan,
                          _natural_spline(ts, vals))
    ref = CubicSpline(ts, vals, bc_type="natural")
    grid = np.concatenate((np.linspace(0.0, ts[-1], 2001), ts, [0.0, ts[-1]]))
    for nu, evaluate in enumerate((motion.a_at, motion.a_prime_at)):
        want = ref(grid, nu)
        got = evaluate(grid)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert motion.a_at(ts).tobytes() == vals.tobytes()  # every knot value, bitwise
    copy = pickle.loads(pickle.dumps(motion))
    for original, restored in ((motion.a_at, copy.a_at), (motion.a_prime_at, copy.a_prime_at)):
        assert restored(grid).tobytes() == original(grid).tobytes()
