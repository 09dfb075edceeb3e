import warnings

import numpy as np
import pytest

from movingheat import make_domain


def test_constant_family():
    d = make_domain("constant", {"a0": 1.0}, 1.0)
    for t in (0.0, 0.3, 1.0):
        assert d.a_at(t) == 1.0
        assert d.a_prime_at(t) == 0.0


def test_constant_a0_2():
    d = make_domain("constant", {"a0": 2.0}, 1.0)
    assert d.a_at(0.3) == 2.0


def test_linear_family():
    d = make_domain("linear", {"a0": 1.0, "slope": 0.25}, 0.5)
    assert d.a_at(0.4) == pytest.approx(1.1, abs=1e-15)
    assert d.a_prime_at(0.4) == 0.25
    d2 = make_domain("linear", {"a0": 1.0, "slope": 1.0}, 1.0)
    assert d2.a_at(0.5) == 1.5


def test_sinusoidal_family():
    d = make_domain("sinusoidal", {"a0": 1.0, "amp": 0.5, "omega": 1.0}, 1.0)
    assert d.a_at(0.0) == 1.0
    assert d.a_prime_at(0.0) == 0.5
    d2 = make_domain("sinusoidal", {"a0": 1.0, "amp": 0.25, "omega": 2.0}, 1.0)
    assert d2.a_at(np.pi / 4) == pytest.approx(1.25, abs=1e-15)


def test_exponential_family():
    d = make_domain("exponential", {"a0": 1.0, "slope": 0.2}, 1.0)
    assert d.a_at(0.5) == pytest.approx(np.exp(0.1), rel=1e-15)
    assert d.a_prime_at(0.5) == pytest.approx(0.2 * np.exp(0.1), rel=1e-15)


def test_table_family_linear_data():
    # a natural cubic spline through samples of a line reproduces the line,
    # so its derivative is flat to roundoff
    ts = np.linspace(0.0, 1.0, 51)
    d = make_domain("table", {"t": ts, "a": 1.0 + 0.1 * ts}, 1.0)
    for t in (0.13, 0.5, 0.87):
        assert d.a_prime_at(t) == pytest.approx(0.1, abs=1e-8)
        assert d.a_at(t) == pytest.approx(1.0 + 0.1 * t, abs=1e-12)


@pytest.mark.parametrize(
    "kind,params",
    [
        ("constant", {"a0": 1.0}),
        ("linear", {"a0": 1.0, "slope": 0.25}),
        ("sinusoidal", {"a0": 1.0, "amp": 0.5, "omega": 2.0}),
        ("exponential", {"a0": 1.0, "slope": -0.3}),
    ],
)
def test_derivative_matches_finite_difference(kind, params):
    d = make_domain(kind, params, 1.0)
    rng = np.random.default_rng(1)
    h = 1e-6
    for t in rng.uniform(2 * h, 1.0 - 2 * h, size=100):
        fd = (d.a_at(t + h) - d.a_at(t - h)) / (2 * h)
        ap = d.a_prime_at(t)
        assert abs(fd - ap) <= 1e-6 * max(1.0, abs(ap))


@pytest.mark.parametrize(
    "kind,params",
    [
        ("constant", {"a0": 2.0}),
        ("sinusoidal", {"a0": 1.0, "amp": 0.5, "omega": 3.0}),
        ("exponential", {"a0": 0.5, "slope": 0.4}),
    ],
)
def test_bounds_cover_sample(kind, params):
    d = make_domain(kind, params, 1.0)
    ts = np.linspace(0.0, 1.0, 1000)
    avals = np.asarray(d.a_at(ts))
    apvals = np.abs(np.asarray(d.a_prime_at(ts)))
    assert np.min(avals) >= d.delta0
    assert np.max(avals) <= d.big_l
    assert np.max(apvals) <= d.big_l


def test_rejects_domain_touching_zero():
    with pytest.raises(ValueError, match="not admissible"):
        make_domain("sinusoidal", {"a0": 1.0, "amp": 1.5, "omega": 1.0}, 6.3)
    with pytest.raises(ValueError, match="not admissible"):
        make_domain("linear", {"a0": 1.0, "slope": -2.0}, 1.0)


def test_rejects_bad_params():
    with pytest.raises(ValueError):
        make_domain("constant", {"a0": 1.0, "slope": 2.0}, 1.0)
    with pytest.raises(ValueError):
        make_domain("nosuch", {"a0": 1.0}, 1.0)
    with pytest.raises(ValueError):
        make_domain("constant", {"a0": 1.0}, -1.0)


def test_time_outside_horizon_rejected():
    d = make_domain("constant", {"a0": 1.0}, 1.0)
    with pytest.raises(ValueError, match="outside"):
        d.a_at(1.5)
    with pytest.raises(ValueError, match="outside"):
        d.a_prime_at(-0.2)
    # sub-ulp overshoot from a floating time grid is tolerated
    assert d.a_at(1.0 + 1e-12) == 1.0


@pytest.mark.parametrize("kind,params", [
    ("exponential", {"a0": 1.0, "slope": 1000.0}),
    ("linear", {"a0": 1e308, "slope": 1e308}),
    ("sinusoidal", {"a0": 10.0, "amp": 5.0, "omega": 1e308}),
])
def test_non_finite_samples_are_rejected(kind, params):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite"):
            make_domain(kind, params, 1.0)
