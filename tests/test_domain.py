import pickle
import warnings

import numpy as np
import pytest

from movingheat import integrator, make_domain
from movingheat.cli import main


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


def test_nan_time_rejected():
    d = make_domain("constant", {"a0": 1.0}, 1.0)
    for t in (float("nan"), np.float64("nan")):
        with pytest.raises(ValueError, match="time nan outside"):
            d.a_at(t)
        with pytest.raises(ValueError, match="time nan outside"):
            d.a_prime_at(t)
    with pytest.raises(ValueError, match="time array outside"):
        d.a_at(np.array([0.0, np.nan]))
    with pytest.raises(ValueError, match="time array outside"):
        d.a_prime_at([0.0, np.nan])


FAMILY_CASES = [
    ("constant", {"a0": 1.3}),
    ("linear", {"a0": 1.0, "slope": -0.4}),
    ("sinusoidal", {"a0": 1.0, "amp": 0.5, "omega": 7.0}),
    ("exponential", {"a0": 0.8, "slope": 0.6}),
    ("table", {"t": np.linspace(0.0, 1.0, 9), "a": [1.0, 1.2, 0.9, 1.1, 1.3, 0.95, 1.0, 1.15,
                                                    1.05]}),
]


@pytest.mark.parametrize("kind,params", FAMILY_CASES, ids=[c[0] for c in FAMILY_CASES])
@pytest.mark.parametrize("dt,n_steps", [(1.0, 1), (1.0 / 3.0, 3), (1e-3, 1000), (1e-4, 5000)])
def test_array_evaluation_matches_scalar_bitwise(kind, params, dt, n_steps):
    # the solvers sample a and a' once, as arrays over the step times t_i = i dt and the
    # midpoints t_i + dt/2; the SIMD loops of np.sin and np.exp must give the scalar bits
    d = make_domain(kind, params, 1.0)
    times = np.arange(n_steps + 1) * dt
    mids = times[:-1] + 0.5 * dt
    for motion in (d.a_at, d.a_prime_at):
        scalar = np.array([motion(i * dt) for i in range(n_steps + 1)], dtype=float)
        assert np.asarray(motion(times), dtype=float).tobytes() == scalar.tobytes()
        scalar = np.array([motion((i - 1) * dt + 0.5 * dt) for i in range(1, n_steps + 1)],
                          dtype=float)
        assert np.asarray(motion(mids), dtype=float).tobytes() == scalar.tobytes()


@pytest.mark.parametrize("column,value", [("t", np.nan), ("t", np.inf), ("a", np.nan),
                                          ("a", -np.inf)])
def test_table_rejects_non_finite_knots(column, value):
    # a NaN knot passes both the ordering and the coverage test; it is rejected on its own
    params = {"t": np.linspace(0.0, 1.0, 6), "a": np.linspace(1.0, 1.5, 6)}
    params[column][3 if column == "a" else -1] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="table knots t and a must be finite"):
            make_domain("table", params, 1.0)


def test_table_hits_every_knot_value_exactly():
    ts = np.array([-0.1, 0.0, 0.3, 0.35, 0.8, 1.0])
    vals = np.array([1.0, 1.1, 0.7, 0.9, 1.3, 1.2])
    d = make_domain("table", {"t": ts, "a": vals}, 1.0)
    assert d.a_at(ts[1:]).tobytes() == vals[1:].tobytes()
    assert [d.a_at(t) for t in ts[1:]] == vals[1:].tolist()


def test_table_keeps_its_own_copy_of_the_knots():
    ts, vals = np.linspace(0.0, 1.0, 6), np.linspace(1.0, 1.5, 6)
    d = make_domain("table", {"t": ts, "a": vals}, 1.0)
    before = d.a_at(np.linspace(0.0, 1.0, 11))
    ts[2] += 0.05
    vals[:] = 2.0
    assert d.a_at(np.linspace(0.0, 1.0, 11)).tobytes() == before.tobytes()
    for key in ("t", "a"):
        with pytest.raises(ValueError, match="read-only"):
            d.params[key][1] = 0.5


FROZEN_CASES = [
    ("linear", {"a0": 1.0, "slope": 0.25}, "a0", 5.0),
    ("sinusoidal", {"a0": 1.0, "amp": 0.5, "omega": 3.0}, "amp", 0.0),
    ("table", {"t": np.linspace(0.0, 1.0, 6), "a": 1.0 + 0.3 * np.sin(np.linspace(0.0, 4.0, 6))},
     "a", np.ones(6)),
]


@pytest.mark.parametrize("kind,params,key,value", FROZEN_CASES, ids=[c[0] for c in FROZEN_CASES])
def test_params_are_frozen(kind, params, key, value):
    # delta0 and big_l were sampled from the parameters; a change would leave them stale
    d = make_domain(kind, params, 1.0)
    ts = np.linspace(0.0, 1.0, 101)
    before = d.a_at(ts)
    for change in (lambda p: p.__setitem__(key, value), lambda p: p.__delitem__(key),
                   lambda p: p.update({key: value}), lambda p: p.pop(key),
                   lambda p: p.clear()):
        with pytest.raises((TypeError, AttributeError)):
            change(d.params)
    with pytest.raises(AttributeError):
        d.params = dict(params)
    assert set(d.params) == set(params)
    assert d.a_at(ts).tobytes() == before.tobytes()


@pytest.mark.parametrize("kind,params,key,value", FROZEN_CASES, ids=[c[0] for c in FROZEN_CASES])
def test_pickle_round_trip_is_bitwise(kind, params, key, value):
    d = make_domain(kind, params, 1.0)
    back = pickle.loads(pickle.dumps(d))
    ts = np.linspace(0.0, 1.0, 257)
    assert back.a_at(ts).tobytes() == d.a_at(ts).tobytes()
    assert back.a_prime_at(ts).tobytes() == d.a_prime_at(ts).tobytes()
    assert (back.kind, back.horizon, back.delta0, back.big_l) == (d.kind, d.horizon, d.delta0,
                                                                 d.big_l)
    with pytest.raises(TypeError):
        back.params[key] = value


def test_ensemble_workers_bitwise_identical_on_a_moving_domain(tmp_path, monkeypatch):
    # two usable CPUs, whatever the host, so the blocks go to a pool of two processes
    # that receive the config, and with it the frozen domain, pickled
    monkeypatch.setattr(integrator.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[domain]\nkind = sinusoidal\na0 = 1.0\namp = 0.5\nomega = 3.0\nT = 0.2\n"
                   "[noise]\nkind = moving_diagonal\ngamma = 0.4\nbeta = 0.3\nm = 6\n"
                   "[sim]\nn = 6\ndt = 0.001\nt_end = 0.2\nseed = 4\nn_paths = 6\n"
                   "[output]\nsnapshot_stride = 25\n", encoding="utf-8")
    for workers in (1, 2):
        assert main(["ensemble", "--config", str(cfg), "--out", str(tmp_path / f"w{workers}"),
                     "--workers", str(workers)]) == 0
    for name in ("ensemble.csv", "moments.csv"):
        assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w2" / name).read_bytes()
