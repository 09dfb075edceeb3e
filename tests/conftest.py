import numpy as np
import pytest

from movingheat import make_domain, noise
from movingheat.basis import flat_coupling
from movingheat.domain import DomainMotion


@pytest.fixture(scope="session")
def unit_domain():
    return make_domain("constant", {"a0": 1.0}, 1.0)


@pytest.fixture(scope="session")
def sin_domain():
    # the standard moving test domain: a(t) = 1 + 0.5 sin t
    return make_domain("sinusoidal", {"a0": 1.0, "amp": 0.5, "omega": 1.0}, 1.0)


@pytest.fixture(scope="session")
def lin_domain():
    return make_domain("linear", {"a0": 1.0, "slope": 1.0}, 1.0)


@pytest.fixture(params=[1, None], ids=["budget=1", "budget=default"])
def draw_budget(request, monkeypatch):
    """Steps in chunks of one step (``noise.DRAW_BUDGET`` = 1 word) and at the default
    budget; a test parametrizes ``draw_budget`` indirectly for other budgets."""
    if request.param is not None:
        monkeypatch.setattr(noise, "DRAW_BUDGET", request.param)


@pytest.fixture
def boundary_calls(monkeypatch):
    """Counts, by method name, of the DomainMotion.a_at and a_prime_at calls made while
    the test runs; a test resets them with ``update``."""
    counts = {"a_at": 0, "a_prime_at": 0}
    for name in counts:
        method = getattr(DomainMotion, name)

        def counted(self, t, _method=method, _name=name):
            counts[_name] += 1
            return _method(self, t)

        monkeypatch.setattr(DomainMotion, name, counted)
    return counts


def gauss_quad(f, lo, hi, n_nodes):
    """Plain Gauss-Legendre quadrature, written here so the tests do not
    share integration code with the package."""
    xs, ws = np.polynomial.legendre.leggauss(n_nodes)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    return half * np.sum(ws * f(mid + half * xs))


def lone_drift(coeffs):
    """The unscaled coupling drift C_n^T A of the (P, n) coefficients as the only level of
    a block."""
    return flat_coupling([(0, coeffs.shape[-1])])(coeffs, np.empty(coeffs.shape))
