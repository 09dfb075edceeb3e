import numpy as np
import pytest

from movingheat import (
    CoefficientState,
    SimulationConfig,
    coupling,
    coupling_matrix,
    eigenvalues,
    h1_norm_sq,
    project_initial,
    simulate,
    synthesize,
    zero_model,
)
from movingheat.basis import evaluate, sine_modes

from conftest import gauss_quad, lone_drift

def sine_mode(k, a, x):
    # reimplemented here so quadrature oracles do not lean on the package
    return np.sqrt(2.0 / a) * np.sin(k * np.pi * x / a)


def a_sin(t):
    # boundary formula of the sin_domain fixture, restated locally
    return 1.0 + 0.5 * np.sin(t)


def mode_time_derivative(k, t, x, h=1e-6):
    """d/dt of the normalized sine mode by central differences on the raw
    formula (no domain guard, so x slightly outside (0, a(t +/- h)) is fine)."""
    return (sine_mode(k, a_sin(t + h), x) - sine_mode(k, a_sin(t - h), x)) / (2 * h)


class TestEigenpairs:
    def test_eigenvalue_examples(self, unit_domain):
        from movingheat import make_domain

        d_pi = make_domain("constant", {"a0": np.pi}, 1.0)
        assert eigenvalues(1, 0.0, d_pi)[0] == pytest.approx(-1.0, rel=1e-15)
        d_2 = make_domain("constant", {"a0": 2.0}, 1.0)
        assert eigenvalues(2, 0.0, d_2)[1] == pytest.approx(-np.pi**2, rel=1e-15)
        assert eigenvalues(3, 0.0, unit_domain)[2] == pytest.approx(-9 * np.pi**2, rel=1e-15)

    def test_eigenvalues_negative_decreasing(self, sin_domain):
        lam = eigenvalues(12, 0.3, sin_domain)
        assert np.all(lam < 0)
        assert np.all(np.diff(lam) < 0)

    def test_invalid_mode_index(self, unit_domain):
        with pytest.raises(ValueError):
            eigenvalues(0, 0.0, unit_domain)
        with pytest.raises(ValueError):
            eigenvalues(-3, 0.0, unit_domain)

    def test_eigenfunction_boundary_and_value(self):
        # the normalized mode sqrt(2/a) sin(k pi x / a) on (0, 2)
        assert sine_modes(5, 0.0, 2.0) == 0.0
        assert sine_modes(1, 1.0, 2.0) == pytest.approx(1.0, rel=1e-15)
        assert sine_modes(1, 1.0, 2.0, 3.0) == pytest.approx(3.0, rel=1e-15)

    def test_orthonormality_by_quadrature(self, sin_domain):
        rng = np.random.default_rng(7)
        for t in rng.uniform(0.0, 1.0, size=5):
            a = sin_domain.a_at(t)
            for j in range(1, 33, 7):
                for k in range(1, 33, 5):
                    val = gauss_quad(
                        lambda x: sine_mode(j, a, x) * sine_mode(k, a, x),
                        0.0,
                        a,
                        4 * (j + k) + 16,
                    )
                    expected = 1.0 if j == k else 0.0
                    assert abs(val - expected) <= 1e-10
                    # the package's sine mode agrees with the raw formula
                    xs = np.linspace(0, a, 5)
                    assert np.allclose(sine_modes(k, xs, a), sine_mode(k, a, xs), atol=1e-14)


class TestCoupling:
    def test_diagonal_is_zero(self, sin_domain):
        for k in (1, 5, 17):
            assert coupling(k, k, 0.3, sin_domain) == 0.0

    def test_static_domain_vanishes(self, unit_domain):
        for j, k in [(1, 2), (3, 7)]:
            assert coupling(j, k, 0.5, unit_domain) == 0.0

    def test_closed_form_example(self, lin_domain):
        # a = 1, a' = 1 at t = 0
        assert coupling(1, 2, 0.0, lin_domain) == pytest.approx(4.0 / 3.0, rel=1e-15)
        assert coupling(2, 1, 0.0, lin_domain) == pytest.approx(-4.0 / 3.0, rel=1e-15)

    def test_skew_symmetry_bitwise(self, sin_domain):
        for j in range(1, 65, 9):
            for k in range(1, 65, 7):
                assert coupling(j, k, 0.7, sin_domain) + coupling(k, j, 0.7, sin_domain) == 0.0
        b = coupling_matrix(64, 0.7, sin_domain)
        assert np.all(b + b.T == 0.0)

    def test_matrix_matches_scalar(self, sin_domain):
        b = coupling_matrix(12, 0.3, sin_domain)
        for j in range(1, 13):
            for k in range(1, 13):
                assert b[j - 1, k - 1] == coupling(j, k, 0.3, sin_domain)

    def test_quadrature_oracle_moderate_modes(self, sin_domain):
        # full 64x64 sweep lives in the acceptance suite; spot-check here
        for t in (0.0, 0.3, 0.7):
            a = sin_domain.a_at(t)
            for j in range(1, 13, 3):
                for k in range(1, 13, 2):
                    if j == k:
                        continue
                    val = gauss_quad(
                        lambda x: sine_mode(j, a, x) * mode_time_derivative(k, t, x),
                        0.0,
                        a,
                        4 * (j + k) + 16,
                    )
                    assert abs(coupling(j, k, t, sin_domain) - val) <= 1e-6

    def test_row_tail_decay(self, sin_domain):
        # sum over j of b_jk^2 is dominated by its first couple thousand terms
        t = 0.3
        ratio = sin_domain.a_prime_at(t) / sin_domain.a_at(t)
        for k in range(1, 9):
            js = np.arange(1, 4097, dtype=float)
            js_k = js[js != k]
            terms = (ratio * 2.0 * js_k * k / (js_k**2 - k**2)) ** 2
            total = float(np.sum(terms))
            partial = float(np.sum(terms[js_k <= 2048]))
            assert np.isfinite(total)
            assert total <= partial * 1.05


class TestProjection:
    def test_project_pure_modes(self, unit_domain):
        e1 = lambda x: np.sqrt(2.0) * np.sin(np.pi * x)
        st = project_initial(e1, 8, unit_domain)
        assert abs(st.coeffs[0] - 1.0) <= 1e-10
        assert np.max(np.abs(st.coeffs[1:])) <= 1e-10

        e3x2 = lambda x: 2.0 * np.sqrt(2.0) * np.sin(3 * np.pi * x)
        st = project_initial(e3x2, 8, unit_domain)
        assert abs(st.coeffs[2] - 2.0) <= 1e-10
        others = np.delete(st.coeffs, 2)
        assert np.max(np.abs(others)) <= 1e-10

    def test_project_parabola_analytic(self, unit_domain):
        # (x(1-x), e_k) = 2 sqrt(2) (1 - (-1)^k) / (k pi)^3, checked against
        # an independent quadrature below
        st = project_initial(lambda x: x * (1.0 - x), 12, unit_domain)
        for k in range(1, 13):
            analytic = 2.0 * np.sqrt(2.0) * (1 - (-1) ** k) / (k * np.pi) ** 3
            assert abs(st.coeffs[k - 1] - analytic) <= 1e-12
            quad = gauss_quad(
                lambda x: x * (1.0 - x) * sine_mode(k, 1.0, x), 0.0, 1.0, 4 * k + 32
            )
            assert abs(analytic - quad) <= 1e-13
        assert st.coeffs[0] == pytest.approx(0.1824422296110943, abs=1e-12)

    def test_unresolvable_integrand_raises(self, unit_domain):
        from movingheat import NumericalError

        wild = lambda x: np.sin(4001.3 * np.pi * x**1.01)
        with pytest.raises(NumericalError, match="did not converge"):
            project_initial(wild, 4, unit_domain)

    def test_round_trip(self, sin_domain):
        rng = np.random.default_rng(3)
        coeffs = rng.normal(size=32) / np.arange(1, 33)
        state = CoefficientState(0.0, coeffs)
        recovered = project_initial(
            lambda x: evaluate(state, x, sin_domain), 32, sin_domain
        )
        assert np.max(np.abs(recovered.coeffs - coeffs)) <= 1e-8


class TestSynthesisAndNorms:
    def test_zero_coefficients(self, sin_domain):
        xs, values = synthesize(np.zeros((1, 6)), sin_domain.a_at(np.array([0.4])), 33)
        assert np.all(values == 0.0)

    def test_single_mode_value(self):
        xs, values = synthesize(np.array([[1.0, 0.0, 0.0]]), np.array([2.0]), 5)
        assert xs[0].tolist() == [0.0, 0.5, 1.0, 1.5, 2.0]
        assert values[0, 2] == pytest.approx(1.0, rel=1e-15)

    def test_grid_of_one_point_rejected(self, sin_domain):
        with pytest.raises(ValueError, match=r"^grid_size must be >= 2, got 1$"):
            synthesize(np.ones((1, 3)), sin_domain.a_at(np.array([0.4])), 1)

    def test_endpoints_exactly_zero(self, sin_domain):
        rng = np.random.default_rng(5)
        xs, values = synthesize(rng.normal(size=(1, 16)), sin_domain.a_at(np.array([0.7])), 65)
        assert values[0, 0] == 0.0
        assert values[0, -1] == 0.0
        assert xs[0, 0] == 0.0
        assert xs[0, -1] == pytest.approx(sin_domain.a_at(0.7), rel=1e-15)

    def test_norm_examples(self, sin_domain):
        state = CoefficientState(0.2, np.array([1.0, 0.0]))
        a = sin_domain.a_at(0.2)
        assert h1_norm_sq(state, sin_domain) == pytest.approx((np.pi / a) ** 2, rel=1e-14)
        # the stepper's saved |u|^2 is the Parseval sum of the coefficients
        cfg = SimulationConfig(domain=sin_domain, n=2, model=zero_model(2), dt=0.5, t_end=1.0)
        traj = simulate(cfg, CoefficientState(0.0, np.array([3.0, 4.0])))
        assert traj.l2_sq[0] == 25.0
        assert traj.l2_sq[1:].tolist() == [float(c @ c) for c in traj.coeffs[1:]]

    def test_parseval_against_quadrature(self, sin_domain):
        rng = np.random.default_rng(11)
        for trial in range(4):
            n = 32
            coeffs = rng.normal(size=n)
            t = rng.uniform(0, 1)
            state = CoefficientState(t, coeffs)
            a = sin_domain.a_at(t)
            quad = gauss_quad(
                lambda x: evaluate(state, x, sin_domain) ** 2, 0.0, a, 8 * n + 32
            )
            assert quad == pytest.approx(float(coeffs @ coeffs), rel=1e-8)

    def test_poincare_inequality(self, sin_domain):
        rng = np.random.default_rng(13)
        for _ in range(20):
            state = CoefficientState(rng.uniform(0, 1), rng.normal(size=10))
            lhs = h1_norm_sq(state, sin_domain)
            rhs = (np.pi / sin_domain.big_l) ** 2 * float(state.coeffs @ state.coeffs)
            assert lhs >= rhs * (1 - 1e-12)


# one domain per family at a time inside its horizon, with the sign of a' there
TABLE_DOMAINS = {
    "constant": (("constant", {"a0": 1.3}, 1.0), 0.4, 0),
    "linear": (("linear", {"a0": 1.0, "slope": 0.3}, 1.0), 0.4, 1),
    "exponential": (("exponential", {"a0": 1.0, "slope": -0.2}, 1.0), 0.4, -1),
    "table": (("table", {"t": np.linspace(0.0, 1.0, 6),
                         "a": 1.0 + 0.3 * np.sin(np.linspace(0.0, 4.0, 6))}, 1.0), 0.2, 1),
    "sinusoidal+": (("sinusoidal", {"a0": 1.0, "amp": 0.5, "omega": 1.0}, 3.0), 0.3, 1),
    "sinusoidal-": (("sinusoidal", {"a0": 1.0, "amp": 0.5, "omega": 1.0}, 3.0), 2.5, -1),
}


class TestModeTables:
    @pytest.fixture(params=list(TABLE_DOMAINS), scope="class")
    def case(self, request):
        from movingheat import make_domain

        args, t, sign = TABLE_DOMAINS[request.param]
        domain = make_domain(*args)
        assert np.sign(domain.a_prime_at(t)) == sign
        return domain, t, sign

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 64])
    def test_scalars_are_the_table_entries(self, case, n):
        domain, t, _ = case
        b = coupling_matrix(n, t, domain)
        lam = eigenvalues(n, t, domain)
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                assert np.float64(coupling(j, k, t, domain)).tobytes() == b[j - 1, k - 1].tobytes()
            # the first j eigenvalues of an n-mode table are its first j entries
            assert eigenvalues(j, t, domain).tobytes() == lam[:j].tobytes()

    @pytest.mark.parametrize("j, k", [(1024, 1023), (1023, 1024), (1, 1024), (1024, 1024)])
    def test_far_scalars_are_the_table_entries(self, case, j, k):
        # the closed form builds no table: it must still give the table's bits far out
        domain, t, _ = case
        b = coupling_matrix(1024, t, domain)
        assert np.float64(coupling(j, k, t, domain)).tobytes() == b[j - 1, k - 1].tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 64])
    def test_skew_with_positive_zero_diagonal(self, case, n):
        domain, t, sign = case
        b = coupling_matrix(n, t, domain)
        assert np.all(b + b.T == 0.0)
        assert not np.any(np.signbit(np.diag(b)))
        if sign == 0:
            assert not np.any(np.signbit(b)) and np.all(b == 0.0)
        else:
            assert np.count_nonzero(b) == n * n - n

    def test_fresh_writable_arrays(self, case):
        domain, t, _ = case
        for table in (coupling_matrix, eigenvalues):
            first = table(16, t, domain)
            expected = first.copy()
            assert first.flags.writeable
            first[...] = 7.0
            second = table(16, t, domain)
            assert second is not first and second.tobytes() == expected.tobytes()

    def test_pattern_is_read_only(self):
        from movingheat.basis import coupling_pattern

        with pytest.raises(ValueError):
            coupling_pattern(8)[0] = 1.0

    @pytest.mark.parametrize("n", [319, 320])
    def test_pattern_is_built_afresh(self, n):
        # nothing is cached on either side of the FFT crossover: each call gives a new
        # read-only table with the same bits
        from movingheat.basis import coupling_pattern

        first = coupling_pattern(n)
        assert first is not coupling_pattern(n)
        assert first.tobytes() == coupling_pattern(n).tobytes() and not first.flags.writeable


class TestFlatCoupling:
    @pytest.mark.parametrize("n", [1, 2, 7, 64, 319])
    def test_dense_drift_is_the_pattern_product(self, n):
        # below the FFT crossover a row's drift is its product with C_n, or bitwise the
        # same with the leading block of the C_N of a wider level beside it
        from movingheat.basis import _FFT_MIN_N, coupling_pattern, flat_coupling

        coeffs = np.random.default_rng(n).normal(size=(3, n))
        want = np.matmul(coeffs[:, None], coupling_pattern(n))[:, 0]
        assert lone_drift(coeffs).tobytes() == want.tobytes()
        wide = _FFT_MIN_N - 1
        block = np.hstack([coeffs, np.ones((3, wide))])
        got = flat_coupling([(0, n), (n, n + wide)])(block, np.empty(block.shape))
        assert got[:, :n].tobytes() == want.tobytes()

    def test_levels_and_rows_get_their_lone_drift_across_the_crossover(self):
        # one block holding dense (16, 319) and FFT (320, 1000) levels: each level's drift
        # is bitwise its drift alone, and each row's its drift as a one-row block
        from movingheat.basis import flat_coupling

        widths = [16, 319, 320, 1000]
        bounds = np.cumsum([0] + widths).tolist()
        spans = list(zip(bounds, bounds[1:]))
        rng = np.random.default_rng(11)
        block = rng.normal(size=(5, bounds[-1])) * rng.uniform(0.5, 2.0, size=(5, 1))
        got = flat_coupling(spans)(block, np.empty(block.shape))
        for lo, hi in spans:
            level = np.ascontiguousarray(block[:, lo:hi])
            want = lone_drift(level)
            assert got[:, lo:hi].tobytes() == want.tobytes()
            for r in range(level.shape[0]):
                assert lone_drift(level[r:r + 1])[0].tobytes() == want[r].tobytes()
