import numpy as np
import pytest

from movingheat import (
    CoefficientState,
    NoiseStream,
    check_assumptions,
    draw_increment,
    general_matrix,
    hs_norm_sq,
    moving_diagonal,
    noise_kick,
    sigma_coeff,
    zero_model,
)


def state_of(*coeffs, t=0.0):
    return CoefficientState(t, np.array(coeffs, dtype=float))


class TestSigmaCoeff:
    def test_zero_model(self):
        model = zero_model(m=4)
        st = state_of(1.0, 2.0, 3.0, 4.0)
        assert all(
            sigma_coeff(model, j, k, st) == 0.0 for j in range(1, 5) for k in range(1, 5)
        )

    def test_additive_diagonal(self):
        model = moving_diagonal(gamma=0.3, beta=0.0, decay_p=1.0, m=4)
        st = state_of(0.0, 0.0, 0.0, 0.0)
        assert sigma_coeff(model, 2, 2, st) == pytest.approx(0.15, rel=1e-15)

    def test_multiplicative_diagonal(self):
        model = moving_diagonal(gamma=0.0, beta=0.5, decay_p=1.0, m=4)
        st = state_of(0.0, 0.0, 2.0, 0.0)
        assert sigma_coeff(model, 3, 3, st) == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert sigma_coeff(model, 3, 1, st) == 0.0

    def test_index_validation(self):
        model = moving_diagonal(gamma=0.1, beta=0.0, m=2)
        st = state_of(1.0, 1.0)
        with pytest.raises(ValueError):
            sigma_coeff(model, 3, 1, st)
        with pytest.raises(ValueError):
            sigma_coeff(model, 1, 5, st)


class TestHsNorm:
    def test_zero(self):
        assert hs_norm_sq(zero_model(3), state_of(1.0, 1.0, 1.0).coeffs) == 0.0

    def test_additive_sum_of_weights(self):
        model = moving_diagonal(gamma=1.0, beta=0.0, decay_p=1.0, m=3)
        val = hs_norm_sq(model, state_of(0.0, 0.0, 0.0).coeffs)
        assert val == pytest.approx(1.0 + 0.25 + 1.0 / 9.0, rel=1e-14)

    def test_mixed(self):
        model = moving_diagonal(gamma=0.5, beta=0.5, decay_p=1.0, m=2)
        assert hs_norm_sq(model, state_of(1.0, 1.0).coeffs) == pytest.approx(1.25, rel=1e-14)


class TestNoiseKick:
    def test_zero_model(self):
        kick = noise_kick(zero_model(3), state_of(1.0, 2.0).coeffs, np.array([0.3, -0.2, 0.5]))
        assert np.all(kick == 0.0)
        assert kick.shape == (2,)

    def test_diagonal_rule(self):
        model = moving_diagonal(gamma=0.2, beta=0.5, decay_p=1.0, m=3)
        st = state_of(1.0, -1.0, 2.0)
        db = np.array([0.1, 0.2, -0.1])
        kick = noise_kick(model, st.coeffs, db)
        q = np.array([1.0, 0.5, 1.0 / 3.0])
        expected = q * (0.2 + 0.5 * st.coeffs) * db
        assert np.allclose(kick, expected, rtol=1e-14)

    def test_general_matrix_example(self):
        model = general_matrix([[1.0, 0.0], [0.0, 2.0]], lipschitz_k=3.0)
        kick = noise_kick(model, state_of(0.0, 0.0).coeffs, np.array([0.1, -0.2]))
        assert kick == pytest.approx([0.1, -0.4], rel=1e-15)

    def test_length_mismatch(self):
        model = moving_diagonal(gamma=0.2, beta=0.0, m=3)
        with pytest.raises(ValueError):
            noise_kick(model, state_of(1.0).coeffs, np.array([0.1, 0.2]))

    @pytest.mark.parametrize("bad", [[[1.0, np.nan]], [[np.inf]], np.zeros((0, 2))])
    def test_general_matrix_rejects_non_finite_or_empty_tables(self, bad):
        with pytest.raises(ValueError, match="nonempty, finite"):
            general_matrix(bad, lipschitz_k=10.0)

    def test_general_matrix_rejects_small_k(self):
        with pytest.raises(ValueError, match="lipschitz_k"):
            general_matrix([[1.0, 0.0], [0.0, 2.0]], lipschitz_k=1.0)


class TestIncrements:
    def test_statistics(self):
        dt = 2e-3
        stream = NoiseStream(seed=123)
        draws = np.concatenate([draw_increment(stream, 1000, dt) for _ in range(100)])
        assert draws.shape == (100000,)
        assert abs(np.mean(draws)) <= 4 * np.sqrt(dt / 1e5)
        assert np.var(draws) == pytest.approx(dt, rel=0.05)

    def test_bitwise_determinism(self):
        a = draw_increment(NoiseStream(9, 4, 17), 8, 1e-3)
        b = draw_increment(NoiseStream(9, 4, 17), 8, 1e-3)
        assert np.array_equal(a, b)

    def test_distinct_keys_differ(self):
        base = draw_increment(NoiseStream(9, 4, 17), 8, 1e-3)
        assert not np.array_equal(base, draw_increment(NoiseStream(9, 4, 18), 8, 1e-3))
        assert not np.array_equal(base, draw_increment(NoiseStream(9, 5, 17), 8, 1e-3))
        assert not np.array_equal(base, draw_increment(NoiseStream(10, 4, 17), 8, 1e-3))

    def test_stream_advances(self):
        stream = NoiseStream(1)
        first = draw_increment(stream, 4, 1e-3)
        second = draw_increment(stream, 4, 1e-3)
        assert stream.step_index == 2
        assert not np.array_equal(first, second)

    def test_key_layout(self):
        # key = (seed, path << 32 | step): the increments of every valid run stay the same
        rng = np.random.Generator(np.random.Philox(key=[9, (4 << 32) | 17]))
        expected = rng.standard_normal(8) * np.sqrt(1e-3)
        assert draw_increment(NoiseStream(9, 4, 17), 8, 1e-3).tobytes() == expected.tobytes()

    def test_path_index_beyond_32_bits_is_rejected(self):
        # path 2^32 would replay path 0's increments
        NoiseStream(1, path_index=2**32 - 1)
        with pytest.raises(ValueError, match="path_index"):
            NoiseStream(1, path_index=2**32)

    def test_step_index_beyond_32_bits_is_rejected(self):
        stream = NoiseStream(1, step_index=2**32 - 1)
        draw_increment(stream, 2, 1e-3)
        with pytest.raises(ValueError, match="step_index"):
            draw_increment(stream, 2, 1e-3)
        with pytest.raises(ValueError, match="step_index"):
            NoiseStream(1, step_index=2**32)

    def test_dt_validation(self):
        with pytest.raises(ValueError):
            draw_increment(NoiseStream(1), 4, 0.0)


SHIPPED_MODELS = [
    zero_model(8),
    moving_diagonal(gamma=0.3, beta=0.0, decay_p=1.0, m=8),
    moving_diagonal(gamma=0.5, beta=0.5, decay_p=1.0, m=8),
    moving_diagonal(gamma=1.0, beta=0.25, decay_p=1.5, m=8),
    general_matrix(np.diag([1.0, 0.5, 0.25]), lipschitz_k=1.2),
]


@pytest.mark.parametrize("model", SHIPPED_MODELS, ids=lambda m: f"{m.kind}-{m.m}")
def test_lipschitz_and_growth_bounds(model):
    n = 8 if model.kind != "general_matrix" else 3
    report = check_assumptions(model, n=n, n_pairs=200, seed=2)
    assert report["lipschitz_ratio"] <= 1.0 + 1e-9
    assert report["growth_ratio"] <= 1.0 + 1e-9


def test_moving_diagonal_offdiagonal_exactly_zero():
    model = moving_diagonal(gamma=0.7, beta=0.3, decay_p=1.0, m=6)
    st = state_of(*np.random.default_rng(0).normal(size=6))
    for j in range(1, 7):
        for k in range(1, 7):
            if j != k:
                assert sigma_coeff(model, j, k, st) == 0.0


def test_decay_p_validation():
    with pytest.raises(ValueError, match="decay_p"):
        moving_diagonal(gamma=0.1, beta=0.0, decay_p=0.5, m=4)


def test_max_offdiagonal_is_measured_for_a_table():
    model = general_matrix([[1.0, 0.3], [0.0, 0.5]], lipschitz_k=1.2)
    assert check_assumptions(model, n=2, n_pairs=5)["max_offdiagonal"] == 0.3
    for diagonal in (zero_model(4), moving_diagonal(gamma=0.7, beta=0.3, decay_p=1.0, m=6)):
        assert check_assumptions(diagonal, n=5, n_pairs=5)["max_offdiagonal"] == 0.0


@pytest.mark.parametrize("m,n,gamma", [(6, 4, 0.4), (4, 6, 0.4), (5, 5, 0.0)])
def test_moving_diagonal_bits_match_the_raw_formula(m, n, gamma):
    # kick and HS norm are part of the bitwise contract of saved runs; with gamma = 0
    # and A_1 = 0 the first kick entry is -0.0, which must survive
    beta, p = 0.7, 1.5
    model = moving_diagonal(gamma=gamma, beta=beta, decay_p=p, m=m)
    rng = np.random.default_rng(3)
    st = CoefficientState(0.0, np.r_[0.0, rng.normal(size=n - 1)])
    db = np.r_[-0.2, rng.normal(size=m - 1)]
    d = min(m, n)
    q = np.arange(1, d + 1, dtype=float) ** (-p)
    kick = np.zeros(n)
    kick[:d] = q * (gamma + beta * st.coeffs[:d]) * db[:d]
    assert noise_kick(model, st.coeffs, db).tobytes() == kick.tobytes()
    assert hs_norm_sq(model, st.coeffs) == float(np.sum((q * (gamma + beta * st.coeffs[:d])) ** 2))


def test_general_matrix_bits_match_the_raw_formula():
    table = np.random.default_rng(4).normal(size=(4, 3))
    table[:, 1] = 0.0
    model = general_matrix(table, lipschitz_k=10.0)
    st = state_of(0.3, -1.0, 2.0, 0.5)  # n = 4 > 3 table columns
    db = np.array([-0.1, -0.2, -0.05, -0.3])
    kick = np.zeros(4)
    kick[:3] = table.T @ db
    assert noise_kick(model, st.coeffs, db).tobytes() == kick.tobytes()
    assert hs_norm_sq(model, st.coeffs) == float(np.sum(table**2))
    assert sigma_coeff(model, 2, 3, st) == table[1, 2]
    assert sigma_coeff(model, 2, 4, st) == 0.0


def test_models_hold_only_their_parts():
    assert zero_model(3).q is None and zero_model(3).table is None
    md = moving_diagonal(gamma=0.1, beta=0.0, decay_p=2.0, m=3)
    assert md.table is None and np.array_equal(md.q, [1.0, 0.25, 1.0 / 9.0])
    gm = general_matrix(np.eye(2), lipschitz_k=2.0)
    assert gm.q is None and gm.table.shape == (2, 2)


def test_truncations_are_capped():
    # 4096 modes: the dense (n, n) coupling table is then 128 MiB
    assert zero_model(4096).m == moving_diagonal(0.1, 0.0, m=4096).m == 4096
    assert general_matrix(np.ones((4096, 1)), lipschitz_k=100.0).m == 4096
    for build in (lambda: zero_model(4097), lambda: moving_diagonal(0.1, 0.0, m=4097),
                  lambda: general_matrix(np.ones((4097, 1)), lipschitz_k=100.0)):
        with pytest.raises(ValueError, match=r"in \[1, 4096\], got 4097$"):
            build()
