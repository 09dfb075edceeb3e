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
from movingheat import integrator, noise


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


def box_muller(words, m, dt):
    # the stream's normals from one step's raw words, written out independently
    u = (words >> np.uint64(11)) * 2.0**-53
    pairs = -(-m // 2)
    radius = np.sqrt(-2.0 * dt * np.log1p(-u[0 : 2 * pairs : 2]))
    angle = 2.0 * np.pi * u[1 : 2 * pairs : 2]
    z = np.empty(2 * pairs)
    z[0::2] = radius * np.cos(angle)
    z[1::2] = radius * np.sin(angle)
    return z[:m]


class TestIncrements:
    def test_statistics(self):
        dt = 2e-3
        draws = draw_increment([NoiseStream(seed=123)], 0, 100, 1000, dt)
        assert draws.shape == (1, 100, 1000)
        draws = draws.ravel()
        assert abs(np.mean(draws)) <= 4 * np.sqrt(dt / 1e5)
        assert np.var(draws) == pytest.approx(dt, rel=0.05)
        # standard normal: E z^4 = 3; the sd of the sample mean of z^4 is sqrt(96 / 1e5)
        assert np.mean(draws**4) == pytest.approx(3 * dt**2, rel=0.05)

    def test_cosine_and_sine_of_a_pair_are_uncorrelated(self):
        draws = draw_increment([NoiseStream(seed=5)], 0, 100, 1000, 1.0).reshape(-1, 2)
        corr = np.corrcoef(draws[:, 0], draws[:, 1])[0, 1]
        assert abs(corr) <= 4 / np.sqrt(len(draws))

    def test_bitwise_determinism(self):
        a = draw_increment([NoiseStream(9, 4)], 17, 1, 8, 1e-3)
        b = draw_increment([NoiseStream(9, 4)], 17, 1, 8, 1e-3)
        assert np.array_equal(a, b)

    def test_draws_do_not_depend_on_grouping(self):
        # a row's step is the same bits whatever the rows and steps drawn with it
        streams = [NoiseStream(9, p) for p in (4, 0, 7)]
        bulk = draw_increment(streams, 16, 3, 5, 1e-3)
        for r, stream in enumerate(streams):
            for s in range(3):
                alone = draw_increment([stream], 16 + s, 1, 5, 1e-3)[0, 0]
                assert alone.tobytes() == bulk[r, s].tobytes()

    def test_distinct_keys_differ(self):
        base = draw_increment([NoiseStream(9, 4)], 17, 1, 8, 1e-3)
        assert not np.array_equal(base, draw_increment([NoiseStream(9, 4)], 18, 1, 8, 1e-3))
        assert not np.array_equal(base, draw_increment([NoiseStream(9, 5)], 17, 1, 8, 1e-3))
        assert not np.array_equal(base, draw_increment([NoiseStream(10, 4)], 17, 1, 8, 1e-3))

    def test_consecutive_steps_differ(self):
        first, second = draw_increment([NoiseStream(1)], 0, 2, 4, 1e-3)[0]
        assert not np.array_equal(first, second)

    @pytest.mark.parametrize("m", [1, 3, 4, 16, 4096])
    def test_known_answer(self, m):
        # key (seed, path); step s starts after s * ceil(m/4) Philox blocks of 4 words
        seed, path, step, dt = 9, 4, 17, 1e-3
        words = 4 * -(-m // 4)
        philox = np.random.Philox(key=[seed, path])
        philox.random_raw(step * words)
        expected = [box_muller(philox.random_raw(words), m, dt) for _ in range(2)]
        got = draw_increment([NoiseStream(seed, path)], step, 2, m, dt)[0]
        assert got.shape == (2, m)
        for s in range(2):
            assert got[s].tobytes() == expected[s].tobytes()

    def test_generator_at_positions_the_path_stream(self):
        philox = np.random.Philox(key=[3, 2])
        philox.random_raw(5 * 8)
        assert np.array_equal(NoiseStream(3, 2).generator_at(5, 7).random_raw(8),
                              philox.random_raw(8))

    def test_seed_beyond_64_bits_is_rejected(self):
        draw_increment([NoiseStream(2**64 - 1)], 0, 1, 2, 1e-3)
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match="seed"):
                NoiseStream(seed)

    def test_path_index_beyond_32_bits_is_rejected(self):
        NoiseStream(1, path_index=2**32 - 1)
        with pytest.raises(ValueError, match="path_index"):
            NoiseStream(1, path_index=2**32)

    def test_step_index_beyond_32_bits_is_rejected(self):
        stream = NoiseStream(1)
        draw_increment([stream], 2**32 - 1, 1, 2, 1e-3)
        with pytest.raises(ValueError, match="step_index"):
            draw_increment([stream], 2**32 - 1, 2, 2, 1e-3)
        with pytest.raises(ValueError, match="step_index"):
            draw_increment([stream], 2**32, 1, 2, 1e-3)
        with pytest.raises(ValueError, match="step_index"):
            stream.generator_at(2**32, 2)

    def test_dt_validation(self):
        with pytest.raises(ValueError):
            draw_increment([NoiseStream(1)], 0, 1, 4, 0.0)

    def test_no_steps_rejected(self):
        with pytest.raises(ValueError, match=r"^steps must be >= 1, got 0$"):
            draw_increment([NoiseStream(1)], 0, 0, 4, 1e-3)


class TestStreamPosition:
    """A stream reads on from where its last draw ended and re-keys anywhere else."""

    def test_consecutive_draws_read_on(self):
        # chunks of 3, 1 and 4 steps from step 5 give the bits of one draw of all 8
        stream = NoiseStream(9, 4)
        parts = [draw_increment([stream], start, steps, 7, 1e-3)
                 for start, steps in ((5, 3), (8, 1), (9, 4))]
        whole = draw_increment([NoiseStream(9, 4)], 5, 8, 7, 1e-3)
        assert np.concatenate(parts, axis=1).tobytes() == whole.tobytes()

    # the first draw ends before step 8 of a 7-wide stream (8 words a step); a draw at
    # step 9, 7 or 5, or at step 8 of a 3- or 12-wide stream (4 or 12 words a step),
    # starts elsewhere
    @pytest.mark.parametrize("start,m", [(9, 7), (7, 7), (5, 7), (8, 3), (8, 12)])
    def test_a_draw_elsewhere_is_a_fresh_stream(self, start, m):
        stream = NoiseStream(9, 4)
        draw_increment([stream], 5, 3, 7, 1e-3)
        got = draw_increment([stream], start, 2, m, 1e-3)
        assert got.tobytes() == draw_increment([NoiseStream(9, 4)], start, 2, m, 1e-3).tobytes()

    # 40 rows at n = 8, m = 5 over 37 steps: chunks of one step, one step and 28 steps, so
    # that every budget draws more than once
    @pytest.mark.parametrize("draw_budget", [1, 120, None], indirect=True,
                             ids=["budget=1", "budget=120", "budget=default"])
    def test_the_stepper_keys_each_row_once(self, monkeypatch, sin_domain, draw_budget):
        keyed, draws = [], []
        generator_at, draw = NoiseStream.generator_at, integrator.draw_increment

        def generator_spy(stream, *args):
            keyed.append((stream.seed, stream.path_index))
            return generator_at(stream, *args)

        def draw_spy(streams, step_index, steps, m, dt):
            draws.append(step_index)
            return draw(streams, step_index, steps, m, dt)

        monkeypatch.setattr(NoiseStream, "generator_at", generator_spy)
        monkeypatch.setattr(integrator, "draw_increment", draw_spy)
        dt = 2.0**-12
        cfg = integrator.SimulationConfig(domain=sin_domain, n=8, model=moving_diagonal(
            0.4, 0.3, 1.0, m=5), dt=dt, t_end=37 * dt, seed=3, n_paths=40)
        rows = [(3, path) for path in range(40)]
        integrator._step_paths([cfg], [np.linspace(1.0, 0.5, 8)], rows)
        assert keyed == rows
        assert len(draws) > 1


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
    # the stepper's flat block of one level gives the same bits
    kick_of, norms_of = noise.flat_kick(model, [(0, n)])
    flat, hs = kick_of(st.coeffs[None], db[None]), norms_of(st.coeffs[None])
    assert flat[0].tobytes() == kick.tobytes()
    assert hs[0, 0] == hs_norm_sq(model, st.coeffs)


@pytest.mark.parametrize("kind,m,levels", [
    pytest.param("moving_diagonal", 12, [16, 4, 24], id="moving_diagonal"),
    pytest.param("general_matrix", 12, [16, 4, 24], id="general_matrix"),
    pytest.param("zero", 12, [16, 4, 24], id="zero"),
    pytest.param("moving_diagonal", 6, [5], id="moving_diagonal-one-level"),
    pytest.param("moving_diagonal", 6, [4, 8, 16], id="moving_diagonal-m-between"),
    pytest.param("additive_diagonal", 6, [4, 8, 16], id="additive_diagonal-m-between"),
    pytest.param("additive_diagonal", 12, [16, 4, 24], id="additive_diagonal"),
])
def test_flat_kick_matches_each_level_alone(kind, m, levels):
    # levels side by side under m driving motions, m below, between and above the level
    # widths: the kick and HS norm of each level's span are bitwise those of the level
    # alone, and so are the norms of a chunk of states taken at once; at m = 12 a norm has
    # 12 > 8 terms, so a sum in another order would show
    model = {
        "moving_diagonal": moving_diagonal(gamma=0.3, beta=0.7, decay_p=1.0, m=m),
        "additive_diagonal": moving_diagonal(gamma=0.3, beta=0.0, decay_p=1.0, m=m),
        "general_matrix": general_matrix(np.random.default_rng(5).normal(size=(m, 10)),
                                         lipschitz_k=100.0),
        "zero": zero_model(m),
    }[kind]
    rng = np.random.default_rng(6)
    bounds = np.cumsum([0, *levels]).tolist()
    spans = list(zip(bounds, bounds[1:]))
    coeffs, db = rng.normal(size=(3, bounds[-1])), rng.normal(size=(3, m))
    kick_of, norms_of = noise.flat_kick(model, spans)
    kick, hs = kick_of(coeffs, db), norms_of(coeffs)
    assert kick.shape == coeffs.shape and hs.shape == (len(levels), 3)
    chunk = norms_of(np.stack([2.0 * coeffs, coeffs]))
    assert chunk.shape == (2, len(levels), 3) and chunk[1].tobytes() == hs.tobytes()
    for (lo, hi), level_hs in zip(spans, hs):
        level = np.ascontiguousarray(coeffs[:, lo:hi])
        assert kick[:, lo:hi].tobytes() == noise_kick(model, level, db).tobytes()
        assert level_hs.tobytes() == hs_norm_sq(model, level).tobytes()


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
    # a missing part is empty: a length-0 q, an (m, 0) table
    zm = zero_model(3)
    assert zm.q.shape == (0,) and zm.table.shape == (3, 0)
    md = moving_diagonal(gamma=0.1, beta=0.0, decay_p=2.0, m=3)
    assert md.table.shape == (3, 0) and np.array_equal(md.q, [1.0, 0.25, 1.0 / 9.0])
    gm = general_matrix(np.eye(2), lipschitz_k=2.0)
    assert gm.q.shape == (0,) and gm.table.shape == (2, 2)


def test_truncations_are_capped():
    # 4096 modes: the dense (n, n) coupling table is then 128 MiB
    assert zero_model(4096).m == moving_diagonal(0.1, 0.0, m=4096).m == 4096
    assert general_matrix(np.ones((4096, 1)), lipschitz_k=100.0).m == 4096
    for build in (lambda: zero_model(4097), lambda: moving_diagonal(0.1, 0.0, m=4097),
                  lambda: general_matrix(np.ones((4097, 1)), lipschitz_k=100.0)):
        with pytest.raises(ValueError, match=r"in \[1, 4096\], got 4097$"):
            build()
