import re
import warnings

import numpy as np
import pytest

from movingheat import ConfigError
from movingheat import config as config_mod
from movingheat.config import _KINDS, _SCHEMA, parse_config, parse_run
from movingheat.integrator import ModeInitial, ModesInitial, ParabolaInitial

MINIMAL = """
[domain]
kind = constant
a0 = 1.0
T = 1.0
"""


def write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestDefaults:
    def test_minimal_file_applies_documented_defaults(self, tmp_path):
        setup = parse_run(write(tmp_path, MINIMAL))
        cfg = setup.config
        assert cfg.scheme == "exponential_em"
        assert cfg.grid_size == 129
        assert cfg.snapshot_stride == 1
        assert cfg.model.kind == "zero"
        assert cfg.n == 16
        assert cfg.dt == 1e-3
        assert cfg.t_end == 1.0
        assert cfg.seed == 0
        assert cfg.n_paths == 1
        assert isinstance(setup.u0, ModeInitial)

    def test_noise_m_defaults_to_n(self, tmp_path):
        text = MINIMAL + "\n[sim]\nn = 24\n\n[noise]\nkind = moving_diagonal\ngamma = 0.5\n"
        cfg = parse_config(write(tmp_path, text))
        assert cfg.model.m == 24
        assert cfg.model.kind == "moving_diagonal"


class TestStrictness:
    def test_unknown_key_named_in_error(self, tmp_path):
        text = MINIMAL + "\n[noise]\nsigma_level = 3\n"
        with pytest.raises(ConfigError, match="sigma_level"):
            parse_config(write(tmp_path, text))

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigError, match="solver"):
            parse_config(write(tmp_path, MINIMAL + "\n[solver]\nx = 1\n"))

    def test_missing_required_key(self, tmp_path):
        with pytest.raises(ConfigError, match="kind"):
            parse_config(write(tmp_path, "[domain]\na0 = 1.0\nT = 1.0\n"))
        with pytest.raises(ConfigError, match="'T'"):
            parse_config(write(tmp_path, "[domain]\nkind = constant\na0 = 1.0\n"))

    def test_type_mismatch(self, tmp_path):
        with pytest.raises(ConfigError, match="number"):
            parse_config(write(tmp_path, "[domain]\nkind = constant\na0 = wide\nT = 1.0\n"))
        text = MINIMAL + "\n[sim]\nn = 3.5\n"
        with pytest.raises(ConfigError, match="integer"):
            parse_config(write(tmp_path, text))

    def test_duplicate_key(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(write(tmp_path, "[domain]\nkind = constant\nkind = linear\na0 = 1\nT = 1\n"))

    def test_stability_guard_message_carries_bound(self, tmp_path):
        text = MINIMAL + "\n[sim]\nn = 64\nscheme = explicit_em\ndt = 0.01\n"
        with pytest.raises(ConfigError, match="requires dt <=") as err:
            parse_config(write(tmp_path, text))
        # guard formula 1.9 (delta0/(n pi))^2 with the 1% sampled margin
        bound = 1.9 * (0.99 / (64 * np.pi)) ** 2
        assert f"{bound:.6g}" in str(err.value)

    def test_wrong_family_keys(self, tmp_path):
        with pytest.raises(ConfigError, match="takes keys"):
            parse_config(write(tmp_path, "[domain]\nkind = constant\na0 = 1\nslope = 2\nT = 1\n"))


class TestDomainsAndNoise:
    def test_sinusoidal_domain(self, tmp_path):
        text = "[domain]\nkind = sinusoidal\na0 = 1.0\namp = 0.5\nomega = 1.0\nT = 1.0\n"
        cfg = parse_config(write(tmp_path, text))
        assert cfg.domain.a_at(0.0) == 1.0
        assert cfg.domain.a_prime_at(0.0) == 0.5

    def test_table_domain_roundtrip(self, tmp_path):
        ts = np.linspace(0.0, 1.0, 21)
        lines = ["t,a"] + [f"{t},{1.0 + 0.1 * t}" for t in ts]
        (tmp_path / "boundary.csv").write_text("\n".join(lines), encoding="utf-8")
        text = "[domain]\nkind = table\ntable_path = boundary.csv\nT = 1.0\n"
        cfg = parse_config(write(tmp_path, text))
        assert cfg.domain.a_at(0.5) == pytest.approx(1.05, abs=1e-12)

    def test_general_matrix_noise(self, tmp_path):
        (tmp_path / "sigma.csv").write_text("0.5,0.0\n0.0,0.25\n", encoding="utf-8")
        text = (
            MINIMAL
            + "\n[sim]\nn = 2\n\n[noise]\nkind = general_matrix\n"
            + "matrix_path = sigma.csv\nm = 2\nlipschitz_k = 1.0\n"
        )
        cfg = parse_config(write(tmp_path, text))
        assert cfg.model.kind == "general_matrix"
        assert cfg.model.table.shape == (2, 2)

    def test_general_matrix_shape_mismatch(self, tmp_path):
        (tmp_path / "sigma.csv").write_text("0.5,0.0\n0.0,0.25\n", encoding="utf-8")
        text = (
            MINIMAL
            + "\n[sim]\nn = 4\n\n[noise]\nkind = general_matrix\n"
            + "matrix_path = sigma.csv\nm = 2\nlipschitz_k = 1.0\n"
        )
        with pytest.raises(ConfigError, match="columns"):
            parse_config(write(tmp_path, text))


class TestInit:
    def test_modes_initial(self, tmp_path):
        text = MINIMAL + "\n[init]\nkind = modes\namplitudes = 1, 0, 0.3\n"
        setup = parse_run(write(tmp_path, text))
        assert isinstance(setup.u0, ModesInitial)
        assert setup.u0.amplitudes == (1.0, 0.0, 0.3)

    def test_parabola_initial(self, tmp_path):
        text = MINIMAL + "\n[init]\nkind = parabola\nscale = 2.0\n"
        setup = parse_run(write(tmp_path, text))
        assert isinstance(setup.u0, ParabolaInitial)
        assert setup.u0(0.5) == pytest.approx(0.5, rel=1e-15)

    def test_bad_init_kind(self, tmp_path):
        with pytest.raises(ConfigError, match="init"):
            parse_run(write(tmp_path, MINIMAL + "\n[init]\nkind = gaussian\n"))


class TestCanonicalText:
    def test_reparse_reproduces_config(self, tmp_path):
        text = (
            MINIMAL
            + "\n[noise]\nkind = moving_diagonal\ngamma = 0.4\nbeta = 0.1\nm = 8\n"
            + "\n[sim]\nn = 8\ndt = 0.002\nt_end = 0.5\nseed = 11\n"
        )
        setup = parse_run(write(tmp_path, text))
        setup2 = parse_run(write(tmp_path, setup.text, name="canonical.cfg"))
        a, b = setup.config, setup2.config
        assert (a.n, a.dt, a.t_end, a.seed, a.scheme) == (b.n, b.dt, b.t_end, b.seed, b.scheme)
        assert a.model.gamma == b.model.gamma
        assert a.domain.a_at(0.3) == b.domain.a_at(0.3)

    def test_canonical_text_fills_defaults_in_schema_order(self, tmp_path):
        # user keys keep their order and spelling; defaults print as parsed values
        text = ("[sim]\nseed = 4\nn = 8\n[domain]\nT = 2\nkind = linear\nslope = 0.5\n"
                "a0 = 1\n[noise]\nm = 4\nkind = moving_diagonal\n[init]\nkind=parabola\n")
        assert parse_run(write(tmp_path, text)).text == (
            "[domain]\nT = 2\nkind = linear\nslope = 0.5\na0 = 1\n\n"
            "[noise]\nkind = moving_diagonal\nm = 4\n\n[init]\nkind = parabola\n\n"
            "[sim]\nn = 8\nscheme = exponential_em\ndt = 0.001\nt_end = 2.0\nseed = 4\n"
            "n_paths = 1\n\n[output]\ngrid_size = 129\nsnapshot_stride = 1\n"
        )


class TestWrongKindKeys:
    @pytest.mark.parametrize("section,kind,key,value", [
        ("noise", "moving_diagonal", "matrix_path", "doesnotexist.csv"),
        ("noise", "general_matrix", "gamma", "0.1"),
        ("noise", "general_matrix", "p", "2"),
        ("noise", "zero", "beta", "0.5"),
        ("init", "mode", "scale", "2"),
        ("init", "mode", "amplitudes", "1, 2"),
        ("init", "parabola", "mode", "3"),
    ])
    def test_key_of_another_kind_is_rejected(self, tmp_path, section, kind, key, value):
        (tmp_path / "sigma.csv").write_text("0.5,0.0\n0.0,0.25\n", encoding="utf-8")
        extra = "matrix_path = sigma.csv\nlipschitz_k = 1\n" if kind == "general_matrix" else ""
        text = (MINIMAL + "\n[sim]\nn = 2\n"
                + f"\n[{section}]\nkind = {kind}\n{extra}{key} = {value}\n")
        with pytest.raises(ConfigError) as err:
            parse_config(write(tmp_path, text))
        keys = sorted(_KINDS[section][kind][0])
        assert str(err.value) == f"[{section}] kind={kind} takes keys {keys}, not [{key!r}]"

    def test_general_matrix_m_must_equal_rows(self, tmp_path):
        (tmp_path / "sigma.csv").write_text("0.5,0.0\n0.0,0.25\n", encoding="utf-8")
        text = (MINIMAL + "\n[sim]\nn = 2\n\n[noise]\nkind = general_matrix\n"
                + "matrix_path = sigma.csv\nm = 3\nlipschitz_k = 1.0\n")
        keys = sorted(_KINDS["noise"]["general_matrix"][0])
        with pytest.raises(ConfigError, match="2 rows, got m = 3") as err:
            parse_config(write(tmp_path, text))
        assert f"takes keys {keys}" in str(err.value)

    def test_schema_is_the_union_of_the_kinds(self):
        assert _SCHEMA["domain"] == {"kind", "T", "a0", "slope", "amp", "omega", "table_path"}
        assert _SCHEMA["noise"] == {"kind", "gamma", "beta", "p", "m", "lipschitz_k",
                                    "matrix_path"}
        assert _SCHEMA["init"] == {"kind", "mode", "amplitude", "amplitudes", "scale"}

    def test_docstring_lists_every_kind_and_key(self):
        doc = config_mod.__doc__
        for kinds in _KINDS.values():
            for kind, (keys, _) in kinds.items():
                assert kind in doc
                for key in keys:
                    assert re.search(rf"\b{key}\b", doc), key


_CONSTANT = "[domain]\nkind = constant\na0 = 1.0\n"


@pytest.mark.parametrize("text,match", [
    (MINIMAL + "[sim]\nn = inf\n", r"\[sim\] n must be an integer, got 'inf'"),
    (MINIMAL + "[sim]\nseed = -inf\n", r"\[sim\] seed must be an integer"),
    (_CONSTANT + "T = inf\n", r"\[domain\] T must be a finite number, got 'inf'"),
    (MINIMAL + "[noise]\nkind = moving_diagonal\ngamma = nan\n",
     r"\[noise\] gamma must be a finite number, got 'nan'"),
    (MINIMAL + "[init]\nkind = modes\namplitudes = 1, nan\n",
     r"\[init\] amplitudes must be comma-separated finite numbers"),
    (MINIMAL + "[init]\nkind = mode\namplitude = 1e400\n", r"\[init\] amplitude must be a finite"),
    (_CONSTANT + "T = 1e308\n[sim]\ndt = 1e-320\n", r"t_end/dt = inf is not an integer"),
    (_CONSTANT + "T = 1e308\n", r"t_end/dt = inf is not an integer"),
    # the largest float: np.spacing overflows there (found by the fuzz test)
    (_CONSTANT + "T = 1.7976931348623157e308\n[sim]\ndt = 1\n",
     r"steps exceeds the noise stream's 4294967296$"),
    ("[domain]\nkind = exponential\na0 = 1.0\nslope = 1000\nT = 1.0\n",
     r"\[domain\] domain motion has non-finite a\(t\) or a'\(t\)"),
    ("[domain]\nkind = linear\na0 = 1e308\nslope = 1e308\nT = 1.0\n",
     r"\[domain\] domain motion has non-finite a\(t\) or a'\(t\)"),
    (MINIMAL + "[noise]\nkind = moving_diagonal\nm = 16\n[sim]\nn = 1e8\n",
     r"^truncation n must lie in \[1, 4096\], got 100000000$"),
    (MINIMAL + "[sim]\nn = 1e8\n",  # m defaults to n
     r"^\[noise\] noise truncation m must be an integer in \[1, 4096\], got 100000000$"),
    (MINIMAL + "[noise]\nkind = moving_diagonal\nm = 1e8\n",
     r"^\[noise\] noise truncation m must be an integer in \[1, 4096\], got 100000000$"),
])
def test_non_finite_and_overflowing_values_are_config_errors(tmp_path, text, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way to the error
        with pytest.raises(ConfigError, match=match) as err:
            parse_config(write(tmp_path, text))
    assert "\n" not in str(err.value)
