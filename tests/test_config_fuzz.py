"""Property test of the config parser on text built from its own vocabulary.

Whatever the values, ``parse_run_text`` returns a ``RunSetup`` or raises a
``ConfigError`` with a one-line message: no other exception and no warning.
A ``t_end`` written as k steps of ``dt`` runs exactly k steps.
"""

import math
import string
import warnings
from decimal import Decimal
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from movingheat import ConfigError  # noqa: E402
from movingheat.config import _KINDS, _SCHEMA, RunSetup, parse_run_text  # noqa: E402

# file keys resolve against a directory that does not exist, so they never read a file
BASE_DIR = Path(__file__).parent / "no-such-directory"

SPECIAL = ["nan", "-nan", "inf", "-inf", "1e400", "-1e400", "1e-320", "5e-324", "0", "-0.0",
           "", "1,2", "0x10", "1_000", "true"]
HUGE = ["1e308", "-1e308", "1.7976931348623157e308", "1e300", "-1e200"]
GARBAGE = st.text(alphabet=string.ascii_letters + string.digits + string.punctuation + " ",
                  max_size=12)
SMALL_INTS = st.integers(-10**4, 10**4).map(str)
# integral floats above 1e4 are left out: n and m are uncapped, and m weights get allocated
FLOATS = st.floats(allow_nan=True, allow_infinity=True).filter(
    lambda v: not (math.isfinite(v) and v.is_integer() and abs(v) > 1e4)).map(repr)
NICE = ["0.5", "1", "1.0", "2", "0.25", "0.001", "8", "-1", "0.1"]
NICE_INTS = ["1", "2", "3", "8", "16", "0", "-1"]
INT_KEYS = {"n", "m", "seed", "n_paths", "grid_size", "snapshot_stride", "mode"}

ONE_IN_TEN = st.sampled_from([False] * 9 + [True])  # examples lean to the first element
KINDS = sorted({kind for kinds in _KINDS.values() for kind in kinds})
KEYS = sorted((name, key) for name, keys in _SCHEMA.items() for key in keys if key != "kind")


def value(draw, key, nice):
    """A value for ``key``: well-formed with odds ``nice`` to 1, else a wild string."""
    if draw(st.integers(0, nice)) < nice:
        good = {"scheme": ["exponential_em", "explicit_em"]}.get(
            key, NICE_INTS if key in INT_KEYS else NICE)
        return draw(st.sampled_from(good))
    wild = [SMALL_INTS, FLOATS, st.sampled_from(SPECIAL), GARBAGE]
    if key not in ("n", "m"):
        wild.append(st.sampled_from(HUGE))
    return draw(st.one_of(*wild))


@st.composite
def config_texts(draw):
    """Mostly the keys of a drawn kind, half of them well-formed, plus a stray key or two."""
    sections = {}
    for name, kinds in {**_KINDS, "sim": None, "output": None}.items():
        if kinds is None:
            keys = _SCHEMA[name]
        else:
            kind = draw(st.sampled_from(sorted(kinds)))
            if draw(ONE_IN_TEN):
                kind = draw(st.one_of(st.sampled_from(KINDS), GARBAGE))
            keys = kinds.get(kind, ({"kind"}, None))[0]
            sections[name] = {"kind": kind}
        for key in sorted(keys):  # every [domain] key is required
            if name == "domain" or draw(st.booleans()):
                sections.setdefault(name, {})[key] = value(draw, key, 6 if name == "domain" else 2)
    for name, key in draw(st.lists(st.sampled_from(KEYS), max_size=2, unique=True)):
        sections.setdefault(name, {})[key] = value(draw, key, 1)
    if draw(ONE_IN_TEN):
        sections["domain"].pop(draw(st.sampled_from(sorted(sections["domain"]))))
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for name, keys in sections.items())


@settings(max_examples=300, deadline=None)
@given(config_texts())
def test_parser_returns_a_setup_or_a_one_line_config_error(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            setup = parse_run_text(text, base_dir=BASE_DIR)
        except ConfigError as exc:
            assert str(exc) and "\n" not in str(exc)
        else:
            assert isinstance(setup, RunSetup)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([1e-4, 5e-4, 1e-3, 2e-3, 0.01, 0.1]), st.integers(1, 10**5))
def test_t_end_written_as_k_steps_of_dt_runs_k_steps(dt, k):
    # t_end = 0.043 at dt = 1e-3 gives t_end/dt = 42.99999999999999: still 43 steps
    t_end = str(Decimal(k) * Decimal(repr(dt)))
    text = f"[domain]\nkind = constant\na0 = 1.0\nT = {t_end}\n[sim]\ndt = {dt!r}\n"
    assert parse_run_text(text, base_dir=BASE_DIR).config.n_steps == k
