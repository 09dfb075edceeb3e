"""Property test of the exit-code contract of all six commands, run in process.

On tiny runs (n, m <= 4, at most 50 steps, at most 4 paths, one worker) with
flag values that are finite, nan, inf, negative or garbage, and at times an
existing file as the output directory, ``main`` returns 0, 1 or 2 and never
warns.  Exit 0 writes only finite CSV cells and nothing on stderr; exit 1 or 2
writes exactly one line on stderr.
"""

import contextlib
import io
import math
import warnings

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from movingheat.cli import COMMANDS, main  # noqa: E402

DOMAINS = [
    "kind = constant\na0 = 1.0\n",
    "kind = sinusoidal\na0 = 1.0\namp = 0.5\nomega = 3.0\n",
    "kind = linear\na0 = 1.0\nslope = -0.5\n",
    "kind = exponential\na0 = 1.0\nslope = 0.5\n",
]
# beta = 2000 overflows the ensemble statistics within 100 steps; beta = 1e5 overflows
# the coefficients' squares within 50
NOISES = ["kind = zero\n", "kind = moving_diagonal\ngamma = 0.3\nbeta = 0.2\nm = {m}\n",
          "kind = moving_diagonal\ngamma = 0\nbeta = 2000\np = 1\nm = {m}\n",
          "kind = moving_diagonal\ngamma = 0\nbeta = 1e5\np = 1\nm = {m}\n"]
# (valid, invalid) values of each flag: never a valid --n or --levels between 64 and
# 4096, and never more than 1 worker
FLAGS = {
    "--workers": (["1"], ["0", "-2", "2.0"]),
    "--levels": (["1", "2", "1,2"], ["0", "-1,-2", "1,3", "4097", "2,1"]),
    "--seeds": (["1", "2"], ["0", "-1"]),
    "--fd-m": (["16", "17"], ["0", "-16", "15"]),
    "--fd-dt": (["0.001", "0.0005", "0.002"], ["0.0003", "0", "-0.001", "5e-324", "1e300"]),
    "--n": (["1", "2", "4"], ["0", "-3", "4097", "100000"]),
    "--t": (["0", "0.3", "1.0", "-0.0", "1e-320"], ["1.5", "-0.5"]),
}
WILD = ["nan", "inf", "-inf", "-nan", "", "x", "1,", "0x10", "--", "1e3"]


@st.composite
def runs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    noise = draw(st.sampled_from(NOISES)).format(m=draw(st.integers(1, 4)))
    if command == "oracle-compare" and draw(st.integers(0, 3)):
        noise = NOISES[0]  # three in four oracle runs are deterministic, as it requires
    config = (
        "[domain]\n" + draw(st.sampled_from(DOMAINS)) + "T = 1.0\n"
        + "[noise]\n" + noise
        + "[sim]\n"
        + f"n = {draw(st.integers(1, 4))}\n"
        + f"dt = {draw(st.sampled_from(['0.001', '0.002', '0.0005']))}\n"
        + f"t_end = {draw(st.sampled_from(['0.025', '0.05']))}\n"
        + f"scheme = {draw(st.sampled_from(['exponential_em', 'explicit_em']))}\n"
        + f"seed = {draw(st.integers(0, 9))}\n"
        + f"n_paths = {draw(st.integers(1, 4))}\n"
        + f"[output]\nsnapshot_stride = {draw(st.sampled_from([1, 7, 25]))}\ngrid_size = 5\n"
        + "[init]\n" + draw(st.sampled_from(["kind = parabola\n", "kind = mode\nmode = 2\n"]))
    )
    flags = []
    for flag, _ in COMMANDS[command][3]:
        valid, invalid = FLAGS[flag]
        if flag == "--fd-dt" and draw(st.booleans()):
            continue  # the default: the spectral dt
        if draw(st.integers(0, 3)):  # three in four flags are valid
            value = draw(st.sampled_from(valid))
        elif flag == "--t" and draw(st.booleans()):
            value = repr(draw(st.floats()))
        else:
            value = draw(st.sampled_from(invalid + WILD))
        flags.append(f"{flag}={value}")
    out_is_file = draw(st.integers(0, 9)) == 0  # one run in ten: --out names a file
    return command, config, flags, out_is_file


@settings(max_examples=250, deadline=None)
@given(runs())
def test_exit_code_contract(tmp_path_factory, run):
    command, config, flags, out_is_file = run
    work = tmp_path_factory.mktemp("run")
    (work / "run.cfg").write_text(config, encoding="utf-8")
    out = work / "out"
    if out_is_file:
        out.write_text("", encoding="utf-8")
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = main([command, "--config", str(work / "run.cfg"), "--out", str(out), *flags])
    assert [str(w.message) for w in caught] == []
    err = stderr.getvalue()
    assert code in (0, 1, 2)
    if code == 0:
        assert err == ""
        for path in out.glob("*.csv"):
            for line in path.read_text(encoding="utf-8").splitlines():
                for cell in line.split(","):
                    try:
                        value = float(cell)
                    except ValueError:  # a header or a statistic's name
                        continue
                    assert math.isfinite(value), (path.name, line)
    else:
        assert err.count("\n") == 1 and err.endswith("\n"), err
