import errno
import json
import os
import tracemalloc

import numpy as np
import pytest

from movingheat import basis, cli, integrator, noise, oracle
from movingheat.cli import main, write_csv

STOCHASTIC_CFG = """
[domain]
kind = sinusoidal
a0 = 1.0
amp = 0.5
omega = 1.0
T = 1.0

[noise]
kind = moving_diagonal
gamma = 0.4
beta = 0.2
m = 8

[sim]
n = 8
dt = 0.001
t_end = 0.1
seed = 9
n_paths = 8

[output]
grid_size = 33
snapshot_stride = 20
"""

DETERMINISTIC_CFG = """
[domain]
kind = linear
a0 = 1.0
slope = 0.25
T = 0.5

[noise]
kind = zero

[sim]
n = 16
dt = 0.001
t_end = 0.1

[output]
snapshot_stride = 50

[init]
kind = parabola
"""


@pytest.fixture
def cfg_path(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(STOCHASTIC_CFG, encoding="utf-8")
    return p


def run(*argv):
    return main([str(a) for a in argv])


class TestSimulate:
    def test_outputs_and_manifest(self, tmp_path, cfg_path):
        out = tmp_path / "out"
        assert run("simulate", "--config", cfg_path, "--out", out) == 0
        traj = (out / "trajectory.csv").read_text().splitlines()
        assert traj[0] == "step,t,a_t,l2_sq,h1_sq," + ",".join(f"A_{k}" for k in range(1, 9))
        assert len(traj) == 1 + 6  # strided saves 0,20,...,100
        fields = (out / "fields.csv").read_text().splitlines()
        assert fields[0] == "t,x,u"
        assert len(fields) == 1 + 6 * 33
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 9
        assert set(manifest["outputs"]) == {"fields.csv", "trajectory.csv"}

    def test_bitwise_reproducible(self, tmp_path, cfg_path):
        assert run("simulate", "--config", cfg_path, "--out", tmp_path / "a") == 0
        assert run("simulate", "--config", cfg_path, "--out", tmp_path / "b") == 0
        for name in ("trajectory.csv", "fields.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_rerun_from_manifest_reproduces(self, tmp_path, cfg_path):
        out = tmp_path / "orig"
        assert run("simulate", "--config", cfg_path, "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        replay_cfg = tmp_path / "replay.cfg"
        replay_cfg.write_text(manifest["config_text"], encoding="utf-8")
        assert run("simulate", "--config", replay_cfg, "--out", tmp_path / "replay") == 0
        assert (out / "trajectory.csv").read_bytes() == (
            tmp_path / "replay" / "trajectory.csv"
        ).read_bytes()

    def test_csv_roundtrips_to_identical_doubles(self, tmp_path, cfg_path):
        out = tmp_path / "rt"
        assert run("simulate", "--config", cfg_path, "--out", out) == 0
        rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
        from movingheat.config import parse_run
        from movingheat.integrator import simulate

        setup = parse_run(cfg_path)
        traj = simulate(setup.config, setup.u0)
        assert np.array_equal(rows[:, 5:], traj.coeffs)
        assert np.array_equal(rows[:, 3], traj.l2_sq)

    def test_env_var_overrides_out(self, tmp_path, cfg_path, monkeypatch):
        target = tmp_path / "env_target"
        monkeypatch.setenv("MOVINGHEAT_OUT", str(target))
        assert run("simulate", "--config", cfg_path, "--out", tmp_path / "ignored") == 0
        assert (target / "trajectory.csv").exists()
        assert not (tmp_path / "ignored").exists()


class TestEnsemble:
    def test_workers_bitwise_identical(self, tmp_path, cfg_path):
        assert run("ensemble", "--config", cfg_path, "--out", tmp_path / "w1",
                   "--workers", 1) == 0
        assert run("ensemble", "--config", cfg_path, "--out", tmp_path / "w4",
                   "--workers", 4) == 0
        for name in ("ensemble.csv", "moments.csv"):
            assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w4" / name).read_bytes()

    def test_moments_columns(self, tmp_path, cfg_path):
        out = tmp_path / "m"
        assert run("ensemble", "--config", cfg_path, "--out", out) == 0
        lines = (out / "moments.csv").read_text().splitlines()
        assert lines[0] == "stat,value,stderr"
        stats = {line.split(",")[0] for line in lines[1:]}
        assert {"sup_l2_sq", "y_norm_sq", "sup_l2_sq_p2", "y_norm_sq_p2"} <= stats

    @pytest.mark.parametrize("n_paths,stats", [
        (1, ["sup_l2_sq", "y_norm_sq", "final_l2_sq"]),
        (2, ["sup_l2_sq", "y_norm_sq", "sup_l2_sq_p2", "y_norm_sq_p2", "final_l2_sq",
             "energy_balance"]),
        (8, ["sup_l2_sq", "y_norm_sq", "sup_l2_sq_p2", "y_norm_sq_p2", "final_l2_sq",
             "energy_balance"]),
    ])
    def test_moments_rows_in_order(self, tmp_path, n_paths, stats):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(STOCHASTIC_CFG.replace("n_paths = 8", f"n_paths = {n_paths}"),
                       encoding="utf-8")
        assert run("ensemble", "--config", cfg, "--out", tmp_path / "m") == 0
        header, *rows = (tmp_path / "m" / "moments.csv").read_text().splitlines()
        assert header == "stat,value,stderr"
        assert [row.split(",")[0] for row in rows] == stats
        stderrs = [row.split(",")[2] for row in rows]
        if n_paths == 1:
            assert stderrs == ["0.0"] * 3
        else:  # the paths differ, so their dissipation integrals do
            assert float(stderrs[1]) > 0.0


class TestConverge:
    def test_csv_contract(self, tmp_path, cfg_path):
        out = tmp_path / "cv"
        assert run("converge", "--config", cfg_path, "--out", out,
                   "--levels", "8,16", "--seeds", 2) == 0
        lines = (out / "converge.csv").read_text().splitlines()
        assert lines[0] == "seed,n,D_x,D_y"
        assert len(lines) == 1 + 2 * 2


class TestEnergyCheck:
    def test_csv_contract(self, tmp_path, cfg_path):
        out = tmp_path / "ec"
        assert run("energy-check", "--config", cfg_path, "--out", out) == 0
        lines = (out / "energy.csv").read_text().splitlines()
        assert lines[0] == "t,l2_sq,visc,sto,hs,residual"
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 0.0
        assert first[5] == 0.0  # residual starts at zero


class TestOracleCompare:
    def test_deterministic_run(self, tmp_path):
        cfg = tmp_path / "det.cfg"
        cfg.write_text(DETERMINISTIC_CFG, encoding="utf-8")
        out = tmp_path / "oc"
        assert run("oracle-compare", "--config", cfg, "--out", out, "--fd-m", 128) == 0
        lines = (out / "oracle.csv").read_text().splitlines()
        assert lines[0] == "t,discrepancy_l2"
        final = float(lines[-1].split(",")[1])
        assert final <= 1e-3

    @pytest.mark.parametrize("fd_dt,message", [
        ("0", "--fd-dt must be positive, got 0.0"),
        ("-1e-3", "--fd-dt must be positive, got -0.001"),
        ("nan", "--fd-dt must be positive, got nan"),
        ("5e-324", "--fd-dt 5e-324 must divide t_end and the save interval: the "
                   "finite-difference grid must hold every spectral save time"),
    ])
    def test_bad_fd_dt_is_one(self, tmp_path, capfd, fd_dt, message):
        cfg = tmp_path / "det.cfg"
        cfg.write_text(DETERMINISTIC_CFG, encoding="utf-8")
        out = tmp_path / "oc"
        assert run("oracle-compare", "--config", cfg, "--out", out, "--fd-m", 32,
                   f"--fd-dt={fd_dt}") == 1
        assert capfd.readouterr().err == f"error: {message}\n"
        assert not (out / "oracle.csv").exists()

    def test_stride_past_t_end_saves_t_end(self, tmp_path):
        # the saves are t = 0 and t_end = 4 FD steps, although 130 dt is 5.2 FD steps
        cfg = tmp_path / "det.cfg"
        cfg.write_text(DETERMINISTIC_CFG.replace("snapshot_stride = 50", "snapshot_stride = 130"),
                       encoding="utf-8")
        out = tmp_path / "oc"
        assert run("oracle-compare", "--config", cfg, "--out", out, "--fd-m", 32,
                   "--fd-dt", 0.025) == 0
        lines = (out / "oracle.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines] == ["t", "0.0", "0.1"]

    def test_rejects_noise(self, tmp_path, cfg_path, capsys):
        assert run("oracle-compare", "--config", cfg_path, "--out", tmp_path / "x") == 1
        assert "deterministic-only" in capsys.readouterr().err

    # the save interval 0.05 is 123.4 FD steps; t_end 0.12 is 4.8 FD steps, the interval 2
    @pytest.mark.parametrize("t_end,fd_dt", [(0.5, 0.5 / 1234), (0.12, 0.025)],
                             ids=["save-interval", "t_end"])
    def test_misaligned_fd_grid_is_one(self, monkeypatch, tmp_path, capsys, t_end, fd_dt):
        # the FD grid would miss a spectral save time: exit 1 before either solve runs
        solves = []
        monkeypatch.setattr(cli, "simulate", lambda *args: solves.append("spectral"))
        monkeypatch.setattr(oracle, "fd_solve", lambda *args, **kw: solves.append("fd"))
        cfg = tmp_path / "det.cfg"
        cfg.write_text(DETERMINISTIC_CFG.replace("t_end = 0.1", f"t_end = {t_end}"),
                       encoding="utf-8")
        out = tmp_path / "oc"
        assert run("oracle-compare", "--config", cfg, "--out", out, "--fd-m", 128,
                   "--fd-dt", repr(fd_dt)) == 1
        assert capsys.readouterr().err == (
            f"error: --fd-dt {fd_dt!r} must divide t_end and the save interval: the "
            "finite-difference grid must hold every spectral save time\n")
        assert solves == []
        assert not (out / "oracle.csv").exists()


class TestCouplingDump:
    def test_skew_symmetric_dump(self, tmp_path, cfg_path):
        out = tmp_path / "cd"
        assert run("coupling-dump", "--config", cfg_path, "--out", out,
                   "--n", 16, "--t", 0.3) == 0
        b = np.loadtxt(out / "coupling.csv", delimiter=",")
        assert b.shape == (16, 16)
        assert np.all(b + b.T == 0.0)
        assert np.all(np.diag(b) == 0.0)


class TestExitCodes:
    def test_validation_error_is_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[domain]\nkind = constant\na0 = 1.0\nT = 1.0\n[sim]\nwhat = 1\n",
                       encoding="utf-8")
        assert run("simulate", "--config", bad, "--out", tmp_path) == 1
        assert "what" in capsys.readouterr().err

    def test_missing_file_is_one(self, tmp_path):
        assert run("simulate", "--config", tmp_path / "nope.cfg", "--out", tmp_path) == 1

    def test_non_doubling_levels_is_one(self, tmp_path, cfg_path, capsys):
        assert run("converge", "--config", cfg_path, "--out", tmp_path / "x",
                   "--levels", "8,24") == 1
        assert "double" in capsys.readouterr().err

    def test_numerical_failure_is_two(self, tmp_path, cfg_path, monkeypatch):
        from movingheat.errors import NumericalError
        import movingheat.cli as cli_mod

        def boom(config, u0):
            raise NumericalError("step 3: non-finite coefficients")

        monkeypatch.setattr(cli_mod, "simulate", boom)
        assert run("simulate", "--config", cfg_path, "--out", tmp_path / "y") == 2


class TestOutputDirKey:
    def test_out_dir_key_is_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "od.cfg"
        cfg.write_text(STOCHASTIC_CFG + "out_dir = .\n", encoding="utf-8")
        assert run("simulate", "--config", cfg, "--out", tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'out_dir'" in err


class TestWrongKindKeys:
    @pytest.mark.parametrize("section", [
        "[noise]\nkind = moving_diagonal\nmatrix_path = doesnotexist.csv\n",
        "[noise]\nkind = general_matrix\nmatrix_path = s.csv\nlipschitz_k = 1\ngamma = 0.1\n",
        "[noise]\nkind = general_matrix\nmatrix_path = s.csv\nlipschitz_k = 1\np = 2\n",
        "[noise]\nkind = general_matrix\nmatrix_path = s.csv\nlipschitz_k = 1\nm = 3\n",
        "[init]\nkind = mode\nscale = 2\n",
        "[init]\nkind = mode\namplitudes = 1, 2\n",
    ])
    def test_exit_one_with_the_kinds_keys(self, tmp_path, capsys, section):
        (tmp_path / "s.csv").write_text("0.5,0.0\n0.0,0.25\n", encoding="utf-8")
        cfg = tmp_path / "wk.cfg"
        cfg.write_text("[domain]\nkind = constant\na0 = 1.0\nT = 1.0\n[sim]\nn = 2\n"
                       + section, encoding="utf-8")
        assert run("simulate", "--config", cfg, "--out", tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [") and err.count("\n") == 1
        assert "takes keys [" in err

    def test_unreadable_matrix_is_one(self, tmp_path, capsys):
        cfg = tmp_path / "gm.cfg"
        cfg.write_text("[domain]\nkind = constant\na0 = 1.0\nT = 1.0\n[sim]\nn = 2\n"
                       "[noise]\nkind = general_matrix\nmatrix_path = nope.csv\n"
                       "lipschitz_k = 1\n", encoding="utf-8")
        assert run("simulate", "--config", cfg, "--out", tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read matrix {tmp_path / 'nope.csv'}: ")
        assert err.count("\n") == 1


class TestWriteCsv:
    def test_cells_print_as_python_values(self, tmp_path):
        floats = [-0.0, 5e-324, 1e16, 0.1 + 0.2, np.float64(2.0 / 3.0)]
        ints = [np.int64(-3), 0, 7, np.int64(2**40), 12]
        strs = ["a", "b_c", "x", "y", "z"]
        path = tmp_path / "cells.csv"
        write_csv(path, ["f", "i", "s"], [floats, np.array(ints), strs])
        lines = path.read_text(encoding="utf-8").split("\n")
        assert lines[0] == "f,i,s"
        assert lines[-1] == ""
        for line, f, i, s in zip(lines[1:-1], floats, ints, strs):
            assert line == f"{float(f)!r},{int(i)},{s}"
        assert lines[1:3] == ["-0.0,-3,a", "5e-324,0,b_c"]
        assert lines[3].startswith("1e+16,") and lines[4].startswith("0.30000000000000004,")

    def test_headerless_matrix(self, tmp_path):
        m = np.array([[0.0, 0.1, -2.5], [1e-300, 3.0, 4.0]])
        path = tmp_path / "m.csv"
        write_csv(path, None, m.T)
        assert path.read_text(encoding="utf-8") == "0.0,0.1,-2.5\n1e-300,3.0,4.0\n"
        assert np.array_equal(np.loadtxt(path, delimiter=","), m)


def rowwise_csv(path, header, columns):
    """The row-at-a-time writer that the block writer replaced: the reference for its bytes."""
    cols = [np.asarray(col).tolist() for col in columns]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if header:
            fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(str, row)) + "\n" for row in zip(*cols))


SPECIAL_FLOATS = [-0.0, 5e-324, 1e16, float("nan"), float("inf"), -float("inf"), 0.1 + 0.2]


def writer_cases(rows):
    """(header, column factory) pairs covering every column shape the commands pass."""
    rng = np.random.default_rng(rows)
    floats = np.resize(np.array(SPECIAL_FLOATS), rows) * rng.choice([1.0, -1.0], rows)
    floats[rows // 2:] += rng.standard_normal(rows - rows // 2)
    ints64 = np.arange(rows, dtype=np.int64) * 2**33 - rows
    py_ints = [i * 7 - 3 for i in range(rows)]
    strs = [f"s_{i}" for i in range(rows)]
    # preformatted cells repeated by position, as cmd_simulate passes fields.csv's t column
    times = np.array(list(map(str, np.arange(-(-rows // 3)) * 1e-3)), dtype=object)
    preformatted = np.repeat(times, 3)[:rows]
    matrix = rng.standard_normal((rows, 4))
    matrix[::5, 1] = -0.0
    stat_rows = [(f"stat_{i}", float(floats[i]), float(rng.random())) for i in range(rows)]
    level_rows = [(i % 4, 2 ** (i % 6), float(rng.random()), float(floats[i]))
                  for i in range(rows)]
    return {
        "mixed": (["f", "i64", "int", "s", "t"],
                  lambda: [floats, ints64, py_ints, strs, preformatted]),
        "matrix": (None, lambda: matrix.T),  # coupling-dump: headerless, one column per row of C
        "moments": (["stat", "value", "stderr"], lambda: zip(*stat_rows)),
        "converge": (["seed", "n", "D_x", "D_y"], lambda: zip(*level_rows)),
    }


@pytest.mark.parametrize("case", ["mixed", "matrix", "moments", "converge"])
@pytest.mark.parametrize("blocks,extra", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (3, 5)])
def test_block_writer_matches_row_writer_bytes(tmp_path, case, blocks, extra):
    rows = blocks * cli._BLOCK_ROWS + extra
    header, columns = writer_cases(rows)[case]
    write_csv(tmp_path / "blocks.csv", header, columns())
    rowwise_csv(tmp_path / "rows.csv", header, columns())
    written = (tmp_path / "blocks.csv").read_bytes()
    assert written == (tmp_path / "rows.csv").read_bytes()
    assert written.count(b"\n") == rows + (header is not None)


def test_writer_memory_does_not_grow_with_the_rows(tmp_path):
    # peak traced memory of write_csv alone, three float columns made beforehand.  Measured
    # (64 * B rows against 4 * B): 1.00x for this writer, 15.9x for the row writer it replaced,
    # which holds every cell of the file as a Python float at once
    def peak(rows):
        rng = np.random.default_rng(rows)
        cols = [rng.standard_normal(rows) for _ in range(3)]
        tracemalloc.start()
        try:
            write_csv(tmp_path / "peak.csv", ["a", "b", "c"], cols)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(4 * cli._BLOCK_ROWS), peak(64 * cli._BLOCK_ROWS)
    assert large < 1.5 * small, (small, large)


COMMAND_CASES = [
    ("simulate", [], {"fields.csv", "trajectory.csv"}, set()),
    ("ensemble", ["--workers", 1], {"ensemble.csv", "moments.csv"}, {"workers", "n_paths"}),
    ("converge", ["--levels", "8,16", "--seeds", 1], {"converge.csv"}, {"levels", "seeds"}),
    ("energy-check", [], {"energy.csv"}, set()),
    ("oracle-compare", ["--fd-m", 64], {"oracle.csv"}, {"fd_m", "fd_dt"}),
    ("coupling-dump", ["--n", 4, "--t", 0.1], {"coupling.csv"}, {"n", "t"}),
]


@pytest.mark.parametrize("command,extra,outputs,keys", COMMAND_CASES,
                         ids=[c[0] for c in COMMAND_CASES])
def test_manifest_lists_written_files(monkeypatch, tmp_path, cfg_path, command, extra, outputs,
                                      keys):
    threads = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": None,
               "VECLIB_MAXIMUM_THREADS": None}
    for name, value in threads.items():
        if value is None:
            monkeypatch.delenv(name, raising=False)
        else:
            monkeypatch.setenv(name, value)
    cfg = cfg_path
    if command == "oracle-compare":
        cfg = tmp_path / "det.cfg"
        cfg.write_text(DETERMINISTIC_CFG, encoding="utf-8")
    out = tmp_path / "out"
    assert run(command, "--config", cfg, "--out", out, *extra) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    written = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert manifest["command"] == command
    assert set(manifest["outputs"]) == written == outputs
    base = {"command", "version", "seed", "noise_stream", "blas_threads", "config_text",
            "outputs", "duration_s"}
    assert set(manifest) == base | keys
    assert manifest["blas_threads"] == threads  # as the process saw them; unset is null
    # a manifest without this key, or with another layout, replays its config, not its bytes
    assert manifest["noise_stream"] == noise.STREAM


OVERFLOW_CFG = """
[domain]
kind = constant
a0 = 1.0
T = 1.0

[noise]
kind = moving_diagonal
gamma = 0
beta = 2000
p = 1
m = 1

[init]
kind = mode
mode = 1

[sim]
n = 1
dt = 1e-3
t_end = 0.2
n_paths = 2
"""


class TestFailureReports:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_overflowed_norms_exit_two_with_one_line(self, tmp_path, capfd, workers):
        # |A|^2 overflows long before A does: the run fails instead of writing inf
        cfg = tmp_path / "over.cfg"
        cfg.write_text(OVERFLOW_CFG, encoding="utf-8")
        out = tmp_path / "o"
        assert run("ensemble", "--config", cfg, "--out", out, "--workers", workers) == 2
        err = capfd.readouterr().err
        assert err == "numerical failure: path 0, step 102: non-finite energy ledger at t=0.102\n"
        assert not (out / "moments.csv").exists()

    def test_out_of_memory_exits_one_with_one_line(self, tmp_path, capfd):
        # m = n = 1e15 is beyond the 4096 cap on both truncations
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(OVERFLOW_CFG.replace("n = 1\n", "n = 1e15\n").replace("m = 1\n", ""),
                       encoding="utf-8")
        assert run("simulate", "--config", cfg, "--out", tmp_path / "o") == 1
        err = capfd.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_seed_beyond_64_bits_exits_one_with_one_line(self, tmp_path, capfd):
        # the seed is one 64-bit word of the Philox key
        cfg = tmp_path / "seed.cfg"
        cfg.write_text(OVERFLOW_CFG.replace("n_paths = 2", "seed = 18446744073709551616"),
                       encoding="utf-8")
        assert run("simulate", "--config", cfg, "--out", tmp_path / "o") == 1
        assert capfd.readouterr().err == (
            "error: seed must lie in [0, 18446744073709551616), got 18446744073709551616\n")

    @pytest.mark.parametrize("seed", [2**53 + 1, 2**64 - 1])
    def test_seed_above_two_to_the_53_reaches_the_stream_exactly(self, tmp_path, monkeypatch,
                                                                  seed):
        # a float holds integers exactly only up to 2^53: 2^53 + 1 would run 2^53, and
        # 2^64 - 1 would round up to 2^64 and be rejected
        keys = []

        class SpyStream(integrator.NoiseStream):
            def __init__(self, seed, path_index=0):
                keys.append((seed, path_index))
                super().__init__(seed, path_index)

        monkeypatch.setattr(integrator, "NoiseStream", SpyStream)
        cfg = tmp_path / "seed.cfg"
        cfg.write_text(STOCHASTIC_CFG.replace("seed = 9", f"seed = {seed}"), encoding="utf-8")
        assert run("simulate", "--config", cfg, "--out", tmp_path / "o") == 0
        assert keys == [(seed, 0)]
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["seed"] == seed
        assert f"seed = {seed}\n" in manifest["config_text"]

    @pytest.mark.parametrize("blocked", ["out", "parent", "fields.csv", "manifest.json"])
    def test_unusable_output_location_exits_one_with_one_line(self, tmp_path, capfd, cfg_path,
                                                              blocked):
        # --out names an existing file, lies below one, or holds a directory where an
        # output file goes
        out = tmp_path / "o"
        if blocked == "out":
            out.write_text("", encoding="utf-8")
        elif blocked == "parent":
            (tmp_path / "file").write_text("", encoding="utf-8")
            out = tmp_path / "file" / "sub"
        else:
            (out / blocked).mkdir(parents=True)
        assert run("simulate", "--config", cfg_path, "--out", out) == 1
        err = capfd.readouterr().err
        assert err.startswith("error: [Errno ") and err.count("\n") == 1

    def test_unusable_env_output_location_exits_one_with_one_line(self, tmp_path, capfd,
                                                                  cfg_path, monkeypatch):
        target = tmp_path / "file"
        target.write_text("", encoding="utf-8")
        monkeypatch.setenv("MOVINGHEAT_OUT", str(target))
        assert run("simulate", "--config", cfg_path, "--out", tmp_path / "ignored") == 1
        assert capfd.readouterr().err == (
            f"error: [Errno {errno.EEXIST}] {os.strerror(errno.EEXIST)}: '{target}'\n")
        assert not (tmp_path / "ignored").exists()

    def test_unallocatable_grid_exits_one_with_one_line(self, tmp_path, capfd):
        # numpy refuses the 8 PB request for the field grid before allocating
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(OVERFLOW_CFG.replace("t_end = 0.2", "t_end = 0.01")
                       + "[output]\ngrid_size = 1e15\n", encoding="utf-8")
        assert run("simulate", "--config", cfg, "--out", tmp_path / "o") == 1
        err = capfd.readouterr().err
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_overflowed_statistics_exit_two_with_one_line(self, tmp_path, capfd, workers):
        # every path ends finite, but the spread of |A|^2 overflows the standard error
        cfg = tmp_path / "over.cfg"
        cfg.write_text(OVERFLOW_CFG.replace("t_end = 0.2", "t_end = 0.1")
                       .replace("n_paths = 2", "n_paths = 4\nseed = 23"), encoding="utf-8")
        out = tmp_path / "o"
        assert run("ensemble", "--config", cfg, "--out", out, "--workers", workers) == 2
        err = capfd.readouterr().err
        assert err == ("numerical failure: non-finite standard error of l2_sq over 4 paths "
                       "at t=0.051\n")
        assert not any(out.glob("*.csv"))

    @pytest.mark.parametrize("edits,message", [
        ({"n_paths = 2": "seed = 1"},
         "seed 1, n=1, step 94: non-finite energy ledger at t=0.094"),
        # seed 3 fails first in time (step 107) and every level of seed 2 at step 112, but
        # the report is the lowest seed, then its lowest level
        ({"n_paths = 2": "seed = 2", "mode = 1": "mode = 2", "m = 1": "m = 2", "p = 1": "p = 0.6"},
         "seed 2, n=1, step 112: non-finite energy ledger at t=0.112"),
        # seed 25 fails first in time (step 108) and seed 24 at n=2 and n=4 (step 114) before
        # its n=1 (step 121), but the report is the lowest seed, then its lowest level
        ({"n_paths = 2": "seed = 24", "mode = 1": "mode = 2", "m = 1": "m = 2",
          "p = 1": "p = 0.6"},
         "seed 24, n=1, step 121: non-finite energy ledger at t=0.121"),
    ])
    def test_study_failure_names_seed_and_level(self, tmp_path, capfd, edits, message):
        text = OVERFLOW_CFG
        for old, new in edits.items():
            text = text.replace(old + "\n", new + "\n")
        cfg = tmp_path / "over.cfg"
        cfg.write_text(text, encoding="utf-8")
        out = tmp_path / "o"
        assert run("converge", "--config", cfg, "--out", out, "--levels", "1,2",
                   "--seeds", 3) == 2
        assert capfd.readouterr().err == f"numerical failure: {message}\n"
        assert not any(out.glob("*.csv"))

    @pytest.mark.parametrize("edits,extra,message", [
        # n = 16 and 32 are stable at dt = 1e-4 on the unit interval; n = 64 is not
        ({"n = 1": "n = 16\nscheme = explicit_em", "dt = 1e-3": "dt = 1e-4"},
         ["--levels", "16,32,64", "--seeds", 2],
         "explicit_em is unstable at dt=0.0001 for n=64: requires dt <= 4.60643e-05"),
        # the key of seed 2^64 - 2048 fits, that of the study's last seed does not
        ({"n_paths = 2": "seed = 18446744073709549568"}, ["--levels", "1", "--seeds", 2049],
         "seeds 18446744073709549568..18446744073709551616 must lie in "
         "[0, 18446744073709551616)"),
    ])
    def test_invalid_study_exits_one_before_the_first_step(self, tmp_path, capfd, monkeypatch,
                                                           edits, extra, message):
        from movingheat import integrator

        def no_step(*args, **kwargs):
            raise AssertionError("stepped before the study was validated")

        monkeypatch.setattr(integrator, "_step_paths", no_step)
        text = OVERFLOW_CFG
        for old, new in edits.items():
            text = text.replace(old + "\n", new + "\n")
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text, encoding="utf-8")
        out = tmp_path / "o"
        assert run("converge", "--config", cfg, "--out", out, *extra) == 1
        assert capfd.readouterr().err == f"error: {message}\n"
        assert not any(out.glob("*.csv"))

    @pytest.mark.parametrize("command,flag,value,message", [
        ("ensemble", "--workers", 0, "workers must be >= 1, got 0"),
        ("ensemble", "--workers", -3, "workers must be >= 1, got -3"),
        ("converge", "--seeds", 0, "number of seeds must be >= 1, got 0"),
    ])
    def test_bad_workers_or_seeds_exit_one(self, tmp_path, capfd, cfg_path, command, flag,
                                           value, message):
        out = tmp_path / "o"
        assert run(command, "--config", cfg_path, "--out", out, flag, value) == 1
        assert capfd.readouterr().err == f"error: {message}\n"
        assert not any(out.glob("*.csv"))


class TestUsageErrors:
    @pytest.mark.parametrize("argv,message", [
        (["ensemble", "--config", "{cfg}", "--workers", "abc"],
         "argument --workers: invalid int value: 'abc'"),
        (["ensemble", "--workers", "1"], "the following arguments are required: --config"),
        (["coupling-dump", "--config", "{cfg}", "--n", "4", "--t", "-inf"],
         "argument --t: expected one argument"),
        (["converge", "--config", "{cfg}", "--levels=--"],
         "argument --levels: expected one argument"),
        (["ensemble", "--config", "{cfg}", "--workers=--"],
         "argument --workers: expected one argument"),
        ([], "the following arguments are required: command"),
        (["nosuch"], "argument command: invalid choice: 'nosuch' (choose from 'simulate', "
                     "'ensemble', 'converge', 'energy-check', 'oracle-compare', "
                     "'coupling-dump')"),
    ])
    def test_exit_one_with_one_line(self, tmp_path, capfd, cfg_path, argv, message):
        argv = [a.format(cfg=cfg_path) for a in argv]
        assert main(argv + ["--out", str(tmp_path / "o")] if argv else argv) == 1
        assert capfd.readouterr() == ("", f"error: {message}\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [["--help"], ["ensemble", "--help"]])
    def test_help_exits_zero(self, capfd, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capfd.readouterr().out.startswith("usage: movingheat")

    @pytest.mark.parametrize("extra,message", [
        (["--n", "4", "--t", "nan"], "time nan outside [0, 1.0] for domain motion"),
        (["--n", "4", "--t=-inf"], "time -inf outside [0, 1.0] for domain motion"),
        (["--n", "4097"], "--n must lie in [1, 4096], got 4097"),
        (["--n", "0"], "--n must lie in [1, 4096], got 0"),
    ])
    def test_coupling_dump_rejects_time_and_size(self, tmp_path, capfd, cfg_path, extra,
                                                 message):
        out = tmp_path / "o"
        assert run("coupling-dump", "--config", cfg_path, "--out", out, *extra) == 1
        assert capfd.readouterr().err == f"error: {message}\n"
        assert not any(out.glob("*.csv"))


def test_cli_import_loads_no_process_pool():
    # the pool module loads only when an ensemble starts a pool of two or more processes
    import subprocess
    import sys
    from pathlib import Path

    import movingheat

    script = ("import sys, movingheat.cli\n"
              "assert 'concurrent.futures.process' not in sys.modules\n")
    src = str(Path(movingheat.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_loads_no_scipy(tmp_path):
    # scipy serves only the finite-difference oracle; it is imported where that is built.
    # A table domain's spline, parsed from a config or built directly, and a simulation on
    # it need no scipy, and the simulation loads no numpy.ma either.
    import os
    import subprocess
    import sys
    from pathlib import Path

    import movingheat

    (tmp_path / "knots.csv").write_text(
        "t,a\n" + "".join(f"{t},{1.0 + 0.2 * t * t}\n" for t in np.linspace(0, 1, 7).tolist()),
        encoding="utf-8")
    (tmp_path / "table.cfg").write_text(
        "[domain]\nkind = table\ntable_path = knots.csv\nT = 1.0\n"
        "[noise]\nkind = moving_diagonal\ngamma = 0.3\nm = 4\n"
        "[sim]\nn = 4\ndt = 0.01\nt_end = 0.1\n", encoding="utf-8")
    script = (
        "import sys, numpy as np\n"
        "def no_scipy(where):\n"
        "    assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], where\n"
        "import movingheat.cli\n"
        "no_scipy('import')\n"
        "from movingheat import make_domain, simulate, ParabolaInitial\n"
        "from movingheat.config import parse_run\n"
        "from movingheat.oracle import fd_solve\n"
        f"setup = parse_run({str(tmp_path / 'table.cfg')!r})\n"
        "no_scipy('parse_run of a table config')\n"
        "d = make_domain('table', {'t': np.linspace(0, 1, 5), 'a': np.linspace(1, 1.2, 5)}, 1.0)\n"
        "no_scipy('make_domain table')\n"
        "traj = simulate(setup.config.with_updates(domain=d), setup.u0)\n"
        "assert np.all(np.isfinite(traj.l2_sq))\n"
        "no_scipy('simulate on a table domain')\n"
        "assert 'numpy.ma' not in sys.modules, 'simulate loaded numpy.ma'\n"
        "sol = fd_solve(d, ParabolaInitial(1.0), 16, 0.01, 0.1)\n"
        "assert np.all(np.isfinite(sol.v)) and sol.times[-1] == 0.1\n"
        "assert 'scipy' in sys.modules, 'fd_solve runs on scipy'\n"
    )
    src = str(Path(movingheat.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr


TABLE_CFG = """
[domain]
kind = table
table_path = knots.csv
T = 0.5

[noise]
kind = moving_diagonal
gamma = 0.4
beta = 0.2
m = 6

[sim]
n = 6
dt = 0.005
t_end = 0.5
seed = 3
n_paths = 6

[output]
snapshot_stride = 10
"""


def write_table(tmp_path, ts, vals):
    (tmp_path / "knots.csv").write_text(
        "t,a\n" + "".join(f"{t},{a}\n" for t, a in zip(ts, vals)), encoding="utf-8")
    cfg = tmp_path / "table.cfg"
    cfg.write_text(TABLE_CFG, encoding="utf-8")
    return cfg


class TestTableDomain:
    @pytest.mark.parametrize("column,row,text", [
        ("t", 2, "nan"), ("t", 5, "inf"), ("a", 0, "nan"), ("a", 3, "-inf"), ("a", 5, "inf"),
    ])
    def test_non_finite_knots_exit_one_with_one_line(self, tmp_path, capfd, column, row, text):
        ts = ["0", "0.1", "0.2", "0.3", "0.4", "0.5"]
        vals = ["1.0", "1.1", "1.05", "0.95", "1.0", "1.2"]
        (ts if column == "t" else vals)[row] = text
        cfg = write_table(tmp_path, ts, vals)
        out = tmp_path / "o"
        assert run("simulate", "--config", cfg, "--out", out) == 1
        assert capfd.readouterr().err == "error: [domain] table knots t and a must be finite\n"
        assert not any(out.glob("*.csv"))

    def test_ensemble_workers_bitwise_identical(self, tmp_path, monkeypatch):
        # two usable CPUs, whatever the host, so the blocks go to a pool of two processes
        # that receive the config, and with it the domain's spline, pickled
        monkeypatch.setattr(integrator.os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        ts = np.linspace(0.0, 0.5, 11)
        cfg = write_table(tmp_path, ts, 1.0 + 0.3 * np.sin(7.0 * ts))
        for workers in (1, 2):
            assert run("ensemble", "--config", cfg, "--out", tmp_path / f"w{workers}",
                       "--workers", workers) == 0
        for name in ("ensemble.csv", "moments.csv"):
            assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w2" / name).read_bytes()


def read_csv(path):
    """The header and the float rows of a CSV written by the CLI: shortest round-trip
    cells read back exactly."""
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    return header.split(","), np.array([[float(cell) for cell in line.split(",")]
                                        for line in lines])


@pytest.mark.parametrize("grid_size", [2, 33])
@pytest.mark.parametrize("domain", ["sinusoidal", "table"])
def test_fields_are_the_trajectory_rows_synthesized_bitwise(tmp_path, domain, grid_size):
    # the x grid of each saved t spans that row's a_t, and u is the field of its A_k
    if domain == "table":
        ts = np.linspace(0.0, 0.5, 11)
        cfg = write_table(tmp_path, ts, 1.0 + 0.3 * np.sin(7.0 * ts))
        cfg.write_text(TABLE_CFG + f"grid_size = {grid_size}\n", encoding="utf-8")
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(STOCHASTIC_CFG.replace("grid_size = 33", f"grid_size = {grid_size}"),
                       encoding="utf-8")
    out = tmp_path / "o"
    assert run("simulate", "--config", cfg, "--out", out) == 0
    traj_header, traj = read_csv(out / "trajectory.csv")
    fields_header, fields = read_csv(out / "fields.csv")
    assert traj_header[:3] == ["step", "t", "a_t"] and fields_header == ["t", "x", "u"]
    xs, values = basis.synthesize(traj[:, 5:], traj[:, 2], grid_size)
    for row, (t, x, u), want_x, want in zip(
            traj, fields.reshape(len(traj), grid_size, 3).transpose(0, 2, 1), xs, values,
            strict=True):
        assert t.tolist() == [row[1]] * grid_size
        assert x.tobytes() == want_x.tobytes() == np.linspace(0.0, row[2], grid_size).tobytes()
        assert u.tobytes() == want.tobytes()


BASE_CFG = "[domain]\nkind = constant\na0 = 1.0\nT = 1.0\n[sim]\nn = 2\nt_end = 0.01\n"
TABLE_KNOTS_CFG = BASE_CFG.replace("kind = constant\na0 = 1.0", "kind = table\ntable_path = k.csv")


class TestInputChecks:
    @pytest.mark.parametrize("text,message", [
        (BASE_CFG + "nonsense\n", "line 8: expected 'key = value', got 'nonsense'"),
        ("n = 2\n" + BASE_CFG, "line 1: key outside any [section]"),
        (BASE_CFG + "[init]\nmode = 0\n", "[init] mode must be >= 1, got 0"),
        (BASE_CFG + "[output]\ngrid_size = 1\n", "grid_size must be >= 2, got 1"),
        # |a'/a| = 1e308 is far past what the explicit coupling step can take
        ("[domain]\nkind = linear\na0 = 1.0\nslope = 1e308\nT = 0.01\n"
         "[sim]\nn = 3\nscheme = explicit_em\nt_end = 0.01\n",
         "explicit_em is unstable at dt=0.001 for n=3: requires dt <= 1.04002e-309"),
    ])
    def test_bad_config_exits_one_with_one_line(self, tmp_path, capfd, text, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text, encoding="utf-8")
        out = tmp_path / "o"
        assert run("simulate", "--config", cfg, "--out", out) == 1
        assert capfd.readouterr() == ("", f"error: {message}\n")
        assert not any(out.glob("*.csv"))

    @pytest.mark.parametrize("knots,message", [
        ("t,a\n0,1.0\n0.4,abc\n0.7,0.9\n1.0,1.0\n",
         "table {dir}/k.csv must hold numeric t,a rows"),
        ("t\n0\n0.4\n0.7\n1.0\n", "table {dir}/k.csv must hold numeric t,a rows"),
        ("0,1.0\n0.5,1.1\n1.0,1.0\n",
         "[domain] table domain needs matching 1-D t/a arrays with >= 4 knots"),
        ("0,1.0\n0.5,1.1\n0.5,0.9\n1.0,1.0\n",
         "[domain] table knots must be strictly increasing in t"),
        ("0,1.0\n0.3,1.1\n0.6,0.9\n0.9,1.0\n",
         "[domain] table knots cover [0.0, 0.9], need [0, 1.0]"),
    ])
    def test_bad_knots_exit_one_with_one_line(self, tmp_path, capfd, knots, message):
        (tmp_path / "k.csv").write_text(knots, encoding="utf-8")
        cfg = tmp_path / "table.cfg"
        cfg.write_text(TABLE_KNOTS_CFG, encoding="utf-8")
        out = tmp_path / "o"
        assert run("simulate", "--config", cfg, "--out", out) == 1
        assert capfd.readouterr() == ("", f"error: {message.format(dir=tmp_path)}\n")
        assert not any(out.glob("*.csv"))

    def test_t_end_a_whole_number_of_steps_short_of_exact_runs(self, tmp_path):
        # 0.043 / 1e-3 = 42.99999999999999 in floats; the grid is i * dt, i = 0..43
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_CFG.replace("t_end = 0.01", "t_end = 0.043"), encoding="utf-8")
        assert run("simulate", "--config", cfg, "--out", tmp_path / "o") == 0
        header, rows = read_csv(tmp_path / "o" / "trajectory.csv")
        assert header[:2] == ["step", "t"]
        assert rows[:, 0].tolist() == list(range(44))
        assert rows[-1, 1] == 43 * 1e-3

    @pytest.mark.parametrize("kind", ["table", "matrix"])
    def test_non_utf8_file_exits_one_naming_it(self, tmp_path, capfd, kind):
        # the last row ends in byte 0xe9, which is not UTF-8
        if kind == "table":
            name, body, text = "k.csv", b"0,1.0\n0.4,1.1\n0.7,0.9\n1.0,1.0\xe9\n", TABLE_KNOTS_CFG
        else:
            name, body = "s.csv", b"1.0,0.5\n0.5,1\xe9\n"
            text = (BASE_CFG + "[noise]\nkind = general_matrix\nmatrix_path = s.csv\n"
                    "lipschitz_k = 1\n")
        (tmp_path / name).write_bytes(body)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text, encoding="utf-8")
        out = tmp_path / "o"
        assert run("simulate", "--config", cfg, "--out", out) == 1
        captured = capfd.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: cannot read {kind} {tmp_path / name}: ")
        assert "can't decode byte 0xe9" in captured.err
        assert not any(out.glob("*.csv"))

    def test_knots_after_a_blank_first_line_run(self, tmp_path):
        # blank rows are skipped wherever they are, the first line included
        knots = "\n0,1.0\n0.4,1.1\n0.7,0.9\n1.0,1.0\n"
        (tmp_path / "k.csv").write_text(knots, encoding="utf-8")
        cfg = tmp_path / "table.cfg"
        cfg.write_text(TABLE_KNOTS_CFG, encoding="utf-8")
        assert run("simulate", "--config", cfg, "--out", tmp_path / "o") == 0
        assert (tmp_path / "o" / "trajectory.csv").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("matrix", ["", "# no rows\n"])
    def test_empty_matrix_exits_one_with_one_line_and_no_warning(self, tmp_path, capfd, matrix):
        (tmp_path / "s.csv").write_text(matrix, encoding="utf-8")
        cfg = tmp_path / "gm.cfg"
        cfg.write_text(BASE_CFG + "[noise]\nkind = general_matrix\nmatrix_path = s.csv\n"
                       "lipschitz_k = 1\n", encoding="utf-8")
        assert run("simulate", "--config", cfg, "--out", tmp_path / "o") == 1
        assert capfd.readouterr() == (
            "", "error: [noise] coefficient table must be a nonempty, finite 2-D array\n")
