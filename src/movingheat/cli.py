"""Command-line entry point and all file emission.

Every command reads a config file, writes its CSV products into the output
directory and drops a ``manifest.json`` recording the fully resolved
configuration and the layout of the increment stream, so a run can be
reproduced bitwise from its manifest.
Floats are written with shortest round-trip formatting.

Exit codes: 0 success, 1 usage error, invalid configuration, out of memory or
an unusable output path, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, basis, diagnostics, oracle
from .config import parse_run
from .errors import ConfigError, NumericalError
from .integrator import simulate, simulate_ensemble
from .noise import MAX_MODES, STREAM


# Rows formatted and written together: bounds the writer's working set
_BLOCK_ROWS = 8192


def write_csv(path: Path, header, columns) -> None:
    """Write whole columns as CSV rows; no header line when ``header`` is None.

    Each column becomes an array once; the rows then go out in blocks of
    ``_BLOCK_ROWS``, each formatted column-wise and written with one call, so
    the memory the writer adds is bounded by one block, not by the file.
    Every cell is printed as ``str`` of a Python value (``tolist()`` of the
    block): floats as their shortest round-trip repr, ints as ints, strings
    as they are.
    """
    cols = [np.asarray(col) for col in columns]
    rows = min((len(col) for col in cols), default=0)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if header:
            fh.write(",".join(header) + "\n")
        for lo in range(0, rows, _BLOCK_ROWS):
            cells = [map(str, col[lo:lo + _BLOCK_ROWS].tolist()) for col in cols]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _version_string() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            cwd=Path(__file__).parent,
            timeout=5,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return f"v{__version__}"


def cmd_simulate(args, setup, trajectory_csv, fields_csv):
    cfg = setup.config
    traj = simulate(cfg, setup.u0)
    write_csv(
        trajectory_csv,
        ["step", "t", "a_t", "l2_sq", "h1_sq"] + [f"A_{k}" for k in range(1, cfg.n + 1)],
        [traj.steps, traj.times, traj.a_t, traj.l2_sq, traj.h1_sq, *traj.coeffs.T],
    )
    xs, values = basis.synthesize(traj.coeffs, traj.a_t, cfg.grid_size)
    # each saved time formatted once, then repeated by position over its snapshot's rows
    t_cells = np.array(list(map(str, traj.times.tolist())), dtype=object)
    write_csv(fields_csv, ["t", "x", "u"],
              [np.repeat(t_cells, cfg.grid_size), xs.ravel(), values.ravel()])


def cmd_ensemble(args, setup, ensemble_csv, moments_csv):
    summary = simulate_ensemble(setup.config, setup.u0, workers=args.workers)
    rows = diagnostics.moment_rows(summary)  # every statistic before either file is written
    write_csv(
        ensemble_csv,
        ["t", "a_t", "mean_l2_sq", "se_l2_sq", "mean_h1_sq", "se_h1_sq"],
        [summary.times, summary.a_t, summary.mean_l2_sq, summary.se_l2_sq,
         summary.mean_h1_sq, summary.se_h1_sq],
    )
    write_csv(moments_csv, ["stat", "value", "stderr"], zip(*rows))
    return {"workers": args.workers, "n_paths": summary.n_paths}


def cmd_converge(args, setup, converge_csv):
    try:
        levels = [int(tok) for tok in args.levels.split(",")]
    except ValueError:
        raise ConfigError(f"--levels must be comma-separated integers, got {args.levels!r}")
    rows = diagnostics.self_convergence_study(setup.config, setup.u0, levels, args.seeds)
    write_csv(converge_csv, ["seed", "n", "D_x", "D_y"],
              zip(*((r.seed, r.n, r.d_x, r.d_y) for r in rows)))
    return {"levels": levels, "seeds": args.seeds}


def cmd_energy_check(args, setup, energy_csv):
    traj = simulate(setup.config, setup.u0)
    write_csv(
        energy_csv,
        ["t", "l2_sq", "visc", "sto", "hs", "residual"],
        [traj.times, traj.l2_sq, traj.visc, traj.sto, traj.hs,
         diagnostics.energy_residuals(traj)],
    )


def cmd_oracle_compare(args, setup, oracle_csv):
    cfg = setup.config
    if cfg.model.kind != "zero":
        raise ConfigError("oracle-compare is deterministic-only; set [noise] kind = zero")
    traj = simulate(cfg, setup.u0)
    dt_fd = args.fd_dt if args.fd_dt is not None else cfg.dt
    if not dt_fd > 0:
        raise ConfigError(f"--fd-dt must be positive, got {dt_fd}")
    stride = cfg.snapshot_stride * cfg.dt / dt_fd
    if not math.isfinite(stride):
        raise ConfigError(f"--fd-dt {dt_fd!r} is too small: the save stride overflows")
    sol = oracle.fd_solve(cfg.domain, setup.u0, args.fd_m, dt_fd, cfg.t_end,
                          save_stride=max(1, round(stride)))
    # a spectral save time missing from the FD save grid raises ValueError: exit 1
    disc = [oracle.compare_with_spectral(traj, sol, float(t)) for t in traj.times]
    write_csv(oracle_csv, ["t", "discrepancy_l2"], [traj.times, disc])
    return {"fd_m": args.fd_m, "fd_dt": dt_fd}


def cmd_coupling_dump(args, setup, coupling_csv):
    if not 1 <= args.n <= MAX_MODES:
        raise ConfigError(f"--n must lie in [1, {MAX_MODES}], got {args.n}")
    b = basis.coupling_matrix(args.n, args.t, setup.config.domain)
    write_csv(coupling_csv, None, b.T)
    return {"n": args.n, "t": args.t}


# name -> (handler, help, output files, extra arguments as (flag, add_argument kwargs))
COMMANDS = {
    "simulate": (cmd_simulate, "single path: trajectory + field snapshots",
                 ("trajectory.csv", "fields.csv"), ()),
    "ensemble": (cmd_ensemble, "Monte Carlo ensemble statistics",
                 ("ensemble.csv", "moments.csv"),
                 (("--workers", dict(type=int, default=1, help="worker processes for paths")),)),
    "converge": (cmd_converge, "self-convergence study over truncation levels",
                 ("converge.csv",),
                 (("--levels", dict(default="8,16,32", help="comma-separated doubling levels")),
                  ("--seeds", dict(type=int, default=10, help="number of seeds")))),
    "energy-check": (cmd_energy_check, "energy-identity ledger along one path",
                     ("energy.csv",), ()),
    "oracle-compare": (cmd_oracle_compare, "spectral vs mapped finite differences",
                       ("oracle.csv",),
                       (("--fd-m", dict(type=int, default=512, help="FD grid intervals")),
                        ("--fd-dt", dict(type=float, default=None,
                                         help="FD time step (default: sim dt)")))),
    "coupling-dump": (cmd_coupling_dump, "dump the n x n coupling matrix at time t",
                      ("coupling.csv",),
                      (("--n", dict(type=int, required=True)),
                       ("--t", dict(type=float, default=0.0)))),
}


def run_command(args) -> int:
    """Parse the config, run one command into the output directory, write the manifest."""
    started = time.monotonic()
    setup = parse_run(args.config)
    handler, _, outputs, _ = COMMANDS[args.command]
    out_dir = Path(os.environ.get("MOVINGHEAT_OUT") or args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    extra = handler(args, setup, *(out_dir / name for name in outputs))
    manifest = {
        "command": args.command,
        "version": _version_string(),
        "seed": setup.config.seed,
        "noise_stream": STREAM,
        "config_text": setup.text,
        "outputs": sorted(outputs),
        "duration_s": time.monotonic() - started,
        **(extra or {}),
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error, a subcommand's included, as invalid configuration."""

    def error(self, message):
        raise ConfigError(message)

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        for name, value in vars(namespace).items():
            if isinstance(value, list):  # what argparse makes of "--flag=--"
                self.error(f"argument --{name.replace('_', '-')}: expected one argument")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="movingheat",
        description="Spectral solver for the stochastic heat equation on a moving interval",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _, extra_args) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the run config file")
        p.add_argument("--out", default=".", help="output directory (MOVINGHEAT_OUT overrides)")
        for flag, kwargs in extra_args:
            p.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    try:
        return run_command(build_parser().parse_args(argv))
    except (ConfigError, ValueError, MemoryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
