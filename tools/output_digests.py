"""SHA-256 digests of every CSV the CLI writes on a fixed set of runs.

Usage (from the root of a checkout):

    python3 tools/output_digests.py [--root DIR] > digests.txt

The runs are the four benchmark workloads of ``perfbench/workloads.py`` at
seeds 3 and 17 (``ensemble_mc`` at ``--workers`` 1 and 2), then every CLI
command on each domain of {sinusoidal, table} under each noise of
{moving_diagonal, zero}, then a few steps of the cases whose coupling is applied
by FFT: ``simulate`` and ``ensemble`` (at ``--workers`` 1 and 2) at n = 1024
and ``converge --levels 256``, whose reference level is 512.  Each CSV gives
one line ``<case> <file> <sha256>``;
a command that exits non-zero gives ``<case> exit <code>: <stderr>`` instead.
``manifest.json`` is skipped: it records the version and the wall time.

``--root`` names the checkout whose ``src/`` and ``perfbench/`` are used
(default: the one holding this script), so one copy of the script compares two
checkouts, say the parent of a change and the change itself:

    python3 tools/output_digests.py --root ../parent > parent.txt
    python3 tools/output_digests.py > change.txt
    diff parent.txt change.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

WORKLOAD_SEEDS = (3, 17)
DOMAINS = {
    "sinusoidal": {"kind": "sinusoidal", "a0": 1.0, "amp": 0.5, "omega": 1.0, "T": 1.0},
    "table": {"kind": "table", "table_path": "knots.csv", "T": 1.0},
}
KNOTS = "t,a\n0.0,1.0\n0.25,1.12\n0.5,0.93\n0.75,1.05\n1.0,1.2\n"
NOISES = {
    # m = 12 > 8: each level's HS norm sums more than 8 terms
    "moving_diagonal": {"kind": "moving_diagonal", "gamma": 0.4, "beta": 0.3, "m": 12},
    "zero": {"kind": "zero"},
}
SIM = {"n": 16, "dt": 0.001, "t_end": 0.1, "seed": 5, "n_paths": 6}
# command -> extra CLI arguments; stride 7 does not divide the 100 steps
COMMANDS = {
    "simulate": [],
    "ensemble": ["--workers", "2"],
    "converge": ["--levels", "4,8,16", "--seeds", "3"],
    "energy-check": [],
    "oracle-compare": ["--fd-m", "128"],
    "coupling-dump": ["--n", "12", "--t", "0.05"],
}
# Cases at or above the coupling's FFT crossover: n = 1024 (converge sets its own
# levels), five steps each
FFT_SIM = {**SIM, "n": 1024, "t_end": 0.005}
FFT_COMMANDS = {
    "simulate": ["simulate"],
    "converge": ["converge", "--levels", "256", "--seeds", "2"],
    "ensemble/workers=1": ["ensemble", "--workers", "1"],
    "ensemble/workers=2": ["ensemble", "--workers", "2"],
}


def config_text(domain: str, noise: str, sim: dict = SIM) -> str:
    sections = {"domain": DOMAINS[domain], "noise": NOISES[noise], "init": {"kind": "parabola"},
                "sim": sim, "output": {"grid_size": 17, "snapshot_stride": 7}}
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for name, keys in sections.items())


def run(cli, case: str, args: list[str], out_dir: Path) -> list[str]:
    """Run the CLI command ``args``, which writes into ``out_dir``; return its digest lines."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = cli.main(args)
    if code:
        return [f"{case} exit {code}: {stderr.getvalue().strip()}"]
    return [f"{case} {path.name} {hashlib.sha256(path.read_bytes()).hexdigest()}"
            for path in sorted(out_dir.glob("*.csv"))]


def digests(root: Path, work: Path) -> list[str]:
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from movingheat import cli

    lines = []
    for name in workloads.WORKLOADS:
        for seed in WORKLOAD_SEEDS:
            wl = workloads.generate(name, seed, work / f"{name}-{seed}")
            for workers in ([1, 2] if name == "ensemble_mc" else [None]):
                case = f"{name}/seed={seed}" + (f"/workers={workers}" if workers else "")
                out = work / case.replace("/", "-")
                lines += run(cli, case, wl.cli_args(out, workers), out)
    (work / "knots.csv").write_text(KNOTS, encoding="utf-8")
    for domain in DOMAINS:
        for noise in NOISES:
            config = work / f"{domain}-{noise}.cfg"
            config.write_text(config_text(domain, noise), encoding="utf-8")
            for command, extra in COMMANDS.items():
                case = f"{domain}/{noise}/{command}"
                out = work / case.replace("/", "-")
                lines += run(cli, case, [command, "--config", str(config), "--out", str(out),
                                         *extra], out)
    config = work / "fft.cfg"
    config.write_text(config_text("sinusoidal", "moving_diagonal", FFT_SIM), encoding="utf-8")
    for name, args in FFT_COMMANDS.items():
        case = f"fft/{name}"
        out = work / case.replace("/", "-")
        lines += run(cli, case, [*args, "--config", str(config), "--out", str(out)], out)
    return lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout whose src/ and perfbench/ are used")
    args = parser.parse_args()
    os.environ.pop("MOVINGHEAT_OUT", None)  # it would override every --out
    with tempfile.TemporaryDirectory() as work:
        print("\n".join(digests(args.root.resolve(), Path(work))))


if __name__ == "__main__":
    main()
