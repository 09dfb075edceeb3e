"""SHA-256 digests of every CSV the CLI writes on a fixed set of runs.

Usage (from the root of a checkout):

    python3 tools/output_digests.py [--root DIR] > digests.txt

The runs are the four benchmark workloads of ``perfbench/workloads.py`` at
seeds 3 and 17 (``ensemble_mc`` at ``--workers`` 1 and 2), then every CLI
command on each domain of {sinusoidal, table} under each noise of ``NOISES``,
which between them hold every part of sigma: the diagonal at beta > 0
(``moving_diagonal``) and at beta = 0 (``additive_diagonal``), the 12 x 16 table
of ``matrix.csv`` (``general_matrix``) and neither (``zero``).  Last come a few
steps of the cases whose coupling is applied by FFT: ``simulate`` and
``ensemble`` (at ``--workers`` 1 and 2) at n = 1024, ``converge --levels 256``,
whose reference level is 512, and ``converge --levels 160,320``, whose block
holds a dense level (160) and FFT levels (320, 640) side by side, with n = 320
itself the crossover.  Then ``simulate``, ``ensemble`` and ``converge`` under
``scheme = explicit_em``, and on ``OVERFLOW_SIM``, whose every path overflows
its energy ledger, so that the failure reports pin the step and kind of the
first failure.  Then ``simulate`` on a grid of 5 points, where the synthesis
folds modes 5 to 16 onto bins 1 to 3 with their signs.  Last, ``converge --levels
256`` saving every one of 700 steps: 701 saved steps of 768 modes per seed, the
shape at which a study that kept its seeds' saved coefficients within 2^20 words
stepped one seed at a time.  Each CSV gives one line
``<case> <file> <sha256>``; a command that exits non-zero gives
``<case> exit <code>: <stderr>`` instead.
``manifest.json`` is skipped: it records the version and the wall time.  The
output opens with ``# `` lines naming the Python, numpy, scipy and BLAS the
digests were computed with; another of any of them may move the last bits.

``--root`` names the checkout whose ``src/`` and ``perfbench/`` are used
(default: the one holding this script), so one copy of the script compares two
checkouts, say the parent of a change and the change itself:

    python3 tools/output_digests.py --root ../parent > parent.txt
    python3 tools/output_digests.py > change.txt
    diff parent.txt change.txt

``tests/data/output_digests.txt`` holds its output, and a tier-1 test compares
the program's digests with it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import platform
import sys
import tempfile
from pathlib import Path

WORKLOAD_SEEDS = (3, 17)
DOMAINS = {
    "sinusoidal": {"kind": "sinusoidal", "a0": 1.0, "amp": 0.5, "omega": 1.0, "T": 1.0},
    "table": {"kind": "table", "table_path": "knots.csv", "T": 1.0},
}
KNOTS = "t,a\n0.0,1.0\n0.25,1.12\n0.5,0.93\n0.75,1.05\n1.0,1.2\n"
# 12 driving motions by the 16 modes of SIM: entry [j, k] = 0.3 (-1)^(j+k) / (1 + j + k)
MATRIX = "".join(",".join(repr(0.3 * (-1) ** (j + k) / (1 + j + k)) for k in range(16)) + "\n"
                 for j in range(12))
NOISES = {
    # m = 12 > 8: each level's HS norm sums more than 8 terms
    "moving_diagonal": {"kind": "moving_diagonal", "gamma": 0.4, "beta": 0.3, "m": 12},
    "additive_diagonal": {"kind": "moving_diagonal", "gamma": 0.4, "beta": 0.0, "m": 12},
    "general_matrix": {"kind": "general_matrix", "matrix_path": "matrix.csv", "lipschitz_k": 1.0},
    "zero": {"kind": "zero"},
}
SIM = {"n": 16, "dt": 0.001, "t_end": 0.1, "seed": 5, "n_paths": 6}
# case -> CLI arguments; stride 7 does not divide the 100 steps
COMMANDS = {
    "simulate": ["simulate"],
    "ensemble": ["ensemble", "--workers", "2"],
    "converge": ["converge", "--levels", "4,8,16", "--seeds", "3"],
    "energy-check": ["energy-check"],
    "oracle-compare": ["oracle-compare", "--fd-m", "128"],
    "coupling-dump": ["coupling-dump", "--n", "12", "--t", "0.05"],
}
# Cases at or above the coupling's FFT crossover: n = 1024 (converge sets its own
# levels), five steps each
FFT_SIM = {**SIM, "n": 1024, "t_end": 0.005}
FFT_COMMANDS = {
    "simulate": ["simulate"],
    "converge": ["converge", "--levels", "256", "--seeds", "2"],
    "converge/crossover": ["converge", "--levels", "160,320", "--seeds", "2"],
    "ensemble/workers=1": ["ensemble", "--workers", "1"],
    "ensemble/workers=2": ["ensemble", "--workers", "2"],
}
# explicit_em at dt = 5e-4, under explicit_dt_bound at the widest level (7.4e-4 at
# n = 16, converge's reference level), for 200 steps
EXPLICIT_SIM = {**SIM, "scheme": "explicit_em", "dt": 0.0005}
EXPLICIT_COMMANDS = {
    "simulate": ["simulate"],
    "ensemble": ["ensemble", "--workers", "2"],
    "converge": ["converge", "--levels", "4,8", "--seeds", "3"],
}
# n = 1 under beta = 2000 on a fixed interval: every path's ledger overflows; path 0
# (seed 0 for converge) first, at step 103
OVERFLOW_DOMAIN = {"kind": "constant", "a0": 1.0, "T": 1.0}
OVERFLOW_NOISE = {"kind": "moving_diagonal", "gamma": 0.0, "beta": 2000.0, "p": 1.0, "m": 1}
OVERFLOW_SIM = {"n": 1, "dt": 0.001, "t_end": 0.2, "seed": 0, "n_paths": 4}
OVERFLOW_COMMANDS = {
    "simulate": ["simulate"],
    "ensemble/workers=1": ["ensemble", "--workers", "1"],
    "ensemble/workers=2": ["ensemble", "--workers", "2"],
    "converge": ["converge", "--levels", "1,2", "--seeds", "3"],
}
OUTPUT = {"grid_size": 17, "snapshot_stride": 7}
# n = 16 > 2M on 5 points (M = 4): mode k lands in bin k mod 8, and bins 5 to 7 fold back
# onto 3 to 1 with a minus sign
FOLD_OUTPUT = {**OUTPUT, "grid_size": 5}
FOLD_COMMANDS = {"simulate": ["simulate"]}
# 700 steps of dt = 1e-4, each saved, at levels 256 and 512
EVERY_STEP_SIM = {**SIM, "dt": 0.0001, "t_end": 0.07}
EVERY_STEP_OUTPUT = {**OUTPUT, "snapshot_stride": 1}
EVERY_STEP_COMMANDS = {"converge": ["converge", "--levels", "256", "--seeds", "3"]}


def config_text(domain: dict, noise: dict, sim: dict = SIM, output: dict = OUTPUT) -> str:
    sections = {"domain": domain, "noise": noise, "init": {"kind": "parabola"},
                "sim": sim, "output": output}
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


def run_commands(cli, prefix: str, text: str, commands: dict, work: Path) -> list[str]:
    """Run each of ``commands`` (case name -> CLI arguments) on the config ``text``."""
    config = work / f"{prefix.replace('/', '-')}.cfg"
    config.write_text(text, encoding="utf-8")
    lines = []
    for name, args in commands.items():
        case = f"{prefix}/{name}"
        out = work / case.replace("/", "-")
        lines += run(cli, case, [*args, "--config", str(config), "--out", str(out)], out)
    return lines


def environment() -> list[str]:
    """The header lines: the Python, numpy, scipy and BLAS in use."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return [f"# python {platform.python_version()}", f"# numpy {numpy.__version__}",
            f"# scipy {scipy.__version__}", f"# blas {blas['name']} {blas['version']}"]


def digests(work: Path) -> list[str]:
    """The digest lines of every case, run in ``work``; ``movingheat`` and the
    benchmark's ``workloads`` must be importable."""
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
    (work / "matrix.csv").write_text(MATRIX, encoding="utf-8")
    for domain in DOMAINS:
        for noise in NOISES:
            lines += run_commands(cli, f"{domain}/{noise}",
                                  config_text(DOMAINS[domain], NOISES[noise]), COMMANDS, work)
    sinusoidal, diagonal = DOMAINS["sinusoidal"], NOISES["moving_diagonal"]
    lines += run_commands(cli, "fft", config_text(sinusoidal, diagonal, FFT_SIM),
                          FFT_COMMANDS, work)
    lines += run_commands(cli, "explicit", config_text(sinusoidal, diagonal, EXPLICIT_SIM),
                          EXPLICIT_COMMANDS, work)
    lines += run_commands(cli, "overflow",
                          config_text(OVERFLOW_DOMAIN, OVERFLOW_NOISE, OVERFLOW_SIM),
                          OVERFLOW_COMMANDS, work)
    lines += run_commands(cli, "fold", config_text(sinusoidal, diagonal, SIM, FOLD_OUTPUT),
                          FOLD_COMMANDS, work)
    lines += run_commands(cli, "every-step",
                          config_text(sinusoidal, diagonal, EVERY_STEP_SIM, EVERY_STEP_OUTPUT),
                          EVERY_STEP_COMMANDS, work)
    return lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout whose src/ and perfbench/ are used")
    args = parser.parse_args()
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    os.environ.pop("MOVINGHEAT_OUT", None)  # it would override every --out
    with tempfile.TemporaryDirectory() as work:
        print("\n".join(environment() + digests(Path(work))))


if __name__ == "__main__":
    main()
