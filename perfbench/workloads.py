"""Seeded workload generation, expected call counts and output checks.

Standard library only: ``run.py`` imports this module and must stay small,
because its own resident set is not allowed to leak into the peak-RSS figure
of the CLI processes it spawns.

Each workload is one ``movingheat`` CLI command on a generated config file.
The seed sets ``[sim] seed`` and, for ``oracle_compare``, the spline knots of
the ``table`` domain; the program only ever sees the generated files.  Sizes
are scaled so that a 25 s run holds several samples of every measurement;
``README.md`` gives the layer shares a cProfile of the unmodified solver
measured at these sizes.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("ensemble_mc", "converge_levels", "fields_output", "oracle_compare")

# Why each workload exists; BENCHMARK.json carries the same one-liners.
WHY = {
    "ensemble_mc": "many paths at small n: per-step overhead, coupling rebuild and "
    "per-(path, step) Philox; pool dispatch on hosts with more than 2 CPUs",
    "converge_levels": "few paths at large n: the O(n^2) coupling rebuild and wide-m noise "
    "draws dominate, with shared-increment level pairs",
    "fields_output": "one path whose cost is field synthesis and per-cell CSV formatting; "
    "a stepping change should not move it",
    "oracle_compare": "zero noise on a seeded spline domain: the finite-difference oracle and "
    "the spline branch of domain; noise changes should not move it",
}

SEED_MODULUS = 2**32


@dataclass
class Workload:
    name: str
    seed: int
    config: Path
    command: str  # CLI subcommand
    extra_args: list[str]
    outputs: list[str]  # CSV files the command must write
    params: dict = field(default_factory=dict)

    def cli_args(self, out_dir: Path, workers: int | None = None) -> list[str]:
        args = [self.command, "--config", str(self.config), "--out", str(out_dir)]
        args += self.extra_args
        if workers is not None:
            args += ["--workers", str(workers)]
        return args


def _n_steps(t_end: float, dt: float) -> int:
    return round(t_end / dt)


def _n_saved(steps: int, stride: int) -> int:
    saved = len(range(0, steps + 1, stride))
    return saved + (0 if steps % stride == 0 else 1)


_SINUSOID = {"kind": "sinusoidal", "a0": 1.0, "amp": 0.5, "omega": 1.0, "T": 1.0}


def _config_text(sections: dict) -> str:
    return "\n".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
        for name, keys in sections.items()
    )


def generate(name: str, seed: int, work_dir: Path, workers: int = 2) -> Workload:
    """Write the config (and knot table) for one workload into ``work_dir``."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    work_dir.mkdir(parents=True, exist_ok=True)
    sim = {"dt": 1e-3, "seed": seed % SEED_MODULUS}
    extra: list[str] = []
    if name == "ensemble_mc":
        p = dict(n_paths=64, workers=workers, solve_reps=1)
        sections = {
            "domain": _SINUSOID,
            "noise": {"kind": "moving_diagonal", "gamma": 0.3, "beta": 0.2, "m": 16},
            "init": {"kind": "mode", "mode": 1},
            "sim": {**sim, "n": 16, "t_end": 0.25, "n_paths": p["n_paths"]},
            "output": {"snapshot_stride": 25},
        }
        command, outputs = "ensemble", ["ensemble.csv", "moments.csv"]
    elif name == "converge_levels":
        p = dict(levels=[32, 64, 128], seeds=2, solve_reps=1)
        sections = {
            "domain": _SINUSOID,
            "noise": {"kind": "moving_diagonal", "gamma": 0.5, "beta": 0.0, "m": 256},
            "init": {"kind": "parabola"},
            "sim": {**sim, "n": 32, "t_end": 0.5},
        }
        command, outputs = "converge", ["converge.csv"]
        extra = ["--levels", ",".join(map(str, p["levels"])), "--seeds", str(p["seeds"])]
    elif name == "fields_output":
        p = dict(grid=129, solve_reps=5)
        sections = {
            "domain": _SINUSOID,
            "noise": {"kind": "moving_diagonal", "gamma": 0.5, "beta": 0.5, "m": 32},
            "init": {"kind": "parabola"},
            "sim": {**sim, "n": 32, "t_end": 1.0},
            "output": {"grid_size": p["grid"], "snapshot_stride": 1},
        }
        command, outputs = "simulate", ["trajectory.csv", "fields.csv"]
    else:
        # A natural cubic spline through seeded knots on [0, 0.5].
        horizon = 0.5
        ts, avals = knots(seed, horizon)
        (work_dir / "knots.csv").write_text(
            "t,a\n" + "".join(f"{t!r},{a!r}\n" for t, a in zip(ts, avals)), encoding="utf-8")
        p = dict(fd_m=1024, fd_dt=1e-4, solve_reps=2)
        sections = {
            "domain": {"kind": "table", "table_path": "knots.csv", "T": horizon},
            "noise": {"kind": "zero"},
            "init": {"kind": "parabola"},
            "sim": {**sim, "n": 48, "t_end": horizon},
            "output": {"snapshot_stride": 50},
        }
        command, outputs = "oracle-compare", ["oracle.csv"]
        extra = ["--fd-m", str(p["fd_m"]), "--fd-dt", repr(p["fd_dt"])]
        p["fd_steps"] = _n_steps(horizon, p["fd_dt"])
    config = work_dir / f"{name}.cfg"
    config.write_text(_config_text(sections), encoding="utf-8")
    run = sections["sim"]
    p.update(n=run["n"], dt=run["dt"], t_end=run["t_end"],
             stride=sections.get("output", {}).get("snapshot_stride", 1))
    p["steps"] = _n_steps(p["t_end"], p["dt"])
    p["saved"] = _n_saved(p["steps"], p["stride"])
    return Workload(name, seed, config, command, extra, outputs, p)


def knots(seed: int, horizon: float, count: int = 9):
    """Smooth seeded boundary motion sampled at ``count`` equispaced knots.

    One low-frequency sinusoid of random amplitude, frequency and phase plus
    a small per-knot jitter; a(t) stays within [0.65, 1.35].
    """
    rng = random.Random(f"knots-{seed}")
    amp = rng.uniform(0.1, 0.25)
    omega = rng.uniform(2.0, 6.0)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    ts = [horizon * i / (count - 1) for i in range(count)]
    avals = [1.0 + amp * math.sin(omega * t + phase) + rng.uniform(-0.02, 0.02) for t in ts]
    return ts, avals


# ``solve_reps``: library calls per in-process throughput sample, so that
# each sample takes about a second (one solve of fields_output is 0.2 s).


def path_steps(wl: Workload) -> dict:
    """Solver step counts of one CLI invocation.

    ``spectral`` counts paths x steps of the spectral stepper, summed over
    truncation levels; ``total`` adds the finite-difference steps of
    ``oracle_compare``.  ``total`` is the numerator of ``path_steps_per_s``.
    """
    p = wl.params
    if wl.name == "ensemble_mc":
        spectral = p["n_paths"] * p["steps"]
    elif wl.name == "converge_levels":
        spectral = p["seeds"] * (len(p["levels"]) + 1) * p["steps"]
    else:
        spectral = p["steps"]
    return {"spectral": spectral, "total": spectral + p.get("fd_steps", 0)}


def expected_counts(wl: Workload) -> dict:
    """Exact call counts of the traced in-process CLI run at the benchmark's
    defining commit.  A mismatch means a patch site was missed, or that the
    program's call structure changed and this table needs updating."""
    p = wl.params
    steps, saved = p["steps"], p["saved"]
    if wl.name == "ensemble_mc":
        sims, csv_files = p["n_paths"], 2
    elif wl.name == "converge_levels":
        sims, csv_files = p["seeds"] * (len(p["levels"]) + 1), 1
    else:
        sims, csv_files = 1, {"fields_output": 2, "oracle_compare": 1}[wl.name]
    stepped = sims * steps
    noisy = wl.name != "oracle_compare"
    h1 = sims * (steps + saved)
    counts = {
        "cli.main": 1,
        "config.parse_run": 1,
        "integrator.simulate": sims,
        "integrator.simulate_ensemble": int(wl.name == "ensemble_mc"),
        "basis.project_initial": sims,
        "basis.coupling_matrix": stepped,
        "basis.h1_norm_sq": h1,
        "basis.eigenvalues": h1 + stepped,
        "noise.generator_at": stepped if noisy else 0,
        "noise.draw_increment": stepped if noisy else 0,
        "noise.noise_kick": stepped if noisy else 0,
        "noise.hs_norm_sq": stepped if noisy else 0,
        "diagnostics.record_step": stepped,
        "diagnostics.self_convergence_study": int(wl.name == "converge_levels"),
        "diagnostics.level_distance": (
            p["seeds"] * len(p["levels"]) if wl.name == "converge_levels" else 0
        ),
        "oracle.fd_solve": int(wl.name == "oracle_compare"),
        "oracle.compare_with_spectral": saved if wl.name == "oracle_compare" else 0,
        "basis.synthesize": saved if wl.name == "fields_output" else 0,
        "cli.write_csv": csv_files,
    }
    counts["basis.evaluate"] = counts["basis.synthesize"] + counts["oracle.compare_with_spectral"]
    # Boundary lookups: make_domain's admissibility sample and the initial
    # data's a(0) at parse time, one a(0) per projection, one per coupling
    # matrix and eigenvalue vector, and each caller's own lookups.
    fd_steps = p.get("fd_steps", 0)
    counts["domain.a_at"] = (
        2 + sims + stepped + counts["basis.eigenvalues"]
        + counts["integrator.simulate_ensemble"]            # a(t) column of ensemble.csv
        + counts["diagnostics.level_distance"]               # a(t) over the saved grid
        + (saved if wl.name == "fields_output" else 0)       # a_t column of trajectory.csv
        + counts["basis.synthesize"] + counts["basis.evaluate"]
        + counts["oracle.compare_with_spectral"]
        + counts["oracle.fd_solve"] * (1 + 3 * fd_steps)     # two operators + L2 per step
    )
    counts["domain.a_prime_at"] = 1 + stepped + counts["oracle.fd_solve"] * 2 * fd_steps
    return counts


# ---------------------------------------------------------------- checks


class CheckFailed(Exception):
    """An output of the program is missing or wrong."""


def _read_rows(path: Path):
    if not path.is_file():
        raise CheckFailed(f"missing output {path.name}")
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise CheckFailed(f"{path.name} is empty")
    return rows[0], rows[1:]


def check_outputs(wl: Workload, out_dir: Path) -> None:
    """Raise ``CheckFailed`` unless the command's outputs are correct."""
    if not (out_dir / "manifest.json").is_file():
        raise CheckFailed("missing output manifest.json")
    p = wl.params
    if wl.name == "ensemble_mc":
        _, rows = _read_rows(out_dir / "ensemble.csv")
        if len(rows) != p["saved"]:
            raise CheckFailed(f"ensemble.csv has {len(rows)} rows, expected {p['saved']}")
        _, rows = _read_rows(out_dir / "moments.csv")
        stats = {r[0]: (float(r[1]), float(r[2])) for r in rows}
        if "energy_balance" not in stats:
            raise CheckFailed("moments.csv has no energy_balance row")
        value, stderr = stats["energy_balance"]
        if not abs(value) <= 4.0 * stderr:
            raise CheckFailed(f"|energy_balance| = {abs(value):.3g} > 4 stderr = {4 * stderr:.3g}")
    elif wl.name == "converge_levels":
        _, rows = _read_rows(out_dir / "converge.csv")
        want = p["seeds"] * len(p["levels"])
        if len(rows) != want:
            raise CheckFailed(f"converge.csv has {len(rows)} rows, expected {want}")
        by_seed: dict[str, list] = {}
        for seed, n, d_x, d_y in rows:
            by_seed.setdefault(seed, []).append((int(n), float(d_x), float(d_y)))
        for seed, series in by_seed.items():
            series.sort()
            for (n0, x0, y0), (n1, x1, y1) in zip(series, series[1:]):
                if not (x1 < x0 and y1 < y0):
                    raise CheckFailed(
                        f"seed {seed}: D_x/D_y not strictly decreasing from n={n0} to n={n1}"
                    )
    elif wl.name == "fields_output":
        _, rows = _read_rows(out_dir / "trajectory.csv")
        if len(rows) != p["saved"]:
            raise CheckFailed(f"trajectory.csv has {len(rows)} rows, expected {p['saved']}")
        _, rows = _read_rows(out_dir / "fields.csv")
        grid = p["grid"]
        if len(rows) != p["saved"] * grid:
            raise CheckFailed(f"fields.csv has {len(rows)} rows, expected {p['saved'] * grid}")
        for start in range(0, len(rows), grid):
            block = rows[start:start + grid]
            if len({r[0] for r in block}) != 1:
                raise CheckFailed(f"fields.csv block at row {start} mixes times")
            if float(block[0][2]) != 0.0 or float(block[-1][2]) != 0.0:
                raise CheckFailed(f"fields.csv block at t={block[0][0]}: u != 0 at an endpoint")
    else:
        _, rows = _read_rows(out_dir / "oracle.csv")
        if len(rows) != p["saved"]:
            raise CheckFailed(
                f"oracle.csv has {len(rows)} rows, expected one per saved time ({p['saved']})"
            )
        worst = max(float(r[1]) for r in rows)
        if not worst <= 1e-3:
            raise CheckFailed(f"max discrepancy_l2 = {worst:.3g} > 1e-3")


def csv_size(wl: Workload, out_dir: Path) -> tuple[int, int]:
    """(bytes, data cells) over the command's CSV outputs; header cells excluded."""
    total_bytes = total_cells = 0
    for name in wl.outputs:
        path = out_dir / name
        total_bytes += path.stat().st_size
        _, rows = _read_rows(path)
        total_cells += sum(len(r) for r in rows)
    return total_bytes, total_cells
