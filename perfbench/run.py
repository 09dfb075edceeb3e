"""movingheat benchmark: one workload, one seed, one run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload ensemble_mc --seed 1 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics of the CLI command with tracing
off.  Each round makes, in order, one fresh-interpreter set-up probe, one CLI
run in a fresh process (then checks its outputs) and one timed in-process call
of the library entry point, so that host drift hits all three alike.  Rounds
repeat until ``--seconds`` is used up; every metric is the median of its
round samples.

``--trace 1`` reports the per-layer metrics: the CLI command runs in-process,
alternately untraced and traced (spans recorded around calls into every
module's public functions; see ``tracer.py``), and the trace of the last
traced run is written to ``.perfbench_work/trace_<workload>.npz``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it,
``record {...}``, holds the full result record: seed, machine facts, every
raw sample and the failure messages.  Standard library only: the peak RSS of
the CLI child is read from the kernel, and this process must stay smaller
than the child it measures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from workloads import CheckFailed  # noqa: E402

# Every child is killed by then, so a hung program still ends the run well
# inside the 180 s a run may take.
HARD_LIMIT_S = 170.0
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "path_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# Traced names; each reports <name>.calls and <name>.self_s.
LAYERS = (
    "cli.main",
    "domain.a_at", "domain.a_prime_at",
    "config.parse_run",
    "basis.project_initial", "basis.coupling_matrix", "basis.eigenvalues",
    "basis.h1_norm_sq", "basis.synthesize", "basis.evaluate",
    "noise.generator_at", "noise.draw_increment", "noise.noise_kick", "noise.hs_norm_sq",
    "integrator.simulate", "integrator.simulate_ensemble",
    "diagnostics.record_step", "diagnostics.self_convergence_study",
    "diagnostics.level_distance",
    "oracle.fd_solve", "oracle.compare_with_spectral",
    "cli.write_csv",
)
LAYER_EXTRA_UNITS = {
    "cli.import_s": "s",
    "cli.csv_bytes": "bytes",
    "cli.csv_cells": "count",
    "integrator.pool_speedup": "ratio",
    "basis.coupling_matrix.calls_per_step": "ratio",
    "noise.generator_at.calls_per_step": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
}
NOTES = {
    "integrator.pool_speedup": "median w1 time / median w2 time",
    "basis.coupling_matrix.calls_per_step": "calls / spectral path-steps",
    "noise.generator_at.calls_per_step": "calls / spectral path-steps",
    "trace.overhead_ratio": "median traced / median untraced",
}


def per_layer_units() -> dict:
    units = {}
    for name in LAYERS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(LAYER_EXTRA_UNITS)
    return units


# ------------------------------------------------------------ processes


@dataclass
class Child:
    """Outcome of one child process: wall/CPU time, peak RSS, exit code."""

    wall: float
    cpu: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


def run_child(argv, env, scratch: Path, timeout: float) -> Child:
    """Spawn, wait and measure one child.

    CPU time is the RUSAGE_CHILDREN delta over the child's life, so it covers
    the pool workers it reaps.  Peak RSS comes from the child's own rusage as
    returned by wait4, not from the running maximum over all children.
    """
    out_path, err_path = scratch / "child.out", scratch / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return Child(wall, cpu, usage.ru_maxrss / 1024.0, proc.returncode,
                 out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))


class LabClient:
    """Pipe to one ``lab.py`` process (in-process measurements)."""

    def __init__(self, wl, run_dir: Path, workers: int, env, timeout: float):
        self.err = open(run_dir / "lab.err", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "lab.py"), wl.name, str(wl.seed), str(run_dir),
             str(workers)],
            env=env, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self.err, text=True,
        )
        self.err_path = run_dir / "lab.err"
        self.watchdog = threading.Timer(timeout, self.proc.kill)
        self.watchdog.start()
        self._read()

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait()
            tail = self.err_path.read_text(errors="replace").strip().splitlines()[-5:]
            raise RuntimeError("lab process died: " + " | ".join(tail))
        return json.loads(line)

    def ask(self, op, **req) -> dict:
        self.proc.stdin.write(json.dumps({"op": op, **req}) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        self.watchdog.cancel()
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.err.close()


# ------------------------------------------------------------ facts


def machine_facts() -> dict:
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    git_rev = "none (not a git checkout)"
    try:
        rev = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=5)
        lines = rev.stdout.split()
        # Only this checkout's own revision, not that of a repository around it.
        if rev.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            git_rev = lines[1]
    except (OSError, subprocess.SubprocessError):
        git_rev = "none (git unavailable)"
    digest = hashlib.sha256()
    for path in sorted((SRC / "movingheat").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "git_rev": git_rev,
        "src_sha256": digest.hexdigest(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def inputs_digest(run_dir: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(run_dir.glob("*.cfg")) + sorted(run_dir.glob("*.csv")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


# ------------------------------------------------------------ runs


class Run:
    def __init__(self, wl, run_dir: Path, env, workers: int, pool_workers: int,
                 hard_deadline: float):
        self.wl, self.run_dir, self.env, self.workers = wl, run_dir, env, workers
        self.pool_workers = pool_workers
        self.hard_deadline = hard_deadline
        self.samples: dict[str, list[float]] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def child(self, argv) -> Child:
        return run_child(argv, self.env, self.run_dir,
                         timeout=max(1.0, self.hard_deadline - time.perf_counter()))

    def add(self, name, value) -> None:
        self.samples.setdefault(name, []).append(value)

    def fail(self, what: str) -> None:
        self.failures.append(what)

    def out_dir(self, label: str) -> Path:
        path = self.run_dir / f"out_{label}"
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir()
        return path

    def cli_workers(self):
        return self.workers if self.wl.name == "ensemble_mc" else None

    def check(self, out_dir: Path, what: str) -> bool:
        try:
            workloads.check_outputs(self.wl, out_dir)
        except CheckFailed as exc:
            self.fail(f"{what}: {exc}")
            return False
        return True

    def setup_probe(self) -> dict:
        child = self.child([sys.executable, str(HERE / "setup_probe.py"), str(self.wl.config)])
        if child.code != 0:
            raise RuntimeError(f"set-up probe exited {child.code}: {child.stderr.strip()}")
        return json.loads(child.stdout.strip().splitlines()[-1])

    def cli(self, label: str, workers=None):
        """One CLI invocation in a fresh process; counts as one attempted run."""
        out = self.out_dir(label)
        argv = [sys.executable, "-c", "import sys; from movingheat.cli import main; "
                "sys.exit(main())"] + self.wl.cli_args(out, workers)
        child = self.child(argv)
        self.attempted += 1
        if child.code != 0:
            msg = child.stderr.strip().splitlines()[-1:] or [""]
            self.fail(f"CLI {label} exited {child.code}: {msg[0]}")
            return child, None
        return child, out if self.check(out, f"CLI {label}") else None

    def same_bytes(self, a: Path, b: Path, what: str) -> None:
        differ = [name for name in self.wl.outputs
                  if (a / name).read_bytes() != (b / name).read_bytes()]
        if differ:
            self.fail(f"{what}: {', '.join(differ)} differ")


def repeat_until(deadline: float, one_round) -> None:
    """Call ``one_round(i)`` until the next round would, on average, end
    more than half a round past ``deadline``."""
    spent = []
    while True:
        t0 = time.perf_counter()
        one_round(len(spent))
        spent.append(time.perf_counter() - t0)
        if time.perf_counter() + 0.5 * statistics.mean(spent) > deadline:
            return


def measure_end_to_end(run: Run, lab: LabClient, deadline: float) -> None:
    reference = None
    if run.wl.name == "ensemble_mc":
        # Criterion 9: the worker count must not change an output byte.
        other = run.pool_workers if run.workers == 1 else 1
        _, reference = run.cli("reference", workers=other)

    def one_round(i):
        run.add("setup_s", run.setup_probe()["setup_s"])
        child, out = run.cli("round", workers=run.cli_workers())
        if i == 0 and reference and out:
            run.same_bytes(reference, out, f"--workers {other} vs --workers {run.workers}")
        run.add("wall_s", child.wall)
        run.add("cpu_s", child.cpu)
        run.add("peak_rss_mb", child.rss_mb)
        reply = lab.ask("solve")
        run.add("path_steps_per_s", reply["path_steps"] / reply["seconds"])

    repeat_until(deadline, one_round)


def measure_layers(run: Run, lab: LabClient, deadline: float) -> dict:
    """Traced in-process runs; returns counts and medians of self time."""
    wl = run.wl
    counts: dict = {}
    for _ in range(3):
        run.add("cli.import_s", run.setup_probe()["import_s"])
    # The traced command runs in one process; the ensemble's pool is timed
    # separately below, untraced, as integrator.pool_speedup.
    workers = 1 if wl.name == "ensemble_mc" else None
    pooled, pooled_ok = None, False
    if wl.name == "ensemble_mc":
        run.attempted += 1
        pooled = run.out_dir("pooled")
        reply = lab.ask("main", out=str(pooled), workers=run.pool_workers, traced=False)
        pooled_ok = reply["exit"] == 0 and run.check(pooled, "in-process pooled")
    trace_file = WORK / f"trace_{wl.name}.npz"

    def one_round(i):
        plain, traced = run.out_dir("plain"), run.out_dir("traced")
        run.attempted += 2
        reply = lab.ask("main", out=str(plain), workers=workers, traced=False)
        run.add("untraced_s", reply["seconds"])
        ok = reply["exit"] == 0 and run.check(plain, "in-process untraced")
        reply = lab.ask("main", out=str(traced), workers=workers, traced=True,
                        trace_file=str(trace_file))
        run.add("traced_s", reply["seconds"])
        if reply["exit"] == 0 and run.check(traced, "in-process traced") and ok:
            run.same_bytes(plain, traced, "traced vs untraced")
            if i == 0 and pooled_ok:
                run.same_bytes(pooled, plain,
                               f"in-process --workers {run.pool_workers} vs --workers 1")
        for name, layer in reply["layers"].items():
            run.add(f"{name}.self_s", layer["self_s"])
            counts[f"{name}.calls"] = layer["calls"]
        counts["trace.spans"] = reply["spans"]
        counts["patch_sites"] = reply["patch_sites"]
        if wl.name == "ensemble_mc":
            run.add("pool_w1", lab.ask("pool", workers=1)["seconds"])
            run.add("pool_w2", lab.ask("pool", workers=run.pool_workers)["seconds"])

    repeat_until(deadline, one_round)
    try:
        counts["cli.csv_bytes"], counts["cli.csv_cells"] = workloads.csv_size(
            wl, run.run_dir / "out_traced")
    except CheckFailed:  # already counted as a failed run
        counts["cli.csv_bytes"] = counts["cli.csv_cells"] = 0
    return counts


def layer_metrics(run: Run, counts: dict) -> dict:
    med = {k: statistics.median(v) for k, v in run.samples.items()}
    steps = workloads.path_steps(run.wl)["spectral"]
    values = {}
    for name in LAYERS:
        values[f"{name}.calls"] = counts.get(f"{name}.calls", 0)
        values[f"{name}.self_s"] = med.get(f"{name}.self_s", 0.0)
    values["cli.import_s"] = med["cli.import_s"]
    values["cli.csv_bytes"] = counts["cli.csv_bytes"]
    values["cli.csv_cells"] = counts["cli.csv_cells"]
    # 0 where the workload starts no process pool.
    values["integrator.pool_speedup"] = (
        med["pool_w1"] / med["pool_w2"] if "pool_w1" in med else 0.0
    )
    values["basis.coupling_matrix.calls_per_step"] = values["basis.coupling_matrix.calls"] / steps
    values["noise.generator_at.calls_per_step"] = values["noise.generator_at.calls"] / steps
    values["trace.overhead_ratio"] = med["traced_s"] / med["untraced_s"]
    values["trace.spans"] = counts["trace.spans"]
    return values


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("MOVINGHEAT_OUT", None)  # would redirect every output directory
    # Installed packages import from cached bytecode; let the first import
    # (the lab's, before any timing) write it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measurement window")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    hard_deadline = time.perf_counter() + HARD_LIMIT_S
    if not (SRC / "movingheat" / "cli.py").is_file():
        print(f"perfbench: no movingheat sources under {SRC}; run from the root of a "
              "movingheat checkout", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    # Timed runs leave one CPU to the rest of the machine: on a 2-CPU host
    # with busy neighbours a two-worker ensemble waits for whichever CPU is
    # contended, and its run-to-run spread broke the 0.25 bound.  The pool
    # still runs once per invocation (byte-identity check) and in the traced
    # run (integrator.pool_speedup).
    pool_workers = min(2, nproc)
    workers = max(1, min(2, nproc - 1))
    run_dir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    wl = workloads.generate(args.workload, args.seed, run_dir, workers)
    env = child_env()
    run = Run(wl, run_dir, env, workers, pool_workers, hard_deadline)
    lab = None
    try:
        lab = LabClient(wl, run_dir, workers, env, hard_deadline - time.perf_counter())
        facts = {**machine_facts(), **lab.ask("facts")}
        deadline = time.perf_counter() + args.seconds
        if args.trace:
            counts = measure_layers(run, lab, deadline)
            values = layer_metrics(run, counts)
            units = per_layer_units()
        else:
            measure_end_to_end(run, lab, deadline)
            counts = {}
            values = {k: statistics.median(run.samples[k]) for k in END_TO_END_UNITS}
            units = END_TO_END_UNITS
        digest = inputs_digest(run_dir)
    finally:
        if lab is not None:
            lab.close()
        shutil.rmtree(run_dir, ignore_errors=True)

    # Each failure message belongs to one run (a failed check skips the
    # byte comparisons that would read the same outputs).
    failed = min(len(run.failures), run.attempted)
    failed_ratio = failed / run.attempted
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"runs {run.attempted}  failed {failed}")
    for name, unit in units.items():
        if name in run.samples:
            note = f"median of {len(run.samples[name])}"
        else:
            note = NOTES.get(name, "exact count")
        print(f"  {name:42s} {values[name]:>16.6g} {unit:6s} ({note})")
    print(f"  {'failed_ratio':42s} {failed_ratio:>16.6g} {'ratio':6s} "
          f"({failed} of {run.attempted} runs)")
    for msg in run.failures:
        print(f"  FAILED {msg}")
    record = {
        "workload": wl.name, "why": workloads.WHY[wl.name], "seed": args.seed,
        "trace": args.trace, "seconds": args.seconds, "inputs_sha256": digest,
        "params": wl.params, "pool_workers": pool_workers, "machine": facts,
        "samples": run.samples,
        "counts": counts, "failed_ratio": failed_ratio, "failures": run.failures,
    }
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
