"""Self-test of the benchmark itself (not of movingheat).

Usage (from the root of a checkout):  python3 perfbench/selftest.py [--seed N]

1. Seeded inputs: the same seed writes byte-identical inputs, another seed
   writes different ones.
2. ``BENCHMARK.json`` names exactly the workloads and metrics ``run.py``
   reports.
3. Traced call counts: for every workload, a short ``run.py --trace 1`` run
   must report exactly ``workloads.expected_counts``, and the tracer must
   have patched the by-name imports (``cli.simulate``, ``cli.parse_run``,
   ``integrator.draw_increment``).  A missed patch site shows up here as a
   count that is too low.  The table is exact for the call structure of the
   program at the commit that defined the benchmark; a change that alters
   that structure updates the table.
4. Without the program sources next to it, ``run.py`` exits non-zero and
   prints no result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

BY_NAME_SITES = {
    "integrator.simulate": "movingheat.cli.simulate",
    "config.parse_run": "movingheat.cli.parse_run",
    "noise.draw_increment": "movingheat.integrator.draw_increment",
}


def check_seeded_inputs(seed: int) -> list[str]:
    problems = []
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        tmp = Path(tmp)
        for name in workloads.WORKLOADS:
            for label, s in (("a", seed), ("b", seed), ("c", seed + 1)):
                workloads.generate(name, s, tmp / label)
            digests = {label: run.inputs_digest(tmp / label) for label in "abc"}
            if digests["a"] != digests["b"]:
                problems.append(f"{name}: seed {seed} gave different inputs on two calls")
            if digests["a"] == digests["c"]:
                problems.append(f"{name}: seeds {seed} and {seed + 1} gave identical inputs")
            for label in "abc":
                shutil.rmtree(tmp / label)
    return problems


def check_benchmark_json() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    names = [w["name"] for w in spec["workloads"]]
    if names != list(workloads.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} != {list(workloads.WORKLOADS)}")
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if e2e != run.END_TO_END_UNITS:
        problems.append(f"BENCHMARK.json end_to_end {e2e} != run.py {run.END_TO_END_UNITS}")
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if layers != run.per_layer_units():
        diff = set(layers.items()) ^ set(run.per_layer_units().items())
        problems.append(f"BENCHMARK.json per_layer differs from run.py: {sorted(diff)}")
    return problems


def result_of(stdout: str):
    lines = stdout.strip().splitlines()
    record = next(json.loads(line[len("record "):]) for line in lines
                  if line.startswith("record "))
    return record, json.loads(lines[-1])


def check_counts(seed: int) -> list[str]:
    problems = []
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", "1", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        if proc.returncode != 0:
            problems.append(f"{name}: run.py exited {proc.returncode}: {proc.stderr[-500:]}")
            continue
        record, result = result_of(proc.stdout)
        if not result["correct"]:
            problems.append(f"{name}: outputs failed their checks: {record['failures']}")
        wl = workloads.generate(name, seed, run.WORK / "selftest-params")
        expected = workloads.expected_counts(wl)
        for layer in run.LAYERS:
            want = expected[layer]
            got = result["metrics"][f"{layer}.calls"]["value"]
            if got != want:
                problems.append(f"{name}: {layer}.calls = {got}, expected {want}")
        for layer, site in BY_NAME_SITES.items():
            if site not in record["counts"]["patch_sites"][layer]:
                problems.append(f"{name}: {site} was not patched")
        print(f"  {name}: {len(run.LAYERS)} call counts checked")
    shutil.rmtree(run.WORK / "selftest-params", ignore_errors=True)
    return problems


def check_bare_directory() -> list[str]:
    """run.py in a directory holding only BENCHMARK.json and perfbench/."""
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, str(bare / HERE.name / "run.py"), "--workload", "ensemble_mc",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    ap = argparse.ArgumentParser(description="self-test of the movingheat benchmark")
    ap.add_argument("--seed", type=int, default=918273)
    seed = ap.parse_args().seed
    run.WORK.mkdir(exist_ok=True)
    problems = []
    for title, check in (
        ("seeded inputs", lambda: check_seeded_inputs(seed)),
        ("BENCHMARK.json", check_benchmark_json),
        ("bare directory", check_bare_directory),
        ("traced call counts", lambda: check_counts(seed)),
    ):
        print(f"{title} ...", flush=True)
        found = check()
        problems += found
        print(f"  {'ok' if not found else 'FAILED'}", flush=True)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest passed" if not problems else f"selftest: {len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
