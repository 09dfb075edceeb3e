"""In-process measurement helper, driven by ``run.py`` over a pipe.

Usage: python3 lab.py <workload> <seed> <work_dir> <workers>

Imports movingheat once, parses the workload config, makes one untimed
warm-up call of the library entry point, then answers one JSON request per
input line with one JSON reply line:

    {"op": "facts"}                     interpreter, numpy/scipy, BLAS
    {"op": "solve"}                     timed library entry point (untraced)
    {"op": "main", "out": d, "workers": w, "traced": b[, "trace_file": f]}
                                        the CLI command in-process, timed
    {"op": "pool", "workers": w}        timed simulate_ensemble (untraced)

The library entry point is the function the CLI command spends its solve
in; import, config parsing and file writing are outside the timed region.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

from movingheat import cli, diagnostics, integrator, oracle  # noqa: E402
from movingheat.config import parse_run  # noqa: E402


def blas_info() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps.get("blas", {})
        return f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except Exception as exc:  # show_config's layout differs across numpy versions
        return f"unknown ({type(exc).__name__})"


class Lab:
    def __init__(self, wl: workloads.Workload):
        self.wl = wl
        self.setup = parse_run(wl.config)
        self.steps = workloads.path_steps(wl)
        self._solve()  # warm-up: caches, lazy imports, page faults

    def _solve(self):
        wl, cfg, u0 = self.wl, self.setup.config, self.setup.u0
        if wl.name == "ensemble_mc":
            integrator.simulate_ensemble(cfg, u0, workers=wl.params["workers"])
        elif wl.name == "converge_levels":
            diagnostics.self_convergence_study(cfg, u0, wl.params["levels"], wl.params["seeds"])
        elif wl.name == "fields_output":
            integrator.simulate(cfg, u0)
        else:
            p = wl.params
            integrator.simulate(cfg, u0)
            stride = max(1, round(p["stride"] * p["dt"] / p["fd_dt"]))
            oracle.fd_solve(cfg.domain, u0, p["fd_m"], p["fd_dt"], cfg.t_end, save_stride=stride)

    def solve(self, req):
        reps = self.wl.params["solve_reps"]
        t0 = time.perf_counter()
        for _ in range(reps):
            self._solve()
        return {"seconds": time.perf_counter() - t0, "path_steps": reps * self.steps["total"]}

    def pool(self, req):
        t0 = time.perf_counter()
        integrator.simulate_ensemble(self.setup.config, self.setup.u0, workers=req["workers"])
        return {"seconds": time.perf_counter() - t0}

    def main(self, req):
        argv = self.wl.cli_args(Path(req["out"]), req.get("workers"))
        if not req["traced"]:
            t0 = time.perf_counter()
            code = cli.main(argv)
            return {"seconds": time.perf_counter() - t0, "exit": code}
        tracer = Tracer()
        tracer.install()
        try:
            t0 = time.perf_counter()
            code = tracer.root(cli.main, argv)
            seconds = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        if req.get("trace_file"):
            tracer.write(req["trace_file"])
        return {
            "seconds": seconds,
            "exit": code,
            "layers": tracer.summary(),
            "spans": len(tracer.start),
            "patch_sites": tracer.patch_sites,
        }

    def facts(self, req):
        return {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": blas_info(),
        }


def serve(lab: Lab, requests, replies) -> None:
    for line in requests:
        req = json.loads(line)
        reply = getattr(lab, req["op"])(req)
        replies.write(json.dumps(reply) + "\n")
        replies.flush()


if __name__ == "__main__":
    # The protocol owns the original stdout; anything the program prints goes
    # to stderr so it cannot corrupt a reply.
    replies = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    name, seed, work_dir, workers = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]), int(sys.argv[4])
    wl = workloads.generate(name, seed, work_dir, workers)
    lab = Lab(wl)
    replies.write(json.dumps({"ready": True}) + "\n")
    replies.flush()
    serve(lab, sys.stdin, replies)
