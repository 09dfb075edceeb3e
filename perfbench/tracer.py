"""In-memory span tracer that wraps movingheat's public functions from outside.

Nothing under ``src/`` changes: ``install`` replaces each traced function in
every ``movingheat`` module namespace that holds it (``cli`` imports
``simulate`` and ``parse_run`` by name, ``integrator`` imports
``draw_increment`` by name, the package re-exports most of them) and each
traced method on its class.  ``uninstall`` puts the originals back.

A span is (name, start, end, parent); spans live in flat arrays until the run
ends and are written once, as one ``.npz`` trace file.  A layer's self time is
its span duration minus the time covered by its direct child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# name -> (module, attribute); attribute "Class.method" patches the class.
TARGETS = {
    "domain.a_at": ("movingheat.domain", "DomainMotion.a_at"),
    "domain.a_prime_at": ("movingheat.domain", "DomainMotion.a_prime_at"),
    "config.parse_run": ("movingheat.config", "parse_run"),
    "basis.project_initial": ("movingheat.basis", "project_initial"),
    "basis.coupling_matrix": ("movingheat.basis", "coupling_matrix"),
    "basis.eigenvalues": ("movingheat.basis", "eigenvalues"),
    "basis.h1_norm_sq": ("movingheat.basis", "h1_norm_sq"),
    "basis.synthesize": ("movingheat.basis", "synthesize"),
    "basis.evaluate": ("movingheat.basis", "evaluate"),
    "noise.generator_at": ("movingheat.noise", "NoiseStream.generator_at"),
    "noise.draw_increment": ("movingheat.noise", "draw_increment"),
    "noise.noise_kick": ("movingheat.noise", "noise_kick"),
    "noise.hs_norm_sq": ("movingheat.noise", "hs_norm_sq"),
    "integrator.simulate": ("movingheat.integrator", "simulate"),
    "integrator.simulate_ensemble": ("movingheat.integrator", "simulate_ensemble"),
    "diagnostics.record_step": ("movingheat.diagnostics", "EnergyLedger.record_step"),
    "diagnostics.self_convergence_study": ("movingheat.diagnostics", "self_convergence_study"),
    "diagnostics.level_distance": ("movingheat.diagnostics", "level_distance"),
    "oracle.fd_solve": ("movingheat.oracle", "fd_solve"),
    "oracle.compare_with_spectral": ("movingheat.oracle", "compare_with_spectral"),
    # cli.fmt is deliberately not wrapped: it runs once per CSV cell.
    "cli.write_csv": ("movingheat.cli", "write_csv"),
}
ROOT_SPAN = "cli.main"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self._undo: list = []
        self.patch_sites: dict[str, list[str]] = {}

    def _id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn):
        nid = self._id(name)
        name_id, start, end, parent, stack = (
            self.name_id, self.start, self.end, self.parent, self._stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Patch every traced name at every place it is looked up."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "movingheat" or key.startswith("movingheat."))]
        for name, (mod_name, attr) in TARGETS.items():
            sites = self.patch_sites.setdefault(name, [])
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(sys.modules[mod_name], cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, original, self.wrap(name, original))
                sites.append(f"{mod_name}.{attr}")
                continue
            original = getattr(sys.modules[mod_name], attr)
            wrapped = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, original, wrapped)
                        sites.append(f"{mod.__name__}.{key}")

    def _set(self, owner, key, original, wrapped) -> None:
        setattr(owner, key, wrapped)
        self._undo.append((owner, key, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def root(self, fn, *args):
        """Run ``fn(*args)`` inside the root span that parents every other."""
        return self.wrap(ROOT_SPAN, fn)(*args)

    def arrays(self):
        names = np.frombuffer(self.name_id, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        return names, start, end, parent

    def summary(self) -> dict:
        """Per name: call count and summed self time in seconds."""
        names, start, end, parent = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_s = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        self_sum = np.bincount(names, weights=self_s, minlength=k)
        return {
            name: {"calls": int(calls[i]), "self_s": float(self_sum[i])}
            for i, name in enumerate(self.names)
        }

    def write(self, path) -> None:
        names, start, end, parent = self.arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name_id=names, start=start, end=end, parent=parent
        )
