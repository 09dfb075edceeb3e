"""The per-layer benchmark wraps functions by name; a renamed hook must fail here,
not inside the benchmark's traced run."""

import importlib
import importlib.util
from pathlib import Path

import movingheat.integrator
import movingheat.noise

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    targets = load_tracer().TARGETS
    assert {"diagnostics.record_step", "noise.generator_at", "noise.noise_kick",
            "noise.hs_norm_sq"} <= set(targets)
    for name, (module_name, attr) in targets.items():
        owner = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            owner = getattr(owner, cls_name)
            assert method in vars(owner), name  # patched on the class itself
        else:
            assert callable(getattr(owner, attr)), name


def test_integrator_binds_draw_increment_by_name():
    # the tracer patches draw_increment where it is looked up, in integrator's namespace
    assert movingheat.integrator.draw_increment is movingheat.noise.draw_increment
