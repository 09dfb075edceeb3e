"""Spectral simulator for the stochastic heat equation on a moving interval."""

import os
import sys

# Processes over paths (``--workers``) are the one level of parallelism: load BLAS
# single-threaded, unless numpy is loaded already or the variable is set.
if "numpy" not in sys.modules:
    for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                  "VECLIB_MAXIMUM_THREADS"):
        os.environ.setdefault(_name, "1")

from .basis import (
    CoefficientState,
    coupling,
    coupling_matrix,
    eigenvalues,
    h1_norm_sq,
    project_initial,
    synthesize,
)
from .diagnostics import (
    energy_residuals,
    level_distance,
    mean_energy_balance,
    moment_rows,
    self_convergence_study,
)
from .domain import DomainMotion, make_domain
from .errors import ConfigError, NumericalError
from .integrator import (
    EnergyLedger,
    EnsembleSummary,
    ModeInitial,
    ModesInitial,
    ParabolaInitial,
    SimulationConfig,
    Trajectory,
    explicit_dt_bound,
    simulate,
    simulate_ensemble,
)
from .noise import (
    DiffusionModel,
    NoiseStream,
    check_assumptions,
    draw_increment,
    general_matrix,
    hs_norm_sq,
    moving_diagonal,
    noise_kick,
    sigma_coeff,
    zero_model,
)
from .oracle import MappedGridSolution, compare_with_spectral, fd_solve

__version__ = "0.1.0"

__all__ = [
    "CoefficientState",
    "ConfigError",
    "DiffusionModel",
    "DomainMotion",
    "EnergyLedger",
    "EnsembleSummary",
    "MappedGridSolution",
    "ModeInitial",
    "ModesInitial",
    "NoiseStream",
    "NumericalError",
    "ParabolaInitial",
    "SimulationConfig",
    "Trajectory",
    "check_assumptions",
    "compare_with_spectral",
    "coupling",
    "coupling_matrix",
    "draw_increment",
    "eigenvalues",
    "energy_residuals",
    "explicit_dt_bound",
    "fd_solve",
    "general_matrix",
    "h1_norm_sq",
    "hs_norm_sq",
    "level_distance",
    "make_domain",
    "mean_energy_balance",
    "moment_rows",
    "moving_diagonal",
    "noise_kick",
    "project_initial",
    "self_convergence_study",
    "sigma_coeff",
    "simulate",
    "simulate_ensemble",
    "synthesize",
    "zero_model",
]
