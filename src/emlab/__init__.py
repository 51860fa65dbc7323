"""Pseudo-spectral laboratory for a damped electron-fluid/Maxwell system.

The package provides a periodic-box pseudo-spectral solver for the
reformulated perturbation system, an exact per-mode analyzer for its
linearization (the quantitative decay-rate engine), energy/dissipation
monitors, decay-rate regression, and randomized oracles for the
interpolation inequalities the analysis rests on.
"""

from . import analysis, dynamics, energetics, inequalities, linear, model, spectral
from .analysis import (
    DecayFit,
    NormSeries,
    fit_decay,
    nonincreasing_within,
    s_of_p,
    theoretical_exponent,
)
from .dynamics import SolverConfig, cfl_dt, rhs, simulate, step
from .linear import QuadratureSpec, SpectralProfile, decay_report
from .model import (
    CompatibilityReport,
    PerturbationState,
    PhysicalConstants,
    density_closure,
    make_initial_data,
    verify_compatibility,
)
from .spectral import Field, GridSpec, curl, divergence, homog_norm, l2_norm

__version__ = "0.1.0"
