"""Abraham and Minkowski electromagnetic momentum in isotropic media.

A small numpy toolkit: instantaneous 3+1 field quantities and force
densities (:mod:`abmink.core`), the four-tensor formalism with its
conservation and classification checks (:mod:`abmink.covariant`), desk-scale
predictions for five existing radiation-pressure experiments and two proposals
(:mod:`abmink.scenarios`), and a config-driven runner (:mod:`abmink.runner`,
CLI ``abmink``) whose eighth scenario runs the covariant self-checks.
"""

from . import covariant, runner, scenarios
from .core import (
    SI,
    EMQuantities,
    FieldPoint,
    Medium,
    MomentumTag,
    PlaneWave,
    RegimeError,
    SourceDensities,
    abraham_force_density,
    abraham_term,
    em_quantities,
    energy_density,
    interface_pressure,
    mechanical_momentum_density,
    minkowski_force_density,
    momentum_density,
    poynting,
    stress_tensor,
    time_average,
)

__version__ = "0.1.0"

__all__ = [
    "SI",
    "MomentumTag",
    "Medium",
    "FieldPoint",
    "EMQuantities",
    "PlaneWave",
    "SourceDensities",
    "RegimeError",
    "poynting",
    "momentum_density",
    "energy_density",
    "stress_tensor",
    "em_quantities",
    "minkowski_force_density",
    "abraham_term",
    "abraham_force_density",
    "mechanical_momentum_density",
    "time_average",
    "interface_pressure",
    "covariant",
    "scenarios",
    "runner",
]
