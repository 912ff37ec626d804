"""Bound-state spectrum of a particle in a defect cylinder with twin delta wells."""

from .model import (
    EnergyLevel,
    PhysicalParams,
    QuantumNumbers,
    bessel_order,
    coupling_strength_parameter,
    validate,
)
from .specfun import (
    BesselEval,
    EvalMethod,
    ZeroApproxMode,
    bessel_j,
    bessel_j_derivative,
    bessel_zero,
    zero_approx_table,
)
from .spectrum import (
    Classification,
    SpectrumEntry,
    classification_disagreements,
    classify,
    critical_radius,
    radial_energy,
    spectrum_table,
    total_energy,
)
from .wells import BoundState, excited_state, ground_state

__version__ = "0.1.0"

__all__ = [
    "BesselEval",
    "BoundState",
    "Classification",
    "EnergyLevel",
    "EvalMethod",
    "PhysicalParams",
    "QuantumNumbers",
    "SpectrumEntry",
    "ZeroApproxMode",
    "bessel_j",
    "bessel_j_derivative",
    "bessel_order",
    "bessel_zero",
    "classification_disagreements",
    "classify",
    "coupling_strength_parameter",
    "critical_radius",
    "excited_state",
    "ground_state",
    "radial_energy",
    "spectrum_table",
    "total_energy",
    "validate",
    "zero_approx_table",
]
