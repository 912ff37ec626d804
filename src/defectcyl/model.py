"""Physical parameter set, quantum numbers and the angular-quantization map.

Units are explicit: the particle mass M and hbar are fields, so the common
geometrized convention (M = 1/2, hbar = 1) is one parameter choice among
many rather than a baked-in assumption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum


@dataclass(frozen=True)
class PhysicalParams:
    """One physical configuration of the trapped particle.

    mass            particle mass M
    coupling        strength of each attractive delta well (energy * length)
    half_separation z0, the wells sit on the planes z = -z0 and z = +z0
    deficit         angular defect parameter B: B < 1 removes angular range,
                    B > 1 adds it, B = 1 is the defect-free cylinder
    radius          cylinder radius R (hard wall, wavefunction vanishes there)
    hbar            Planck constant over 2*pi, kept explicit
    """

    mass: float
    coupling: float
    half_separation: float
    deficit: float
    radius: float
    hbar: float = 1.0

    def __post_init__(self) -> None:
        validate(self)


class EnergyLevel(Enum):
    """The two possible axial bound states of the twin delta wells."""

    GROUND = "ground"
    EXCITED = "excited"


@dataclass(frozen=True, order=True)
class QuantumNumbers:
    """Angular index n and radial zero index m (m = 0 is the first zero)."""

    n: int
    m: int

    def __post_init__(self) -> None:
        for name in ("n", "m"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 0:
                raise ValueError(f"{name} must be a non-negative integer")


def validate(params: PhysicalParams) -> PhysicalParams:
    """Return ``params`` unchanged if every field is a strictly positive, finite number.

    Raises ValueError naming the first violated field. Every PhysicalParams
    runs this when it is built, so a built one is always valid.
    """
    for field in fields(params):
        value = getattr(params, field.name)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{field.name} must be a number")
        if not math.isfinite(value):
            raise ValueError(f"{field.name} must be finite")
        if value <= 0:
            raise ValueError(f"{field.name} must be positive")
    return params


def bessel_order(n: int, deficit: float) -> float:
    """Angular quantization: order nu = n / B of the radial Bessel problem.

    Single-valuedness of the angular factor around the defect forces the
    radial equation into Bessel form with this (generally fractional) order.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError("n must be a non-negative integer")
    if not (deficit > 0) or not math.isfinite(deficit):
        raise ValueError("deficit must be positive")
    return n / deficit


def coupling_strength_parameter(params: PhysicalParams) -> float:
    """Dimensionless well strength c = z0 * M * coupling / hbar**2.

    Both axial transcendental equations reduce to profile(xi) = c, so two
    parameter sets with equal c share the same dimensionless solution.
    """
    return (
        params.half_separation
        * params.mass
        * params.coupling
        / (params.hbar * params.hbar)
    )
