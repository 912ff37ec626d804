"""Axial bound states of twin attractive delta wells at z = -z0 and z = +z0.

Both levels reduce to a one-dimensional inversion in the dimensionless
variable xi = (z0/hbar) * sqrt(2 M |E_z|):

    symmetric (ground):       F(xi) = xi / (1 + exp(-2 xi)) = c
    antisymmetric (excited):  G(xi) = xi / (1 - exp(-2 xi)) = c

with c = z0 * M * coupling / hbar^2. F is a bijection of [0, inf) onto
itself, so the ground state always exists; G(0+) = 1/2, so the excited
state exists only for c > 1/2.

Rearranged, both read xi - c = +-c exp(-2 xi). Each level is solved by
Newton's method on that form, started on the side of the root from which
the iterates move monotonically toward it, so the first iterate that fails
to move has reached rounding level. The roots are within about one ulp
(or 1e-16 near threshold) of the exact ones.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from dataclasses import dataclass
from typing import Optional

from .model import EnergyLevel, PhysicalParams, coupling_strength_parameter

# Existence is decided as c > 1/2 + guard; exactly at threshold the root is
# xi = 0 (zero binding), indistinguishable from no state.
EXISTENCE_GUARD = 1e-12

_MAX_NEWTON_STEPS = 100  # quadratic convergence takes at most ~6


@dataclass(frozen=True)
class BoundState:
    """A solved axial level.

    energy    the (negative) level energy in the units carried by the params
    xi        dimensionless root, xi = (z0/hbar) * sqrt(2 M |energy|)
    h_factor  binding depth |energy| * hbar^2 / (M coupling^2) = (xi/c)^2 / 2;
              confined to (1/2, 2) for the ground level and (0, 1/2) for the
              excited one. At very strong binding (c above ~18, where
              exp(-2 xi) falls below double-precision resolution) the factor
              saturates to the 1/2 endpoint exactly; for c below ~1e-16 the
              ground level's factor is 2 exactly.
    """

    level: EnergyLevel
    energy: float
    xi: float
    h_factor: float


def _strength(params: PhysicalParams) -> float:
    c = coupling_strength_parameter(params)
    if not 0.0 < c < math.inf:
        raise OverflowError(
            "the well strength z0 * mass * coupling / hbar^2 is outside the double-precision range"
        )
    return c


def _monotone_newton(newton_step: Callable[[float], float], xi: float, direction: int) -> float:
    """Iterate xi -> xi - newton_step(xi) while it moves in ``direction`` (+1 or -1)."""
    for _ in range(_MAX_NEWTON_STEPS):
        after = xi - newton_step(xi)
        if (after - xi) * direction <= 0.0:
            return xi
        xi = after
    raise RuntimeError("well level iteration did not settle")


def _bound_state_from_xi(
    params: PhysicalParams, level: EnergyLevel, xi: float, c: float
) -> BoundState:
    h_factor = 0.5 * (xi / c) ** 2
    energy = -h_factor * params.mass * params.coupling * params.coupling / (
        params.hbar * params.hbar
    )
    if not sys.float_info.min <= abs(energy) < math.inf:
        raise OverflowError(f"the {level.value} level energy is outside the double-precision range")
    return BoundState(level=level, energy=energy, xi=xi, h_factor=h_factor)


def ground_state(params: PhysicalParams) -> BoundState:
    """Solve F(xi) = c for the symmetric level; exists for every c > 0.

    Newton on phi(xi) = xi - c - c exp(-2 xi) starts at xi = c: phi is
    increasing and concave with phi(c) < 0, so the iterates rise to the
    root, which lies in [c, 2c].
    """
    c = _strength(params)

    def newton_step(xi: float) -> float:
        ce = c * math.exp(-2.0 * xi)
        return (xi - c - ce) / (1.0 + 2.0 * ce)

    xi = _monotone_newton(newton_step, c, 1)
    return _bound_state_from_xi(params, EnergyLevel.GROUND, xi, c)


def excited_state(params: PhysicalParams) -> Optional[BoundState]:
    """Solve G(xi) = c for the antisymmetric level, or None below threshold.

    Non-existence is a valid outcome, not an error. Above threshold Newton
    on phi(xi) = xi + c expm1(-2 xi), whose expm1 form keeps its value free
    of cancellation near threshold, starts at xi = min(c, 2c - 1): phi is
    convex and positive there, so the iterates fall to the root, which lies
    in [c - 1/2, c].
    """
    c = _strength(params)
    if c <= 0.5 + EXISTENCE_GUARD:
        return None

    def newton_step(xi: float) -> float:
        ce = c * math.expm1(-2.0 * xi)
        return (xi + ce) / (1.0 - 2.0 * (c + ce))

    xi = _monotone_newton(newton_step, min(c, 2.0 * c - 1.0), -1)
    return _bound_state_from_xi(params, EnergyLevel.EXCITED, xi, c)
