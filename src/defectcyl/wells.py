"""Axial bound states of twin attractive delta wells at z = -z0 and z = +z0.

Both levels reduce to a one-dimensional inversion in the dimensionless
variable xi = (z0/hbar) * sqrt(2 M |E_z|):

    symmetric (ground):       F(xi) = xi / (1 + exp(-2 xi)) = c
    antisymmetric (excited):  G(xi) = xi / (1 - exp(-2 xi)) = c

with c = z0 * M * coupling / hbar^2. F is a bijection of [0, inf) onto
itself, so the ground state always exists; G(0+) = 1/2, so the excited
state exists only for c > 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .model import EnergyLevel, PhysicalParams, coupling_strength_parameter
from .rootfind import Tolerances, refine_with_derivative

# Existence is decided as c > 1/2 + guard; exactly at threshold the root is
# xi = 0 (zero binding), indistinguishable from no state.
EXISTENCE_GUARD = 1e-12

_SMALL_XI = 1e-8
_SLOPE_SWITCH = 1e-4


def _well_tol(c: float) -> Tolerances:
    # Width floor near ulp(c) keeps the solver convergent for extreme c,
    # where |profile - c| cannot reach the absolute residual target.
    return Tolerances(abs_x=max(5e-16 * c, 1e-300), abs_f=1e-12, max_iter=200)


@dataclass(frozen=True)
class BoundState:
    """A solved axial level.

    energy    the (negative) level energy in the units carried by the params
    xi        dimensionless root, xi = (z0/hbar) * sqrt(2 M |energy|)
    h_factor  binding depth |energy| * hbar^2 / (M coupling^2); confined to
              (1/2, 2) for the ground level and (0, 1/2) for the excited one.
              At very strong binding (c above ~18, where exp(-2 xi) falls
              below double-precision resolution) the factor saturates to the
              1/2 endpoint exactly.
    """

    level: EnergyLevel
    energy: float
    xi: float
    h_factor: float


def f_profile(xi: float) -> float:
    """Symmetric-level profile F(xi) = xi / (1 + exp(-2 xi)); F(0) = 0."""
    return xi / (1.0 + math.exp(-2.0 * xi))


def g_profile(xi: float) -> float:
    """Antisymmetric-level profile G(xi) = xi / (1 - exp(-2 xi)).

    The singularity at xi = 0 is removable with G(0) = 1/2; tiny arguments
    take the expansion 1/2 + xi/2 so no cancellation occurs.
    """
    if xi < _SMALL_XI:
        return 0.5 + 0.5 * xi
    return xi / (-math.expm1(-2.0 * xi))


def _f_slope(xi: float) -> float:
    e = math.exp(-2.0 * xi)
    d = 1.0 + e
    return (d + 2.0 * xi * e) / (d * d)


def _g_slope(xi: float) -> float:
    if xi < _SLOPE_SWITCH:
        return 0.5 + xi / 3.0 - 2.0 * xi**3 / 45.0
    e = -math.expm1(-2.0 * xi)
    return (e - 2.0 * xi * math.exp(-2.0 * xi)) / (e * e)


def _bound_state_from_xi(params: PhysicalParams, level: EnergyLevel, xi: float) -> BoundState:
    energy = -(xi * xi * params.hbar * params.hbar) / (
        2.0 * params.mass * params.half_separation * params.half_separation
    )
    h_factor = abs(energy) * params.hbar * params.hbar / (
        params.mass * params.coupling * params.coupling
    )
    if not (math.isfinite(energy) and math.isfinite(h_factor)):
        raise OverflowError(f"the {level.value} level energy exceeds the double-precision range")
    return BoundState(level=level, energy=energy, xi=xi, h_factor=h_factor)


def ground_state(params: PhysicalParams) -> BoundState:
    """Solve F(xi) = c for the symmetric level; exists for every c > 0.

    Since xi/2 <= F(xi) < xi, the root always lies in [c, 2c], which is used
    as the bracket directly.
    """
    c = coupling_strength_parameter(params)
    result = refine_with_derivative(
        f=lambda t: f_profile(t) - c,
        df=_f_slope,
        seed=1.5 * c,
        guard=(c, 2.0 * c),
        tol=_well_tol(c),
    )
    return _bound_state_from_xi(params, EnergyLevel.GROUND, result.root)


def excited_state(params: PhysicalParams) -> Optional[BoundState]:
    """Solve G(xi) = c for the antisymmetric level, or None below threshold.

    Non-existence is a valid outcome, not an error. Above threshold the root
    lies in [c - 1/2, c] because xi < G(xi) <= xi + 1/2.
    """
    c = coupling_strength_parameter(params)
    if c <= 0.5 + EXISTENCE_GUARD:
        return None
    # Above c ~ 4.5e15, c - 0.5 rounds to c; the root is then xi = c itself.
    lo = max(1e-300, min(c - 0.5, math.nextafter(c, 0.0)))
    seed = min(2.0 * (c - 0.5), 0.5 * (lo + c))
    result = refine_with_derivative(
        f=lambda t: g_profile(t) - c,
        df=_g_slope,
        seed=seed,
        guard=(lo, c),
        tol=_well_tol(c),
    )
    return _bound_state_from_xi(params, EnergyLevel.EXCITED, result.root)
