"""Joint spectrum: radial energies from J_nu zeros plus the axial well levels.

The radial part under the hard wall at rho = R contributes
hbar^2 q^2 / (2 M R^2) per zero q of J_{n/B}; the axial wells contribute a
negative level energy. The critical radius makes the two cancel for a chosen
reference state, which splits every other state into bound / zero / positive
total energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

from .model import EnergyLevel, PhysicalParams, QuantumNumbers, bessel_order
from .specfun import ZeroApproxMode, _sharing_zero_walks, bessel_zero
from .wells import _bound_state, _level_root, _representable, excited_state, ground_state

# Totals within this relative band of the radial energy count as zero when
# classification is derived from energy signs; exact floating-point zero on
# the degeneracy locus is otherwise unattainable.
ZERO_BAND = 1e-9
# Tolerance for the reference-inequality comparison when 2B is not exactly
# representable; for dyadic B the comparison is exact.
_EQ_TOL = 1e-12


class Classification(Enum):
    BOUND = "bound"
    ZERO = "zero"
    POSITIVE = "positive"


@dataclass(frozen=True)
class SpectrumEntry:
    """One (n, m, level) row of the joint spectrum."""

    qn: QuantumNumbers
    level: EnergyLevel
    nu: float
    radial_energy: float
    z_energy: float
    total_energy: float
    classification: Classification
    mode: ZeroApproxMode


def _radial(params: PhysicalParams, q: float) -> float:
    k = params.hbar * q / params.radius  # hbar^2 q^2 / (2 M R^2) without forming R^2
    return _representable(k * k / (2.0 * params.mass), "radial energy")


def radial_energy(
    params: PhysicalParams,
    qn: QuantumNumbers,
    mode: ZeroApproxMode = ZeroApproxMode.EXACT,
) -> float:
    """Radial level hbar^2 q^2 / (2 M R^2) with q the selected J_{n/B} zero."""
    return _radial(params, bessel_zero(bessel_order(qn.n, params.deficit), qn.m, mode))


def total_energy(
    params: PhysicalParams,
    qn: QuantumNumbers,
    level: EnergyLevel = EnergyLevel.GROUND,
    mode: ZeroApproxMode = ZeroApproxMode.EXACT,
) -> float:
    """Radial energy plus the (negative) axial level energy."""
    state = _bound_state(params, level, *_level_root(params, level))
    return radial_energy(params, qn, mode) + state.energy


def critical_radius(
    params: PhysicalParams,
    qn: QuantumNumbers,
    level: EnergyLevel = EnergyLevel.GROUND,
) -> float:
    """Cylinder radius at which the (n, m) total energy vanishes.

    The radial and level energies cancel where q / R = xi / z0. With the closed-form
    zero estimate q = pi*(n/(2B) + m + 3/4) the radius is q * z0 / xi, so the round trip
    total_energy(radius=critical_radius(...), mode=MCMAHON) = 0 holds to rounding error.
    """
    xi = _level_root(params, level)[0]
    s = qn.n / (2.0 * params.deficit) + qn.m + 0.75
    return _representable(math.pi * s * (params.half_separation / xi), "critical radius")


def classify(
    params: PhysicalParams,
    reference: QuantumNumbers,
    qn: QuantumNumbers,
    level: EnergyLevel = EnergyLevel.GROUND,
) -> Classification:
    """Sign trichotomy of the total energy at the reference critical radius.

    ``reference`` is the (n_bar, m_bar) state whose critical radius pins the
    cylinder. The total energy sign then reduces to comparing n/(2B) + m
    against the reference value, which is what this evaluates (the radius
    itself drops out).
    """
    _level_root(params, level)  # excited reference requires existence
    return _inequality_classification(params.deficit, reference, qn)


def _inequality_classification(
    deficit: float, reference: QuantumNumbers, qn: QuantumNumbers
) -> Classification:
    diff = (qn.n - reference.n) / (2.0 * deficit) + (qn.m - reference.m)
    if abs(diff) <= _EQ_TOL:
        return Classification.ZERO
    return Classification.BOUND if diff < 0 else Classification.POSITIVE


def _sign_classification(total: float, radial: float) -> Classification:
    if abs(total) <= ZERO_BAND * radial:
        return Classification.ZERO
    return Classification.BOUND if total < 0 else Classification.POSITIVE


def spectrum_table(
    params: PhysicalParams,
    n_max: int,
    m_max: int,
    mode: ZeroApproxMode = ZeroApproxMode.EXACT,
) -> list[SpectrumEntry]:
    """All (n, m, level) rows with n <= n_max, m <= m_max, sorted by (n, m, level).

    The excited level contributes rows only when it exists; classification
    here is by the sign of the total energy (zero band relative to the
    radial part).
    """
    if not isinstance(n_max, int) or n_max < 0 or not isinstance(m_max, int) or m_max < 0:
        raise ValueError("n_max and m_max must be non-negative integers")
    levels = [s for s in (ground_state(params), excited_state(params)) if s is not None]

    entries: list[SpectrumEntry] = []
    with _sharing_zero_walks():
        for n in range(n_max + 1):
            nu = bessel_order(n, params.deficit)
            for m in range(m_max + 1):
                qn = QuantumNumbers(n, m)
                radial = _radial(params, bessel_zero(nu, m, mode))
                for state in levels:
                    total = radial + state.energy
                    entries.append(
                        SpectrumEntry(
                            qn=qn,
                            level=state.level,
                            nu=nu,
                            radial_energy=radial,
                            z_energy=state.energy,
                            total_energy=total,
                            classification=_sign_classification(total, radial),
                            mode=mode,
                        )
                    )
    return entries


def classification_disagreements(
    params: PhysicalParams,
    reference: QuantumNumbers,
    level: EnergyLevel,
    n_max: int,
    m_max: int,
) -> list[QuantumNumbers]:
    """States where exact-zero energy signs contradict the reference inequality.

    The inequality classification is stated in the closed-form zero
    approximation; near the zero locus the numerically exact radial energies
    can fall on the other side. This reports those states (cylinder radius
    set to the reference critical radius, exact zeros used for energies).
    """
    pinned = replace(params, radius=critical_radius(params, reference, level))
    return [
        entry.qn
        for entry in spectrum_table(pinned, n_max, m_max)
        if entry.level is level
        and entry.classification
        is not _inequality_classification(params.deficit, reference, entry.qn)
    ]
