"""Feasibility numbers for anti-Zeno observation on the Ca+ quadrupole line.

The 3D5/2 -> 4S1/2 electric quadrupole transition of Ca+ (729 nm,
omega0 = 2 pi x 411 THz) is treated as hydrogen-like with an effective
core charge of 2.  The measurement-induced lifetime reduction scales as
A (nu/omega0) (omega_x/omega0)^2 with an unknown dimensionless prefactor
A; inverting that relation gives the measurement rate required for a
target fractional reduction.

The transition frequency is the measured value, not a Bohr formula: the
ion is only approximately hydrogenic.  The cutoff is computed from the
same hydrogenic-cutoff helper used everywhere else, on the package's
``CONSTANTS``, so there is a single source of truth for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .reservoir import hydrogenic_cutoff

__all__ = ["IonEstimate", "CA_OMEGA0", "CA_N_G", "CA_N_E", "CA_Z_EFF",
           "ca_ratio_factor", "required_measurement_rate", "ca_estimate"]

# Measured 3D5/2 -> 4S1/2 transition: 2 pi x 411 THz.
CA_OMEGA0 = 2.0 * math.pi * 411e12
CA_N_G = 4
CA_N_E = 3
CA_Z_EFF = 2.0


@dataclass(frozen=True)
class IonEstimate:
    """Feasibility summary for one ion.

    omega0 / omega_x in rad/s; ratio_sq = (omega_x/omega0)^2;
    required_nu in 1/s for the requested fractional lifetime reduction
    at dimensionless prefactor A = prefactor_a.
    """

    omega0: float
    omega_x: float
    ratio_sq: float
    prefactor_a: float
    required_nu: float

    def __post_init__(self):
        for name in ("omega0", "omega_x", "ratio_sq", "prefactor_a", "required_nu"):
            if getattr(self, name) <= 0:
                raise DomainError(f"{name} must be positive")


def ca_ratio_factor() -> float:
    """(omega_x/omega0)^2 for the Ca+ quadrupole transition (~6.6e6)."""
    omega_x = hydrogenic_cutoff(CA_N_G, CA_N_E, CA_Z_EFF)
    return (omega_x / CA_OMEGA0) ** 2


def required_measurement_rate(target_reduction: float, a: float) -> float:
    """Measurement rate nu (1/s) for a fractional rate increase target.

    Inverts (Gamma - Gamma0)/Gamma0 = A (nu/omega0) (omega_x/omega0)^2.
    For a 1% reduction with A = 1 this lands near 4 MHz.
    """
    if not 0.0 < target_reduction < 1.0:
        raise DomainError("target_reduction must be in (0, 1)")
    if a <= 0:
        raise DomainError("prefactor a must be positive")
    return target_reduction * CA_OMEGA0 / (a * ca_ratio_factor())


def ca_estimate(target_reduction: float = 0.01, a: float = 1.0) -> IonEstimate:
    """Full feasibility record for the Ca+ quadrupole transition."""
    omega_x = hydrogenic_cutoff(CA_N_G, CA_N_E, CA_Z_EFF)
    return IonEstimate(
        omega0=CA_OMEGA0,
        omega_x=omega_x,
        ratio_sq=(omega_x / CA_OMEGA0) ** 2,
        prefactor_a=a,
        required_nu=required_measurement_rate(target_reduction, a),
    )
