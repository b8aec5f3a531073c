"""Measurement-broadened spectral profile of a repeatedly monitored level.

Measurements at rate nu = 1/tau broaden the monitored level into a sinc^2
profile of width ~ 2 pi nu centered on the transition frequency.  The
profile and its two analytic approximations (a flat resonant box and an
inverse-square tail) are expressed as functions of the detuning
delta = omega - omega0, which keeps the quadrature engine free of
cancellation at resonance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .specfun import sinc_sq

__all__ = [
    "MeasurementSchedule",
    "profile_eval",
    "profile_resonant_approx",
    "profile_tail_approx",
]


@dataclass(frozen=True)
class MeasurementSchedule:
    """Measurement rate nu (inverse time); the interval tau is 1/nu."""

    nu: float

    def __post_init__(self):
        if not (math.isfinite(self.nu) and self.nu > 0):
            raise DomainError(f"measurement rate nu must be finite and positive, got {self.nu!r}")

    @property
    def tau(self) -> float:
        return 1.0 / self.nu


def profile_eval(m: MeasurementSchedule, delta):
    """Broadened profile (tau / 2 pi) sinc^2(delta tau / 2); integrates to 1."""
    tau = m.tau
    return (tau / (2.0 * math.pi)) * sinc_sq(np.multiply(delta, tau / 2.0))


def profile_resonant_approx(m: MeasurementSchedule, delta):
    """Box approximation: 1/(2 pi nu) for |delta| < pi nu, else 0."""
    height = 1.0 / (2.0 * math.pi * m.nu)
    half_width = math.pi * m.nu
    arr = np.asarray(delta, dtype=float)
    out = np.where(np.abs(arr) < half_width, height, 0.0)
    return float(out) if arr.ndim == 0 else out


def profile_tail_approx(m: MeasurementSchedule, delta):
    """Mean-value tail approximation nu / (pi delta^2); diverges at delta = 0."""
    arr = np.asarray(delta, dtype=float)
    if np.any(arr == 0.0):
        raise DomainError("tail approximation is undefined at delta = 0")
    out = m.nu / (math.pi * arr * arr)
    return float(out) if arr.ndim == 0 else out
