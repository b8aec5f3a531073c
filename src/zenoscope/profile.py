"""Measurement-broadened spectral profile of a repeatedly monitored level.

Measurements at rate nu = 1/tau broaden the monitored level into a sinc^2
profile of width ~ 2 pi nu centered on the transition frequency.  The
profile is a function of the detuning delta = omega - omega0, which keeps
the quadrature engine free of cancellation at resonance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .specfun import sinc_sq

__all__ = ["MeasurementSchedule", "profile_eval"]


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
