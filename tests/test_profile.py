"""Broadened-profile shape, normalization, and approximation tests."""

import math

import numpy as np
import pytest

from zenoscope.errors import DomainError
from zenoscope.profile import MeasurementSchedule, profile_eval


def _simpson(f, a, b, n):
    """Composite Simpson on an odd-count uniform grid; independent of the package."""
    if n % 2 == 0:
        n += 1
    x = np.linspace(a, b, n)
    y = f(x)
    h = x[1] - x[0]
    return h / 3.0 * (y[0] + y[-1] + 4 * y[1:-1:2].sum() + 2 * y[2:-1:2].sum())


def test_schedule_validation():
    assert MeasurementSchedule(nu=2.0).tau == 0.5
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            MeasurementSchedule(nu=bad)


def test_profile_peak_and_zero():
    m = MeasurementSchedule(nu=0.25)
    assert profile_eval(m, 0.0) == pytest.approx(m.tau / (2 * math.pi), rel=1e-14)
    assert profile_eval(m, 2 * math.pi * m.nu) == pytest.approx(0.0, abs=1e-25)


def test_profile_normalization():
    # independent oracle: Simpson quadrature of (tau/2pi) np.sinc(delta tau / 2pi)^2
    nu = 0.5
    m = MeasurementSchedule(nu=nu)
    tau = m.tau

    def reference(delta):
        return tau / (2 * math.pi) * np.sinc(delta * tau / (2 * math.pi)) ** 2

    lim = 1e4 * nu
    total_ref = 2 * _simpson(reference, 0.0, lim, 400_001)
    total_pkg = 2 * _simpson(lambda d: profile_eval(m, d), 0.0, lim, 400_001)
    assert abs(total_ref - 1.0) < 1e-4
    assert abs(total_pkg - 1.0) < 1e-4
    assert total_pkg == pytest.approx(total_ref, rel=1e-12)


def test_profile_even_and_bounded_by_peak():
    m = MeasurementSchedule(nu=2.0)
    deltas = np.linspace(-40.0, 40.0, 4001)
    vals = profile_eval(m, deltas)
    assert np.allclose(vals, profile_eval(m, -deltas), rtol=0, atol=0)
    assert np.all(vals >= 0)
    assert np.all(vals <= m.tau / (2 * math.pi) + 1e-18)


def test_tail_lobe_average():
    # averaged over one far lobe, the exact profile matches the tail form
    nu = 1.0
    m = MeasurementSchedule(nu=nu)
    k = 50
    u = np.linspace(2 * math.pi * k, 2 * math.pi * (k + 1), 4001)
    delta = u * nu
    # the tail form nu / (pi delta^2)
    ratio = profile_eval(m, delta) / (nu / (math.pi * delta * delta))
    mean = np.trapezoid(ratio, u) / (2 * math.pi)
    assert abs(mean - 1.0) < 0.05


def test_delta_sequence_property():
    # overlap with a fixed smooth function approaches its value at resonance
    def g(delta):
        return 1.0 / (1.0 + delta ** 2)

    errs = []
    for nu in (1.0, 0.1, 0.01):
        m = MeasurementSchedule(nu=nu)
        lim = 2e3 * nu
        overlap = _simpson(lambda d: profile_eval(m, d) * g(d), -lim, lim, 400_001)
        errs.append(abs(overlap - g(0.0)))
    # the deviation shrinks linearly with nu (sinc tail mass ~ nu)
    assert errs[0] > errs[1] > errs[2]
    assert errs[1] < 0.2 * errs[0]
    assert errs[2] < 0.2 * errs[1]
    assert errs[2] == pytest.approx(0.01, rel=0.2)
