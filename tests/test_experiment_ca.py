"""Feasibility arithmetic for the Ca+ quadrupole transition."""

import math

import pytest

from zenoscope.errors import DomainError
from zenoscope.experiment_ca import (
    CA_N_E,
    CA_N_G,
    CA_OMEGA0,
    CA_Z_EFF,
    IonEstimate,
    ca_estimate,
    ca_ratio_factor,
    required_measurement_rate,
)
from zenoscope.reservoir import hydrogenic_cutoff


def test_ratio_factor_value():
    assert ca_ratio_factor() == pytest.approx(6.6e6, rel=0.02)


def test_ratio_factor_charge_scaling():
    # the cutoff is linear in the effective charge, the factor quadratic
    base = ca_ratio_factor()
    halved = (hydrogenic_cutoff(CA_N_G, CA_N_E, CA_Z_EFF / 2) / CA_OMEGA0) ** 2
    assert halved == pytest.approx(base / 4.0, rel=1e-12)


def test_ratio_factor_frequency_scaling():
    omega_x = hydrogenic_cutoff(CA_N_G, CA_N_E, CA_Z_EFF)
    doubled = (omega_x / (2 * CA_OMEGA0)) ** 2
    assert doubled == pytest.approx(ca_ratio_factor() / 4.0, rel=1e-12)


def test_required_rate_value():
    assert required_measurement_rate(0.01, 1.0) == pytest.approx(4e6, rel=0.10)


def test_required_rate_linearity():
    base = required_measurement_rate(0.01, 1.0)
    assert required_measurement_rate(0.02, 1.0) == pytest.approx(2 * base, rel=1e-14)
    assert required_measurement_rate(0.01, 10.0) == pytest.approx(0.1 * base, rel=1e-14)


def test_required_rate_factorization_invariant():
    # nu * a / target is the same constant for every valid (target, a)
    ref = required_measurement_rate(0.01, 1.0) * 1.0 / 0.01
    for target in (0.001, 0.05, 0.5):
        for a in (0.1, 1.0, 25.0):
            value = required_measurement_rate(target, a) * a / target
            assert value == pytest.approx(ref, rel=1e-12)


def test_single_source_of_truth():
    # the estimate and a direct first-principles recomputation agree exactly
    direct = (hydrogenic_cutoff(CA_N_G, CA_N_E, CA_Z_EFF) / CA_OMEGA0) ** 2
    assert ca_ratio_factor() == pytest.approx(direct, rel=1e-12)


def test_estimate_record():
    est = ca_estimate(target_reduction=0.01, a=1.0)
    assert est.omega0 == CA_OMEGA0
    assert est.ratio_sq == pytest.approx(ca_ratio_factor(), rel=1e-14)
    assert est.required_nu == pytest.approx(required_measurement_rate(0.01, 1.0),
                                            rel=1e-14)
    assert est.prefactor_a == 1.0


def test_domain_errors():
    with pytest.raises(DomainError):
        required_measurement_rate(0.0, 1.0)
    with pytest.raises(DomainError):
        required_measurement_rate(1.5, 1.0)
    with pytest.raises(DomainError):
        required_measurement_rate(0.01, -2.0)
    for a in (math.nan, math.inf):
        with pytest.raises(DomainError, match="prefactor a must be finite"):
            required_measurement_rate(0.01, a)


def test_estimate_fields_must_be_finite():
    fields = dict(omega0=1.0, omega_x=2.0, ratio_sq=4.0, prefactor_a=1.0, required_nu=1.0)
    IonEstimate(**fields)
    for name in fields:
        for bad in (math.nan, math.inf, 0.0):
            with pytest.raises(DomainError, match=name):
                IonEstimate(**{**fields, name: bad})
