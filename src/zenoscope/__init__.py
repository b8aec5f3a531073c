"""Decay of a frequently measured excited atomic state in free space.

Computes the measurement-modified decay rate of hydrogen-like multipole
transitions coupled to the free-space electromagnetic reservoir, three
independent ways: direct quadrature of the overlap integral, closed-form
approximations, and discretized-mode Schrodinger dynamics.
"""

from .decay import (
    DecayResult,
    QuadratureConfig,
    analytic_rate,
    fgr_rate,
    modified_rate_quadrature,
)
from .errors import (
    DegenerateTransitionError,
    DomainError,
    NumericalError,
    ZenoscopeError,
)
from .experiment_ca import IonEstimate, ca_estimate, ca_ratio_factor, required_measurement_rate
from .oracle import (
    BandLimitedReservoir,
    DiscretizedModes,
    OracleConfig,
    discretize_reservoir,
    oracle_rate,
    oracle_vs_quadrature,
    survival_probability,
)
from .profile import MeasurementSchedule, profile_eval
from .reservoir import (
    ALPHA,
    FullReservoir,
    SimpleReservoir,
    Transition,
    builtin_names,
    builtin_transition,
    cutoff_frequency,
    eta_for,
    frequency_ratio,
    hydrogenic_cutoff,
    load_reservoir_config,
    mu_for,
    nj_for,
)
from . import specfun

__version__ = "0.1.0"
