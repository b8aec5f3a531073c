"""Property-based checks of the overlap-integral quadrature on random FullReservoirs."""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zenoscope.decay import QuadratureConfig, modified_rate_quadrature
from zenoscope.errors import ZenoscopeError
from zenoscope.profile import MeasurementSchedule
from zenoscope.reservoir import FullReservoir, eta_for


@st.composite
def _reservoirs(draw):
    """1 to 3 terms, always with the (J_min, r=0) one; mu from the
    integrability bound up to 6 more; omega_x in [10, 1e4] (omega0 = 1)."""
    epsilon = draw(st.sampled_from((0, 1)))
    j_min = draw(st.integers(1, 3))
    j_max = j_min + draw(st.integers(0, 2))
    amplitude = st.floats(1e-3, 1e3)
    extra = draw(st.lists(st.tuples(st.integers(j_min, j_max), st.integers(0, 2), amplitude),
                          max_size=2))
    terms = ((j_min, 0, draw(amplitude)), *extra)
    top = max(eta_for(j, epsilon) + 2 * r for j, r, _ in terms)
    mu = (top + 1) // 2 + 1 + draw(st.integers(0, 6))
    return FullReservoir(terms=terms, epsilon=epsilon, mu=mu,
                         omega_x=draw(st.floats(10.0, 1e4)), j_range=(j_min, j_max))


def _nus(high=1.0, low=-10.0):
    """nu log-uniform in [10**low, 10**high]."""
    return st.floats(low, high).map(lambda e: 10.0 ** e)


def _scaled(res, d=1.0, omega=1.0):
    """``res`` with every amplitude times ``d`` and omega_x times ``omega``."""
    return FullReservoir(terms=tuple((j, r, d * a) for j, r, a in res.terms),
                         epsilon=res.epsilon, mu=res.mu, omega_x=omega * res.omega_x,
                         j_range=res.j_range)


def _rate(res, omega0, nu):
    """The quadrature result, or the type of the ZenoscopeError it raised."""
    try:
        return modified_rate_quadrature(res, omega0, MeasurementSchedule(nu))
    except ZenoscopeError as exc:
        return type(exc)


@settings(max_examples=150, deadline=None)
@given(_reservoirs(), _nus())
def test_quadrature_is_finite_and_positive_or_a_typed_error(res, nu):
    out = _rate(res, 1.0, nu)
    if isinstance(out, type):
        return
    assert 0.0 < out.ratio < math.inf
    assert 0.0 <= out.err_estimate < math.inf


@settings(max_examples=100, deadline=None)
@given(_reservoirs(), _nus(), st.integers(-20, 20))
def test_power_of_two_amplitudes_leave_the_ratio_bit_identical(res, nu, k):
    # every amplitude, and so R, gamma and gamma0, scales exactly
    a, b = _rate(res, 1.0, nu), _rate(_scaled(res, d=2.0 ** k), 1.0, nu)
    if isinstance(a, type) or isinstance(b, type):
        assert a == b
        return
    assert (a.ratio, a.err_estimate, a.converged) == (b.ratio, b.err_estimate, b.converged)


@settings(max_examples=100, deadline=None)
@given(_reservoirs(), _nus(), st.integers(-20, 20))
def test_a_common_power_of_two_frequency_scale_keeps_the_ratio(res, nu, k):
    scale = 2.0 ** k
    a, b = _rate(res, 1.0, nu), _rate(_scaled(res, omega=scale), scale, scale * nu)
    if isinstance(a, type) or isinstance(b, type):
        assert a == b
        return
    assert abs(b.ratio - a.ratio) <= 1e-12 * a.ratio
    assert a.converged == b.converged


@settings(max_examples=100, deadline=None)
@given(_reservoirs(), st.lists(_nus(high=-1.0), min_size=2, max_size=2, unique=True))
def test_ratio_grows_with_nu_when_every_power_exceeds_one(res, nus):
    assume(all(p > 1 for _, p in res.term_powers()))
    r1, r2 = (_rate(res, 1.0, nu) for nu in sorted(nus))
    assume(not isinstance(r1, type) and not isinstance(r2, type))
    slack = r1.err_estimate * r1.ratio + r2.err_estimate * r2.ratio
    assert r2.ratio >= r1.ratio - slack


# the reference configuration of test_decay's error-estimate check
TIGHT = QuadratureConfig(near_lobes=1024, nodes_per_lobe=41, rel_tol=1e-13,
                         max_omega_factor=1000.0)


@settings(max_examples=40, deadline=None)
@given(_reservoirs(), _nus(high=-1.0, low=-8.0))
def test_a_converged_ratio_lies_within_its_error_estimate(res, nu):
    out = _rate(res, 1.0, nu)
    assume(not isinstance(out, type) and out.converged)
    tight = modified_rate_quadrature(res, 1.0, MeasurementSchedule(nu), TIGHT).ratio
    assert abs(out.ratio - tight) <= out.err_estimate * tight
