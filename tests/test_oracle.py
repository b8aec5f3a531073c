"""Discretized-mode dynamics: golden-rule limits, unitarity, cross-route checks."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenoscope.errors import DomainError, NumericalError
from zenoscope.oracle import (
    _arrowhead_moments,
    _auto_coupling_scale,
    _propagator_series,
    _survival_series,
    BandLimitedReservoir,
    DiscretizedModes,
    OracleConfig,
    discretize_reservoir,
    oracle_rate,
    oracle_vs_quadrature,
    survival_probability,
)
from zenoscope.profile import MeasurementSchedule
from zenoscope.reservoir import SimpleReservoir

TWO_PI = 2.0 * math.pi


def _flat(value):
    def reservoir(w):
        w = np.asarray(w, dtype=float)
        out = np.full_like(w, value)
        return float(out) if w.ndim == 0 else out
    return reservoir


def _desk_reservoir(eta, d=1.0):
    return SimpleReservoir(d=d, eta=eta, mu=6, omega_x=50.0)


# ---------------------------------------------------------------------------
# configuration and discretization
# ---------------------------------------------------------------------------

def test_oracle_config_validation():
    with pytest.raises(DomainError):
        OracleConfig(n_modes=10)
    with pytest.raises(DomainError):
        OracleConfig(method="euler")
    with pytest.raises(DomainError):
        OracleConfig(band=(2.0, 1.0))
    # the series takes no time step; dt is a read-only property
    assert OracleConfig().dt is None
    with pytest.raises(DomainError):
        OracleConfig(coupling_scale=0.0)
    for n_modes in (100.5, "100"):
        with pytest.raises(DomainError, match="whole number"):
            OracleConfig(n_modes=n_modes)
    assert OracleConfig(n_modes=np.int64(2000)).n_modes == 2000
    # an infinite band edge would space the modes inf apart
    for band in ((0.0, math.inf), (0.0, math.nan), (math.nan, 1.0)):
        with pytest.raises(DomainError, match="band"):
            OracleConfig(band=band)
        with pytest.raises(DomainError, match="band"):
            BandLimitedReservoir(_desk_reservoir(3), band)


@pytest.mark.parametrize("field", ["dt", "coupling_scale"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_oracle_config_rejects_non_finite_steps_and_scales(field, value):
    # rejected when the config is built, before the series or the coupling
    # fit runs; dt, with no step to set, is not a field at all
    with pytest.raises(TypeError if field == "dt" else DomainError, match=field):
        OracleConfig(**{field: value})


def test_discretize_flat_equal_couplings():
    cfg = OracleConfig(n_modes=1000, band=(0.0, 2.0))
    modes = discretize_reservoir(_flat(0.5), cfg)
    assert len(modes.omega) == 1000
    assert np.allclose(modes.g, modes.g[0])
    assert modes.g[0] == pytest.approx(math.sqrt(0.5 * modes.spacing), rel=1e-14)


def test_discretize_sum_rule():
    # sum g_k^2 approximates the band integral of R to 0.1% at n = 1e4
    r = _desk_reservoir(3)
    cfg = OracleConfig(n_modes=10_000, band=(0.0, 20.0))
    modes = discretize_reservoir(r, cfg)
    w = np.linspace(0.0, 20.0, 400_001)
    integral = np.trapezoid(r(w), w)
    assert np.sum(modes.g ** 2) == pytest.approx(integral, rel=1e-3)


def test_discretize_doubling_halves_weights():
    r = _desk_reservoir(3)
    m1 = discretize_reservoir(r, OracleConfig(n_modes=1000, band=(0.0, 2.0)))
    m2 = discretize_reservoir(r, OracleConfig(n_modes=2000, band=(0.0, 2.0)))
    # compare g^2 at the same physical frequency
    k1, k2 = 500, 1000  # both near omega = 1
    assert m2.g[k2] ** 2 == pytest.approx(m1.g[k1] ** 2 / 2.0, rel=2e-3)


def test_discretize_requires_band():
    with pytest.raises(DomainError):
        discretize_reservoir(_flat(1.0), OracleConfig(n_modes=500))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("method", ["rk4", "exact_diagonalization"])
def test_discretize_rejects_non_finite_reservoir(method, bad):
    # refused where the modes are built, not as a failure once the series
    # is summed; both method spellings run the series
    r = _desk_reservoir(3)

    def spoiled(w):
        return np.where(np.abs(w - 3.0) < 0.1, bad, r(w))

    with pytest.raises(DomainError, match="finite"):
        oracle_rate(spoiled, 1.0, MeasurementSchedule(nu=1e-2),
                    OracleConfig(n_modes=2000, method=method))


def test_mode_limits_fail_when_the_config_is_built():
    # only configs are constructed: a rejected size is never allocated.
    # Both method spellings run the series, with one limit.
    for method in ("rk4", "exact_diagonalization"):
        OracleConfig(n_modes=1_000_000, method=method)
        for n_modes in (1_000_001, 10 ** 9):
            with pytest.raises(DomainError):
                OracleConfig(n_modes=n_modes, method=method)


# ---------------------------------------------------------------------------
# survival probability
# ---------------------------------------------------------------------------

def test_survival_zero_coupling():
    cfg = OracleConfig(n_modes=500, band=(0.5, 1.5))
    modes = discretize_reservoir(_flat(0.0), cfg)
    res = survival_probability(modes, 1.0, 10.0, cfg)
    assert res.probability == pytest.approx(1.0, abs=1e-12)


def test_survival_flat_band_golden_rule():
    # exponential decay at 2 pi R0 for a wide flat band
    gamma = 2e-3
    r0 = gamma / TWO_PI
    cfg = OracleConfig(n_modes=5000, band=(0.5, 1.5))
    modes = discretize_reservoir(_flat(r0), cfg)
    tau = 1000.0
    res = survival_probability(modes, 1.0, tau, cfg)
    rate = -math.log(res.probability) / tau
    assert rate == pytest.approx(gamma, rel=0.02)


def test_survival_rk4_vs_exact_diagonalization():
    # against dense eigh of the arrowhead
    r = _desk_reservoir(3, d=3e-3)
    cfg = OracleConfig(n_modes=2000, band=(0.0, 11.0))
    modes = discretize_reservoir(r, cfg)
    tau = 100.0
    p = survival_probability(modes, 1.0, tau, cfg)
    assert p.probability == pytest.approx(_dense_survival(modes, 1.0, tau), rel=1e-8)


def test_survival_short_time_quadratic():
    # 1 - P grows as tau^2 well inside the Zeno regime
    r = _desk_reservoir(3, d=20.0)
    cfg = OracleConfig(n_modes=500, band=(0.0, 3.0))
    modes = discretize_reservoir(r, cfg)
    g_total = math.sqrt(float(np.sum(modes.g ** 2)))
    taus = np.array([1e-3, 3e-3, 1e-2]) / g_total
    losses = []
    for tau in taus:
        p = survival_probability(modes, 1.0, float(tau), cfg).probability
        losses.append(1.0 - p)
    slope = np.polyfit(np.log(taus), np.log(losses), 1)[0]
    assert abs(slope - 2.0) < 0.1
    # and the prefactor is the total coupling weight
    assert losses[0] == pytest.approx((g_total * taus[0]) ** 2, rel=0.01)


def test_survival_norm_conservation():
    r = _desk_reservoir(3, d=3e-3)
    cfg = OracleConfig(n_modes=500, band=(0.5, 1.5))
    modes = discretize_reservoir(r, cfg)
    res = survival_probability(modes, 1.0, 300.0, cfg)
    assert res.norm_drift < 1e-8


def test_survival_recurrence_guard():
    cfg = OracleConfig(n_modes=200, band=(0.5, 1.5))
    modes = discretize_reservoir(_flat(1e-4), cfg)
    # spacing 5e-3 -> recurrence ~ 1257; tau=1000 violates the 10x margin
    with pytest.raises(DomainError):
        survival_probability(modes, 1.0, 1000.0, cfg)
    # one mode, or modes all at one frequency, have no spacing to guard with
    with pytest.raises(DomainError):
        survival_probability(DiscretizedModes(modes.omega[:1], modes.g[:1]), 1.0, 1.0, cfg)
    tied = DiscretizedModes(np.ones(3), modes.g[:3])
    with pytest.raises(DomainError, match="distinct frequencies"):
        survival_probability(tied, 1.0, 1.0, cfg)


@pytest.mark.parametrize("method", ["rk4", "exact_diagonalization"])
def test_survival_does_not_depend_on_mode_order(method):
    # both method spellings run the series
    cfg = OracleConfig(n_modes=2000, band=(0.5, 1.5), method=method)
    modes = discretize_reservoir(_desk_reservoir(3, d=3e-3), cfg)
    reversed_modes = DiscretizedModes(omega=modes.omega[::-1], g=modes.g[::-1])
    want = survival_probability(modes, 1.0, 30.0, cfg).probability
    got = survival_probability(reversed_modes, 1.0, 30.0, cfg).probability
    assert got == pytest.approx(want, rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# the series route against dense eigh and the g^2 sum
# ---------------------------------------------------------------------------

def _dense_survival(modes, omega0, tau):
    """Reference: P(tau) from the dense arrowhead Hamiltonian through
    np.linalg.eigh, in O(n_modes^3) time (about 0.9 s at 2000 modes)."""
    n = len(modes.omega)
    h = np.zeros((n + 1, n + 1))
    h[0, 1:] = h[1:, 0] = modes.g
    h[np.arange(1, n + 1), np.arange(1, n + 1)] = modes.omega - omega0
    vals, vecs = np.linalg.eigh(h)
    return abs(np.sum(vecs[0] ** 2 * np.exp(-1j * vals * tau))) ** 2


@pytest.mark.parametrize("timing", ["stability", "explicit-dt", "four-step-floor",
                                    "remainder-0", "remainder-1", "remainder-2",
                                    "remainder-3"])
@pytest.mark.parametrize("seed", range(4))
def test_rk4_matches_stagewise_loop(seed, timing):
    # unsorted poles, signed couplings and about a third of them zero,
    # against dense eigh.  The ids name the intervals at which a
    # stage-by-stage RK4 loop once checked this route, in units of its step
    # bound 0.1 / max|delta|: hundreds of steps, half a step (z below 0.05,
    # where the series is at its shortest), and 16 to 19 steps of 0.3 of
    # the bound.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 301))
    omega = rng.uniform(0.0, 3.0, n)
    g = rng.uniform(-3e-2, 3e-2, n) * (rng.uniform(size=n) > 0.3)
    modes, omega0 = DiscretizedModes(omega=omega, g=g), float(rng.uniform(0.5, 2.5))
    bound = 0.1 / np.max(np.abs(omega - omega0))
    tau = {"stability": 30.0,
           "explicit-dt": 10.0,
           "four-step-floor": 0.5 * bound,
           **{f"remainder-{r}": (15.5 + r) * 0.3 * bound for r in range(4)}}[timing]
    want = _dense_survival(modes, omega0, tau)
    res = _survival_series(modes, omega0, tau)
    assert res.probability == pytest.approx(want, rel=0, abs=1e-12)
    assert res.norm_drift <= 1e-13


@pytest.mark.parametrize("seed", range(4))
def test_rk4_series_matches_the_propagator(seed):
    # on an interval holding 0, from z = radius * tau far below 1 to past
    # the oracle's longest series.  The samples' phases, and those of the
    # reference, round at about eps * z.
    rng = np.random.default_rng(seed)
    lo, hi = -rng.uniform(0.1, 3.0), rng.uniform(0.1, 30.0)
    center, radius = 0.5 * (lo + hi), 0.5 * (hi - lo)
    for z in (1e-3, 0.7, 30.0, 600.0, 4000.0):
        tau = z / radius
        coef = _propagator_series(tau, center, radius)
        x = rng.uniform(-1.0, 1.0, 200)
        want = np.exp(-1j * tau * (center + radius * x))
        got = np.polynomial.chebyshev.chebval(x, coef)
        assert np.max(np.abs(got - want)) <= 1e-13 + 8.0 * np.finfo(float).eps * z


def _desk_modes(eta, nu, n_modes):
    """The oracle's modes at omega0 = 1, coupling scale applied, and tau."""
    tau, band = 1.0 / nu, (0.0, 1.0 + 1e3 * nu)
    modes = discretize_reservoir(_desk_reservoir(eta), OracleConfig(n_modes=n_modes, band=band))
    scale = _auto_coupling_scale(modes, 1.0, tau, nu)
    return DiscretizedModes(omega=modes.omega, g=modes.g * math.sqrt(scale)), tau


@pytest.mark.parametrize("eta, nu", [
    pytest.param(1, 1e-2, id="1-0.01"),
    pytest.param(1, 3e-2, id="1-0.03"),
    pytest.param(3, 1e-2, id="3-0.01"),
    # the golden point with the smallest loss, where rounding weighs most in -ln P
    pytest.param(3, 3e-2, id="3-0.03"),
])
def test_rk4_reproduces_the_exact_discrete_solution(eta, nu):
    # the oracle benchmark's points at 2000 modes, against dense eigh
    modes, tau = _desk_modes(eta, nu, 2000)
    got = survival_probability(modes, 1.0, tau, OracleConfig(n_modes=2000)).probability
    want = _dense_survival(modes, 1.0, tau)
    assert -math.log(got) == pytest.approx(-math.log(want), rel=1e-10, abs=0)


@pytest.mark.parametrize("eta, nu, n_modes", [(3, 1e-3, 16_000), (1, 1e-3, 16_000),
                                              (3, 3e-2, 2000)])
def test_series_loss_departs_from_the_g2_sum_linearly_in_the_coupling(eta, nu, n_modes):
    # At order g^2, 1 - P = s A with A = sum g_k^2 4 sin^2(delta_k tau / 2) / delta_k^2
    # for couplings scaled by s, so r(s) = -ln P / (s A) - 1 is O(s): a
    # solver whose loss is off by a factor leaves an r that does not scale
    # with s.  s is in units of the oracle's coupling scale s0, where r is
    # -3.8e-5, 5.7e-8 and -1.6e-3, and r is checked at s = 1 and 0.1.  Dense
    # eigh at 16,000 modes would take minutes.
    modes, tau = _desk_modes(eta, nu, n_modes)
    area = tau ** 2 * np.sum(modes.g ** 2 * np.sinc((modes.omega - 1.0) * tau / TWO_PI) ** 2)

    def r(s):
        scaled = DiscretizedModes(omega=modes.omega, g=modes.g * math.sqrt(s))
        return -math.log(_survival_series(scaled, 1.0, tau).probability) / (s * area) - 1.0

    assert 10.0 * r(0.1) == pytest.approx(r(1.0), rel=1e-2, abs=0)


def _wide_band_modes(n_modes):
    """Weakly coupled modes over (0, 57) at omega0 = 1 and tau = 100, where
    the series runs to K = 3033."""
    modes = discretize_reservoir(_desk_reservoir(3), OracleConfig(n_modes=n_modes,
                                                                  band=(0.0, 57.0)))
    return DiscretizedModes(omega=modes.omega, g=1e-3 * modes.g), 100.0


def _rk4_peak_bytes(modes, tau):
    tracemalloc.start()
    try:
        _survival_series(modes, 1.0, tau)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_rk4_memory_stays_linear():
    # each chunk of modes holds its Chebyshev rows within the chunk budget
    # (0.5 MB), beside O(n_modes) inputs; the series is O(tau * band) long
    modes, tau = _desk_modes(3, 1e-2, 10_000)
    assert _rk4_peak_bytes(modes, tau) < 100 * 10_000


def test_rk4_memory_stays_linear_on_a_long_series():
    # K = 3033: the giant-step rows grow with K, and the chunks shrink to
    # keep them in the budget; the rows of all the modes at once would
    # take 18 MB
    modes, tau = _wide_band_modes(20_000)
    assert _series_order(modes, tau) > 3000
    assert _rk4_peak_bytes(modes, tau) < 50 * 20_000


# ---------------------------------------------------------------------------
# the series route's moments against the vector recurrence
# ---------------------------------------------------------------------------

def _kpm_moments(delta, g, center, radius, order):
    """Reference: nu_k of ``_arrowhead_moments`` by stepping a mode vector.

    The real vectors v_k = T_k(S) e_0 = T_k(s) e_0 + w_k give
    w_(k+1) = 2 S w_k - w_(k-1) + 2 T_k(s) (0, g / radius), and as in the
    kernel polynomial method each w_k yields two moments, through
    T_2k = 2 T_k^2 - 1 and T_(2k+1) = 2 T_(k+1) T_k - T_1, so order / 2
    products with S suffice.
    """
    scale = 2.0 / radius
    d2, g2, a2 = (delta - center) * scale, g * scale, -center * scale
    half = order // 2 + 1
    nu = np.zeros(2 * half)
    # T_(k-1)(s), T_k(s) and the atom and modes of w_(k-1), w_k and w_(k+1)
    t_prev, t = 1.0, 0.5 * a2
    prev_a, cur_a = 0.0, 0.0
    prev, cur, tmp = np.zeros(len(delta)), 0.5 * g2, np.empty(len(delta))
    for k in range(1, half):
        np.multiply(d2, cur, out=tmp)
        tmp -= prev
        np.multiply(g2, cur_a + t, out=prev)
        tmp += prev
        next_a = a2 * cur_a + g2 @ cur - prev_a
        t_next = a2 * t - t_prev
        nu[2 * k] = 4.0 * t * cur_a + 2.0 * (cur_a * cur_a + cur @ cur)
        nu[2 * k + 1] = 2.0 * (t_next * cur_a + t * next_a + next_a * cur_a + tmp @ cur)
        t_prev, t, prev_a, cur_a = t, t_next, cur_a, next_a
        prev, cur, tmp = cur, tmp, prev
    return nu[:order + 1]


def _series_interval(delta, g):
    """center and radius of H's spectrum by _survival_series's rule."""
    norm = float(np.linalg.norm(g))
    lo = min(0.0, float(delta.min())) - norm
    hi = max(0.0, float(delta.max())) + norm
    return 0.5 * (lo + hi), max(0.5 * (hi - lo), 1e-300)


def _series_order(modes, tau):
    """K, the order of the propagator's Chebyshev series at omega0 = 1."""
    return len(_propagator_series(tau, *_series_interval(modes.omega - 1.0, modes.g))) - 1


def _assert_moments_match(delta, g, order):
    center, radius = _series_interval(delta, g)
    want = _kpm_moments(delta, g, center, radius, order)
    got = _arrowhead_moments(delta, g, center, radius, order)
    assert got.shape == (order + 1,)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want), initial=0.0)


@pytest.mark.parametrize("eta, nu", [(1, 1e-2), (1, 3e-2), (3, 1e-2), (3, 3e-2)])
def test_arrowhead_moments_match_the_vector_recurrence_at_the_benchmark_points(eta, nu):
    modes, tau = _desk_modes(eta, nu, 10_000)
    order = _series_order(modes, tau)
    assert 600 < order < 700
    _assert_moments_match(modes.omega - 1.0, modes.g, order)


@pytest.mark.parametrize("order", [438, 800])
def test_arrowhead_moments_match_the_vector_recurrence_with_the_atom_below_the_band(order):
    # every pole above the atom's level puts s near -1, where the terms of
    # the Toeplitz block's inverse grow: without its refinement step the
    # block solve is 1.3e-12 and 3.6e-12 off, with it 2.7e-14 and 3.3e-14
    delta = np.array([1.07, 1.78, 1.33, 0.99, 2.03])
    g = np.array([-1.5e-2, 0.0, -1.8e-3, 0.0, 2.2e-2])
    _assert_moments_match(delta, g, order)


@st.composite
def _rk4_arrowheads(draw):
    """(delta, g, order): 2-400 unsorted poles on [0, 3] about an atom in
    [0.5, 2.5], so at times outside the band, signed couplings of which
    about a third are 0, and orders 0-800, past n_modes too."""
    n = draw(st.integers(2, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    omega0 = draw(st.floats(0.5, 2.5))
    g = rng.uniform(-3e-2, 3e-2, n) * (rng.uniform(size=n) > 1.0 / 3.0)
    return rng.uniform(0.0, 3.0, n) - omega0, g, draw(st.integers(0, 800))


@settings(max_examples=60, deadline=None)
@given(_rk4_arrowheads())
def test_arrowhead_moments_match_the_vector_recurrence(arrowhead):
    _assert_moments_match(*arrowhead)


# ---------------------------------------------------------------------------
# rate extraction
# ---------------------------------------------------------------------------

def test_oracle_rate_flat_reservoir_markovian():
    nu = 1e-2
    reservoir = _flat(1e-4)
    res = oracle_rate(reservoir, 1.0, MeasurementSchedule(nu=nu),
                      OracleConfig(n_modes=4000))
    assert res.method == "oracle"
    assert res.ratio == pytest.approx(1.0, abs=0.02)


def test_oracle_rate_accepts_a_scalar_returning_reservoir():
    # the quadrature broadcasts a flat spectrum's one value; so does the oracle
    m = MeasurementSchedule(nu=1e-2)
    cfg = OracleConfig(n_modes=2000)
    assert oracle_rate(lambda w: 1e-4, 1.0, m, cfg) == oracle_rate(_flat(1e-4), 1.0, m, cfg)


def test_oracle_rate_band_coverage_guard():
    for run in (oracle_rate, oracle_vs_quadrature):
        with pytest.raises(DomainError):
            run(_flat(1e-4), 1.0, MeasurementSchedule(nu=1e-2),
                OracleConfig(n_modes=500, band=(0.9, 1.1)))


def test_oracle_rate_probability_guard():
    # couplings far below the resolvable floor freeze P at exactly 1
    with pytest.raises(NumericalError):
        oracle_rate(_flat(1e-30), 1.0, MeasurementSchedule(nu=1e-2),
                    OracleConfig(n_modes=4000, coupling_scale=1.0))


@pytest.mark.parametrize("method", ["rk4", "exact_diagonalization"])
def test_oracle_rate_rejects_a_vanishing_free_rate_before_integrating(method):
    # R vanishes at omega0 (here everywhere): only R(omega0) is ever
    # evaluated, under either method spelling
    inner = _desk_reservoir(3)
    calls = []

    def reservoir(w):
        calls.append(np.ndim(w))
        return 0.0 * inner(w)

    with pytest.raises(DomainError, match="free rate vanishes"):
        oracle_rate(reservoir, 1.0, MeasurementSchedule(nu=1e-2),
                    OracleConfig(n_modes=2000, method=method))
    assert calls == [0]


def test_oracle_vs_quadrature_quadrupole_desk():
    r = _desk_reservoir(3)
    cfg = OracleConfig(n_modes=2000)
    oracle, quad, rel = oracle_vs_quadrature(r, 1.0, MeasurementSchedule(nu=1e-2), cfg)
    assert rel < 0.03


def test_oracle_vs_quadrature_dipole_desk():
    r = _desk_reservoir(1)
    cfg = OracleConfig(n_modes=10_000)
    oracle, quad, rel = oracle_vs_quadrature(r, 1.0, MeasurementSchedule(nu=1e-3), cfg)
    assert oracle.ratio == pytest.approx(1.0, abs=0.03)
    assert rel < 0.03


def test_oracle_mode_count_convergence():
    # ratio moves by < 1% when the default mode count doubles
    r = _desk_reservoir(3)
    m = MeasurementSchedule(nu=3e-2)
    r1 = oracle_rate(r, 1.0, m, OracleConfig(n_modes=10_000)).ratio
    r2 = oracle_rate(r, 1.0, m, OracleConfig(n_modes=20_000)).ratio
    assert abs(r2 - r1) / r1 < 0.01


def test_band_limited_wrapper():
    r = _desk_reservoir(3)
    wrapped = BandLimitedReservoir(r, (0.5, 2.0))
    assert wrapped(1.0) == r(1.0)
    assert wrapped(0.4) == 0.0
    assert wrapped(2.5) == 0.0
    assert wrapped.omega_support_end == 2.0
    w = np.array([0.0, 1.0, 3.0])
    out = wrapped(w)
    assert out[0] == 0.0 and out[2] == 0.0
    assert out[1] == pytest.approx(r(1.0), rel=1e-14)
