"""Discretized-mode dynamics: golden-rule limits, unitarity, cross-route checks."""

import math
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenoscope import oracle
from zenoscope.errors import DomainError, NumericalError
from zenoscope.oracle import (
    _arrowhead_eigensystem,
    _arrowhead_moments,
    _auto_coupling_scale,
    _propagator_series,
    _secular_roots,
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
    with pytest.raises(DomainError, match="whole number"):
        OracleConfig(n_modes=100.5)
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
    # NaN couplings would otherwise read as uncoupled modes in ED, giving a
    # plausible wrong ratio, and as a failure only once the series is summed
    r = _desk_reservoir(3)

    def spoiled(w):
        return np.where(np.abs(w - 3.0) < 0.1, bad, r(w))

    with pytest.raises(DomainError, match="finite"):
        oracle_rate(spoiled, 1.0, MeasurementSchedule(nu=1e-2),
                    OracleConfig(n_modes=2000, method=method))


# ---------------------------------------------------------------------------
# survival probability
# ---------------------------------------------------------------------------

def test_survival_zero_coupling():
    cfg = OracleConfig(n_modes=500, band=(0.5, 1.5))
    modes = discretize_reservoir(_flat(0.0), cfg)
    for method in ("rk4", "exact_diagonalization"):
        cfg_m = OracleConfig(n_modes=500, band=(0.5, 1.5), method=method)
        res = survival_probability(modes, 1.0, 10.0, cfg_m)
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
    r = _desk_reservoir(3, d=3e-3)
    band = (0.0, 11.0)
    modes = discretize_reservoir(r, OracleConfig(n_modes=2000, band=band))
    tau = 100.0
    p_ed = survival_probability(
        modes, 1.0, tau, OracleConfig(n_modes=2000, band=band,
                                      method="exact_diagonalization"))
    p_rk = survival_probability(
        modes, 1.0, tau, OracleConfig(n_modes=2000, band=band, method="rk4"))
    assert p_rk.probability == pytest.approx(p_ed.probability, rel=1e-8)


def test_survival_short_time_quadratic():
    # 1 - P grows as tau^2 well inside the Zeno regime
    r = _desk_reservoir(3, d=20.0)
    cfg = OracleConfig(n_modes=500, band=(0.0, 3.0),
                       method="exact_diagonalization")
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
    for method in ("rk4", "exact_diagonalization"):
        with pytest.raises(DomainError, match="distinct frequencies"):
            survival_probability(tied, 1.0, 1.0, replace(cfg, method=method))


@pytest.mark.parametrize("method", ["rk4", "exact_diagonalization"])
def test_survival_does_not_depend_on_mode_order(method):
    cfg = OracleConfig(n_modes=2000, band=(0.5, 1.5), method=method)
    modes = discretize_reservoir(_desk_reservoir(3, d=3e-3), cfg)
    reversed_modes = DiscretizedModes(omega=modes.omega[::-1], g=modes.g[::-1])
    want = survival_probability(modes, 1.0, 30.0, cfg).probability
    got = survival_probability(reversed_modes, 1.0, 30.0, cfg).probability
    if method == "exact_diagonalization":
        assert got == want
    else:
        assert got == pytest.approx(want, rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# the series route against dense eigh and exact diagonalization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("timing", ["stability", "explicit-dt", "four-step-floor",
                                    "remainder-0", "remainder-1", "remainder-2",
                                    "remainder-3"])
@pytest.mark.parametrize("seed", range(4))
def test_rk4_matches_stagewise_loop(seed, timing):
    # unsorted poles, signed couplings and about a third of them zero,
    # against dense eigh.  The ids name the intervals at which a
    # stage-by-stage RK4 loop once checked this route, in units of its step
    # bound 0.1 / max|delta|: hundreds of steps, half a step, and 16 to 19
    # steps of 0.3 of the bound.
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
    vals, weights = _dense_eigensystem(modes, omega0)
    want = abs(np.sum(weights * np.exp(-1j * vals * tau))) ** 2
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


@pytest.mark.parametrize("eta, nu, n_modes", [
    pytest.param(1, 1e-2, 2000, id="1-0.01"),
    pytest.param(1, 3e-2, 2000, id="1-0.03"),
    pytest.param(3, 1e-2, 2000, id="3-0.01"),
    pytest.param(3, 3e-2, 2000, id="3-0.03"),
    pytest.param(1, 1e-2, 10_000, id="1-0.01-10000"),
    pytest.param(1, 3e-2, 10_000, id="1-0.03-10000"),
    pytest.param(3, 1e-2, 10_000, id="3-0.01-10000"),
    # the golden point with the smallest loss, where rounding weighs most in -ln P
    pytest.param(3, 3e-2, 10_000, id="3-0.03-10000"),
])
def test_rk4_reproduces_the_exact_discrete_solution(eta, nu, n_modes):
    # the oracle benchmark's points, against exact diagonalization
    modes, tau = _desk_modes(eta, nu, n_modes)

    def loss(method):
        cfg = OracleConfig(n_modes=n_modes, method=method)
        return -math.log(survival_probability(modes, 1.0, tau, cfg).probability)

    assert loss("rk4") == pytest.approx(loss("exact_diagonalization"), rel=1e-10, abs=0)


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
# exact diagonalization against dense eigh
# ---------------------------------------------------------------------------

def _dense_eigensystem(modes, omega0):
    """Reference: the dense arrowhead Hamiltonian through np.linalg.eigh."""
    n = len(modes.omega)
    h = np.zeros((n + 1, n + 1))
    h[0, 1:] = h[1:, 0] = modes.g
    h[np.arange(1, n + 1), np.arange(1, n + 1)] = modes.omega - omega0
    vals, vecs = np.linalg.eigh(h)
    return vals, vecs[0] ** 2


def _random_arrowhead(case, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(100, 401))
    omega = np.sort(rng.uniform(0.0, 3.0, n))
    g = rng.uniform(0.0, 1.0, n)
    if case == "weak":
        g *= 1e-4
    elif case == "strong":
        g *= 0.3
    elif case == "zero":
        g *= 1e-3
        g[rng.uniform(size=n) < 0.5] = 0.0
    elif case == "tied":
        omega = np.round(omega * 30.0) / 30.0
        g *= 1e-3
    elif case == "unsorted":
        perm = rng.permutation(n)
        omega, g = omega[perm], 1e-3 * g[perm] * rng.choice([-1.0, 1.0], n)
    return DiscretizedModes(omega=omega, g=g), float(rng.uniform(0.5, 2.5))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("case", ["weak", "strong", "zero", "tied", "unsorted"])
def test_exact_diagonalization_matches_dense_eigh(case, seed):
    modes, omega0 = _random_arrowhead(case, seed)
    vals, weights = _arrowhead_eigensystem(modes, omega0)
    ref_vals, ref_weights = _dense_eigensystem(modes, omega0)
    scale = max(np.max(np.abs(modes.omega - omega0)), np.linalg.norm(modes.g))
    assert np.max(np.abs(vals - ref_vals)) <= 1e-12 * scale
    assert np.max(np.abs(weights - ref_weights)) <= 1e-12
    for tau in np.array([1.0, 10.0, 100.0]) / scale:
        p = abs(np.sum(weights * np.exp(-1j * vals * tau))) ** 2
        ref = abs(np.sum(ref_weights * np.exp(-1j * ref_vals * tau))) ** 2
        assert p == pytest.approx(ref, rel=1e-10, abs=0)


def test_exact_diagonalization_without_coupling_is_exactly_the_atom():
    modes = discretize_reservoir(_flat(0.0), OracleConfig(n_modes=500, band=(0.5, 1.5)))
    vals, weights = _arrowhead_eigensystem(modes, 1.0)
    assert len(vals) == 501 and weights.sum() == 1.0
    assert vals[np.argmax(weights)] == 0.0
    cfg = OracleConfig(n_modes=500, band=(0.5, 1.5), method="exact_diagonalization")
    assert survival_probability(modes, 1.0, 10.0, cfg) == (1.0, 0.0)


def test_exact_diagonalization_mode_limit():
    omega = np.linspace(0.0, 2.0, 20_001)
    with pytest.raises(DomainError, match="20000"):
        _arrowhead_eigensystem(DiscretizedModes(omega=omega, g=np.ones_like(omega)), 1.0)


def test_mode_limits_fail_when_the_config_is_built():
    # only configs are constructed: a rejected size is never allocated
    OracleConfig(n_modes=20_000, method="exact_diagonalization")
    OracleConfig(n_modes=1_000_000, method="rk4")
    with pytest.raises(DomainError, match="20000"):
        OracleConfig(n_modes=20_001, method="exact_diagonalization")
    for method in ("rk4", "exact_diagonalization"):
        for n_modes in (1_000_001, 10 ** 9):
            with pytest.raises(DomainError):
                OracleConfig(n_modes=n_modes, method=method)


def _arrowheads(max_exponent):
    """Random (omega, g, omega0): poles on [0, 3] with frequent exact ties,
    couplings 0 or 10**e for e in [-8, max_exponent]."""
    omega = st.sampled_from([0.25, 0.5, 1.0, 1.5]) | st.floats(0.0, 3.0)
    g = st.just(0.0) | st.floats(-8.0, max_exponent).map(lambda e: 10.0 ** e)
    modes = st.lists(st.tuples(omega, g), min_size=1, max_size=60).map(
        lambda pairs: DiscretizedModes(*(np.array(x) for x in zip(*pairs))))
    return st.tuples(modes, st.floats(0.5, 2.5))


@settings(max_examples=60, deadline=None)
@given(_arrowheads(max_exponent=1.0))
def test_exact_diagonalization_interlaces_at_any_coupling(arrowhead):
    modes, omega0 = arrowhead
    vals, weights = _arrowhead_eigensystem(modes, omega0)
    assert len(vals) == len(modes.omega) + 1
    assert np.all(weights >= 0.0)
    # Cauchy interlacing: lam_k <= delta_k <= lam_{k+1} for sorted delta
    delta = np.sort(modes.omega - omega0)
    assert np.all(vals[:-1] <= delta) and np.all(delta <= vals[1:])


@settings(max_examples=60, deadline=None)
@given(_arrowheads(max_exponent=-1.0))
def test_exact_diagonalization_weights_sum_to_one(arrowhead):
    # Checked at couplings up to 0.1, where the oracle runs.  A weight's
    # relative error grows as eps * scale / |lam - delta_anchor|, so a strong
    # coupling that moves an eigenvalue next to a weakly coupled pole costs
    # digits: g = (1, 1e-4) at delta = (0, 1) misses the two weights near
    # lam = 1 by 1e-13 each and the sum by 2e-13 (dense eigh misses those
    # weights by 4e-13, though its sum, a row norm, stays exact).
    vals, weights = _arrowhead_eigensystem(*arrowhead)
    assert abs(weights.sum() - 1.0) <= 1e-13


def test_exact_diagonalization_memory_stays_linear():
    # a dense (n+1)^2 matrix at n = 5000 would take 200 MB
    modes = discretize_reservoir(_desk_reservoir(3, d=3e-3),
                                 OracleConfig(n_modes=5000, band=(0.0, 11.0)))
    tracemalloc.start()
    try:
        _arrowhead_eigensystem(modes, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6


def _secular_problem(n_modes):
    modes = discretize_reservoir(_desk_reservoir(3, d=3e-3),
                                 OracleConfig(n_modes=n_modes, band=(0.0, 11.0)))
    return modes.omega - 1.0, modes.g ** 2


def _all_direct(monkeypatch):
    """Send every root to direct sums: no pole's series may be tried."""
    monkeypatch.setattr(oracle, "_SERIES_RHO", 0.0)


def test_exact_diagonalization_starts_no_thread(monkeypatch):
    def refuse(thread):
        raise RuntimeError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    result = oracle_rate(_desk_reservoir(3), 1.0, MeasurementSchedule(nu=1e-2),
                         OracleConfig(n_modes=2000, method="exact_diagonalization"))
    assert 1.0 < result.ratio < 2.0


def test_secular_failure_raises_alike_and_leaves_no_thread(monkeypatch):
    modes = discretize_reservoir(_desk_reservoir(3, d=3e-3),
                                 OracleConfig(n_modes=2000, band=(0.0, 11.0)))
    before = threading.active_count()
    _arrowhead_eigensystem(modes, 1.0)
    assert threading.active_count() == before
    monkeypatch.setattr(oracle, "_SECULAR_MAX_ITER", 1)
    with pytest.raises(NumericalError, match="unconverged after 1 Newton steps"):
        _arrowhead_eigensystem(modes, 1.0)
    assert threading.active_count() == before


def test_the_first_failing_secular_block_raises(monkeypatch):
    # blocks 1 and 2 fail: of the 63 moments blocks of 32 poles, then, with
    # every root sent to direct sums, of the 31 direct blocks of 65 roots.
    # The poles are jittered off their lattice, which would take the
    # moments by FFT, with no blocks.
    poles, z2 = _secular_problem(2000)
    poles = poles + np.random.default_rng(5).uniform(-0.1, 0.1, len(poles)) * np.diff(poles)[0]
    assert oracle._lattice(poles) is None
    before = threading.active_count()
    for name, rows in (("_moments_block", 32), ("_secular_block", 65)):
        solve = getattr(oracle, name)

        def failing(block, *args, solve=solve, rows=rows):
            if block[0] in (rows, 2 * rows):
                raise NumericalError(f"block at {block[0]}")
            solve(block, *args)

        with monkeypatch.context() as patch:
            patch.setattr(oracle, name, failing)
            _all_direct(patch)
            with pytest.raises(NumericalError, match=f"^block at {rows}$"):
                _secular_roots(poles, z2)
            assert threading.active_count() == before


def _ed_problem(reservoir, nu, n_modes=2000):
    """The poles and couplings that ED at n_modes hands the secular solver."""
    problems = []
    solve_roots = oracle._secular_roots

    def roots(poles, z2):
        problems.append((poles, z2))
        return solve_roots(poles, z2)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_secular_roots", roots)
        oracle_rate(reservoir, 1.0, MeasurementSchedule(nu=nu),
                    OracleConfig(n_modes=n_modes, method="exact_diagonalization"))
    return problems[0]


def _holed(eta):
    """The desk reservoir with no coupling on (1.3, 1.4) nor at every 7th of
    2000 modes on (0, 11)."""
    r = _desk_reservoir(eta)

    def reservoir(w):
        w = np.asarray(w, dtype=float)
        keep = ((w <= 1.3) | (w >= 1.4)) & (np.floor(w * (2000 / 11.0)) % 7 != 3)
        return np.where(keep, r(w), 0.0)
    return reservoir


def _direct_moments(poles, z2):
    s = np.empty((len(poles), oracle._SERIES_ORDER + 2))
    work = np.empty((2, 100, len(poles)))
    for first in range(0, len(poles), 100):
        oracle._moments_block(range(first, min(first + 100, len(poles))), poles, z2, s, work)
    return s


@pytest.mark.parametrize("eta, nu, holes", [
    (1, 1e-2, False), (1, 3e-2, False), (3, 1e-2, False), (3, 3e-2, False), (3, 1e-2, True)])
def test_lattice_moments_match_direct_sums(eta, nu, holes):
    # the ED points of the oracle benchmark, and a grid with holes where
    # the couplings vanish
    reservoir = _holed(eta) if holes else _desk_reservoir(eta)
    poles, z2 = _ed_problem(reservoir, nu)
    idx, _ = oracle._lattice(poles)
    assert idx[-1] == 1999 and len(poles) == (1697 if holes else 2000)
    s, ref = oracle._moments(poles, z2), _direct_moments(poles, z2)
    # the even powers, S_(P+1) among them, sum positive terms
    assert np.all(np.abs(s[:, 1::2] / ref[:, 1::2] - 1.0) <= 1e-10)
    # the odd powers alternate in sign: their error is measured against
    # sum z2_k / |d_k|^(p+1) <= sqrt(S_(p-1) S_(p+1)) (Cauchy-Schwarz), S_-1 = sum z2
    below = np.column_stack((np.full(len(poles), z2.sum()), ref[:, 1:-2:2]))
    assert np.all(np.abs(s[:, ::2] - ref[:, ::2]) <= 1e-12 * np.sqrt(below * ref[:, 1::2]))


def test_moments_take_the_fft_path_only_on_short_lattices(monkeypatch):
    poles, z2 = _secular_problem(500)
    idx, h = oracle._lattice(poles)
    assert np.array_equal(idx, np.arange(500)) and h == pytest.approx(11.0 / 500, rel=1e-12)
    holes = np.arange(500) % 5 != 2
    holes[100:150] = False
    idx, _ = oracle._lattice(poles[holes])
    assert np.array_equal(idx, np.flatnonzero(holes))
    rng = np.random.default_rng(1)
    assert oracle._lattice(np.sort(rng.uniform(-1.0, 10.0, 500))) is None
    # 100 poles spread over a lattice of 2n + 1 = 201 points; 200 points pass
    assert oracle._lattice(poles[np.r_[0:99, 200]]) is None
    assert oracle._lattice(poles[np.r_[0:99, 199]]) is not None
    # direct blocks sum every jittered pole's moments, and on a lattice only
    # those of the weakest coupled poles, where the FFT's rounding bound is
    # loose: none on this grid, the lowest 6 at eta = 3 and nu = 1e-2
    jittered = poles + rng.uniform(-0.1, 0.1, 500) * h
    rows, solve = [], oracle._moments_block

    def block(a, *args):
        rows.extend(a)
        solve(a, *args)

    monkeypatch.setattr(oracle, "_moments_block", block)
    oracle._moments(jittered, z2)
    assert rows == list(range(500))
    rows.clear()
    oracle._moments(poles, z2)
    assert rows == []
    problem = _ed_problem(_desk_reservoir(3), 1e-2)
    rows.clear()
    oracle._moments(*problem)
    assert rows == list(range(6))


def _assert_series_matches_direct(default, direct, scale):
    (vals, weights), (ref_vals, ref_weights) = default, direct
    assert np.max(np.abs(vals - ref_vals)) <= 1e-15 * scale
    assert np.all(np.abs(weights - ref_weights) <= 1e-13 * ref_weights)


@pytest.mark.parametrize("eta, nu", [(1, 1e-2), (1, 3e-2), (3, 1e-2), (3, 3e-2)])
def test_series_roots_match_direct_sums_at_the_benchmark_points(monkeypatch, eta, nu):
    # the ED points of the oracle benchmark, where the series solve all but
    # a few roots next to the atom's level
    solve_roots, solve_block = oracle._secular_roots, oracle._secular_block
    problems, direct = [], []

    def roots(poles, z2):
        problems.append((poles, z2))
        return solve_roots(poles, z2)

    def block(j, *args):
        direct.extend(j)
        solve_block(j, *args)

    def ratio():
        return oracle_rate(_desk_reservoir(eta), 1.0, MeasurementSchedule(nu=nu),
                           OracleConfig(n_modes=2000, method="exact_diagonalization")).ratio

    monkeypatch.setattr(oracle, "_secular_roots", roots)
    monkeypatch.setattr(oracle, "_secular_block", block)
    default = ratio()
    assert 1 <= len(direct) <= 16
    poles, z2 = problems[0]
    series = solve_roots(poles, z2)
    _all_direct(monkeypatch)
    assert ratio() == pytest.approx(default, rel=1e-12, abs=0)
    scale = max(np.max(np.abs(poles)), math.sqrt(z2.sum()))
    _assert_series_matches_direct(series, solve_roots(poles, z2), scale)


def _assert_eigensystem_matches_direct(modes, omega0):
    default = _arrowhead_eigensystem(modes, omega0)
    with pytest.MonkeyPatch.context() as patch:
        _all_direct(patch)
        direct = _arrowhead_eigensystem(modes, omega0)
    scale = max(np.max(np.abs(modes.omega - omega0)), np.linalg.norm(modes.g))
    _assert_series_matches_direct(default, direct, scale)


@settings(max_examples=60, deadline=None)
@given(_arrowheads(max_exponent=-3.0))
def test_series_roots_match_direct_sums_at_weak_coupling(arrowhead):
    _assert_eigensystem_matches_direct(*arrowhead)


def _lattices():
    """Random (modes, omega0): n modes spaced h apart from omega_lo, a third
    of their couplings 0 and the rest 10**e for e in [-8, -3]."""
    coupling = st.floats(-8.0, -3.0).map(lambda e: 10.0 ** e)
    g = st.lists(st.just(0.0) | coupling | coupling, min_size=2, max_size=120)
    return st.builds(
        lambda g, lo, h, omega0: (DiscretizedModes(lo + h * np.arange(len(g)), np.array(g)),
                                  omega0),
        g, st.floats(0.0, 1.0), st.floats(1e-3, 3e-2), st.floats(0.5, 2.5))


@settings(max_examples=60, deadline=None)
@given(_lattices())
def test_series_roots_match_direct_sums_on_lattices_with_holes(arrowhead):
    # the moments come from the FFT whenever the coupled modes span at most
    # twice their number of lattice points
    _assert_eigensystem_matches_direct(*arrowhead)


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
    cfg = OracleConfig(n_modes=2000, method="exact_diagonalization")
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
    # R vanishes at omega0 (here everywhere): only R(omega0) is ever evaluated
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
    cfg = OracleConfig(n_modes=2000, method="exact_diagonalization")
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
