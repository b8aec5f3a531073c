"""Discretized-mode dynamics: golden-rule limits, unitarity, cross-route checks."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenoscope.errors import DomainError, NumericalError
from zenoscope.oracle import (
    _arrowhead_eigensystem,
    _auto_coupling_scale,
    _survival_rk4,
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
    with pytest.raises(DomainError):
        OracleConfig(dt=-0.1)
    with pytest.raises(DomainError):
        OracleConfig(coupling_scale=0.0)


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
    # plausible wrong ratio, and as a failure only after every RK4 step
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
    # one mode has no spacing to guard with
    with pytest.raises(DomainError):
        survival_probability(DiscretizedModes(modes.omega[:1], modes.g[:1]), 1.0, 1.0, cfg)


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
# RK4 against the exact discrete solution and the stage-by-stage loop
# ---------------------------------------------------------------------------

def _rk4_steps(delta, tau, dt=None):
    """The oracle's step rule: n_steps and h."""
    w = max(float(np.max(np.abs(delta))), 1e-300)
    step = 0.1 / w if dt is None else min(dt, 0.1 / w)
    n_steps = max(int(math.ceil(tau / step)), 4)
    return n_steps, tau / n_steps


def _stagewise_rk4(modes, omega0, tau, dt):
    """Reference: the classical four-stage RK4 loop on the full state."""
    delta = modes.omega - omega0
    n_steps, h = _rk4_steps(delta, tau, dt)
    y = np.zeros(len(delta) + 1, dtype=np.complex128)
    y[0] = 1.0
    mig, mid = -1j * modes.g, -1j * delta

    def deriv(v):
        return np.concatenate(([mig @ v[1:]], mid * v[1:] + mig * v[0]))

    drift = 0.0
    for i in range(n_steps):
        k1 = deriv(y)
        k2 = deriv(y + 0.5 * h * k1)
        k3 = deriv(y + 0.5 * h * k2)
        k4 = deriv(y + h * k3)
        y = y + h / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
        if i % max(1, n_steps // 32) == 0:
            drift = max(drift, abs(float(np.vdot(y, y).real) - 1.0))
    drift = max(drift, abs(float(np.vdot(y, y).real) - 1.0))
    return float(abs(y[0]) ** 2), drift


@pytest.mark.parametrize("timing", ["stability", "explicit-dt", "four-step-floor"])
@pytest.mark.parametrize("seed", range(4))
def test_rk4_matches_stagewise_loop(seed, timing):
    # unsorted poles, signed couplings and about a third of them zero
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 301))
    omega = rng.uniform(0.0, 3.0, n)
    g = rng.uniform(-3e-2, 3e-2, n) * (rng.uniform(size=n) > 0.3)
    modes, omega0 = DiscretizedModes(omega=omega, g=g), float(rng.uniform(0.5, 2.5))
    stability = 0.1 / np.max(np.abs(omega - omega0))
    tau, dt = {"stability": (30.0, None),
               "explicit-dt": (10.0, 0.3 * stability),
               "four-step-floor": (0.5 * stability, None)}[timing]
    if timing == "four-step-floor":
        assert _rk4_steps(omega - omega0, tau)[0] == 4
    p_ref, drift_ref = _stagewise_rk4(modes, omega0, tau, dt)
    res = _survival_rk4(modes, omega0, tau, dt)
    assert res.probability == pytest.approx(p_ref, rel=0, abs=1e-12)
    assert res.norm_drift == pytest.approx(drift_ref, rel=1e-6, abs=1e-14)


@pytest.mark.parametrize("nu", [1e-2, 3e-2])
@pytest.mark.parametrize("eta", [1, 3])
def test_rk4_reproduces_the_exact_discrete_solution(eta, nu):
    # The RK4 propagator of y' = -iHy is R(-ihH) with R(z) = sum_{j<=4} z^j/j!,
    # so a_n = sum_j w_j R(-ih lam_j)^n over H's eigenpairs.  |R(iy)|^2 is
    # 1 - y^6/72 + y^8/576 exactly; its logarithm and R's phase are taken
    # apart so that the n-th power keeps every digit.
    tau, band = 1.0 / nu, (0.0, 1.0 + 1e3 * nu)
    modes = discretize_reservoir(_desk_reservoir(eta), OracleConfig(n_modes=2000, band=band))
    scale = _auto_coupling_scale(modes, 1.0, tau, nu)
    modes = DiscretizedModes(omega=modes.omega, g=modes.g * math.sqrt(scale))
    n_steps, h = _rk4_steps(modes.omega - 1.0, tau)
    lam, weights = _arrowhead_eigensystem(modes, 1.0)
    y = h * lam
    log_modulus = 0.5 * np.log1p(y ** 4 * (y ** 4 / 576.0 - y ** 2 / 72.0))
    phase = np.arctan2(-(y - y ** 3 / 6.0), 1.0 - y ** 2 / 2.0 + y ** 4 / 24.0)
    amp = np.sum(weights * np.exp(n_steps * (log_modulus + 1j * phase)))
    want = -math.log(abs(amp) ** 2)
    got = -math.log(survival_probability(modes, 1.0, tau, OracleConfig(
        n_modes=2000, band=band, method="rk4")).probability)
    assert got == pytest.approx(want, rel=1e-10, abs=0)


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
