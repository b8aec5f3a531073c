"""Quadrature and closed-form rate tests across the reference-transition regimes."""

import math
from pathlib import Path

import numpy as np
import pytest

from zenoscope.decay import (
    DecayResult,
    QuadratureConfig,
    _cut_walk,
    _gl_cache,
    _lobe_edges,
    _near_region,
    _panel_nodes,
    _shared_near,
    analytic_rate,
    fgr_rate,
    modified_rate_quadrature,
)
from zenoscope.errors import DegenerateTransitionError, DomainError, NumericalError
from zenoscope.oracle import BandLimitedReservoir
from zenoscope.profile import MeasurementSchedule
from zenoscope.specfun import sinc_sq
from zenoscope.reservoir import (
    FullReservoir,
    SimpleReservoir,
    builtin_transition,
    load_reservoir_config,
)

TWO_PI = 2.0 * math.pi
DATA = Path(__file__).resolve().parent / "data"


class _FlatWindow:
    """Constant reservoir on [lo, hi], zero outside; quadrature test fixture."""

    def __init__(self, lo, hi, value=1.0):
        self.lo, self.hi, self.value = lo, hi, value
        self.omega_x = hi / 10.0
        self.omega_support_end = hi

    def __call__(self, omega):
        w = np.asarray(omega, dtype=float)
        out = np.where((w >= self.lo) & (w <= self.hi), self.value, 0.0)
        return float(out) if w.ndim == 0 else out


# ---------------------------------------------------------------------------
# configuration and result types
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    dict(near_lobes=0),
    dict(nodes_per_lobe=4),
    dict(rel_tol=0.5),
    dict(rel_tol=0.0),
    dict(max_omega_factor=5.0),
])
def test_quadrature_config_validation(kwargs):
    with pytest.raises(DomainError):
        QuadratureConfig(**kwargs)


def test_decay_result_validation():
    with pytest.raises(DomainError):
        DecayResult(ratio=1.0, gamma0=1.0, method="magic", err_estimate=0.0)
    with pytest.raises(NumericalError):
        DecayResult(ratio=-1.0, gamma0=1.0, method="quadrature", err_estimate=0.0)
    with pytest.raises(NumericalError):
        DecayResult(ratio=1.0, gamma0=1.0, method="quadrature", err_estimate=-1.0)


# ---------------------------------------------------------------------------
# free rate
# ---------------------------------------------------------------------------

def test_fgr_rate_low_frequency_form():
    for eta, mu, x in ((1, 4, 548.1), (3, 6, 411.1), (5, 8, 365.4)):
        r = SimpleReservoir(d=1.0, eta=eta, mu=mu, omega_x=x)
        approx = TWO_PI * 1.0 ** eta / x ** (eta - 1)
        rel = abs(fgr_rate(r, 1.0) - approx) / approx
        assert rel < 1.05 * mu * (1.0 / x) ** 2


def test_fgr_rate_zero_and_linear():
    assert fgr_rate(lambda w: 0.0, 1.0) == 0.0
    r1 = SimpleReservoir(d=1.0, eta=3, mu=6, omega_x=50.0)
    r2 = SimpleReservoir(d=2.0, eta=3, mu=6, omega_x=50.0)
    assert fgr_rate(r2, 1.0) == pytest.approx(2 * fgr_rate(r1, 1.0), rel=1e-14)
    with pytest.raises(DomainError):
        fgr_rate(r1, 0.0)


# ---------------------------------------------------------------------------
# closed-form ratio, single term
# ---------------------------------------------------------------------------

def _analytic(reservoir, nu):
    return analytic_rate(reservoir, 1.0, MeasurementSchedule(nu=nu))


def test_analytic_simple_dipole_is_unity():
    for mu, x, y in ((4, 548.1, 1e-3), (6, 100.0, 1e-2), (8, 365.4, 1e-4)):
        res = _analytic(SimpleReservoir(d=1.0, eta=1, mu=mu, omega_x=x), y)
        assert res.ratio == 1.0
        assert res.gamma_tail == 0.0


def test_analytic_simple_frozen_values():
    # arithmetic from exact Beta values: B(5,1) = 1/5, B(6,2) = 1/42
    expect3 = 1.0 + 1e-3 * 411.1 ** 2 * (1.0 / 5.0) / TWO_PI
    res = _analytic(SimpleReservoir(d=1.0, eta=3, mu=6, omega_x=411.1), 1e-3)
    assert res.ratio == pytest.approx(expect3, rel=1e-12)
    assert res.ratio == pytest.approx(6.3795392539795, rel=1e-12)

    expect5 = 1.0 + 1e-3 * 365.4 ** 4 * (1.0 / 42.0) / TWO_PI
    res = _analytic(SimpleReservoir(d=1.0, eta=5, mu=8, omega_x=365.4), 1e-3)
    assert res.ratio == pytest.approx(expect5, rel=1e-12)
    assert res.ratio == pytest.approx(67554.05797073928, rel=1e-12)


def test_analytic_simple_decomposition():
    # the resonant part is the free rate; the tail carries the whole excess
    res = _analytic(SimpleReservoir(d=1.0, eta=3, mu=6, omega_x=411.1), 1e-3)
    assert res.gamma_resonant == res.gamma0
    assert res.gamma_tail == pytest.approx((res.ratio - 1.0) * res.gamma0, rel=1e-12)


def test_analytic_simple_beta_domain_error():
    # 2 mu <= eta - 1 would make the Beta argument non-positive; such a
    # reservoir is rejected before the closed form is reached
    with pytest.raises(DomainError):
        _analytic(SimpleReservoir(d=1.0, eta=9, mu=4, omega_x=400.0), 1e-3)


class _Untagged:
    """Has the quadrature's metadata contract but names no closed form."""

    mu = 6
    omega_x = 411.1

    def term_powers(self):
        return ((1.0, 3),)

    def __call__(self, omega):
        return SimpleReservoir(d=1.0, eta=3, mu=6, omega_x=411.1)(omega)


@pytest.mark.parametrize("make", [
    lambda: (lambda w: np.ones_like(np.asarray(w, dtype=float))),
    lambda: BandLimitedReservoir(builtin_transition("3D-1S")[0], (0.0, 5.0)),
    _Untagged,
], ids=["plain-callable", "band-limited", "untagged-contract"])
def test_analytic_requires_a_closed_form_tag(make):
    with pytest.raises(DomainError):
        _analytic(make(), 1e-3)


def test_analytic_hierarchy_warning():
    with pytest.warns(UserWarning):
        _analytic(SimpleReservoir(d=1.0, eta=3, mu=6, omega_x=5.0), 1e-3)


# ---------------------------------------------------------------------------
# closed-form ratio, multi-term
# ---------------------------------------------------------------------------

def test_analytic_full_reduces_to_simple():
    r = FullReservoir(terms=((2, 0, 1.0),), epsilon=0, mu=6, omega_x=411.1,
                      j_range=(2, 2))
    full = _analytic(r, 1e-3)
    simple = _analytic(SimpleReservoir(d=1.0, eta=3, mu=6, omega_x=411.1), 1e-3)
    assert (full.ratio, full.gamma_tail) == (simple.ratio, simple.gamma_tail)
    assert (full.method, simple.method) == ("analytic_full", "analytic_simple")


def test_analytic_full_dipole_gate():
    # a lone eta=1 term has no tail: the step gate excludes it
    r = FullReservoir(terms=((1, 0, 1.0),), epsilon=0, mu=4, omega_x=548.1,
                      j_range=(1, 1))
    assert _analytic(r, 1e-3).ratio == 1.0


def test_analytic_full_two_terms_vs_quadrature():
    # per-term tail amplitudes are cutoff-free: D nu B(...) each, so the
    # second term enters relative to the first without extra cutoff powers
    r = FullReservoir(terms=((2, 0, 1.0), (3, 0, 0.1)), epsilon=0, mu=6,
                      omega_x=400.0, j_range=(2, 3))
    x, y = 400.0, 1e-3
    res = _analytic(r, y)
    expect = 1.0 + (y / TWO_PI) * x ** 2 * (1.0 / 5.0 + 0.1 * (1.0 / 20.0))
    assert res.ratio == pytest.approx(expect, rel=1e-12)
    # quadrature of the overlap integral arbitrates the closed form
    quad = modified_rate_quadrature(r, 1.0, MeasurementSchedule(nu=y))
    assert abs(res.ratio - quad.ratio) / quad.ratio < 0.05


def test_analytic_full_degenerate_error():
    r = FullReservoir(terms=((3, 0, 1.0),), epsilon=0, mu=6, omega_x=400.0,
                      j_range=(2, 3), degenerate_ok=True)
    with pytest.raises(DegenerateTransitionError):
        _analytic(r, 1e-3)


# ---------------------------------------------------------------------------
# quadrature: reference transitions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["2P-1S", "3D-1S", "4F-1S"])
@pytest.mark.parametrize("nu", [1e-3, 1e-2])
def test_quadrature_matches_analytic(name, nu):
    reservoir, omega0 = builtin_transition(name)
    m = MeasurementSchedule(nu=nu)
    quad = modified_rate_quadrature(reservoir, omega0, m)
    ana = analytic_rate(reservoir, omega0, m)
    assert quad.converged
    assert abs(quad.ratio - ana.ratio) / quad.ratio < 0.02


def test_quadrature_dipole_no_acceleration():
    reservoir, omega0 = builtin_transition("2P-1S")
    quad = modified_rate_quadrature(reservoir, omega0, MeasurementSchedule(nu=1e-3))
    assert quad.ratio == pytest.approx(1.0, abs=0.02)


def test_quadrature_flat_reservoir_is_markovian():
    for nu in (1e-4, 1e-3):
        window = 1e3 * nu
        reservoir = _FlatWindow(max(0.0, 1.0 - window), 1.0 + window)
        quad = modified_rate_quadrature(reservoir, 1.0, MeasurementSchedule(nu=nu))
        assert quad.ratio == pytest.approx(1.0, abs=1e-3)


# ---------------------------------------------------------------------------
# quadrature: invariants
# ---------------------------------------------------------------------------

def test_quadrature_fgr_limit():
    nus = (1e-5, 1e-6, 1e-7)
    for name in ("2P-1S", "3D-1S", "4F-1S"):
        reservoir, omega0 = builtin_transition(name)
        ratios = [modified_rate_quadrature(reservoir, omega0,
                                           MeasurementSchedule(nu=nu)).ratio
                  for nu in nus]
        excesses = [abs(r - 1.0) for r in ratios]
        assert excesses[0] > excesses[1] > excesses[2]
        if reservoir.eta > 1:
            slopes = [(r - 1.0) / nu for r, nu in zip(ratios[1:], nus[1:])]
            assert abs(slopes[0] / slopes[1] - 1.0) < 0.03


def test_quadrature_linearity_in_nu():
    reservoir, omega0 = builtin_transition("3D-1S")
    for nu in (1e-4, 5e-4, 1e-3):
        r1 = modified_rate_quadrature(reservoir, omega0,
                                      MeasurementSchedule(nu=nu)).ratio
        r2 = modified_rate_quadrature(reservoir, omega0,
                                      MeasurementSchedule(nu=2 * nu)).ratio
        assert abs((r2 - 1.0) / (r1 - 1.0) - 2.0) < 0.06


def test_quadrature_scale_invariance():
    base = SimpleReservoir(d=1.0, eta=3, mu=6, omega_x=411.1)
    ref = modified_rate_quadrature(base, 1.0, MeasurementSchedule(nu=1e-3)).ratio
    s = 1000.0
    scaled = SimpleReservoir(d=1.0, eta=3, mu=6, omega_x=411.1 * s)
    got = modified_rate_quadrature(scaled, s, MeasurementSchedule(nu=1e-3 * s)).ratio
    assert abs(got - ref) / ref < 1e-10


def test_quadrature_coupling_independence():
    ratios = []
    for d in (0.1, 1.0, 10.0):
        r = SimpleReservoir(d=d, eta=3, mu=6, omega_x=411.1)
        ratios.append(modified_rate_quadrature(r, 1.0,
                                               MeasurementSchedule(nu=1e-3)).ratio)
    assert abs(ratios[0] - ratios[1]) / ratios[1] < 1e-12
    assert abs(ratios[2] - ratios[1]) / ratios[1] < 1e-12


def test_decomposition_consistency():
    reservoir, omega0 = builtin_transition("3D-1S")
    res = analytic_rate(reservoir, omega0, MeasurementSchedule(nu=1e-3))
    assert res.gamma_resonant + res.gamma_tail == pytest.approx(
        res.ratio * res.gamma0, rel=1e-12)


# ---------------------------------------------------------------------------
# quadrature: edge and failure paths
# ---------------------------------------------------------------------------

def test_quadrature_rwa_flag():
    reservoir, omega0 = builtin_transition("2P-1S")
    fast = modified_rate_quadrature(reservoir, omega0, MeasurementSchedule(nu=2.0))
    slow = modified_rate_quadrature(reservoir, omega0, MeasurementSchedule(nu=1e-3))
    assert fast.rwa_warning and not slow.rwa_warning


def test_quadrature_rejects_a_nu_that_overflows_the_range():
    # -omega0/nu is -inf in double precision
    reservoir, omega0 = builtin_transition("3D-1S")
    with pytest.raises(DomainError, match="too small"):
        modified_rate_quadrature(reservoir, omega0, MeasurementSchedule(nu=1e-310))


def test_quadrature_large_nu_runs():
    # the full profile is integrated even outside the rotating-wave domain
    reservoir, omega0 = builtin_transition("3D-1S")
    res = modified_rate_quadrature(reservoir, omega0, MeasurementSchedule(nu=10.0))
    assert res.ratio > 1.0
    assert res.rwa_warning


def test_quadrature_non_integrable_metadata():
    class Bad:
        mu = 3

        def term_powers(self):
            return ((1.0, 5),)

        def __call__(self, w):
            return np.asarray(w, dtype=float)

    with pytest.raises(DomainError):
        modified_rate_quadrature(Bad(), 1.0, MeasurementSchedule(nu=1e-3))


@pytest.mark.parametrize("ref, cfg", [
    (SimpleReservoir(d=1.0, eta=3, mu=6, omega_x=411.1), None),
    # unconverged: the beyond-truncation bound dominates the error estimate
    (SimpleReservoir(d=1.0, eta=5, mu=4, omega_x=50.0), QuadratureConfig(max_omega_factor=10.0)),
], ids=["3D-1S", "heavy-tail"])
def test_quadrature_reads_only_the_metadata_contract(ref, cfg):
    class Contract:
        mu = ref.mu
        omega_x = ref.omega_x

        def term_powers(self):
            return ((ref.d, ref.eta),)

        def __call__(self, omega):
            return ref(omega)

    for nu in np.geomspace(1e-7, 1.0, 7):
        m = MeasurementSchedule(nu=float(nu))
        want = modified_rate_quadrature(ref, 1.0, m, cfg)
        got = modified_rate_quadrature(Contract(), 1.0, m, cfg)
        assert (got.ratio, got.err_estimate) == (want.ratio, want.err_estimate)


def test_quadrature_vanishing_free_rate():
    reservoir = _FlatWindow(5.0, 10.0)  # zero at omega0
    with pytest.raises(DomainError):
        modified_rate_quadrature(reservoir, 1.0, MeasurementSchedule(nu=1e-3))


def test_quadrature_unconverged_heavy_tail():
    # slowly decaying reservoir with an early truncation point: the
    # stopping rule cannot be met and the result is flagged
    r = SimpleReservoir(d=1.0, eta=5, mu=4, omega_x=50.0)
    cfg = QuadratureConfig(max_omega_factor=10.0)
    res = modified_rate_quadrature(r, 1.0, MeasurementSchedule(nu=1e-2), cfg)
    assert not res.converged
    assert res.err_estimate > 1e-9


def test_quadrature_err_estimate_small_when_converged():
    reservoir, omega0 = builtin_transition("3D-1S")
    res = modified_rate_quadrature(reservoir, omega0, MeasurementSchedule(nu=1e-3))
    assert res.converged
    assert res.err_estimate < 1e-6


@pytest.mark.parametrize("eta,nu", [(3, 1e-2), (3, 3e-2), (1, 1e-2), (1, 3e-2)])
def test_band_limited_quadrature_keeps_the_edge_lobe(eta, nu):
    # the oracle's desk reservoir cut at its band edge, where R is still large
    # for eta = 3; the reference is a 2e6-point midpoint sum over the band
    r = SimpleReservoir(d=1.0, eta=eta, mu=6, omega_x=50.0)
    hi = 1.0 + 1e3 * nu
    res = modified_rate_quadrature(BandLimitedReservoir(r, (0.0, hi)), 1.0,
                                   MeasurementSchedule(nu=nu))
    h = hi / 2_000_000
    omega = (np.arange(2_000_000) + 0.5) * h
    kernel = (2.0 * np.sin(0.5 * (omega - 1.0) / nu) / ((omega - 1.0) / nu)) ** 2
    ref = float(np.sum(kernel * r(omega))) * h / nu / (TWO_PI * r(1.0))
    err = abs(res.ratio - ref) / ref
    assert err <= 1e-5
    assert err <= res.err_estimate


TIGHT = QuadratureConfig(near_lobes=1024, nodes_per_lobe=41, rel_tol=1e-13,
                         max_omega_factor=1000.0)


@pytest.mark.parametrize("transition", ["2P-1S", "3D-1S", "4F-1S", "5D-1S"])
def test_err_estimate_bounds_the_error(transition):
    if transition == "5D-1S":
        reservoir, omega0 = load_reservoir_config(DATA / "5D-1S.json")
    else:
        reservoir, omega0 = builtin_transition(transition)
    for nu in (1e-7, 1e-4, 1e-2, 0.3):
        m = MeasurementSchedule(nu=nu)
        res = modified_rate_quadrature(reservoir, omega0, m)
        tight = modified_rate_quadrature(reservoir, omega0, m, TIGHT).ratio
        assert abs(res.ratio - tight) / tight <= res.err_estimate, nu


# ---------------------------------------------------------------------------
# the cached far-field walk
# ---------------------------------------------------------------------------

def _reference_walk(start: float, end: float, growth: float) -> np.ndarray:
    """The far-field walk as a loop from start to end, one boundary at a time."""
    out = [start]
    cur = start
    while cur < end:
        nxt = TWO_PI * math.ceil(max(cur * growth, cur + TWO_PI) / TWO_PI)
        if nxt >= end:
            out.append(end)
            break
        out.append(nxt)
        cur = nxt
    return np.asarray(out)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("near_lobes", [1, 4, 64, 1024])
def test_cached_walk_matches_the_loop_bit_for_bit(near_lobes):
    start, n = TWO_PI * near_lobes, 15
    walk = _lobe_edges(start)
    last = len(walk) - 1
    # every boundary up to 2^8 panels, each cache size 2^j and its neighbours,
    # every 64th boundary and the last eight; all ~3,150 would run the loop
    # about 2e7 times per start
    picked = set(range(1, 257)) | set(range(257, last, 64)) | set(range(last - 7, last + 1))
    picked |= {2 ** j + d for j in range(8, 12) for d in (-1, 0, 1, 2)} & set(range(1, last + 1))
    ends = {1e307}
    for i in picked:
        b = float(walk[i])
        ends |= {b, float(np.nextafter(b, 0.0)), walk[i - 1] + 0.5 * (b - walk[i - 1])}
        if i < last:  # past the last boundary the loop's next step overflowed
            ends.add(float(np.nextafter(b, math.inf)))
    with np.errstate(over="ignore"):  # panel midpoints near the top of the float range
        for end in sorted(ends):
            ref = _reference_walk(start, end, 1.25)
            edges, u, w = _cut_walk(start, end, n)
            assert _same_bits(edges, ref), end
            ref_u, ref_w = _panel_nodes(ref, n)
            assert _same_bits(u, ref_u) and _same_bits(w, ref_w), end
            # the side below resonance mirrors the walk above
            ref_u, ref_w = _panel_nodes(-ref[::-1], n)
            assert _same_bits(-u[::-1], ref_u) and _same_bits(w[::-1], ref_w), end


@pytest.mark.parametrize("n", range(5, 42))
def test_gl_nodes_are_antisymmetric_and_weights_symmetric(n):
    xi, wi = _gl_cache(n)
    assert np.array_equal(-xi[::-1], xi)  # equal values; the middle node's zero flips sign
    assert _same_bits(wi[::-1], wi)


# ---------------------------------------------------------------------------
# the near region sliced from the shared nodes
# ---------------------------------------------------------------------------

def _reference_near_edges(lo: float, hi: float) -> np.ndarray:
    """Lobe boundaries of the near region [lo, hi], each built in one array."""
    k_lo = math.floor(lo / TWO_PI)
    k_hi = math.ceil(hi / TWO_PI)
    edges = np.clip(TWO_PI * np.arange(k_lo, k_hi + 1), lo, hi)
    return edges[np.append(True, edges[1:] != edges[:-1])]


def _near_cases(near_lobes: int):
    """(lo, hi) pairs over lobe multiples, their neighbours and cut lobes."""
    lobe_k = TWO_PI * near_lobes
    ks = {0, 1, 2, near_lobes // 2, near_lobes - 1, near_lobes}
    marks = set()
    for k in ks | {-k for k in ks}:
        b = TWO_PI * k
        marks |= {b, float(np.nextafter(b, -math.inf)), float(np.nextafter(b, math.inf)),
                  b + 0.5, b - 2.0}
    marks = {x for x in marks if -lobe_k <= x <= lobe_k}
    # the low side clipped only, the high side only, both sides, and neither
    pairs = {(lo, hi) for lo in marks for hi in marks if lo < 0.0 < hi}
    # ranges inside one lobe, and touching one boundary of it
    for k in {0, 1, near_lobes - 1, -near_lobes}:
        b = TWO_PI * k
        pairs |= {(b + 0.5, b + 1.0), (b, b + 1.0), (b + 1.0, b + TWO_PI)}
    # the measurement rate at which u_min = -1/nu reaches -lobe_k, and its neighbours
    nu = 1.0 / lobe_k
    for v in (float(np.nextafter(nu, 0.0)), nu, float(np.nextafter(nu, 1.0))):
        pairs |= {(max(-1.0 / v, -lobe_k), lobe_k), (max(-1.0 / v, -lobe_k), 3.0)}
    rng = np.random.default_rng(9)
    pairs |= {(float(-rng.uniform(0, lobe_k)), float(rng.uniform(0, lobe_k)))
              for _ in range(20)}
    return sorted(pairs)


@pytest.mark.parametrize("near_lobes, n", [(1, 15), (4, 7), (64, 15)])
def test_sliced_near_region_matches_the_built_one_bit_for_bit(near_lobes, n):
    for lo, hi in _near_cases(near_lobes):
        u, w, s = _near_region(lo, hi, near_lobes, n)
        ref_u, ref_w = _panel_nodes(_reference_near_edges(lo, hi), n)
        assert _same_bits(u, ref_u), (lo, hi)
        assert _same_bits(w, ref_w), (lo, hi)
        assert _same_bits(s, sinc_sq(0.5 * ref_u)), (lo, hi)
    # the whole near region is the shared arrays
    lobe_k = TWO_PI * near_lobes
    for got, shared in zip(_near_region(-lobe_k, lobe_k, near_lobes, n),
                           _shared_near(near_lobes, n)):
        assert _same_bits(got, shared)
