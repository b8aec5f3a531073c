"""Reservoir spectra, transition parameters, and the builtin table."""

import json
import math

import numpy as np
import pytest

from zenoscope.errors import DomainError
from zenoscope.oracle import BandLimitedReservoir
from zenoscope.reservoir import (
    BUILTIN_QUANTUM_NUMBERS,
    CONSTANTS,
    ELECTRIC,
    MAGNETIC,
    FullReservoir,
    PhysicalConstants,
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


def _transition(n_g=1, l_g=0, n_e=2, l_e=1, z=1.0, character=ELECTRIC,
                m_g=0, m_e=0):
    return Transition(character, n_g, l_g, m_g, n_e, l_e, m_e, z)


# ---------------------------------------------------------------------------
# constants and transition validation
# ---------------------------------------------------------------------------

def test_default_constants():
    assert CONSTANTS.alpha == pytest.approx(1 / 137.036, rel=1e-6)
    assert CONSTANTS.c > 0 and CONSTANTS.a0 > 0


def test_constants_validation():
    for bad in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            PhysicalConstants(alpha=bad)


@pytest.mark.parametrize("kwargs", [
    dict(n_g=0),                      # n below 1
    dict(l_g=1),                      # l > n-1 for n_g=1
    dict(n_e=2, l_e=2),               # l > n-1
    dict(n_e=1, l_e=0),               # not above ground (same n, same l=0 also l_e==l_g)
    dict(n_g=2, l_g=1, n_e=2, l_e=1),  # same n, same l
    dict(n_g=2, l_g=1, n_e=3, l_e=1),  # |l_e - l_g| = 0
    dict(z=0.0),
    dict(m_e=2),                      # |m| > l for l_e=1
    dict(z=math.nan),
    dict(z=math.inf),
])
def test_transition_invalid(kwargs):
    with pytest.raises(DomainError):
        _transition(**kwargs)


def test_transition_character():
    assert _transition().epsilon == 0
    assert _transition(character=MAGNETIC).epsilon == 1
    with pytest.raises(DomainError):
        _transition(character="dipole")


# ---------------------------------------------------------------------------
# cutoff frequency and frequency ratio
# ---------------------------------------------------------------------------

def test_cutoff_frequency_examples():
    c_over_a0 = CONSTANTS.c / CONSTANTS.a0
    assert cutoff_frequency(_transition()) == pytest.approx(1.5 * c_over_a0, rel=1e-14)
    # orderings not expressible as a Transition go through the raw helper;
    # (1/4 + 1/3) * 2 = 7/6
    assert hydrogenic_cutoff(4, 3, 2.0) == pytest.approx((7.0 / 6.0) * c_over_a0,
                                                         rel=1e-14)
    assert hydrogenic_cutoff(4, 3, 2.0) == pytest.approx(6.61e18, rel=1e-2)
    assert hydrogenic_cutoff(1, 1, 1.0) == pytest.approx(2.0 * c_over_a0, rel=1e-14)


def test_cutoff_domain():
    with pytest.raises(DomainError):
        hydrogenic_cutoff(0, 2, 1.0)
    with pytest.raises(DomainError):
        hydrogenic_cutoff(1, 2, -1.0)
    with pytest.raises(DomainError, match="z"):
        hydrogenic_cutoff(1, 2, math.nan)


def test_frequency_ratio_table():
    # cutoff-to-transition ratios for the three reference transitions
    expected = {"2P-1S": 548.1, "3D-1S": 411.1, "4F-1S": 365.4}
    for name, t in BUILTIN_QUANTUM_NUMBERS.items():
        inverse = 1.0 / frequency_ratio(t)
        assert float(f"{inverse:.4g}") == expected[name]


def test_frequency_ratio_requires_emission():
    t = _transition(n_g=1, n_e=2)
    assert frequency_ratio(t) > 0
    # n_e <= n_g cannot even be built as a Transition; check the guard via
    # a same-n pair, which is valid as a Transition but has no Bohr frequency
    t_same = Transition(ELECTRIC, 3, 0, 0, 3, 1, 0, 1.0)
    with pytest.raises(DomainError):
        frequency_ratio(t_same)


# ---------------------------------------------------------------------------
# exponents
# ---------------------------------------------------------------------------

def test_eta_for():
    assert eta_for(1, 0) == 1
    assert eta_for(2, 0) == 3
    assert eta_for(1, 1) == 3
    with pytest.raises(DomainError):
        eta_for(0, 0)
    with pytest.raises(DomainError):
        eta_for(1, 2)


def test_eta_parity_invariant():
    for t in BUILTIN_QUANTUM_NUMBERS.values():
        for j in range(t.j_min, t.j_max + 1):
            eta = eta_for(j, t.epsilon)
            assert eta == 2 * j - 1 + 2 * t.epsilon
            assert eta % 2 == 1  # odd for electric transitions


def test_mu_for():
    vals = {"2P-1S": 4, "3D-1S": 6, "4F-1S": 8}
    for name, t in BUILTIN_QUANTUM_NUMBERS.items():
        assert mu_for(t) == vals[name]


def test_nj_for():
    assert nj_for(BUILTIN_QUANTUM_NUMBERS["3D-1S"], 2) == 0
    assert nj_for(BUILTIN_QUANTUM_NUMBERS["2P-1S"], 1) == 0
    assert nj_for(BUILTIN_QUANTUM_NUMBERS["4F-1S"], 3) == 0
    with pytest.raises(DomainError):
        nj_for(BUILTIN_QUANTUM_NUMBERS["3D-1S"], 1)  # below J_min = 2


# ---------------------------------------------------------------------------
# SimpleReservoir
# ---------------------------------------------------------------------------

def test_simple_reservoir_validation():
    with pytest.raises(DomainError):
        SimpleReservoir(d=1.0, eta=0, mu=4, omega_x=10.0)
    with pytest.raises(DomainError):
        SimpleReservoir(d=1.0, eta=2.5, mu=4, omega_x=10.0)  # eta is 2J - 1 + 2 epsilon
    with pytest.raises(DomainError):
        SimpleReservoir(d=1.0, eta=3, mu=2, omega_x=10.0)  # 2mu <= eta+1
    with pytest.raises(DomainError):
        SimpleReservoir(d=0.0, eta=1, mu=4, omega_x=10.0)
    with pytest.raises(DomainError):
        SimpleReservoir(d=1.0, eta=1, mu=4, omega_x=-1.0)
    with pytest.raises(DomainError):
        SimpleReservoir(d=math.nan, eta=1, mu=4, omega_x=10.0)
    with pytest.raises(DomainError):
        SimpleReservoir(d=1.0, eta=1, mu=4, omega_x=math.inf)


def test_simple_reservoir_values():
    r = SimpleReservoir(d=1.0, eta=1, mu=4, omega_x=100.0)
    assert r(0.0) == 0.0
    assert r(100.0) == pytest.approx(100.0 / 2 ** 4, rel=1e-14)
    with pytest.raises(DomainError):
        r(-1.0)


def test_simple_reservoir_asymptotic_power_law():
    for eta, mu in ((1, 4), (3, 6), (5, 8)):
        r = SimpleReservoir(d=1.0, eta=eta, mu=mu, omega_x=1.0)
        w = 100.0
        power_law = w ** (eta - 2 * mu)
        assert abs(r(w) - power_law) / power_law < 1e-2


def test_simple_reservoir_scaling_identity():
    # R(s w; omega_x -> s omega_x, d -> s d)... amplitude d is carried
    # through linearly and the shape depends only on w/omega_x, so the
    # whole curve scales like s when both w and omega_x scale.
    r1 = SimpleReservoir(d=1.0, eta=3, mu=6, omega_x=50.0)
    s = 7.0
    r2 = SimpleReservoir(d=1.0, eta=3, mu=6, omega_x=50.0 * s)
    for w in (0.1, 1.0, 10.0, 200.0):
        assert r2(w * s) == pytest.approx(s * r1(w), rel=1e-13)


def test_simple_reservoir_single_maximum():
    r = SimpleReservoir(d=1.0, eta=3, mu=6, omega_x=50.0)
    w = np.linspace(0.0, 500.0, 20001)
    vals = r(w)
    assert np.all(vals >= 0)
    peak = int(np.argmax(vals))
    diffs = np.sign(np.diff(vals))
    # rises monotonically before the peak, falls after
    assert np.all(diffs[:peak] >= 0)
    assert np.all(diffs[peak:] <= 0)


# ---------------------------------------------------------------------------
# FullReservoir
# ---------------------------------------------------------------------------

_MULTI_TERM = FullReservoir(terms=((2, 0, 1.0), (2, 1, 0.5), (2, 2, 0.2), (2, 3, 0.05)),
                            epsilon=0, mu=8, omega_x=137.0, j_range=(2, 2))


@pytest.mark.parametrize("reservoir", [
    SimpleReservoir(d=1.0, eta=3, mu=6, omega_x=411.1),
    _MULTI_TERM,
    BandLimitedReservoir(SimpleReservoir(d=1.0, eta=3, mu=6, omega_x=411.1), (0.0, 5.0)),
], ids=["simple", "full", "band-limited"])
def test_scalar_evaluation_is_the_array_value_as_a_float(reservoir):
    for w in (0, 1e-300, 1.0, 3.7, 1e5, 1e200, 1e308):
        # far out x^2 overflows, as numpy does on the array path too
        with np.errstate(over="ignore", invalid="ignore"):
            value = reservoir(w)
            ref = reservoir(np.asarray(w))
        assert type(value) is float, w
        assert np.float64(value).tobytes() == np.float64(ref).tobytes(), w
        if w >= 1e200 and not isinstance(reservoir, BandLimitedReservoir):
            assert math.isnan(value), w


@pytest.mark.parametrize("reservoir", [SimpleReservoir(1.0, 3, 6, 411.1), _MULTI_TERM])
@pytest.mark.parametrize("w", [-1e-300, -1.0, -1, np.float64(-2.0)])
def test_negative_scalar_frequency_is_a_domain_error(reservoir, w):
    with pytest.raises(DomainError):
        reservoir(w)


def test_full_reduces_to_simple():
    simple = SimpleReservoir(d=1.0, eta=3, mu=6, omega_x=411.1)
    full = FullReservoir(terms=((2, 0, 1.0),), epsilon=0, mu=6,
                         omega_x=411.1, j_range=(2, 2))
    w = np.linspace(0.0, 4000.0, 100)
    assert np.allclose(full(w), simple(w), rtol=1e-14, atol=0)


def test_full_zero_amplitude_term_is_inert():
    base = FullReservoir(terms=((2, 0, 1.0),), epsilon=0, mu=6,
                         omega_x=400.0, j_range=(2, 3))
    extended = FullReservoir(terms=((2, 0, 1.0), (3, 0, 0.0)), epsilon=0,
                             mu=6, omega_x=400.0, j_range=(2, 3))
    w = np.linspace(0.0, 1000.0, 57)
    assert np.allclose(extended(w), base(w), rtol=0, atol=0)


def test_full_low_frequency_hierarchy():
    r = FullReservoir(terms=((2, 0, 1.0), (3, 0, 0.5)), epsilon=0, mu=6,
                      omega_x=400.0, j_range=(2, 3))
    w = 4.0  # omega_x / 100
    lead = SimpleReservoir(d=1.0, eta=3, mu=6, omega_x=400.0)
    assert abs(r(w) - lead(w)) / r(w) < 1e-3


def test_full_equals_sum_of_simple_terms():
    terms = ((2, 0, 1.0), (3, 0, 0.5), (2, 1, 0.25))
    r = FullReservoir(terms=terms, epsilon=0, mu=8, omega_x=100.0, j_range=(2, 3))
    w = np.linspace(0.0, 900.0, 301)
    total = np.zeros_like(w)
    for j, rr, d in terms:
        eta_eff = eta_for(j, 0) + 2 * rr
        # same closed form with the shifted exponent
        total += d * 100.0 * (w / 100.0) ** eta_eff / (1 + (w / 100.0) ** 2) ** 8
    assert np.allclose(r(w), total, rtol=1e-14)


def test_full_construction_errors():
    with pytest.raises(DomainError):
        FullReservoir(terms=(), epsilon=0, mu=6, omega_x=1.0, j_range=(2, 3))
    with pytest.raises(DomainError):  # J outside range
        FullReservoir(terms=((1, 0, 1.0),), epsilon=0, mu=6, omega_x=1.0,
                      j_range=(2, 3))
    with pytest.raises(DomainError):  # non-integrable term
        FullReservoir(terms=((2, 2, 1.0),), epsilon=0, mu=4, omega_x=1.0,
                      j_range=(2, 2))
    with pytest.raises(DomainError):  # missing leading term
        FullReservoir(terms=((3, 0, 1.0),), epsilon=0, mu=6, omega_x=1.0,
                      j_range=(2, 3))
    with pytest.raises(DomainError):
        FullReservoir(terms=((2, 0, 1.0),), epsilon=0, mu=6, omega_x=math.nan,
                      j_range=(2, 3))
    with pytest.raises(DomainError, match="D"):
        FullReservoir(terms=((2, 0, 1.0), (3, 0, math.inf)), epsilon=0, mu=6,
                      omega_x=1.0, j_range=(2, 3))
    # allowed when explicitly flagged degenerate
    r = FullReservoir(terms=((3, 0, 1.0),), epsilon=0, mu=6, omega_x=1.0,
                      j_range=(2, 3), degenerate_ok=True)
    assert r.leading_term() == (0.0, 3)


def test_full_from_transition_respects_selection_rules():
    t = BUILTIN_QUANTUM_NUMBERS["3D-1S"]
    r = FullReservoir.from_transition(t, omega_x=411.1)
    assert r.terms == ((2, 0, 1.0),)
    assert r.j_range == (2, 2)
    with pytest.raises(DomainError):  # r exceeds N_J = 0
        FullReservoir.from_transition(t, terms=[(2, 1, 1.0)], omega_x=411.1)


# ---------------------------------------------------------------------------
# builtins and config loading
# ---------------------------------------------------------------------------

def test_builtin_transitions():
    expected = {"2P-1S": (1, 4, 548.1), "3D-1S": (3, 6, 411.1),
                "4F-1S": (5, 8, 365.4)}
    assert set(builtin_names()) == set(expected)
    for name, (eta, mu, ratio) in expected.items():
        r, omega0 = builtin_transition(name)
        assert omega0 == 1.0
        assert (r.eta, r.mu, r.omega_x, r.d) == (eta, mu, ratio, 1.0)


def test_builtin_unknown_name_lists_valid():
    with pytest.raises(DomainError) as exc:
        builtin_transition("5G-1S")
    for name in builtin_names():
        assert name in str(exc.value)


def test_builtin_table_regeneration():
    # recomputing the frequency ratio from the quantum numbers reproduces
    # the stored values to 4 significant figures
    consts = PhysicalConstants(alpha=1 / 137.035999)
    for name in builtin_names():
        stored = builtin_transition(name)[0].omega_x
        recomputed = 1.0 / frequency_ratio(BUILTIN_QUANTUM_NUMBERS[name], consts)
        assert float(f"{recomputed:.4g}") == stored


def test_load_reservoir_config_simple(tmp_path):
    cfg = {"character": "electric", "n_g": 1, "l_g": 0, "m_g": 0,
           "n_e": 3, "l_e": 2, "m_e": 0, "z": 1.0}
    path = tmp_path / "res.json"
    path.write_text(json.dumps(cfg))
    r, omega0 = load_reservoir_config(path)
    assert isinstance(r, SimpleReservoir)
    assert omega0 == 1.0
    assert (r.eta, r.mu) == (3, 6)
    assert r.omega_x == pytest.approx(411.108, abs=0.05)


def test_load_reservoir_config_terms():
    cfg = {"character": "electric", "n_g": 2, "l_g": 1, "m_g": 0,
           "n_e": 3, "l_e": 2, "m_e": 0, "z": 1.0,
           "terms": [{"J": 1, "r": 0, "D": 1.0}, {"J": 3, "r": 0, "D": 0.2}]}
    r, omega0 = load_reservoir_config(cfg)
    assert isinstance(r, FullReservoir)
    assert r.j_range == (1, 3)
    assert r.mu == 8
    assert len(r.terms) == 2


def test_load_reservoir_config_missing_key():
    with pytest.raises(DomainError):
        load_reservoir_config({"character": "electric", "n_g": 1})


def test_load_reservoir_config_reduced_amplitude():
    # a reduced amplitude is dressed with the squared angular coupling
    # factor <l_g J m_g M | l_g J l_e m_e>^2; here <1 1 0 0|2 0>^2 = 2/3
    base = {"character": "electric", "n_g": 2, "l_g": 1, "m_g": 0,
            "n_e": 3, "l_e": 2, "m_e": 0, "z": 1.0}
    r_direct, _ = load_reservoir_config(
        {**base, "terms": [{"J": 1, "r": 0, "D": 2.0 / 3.0}]})
    r_reduced, _ = load_reservoir_config(
        {**base, "terms": [{"J": 1, "r": 0, "d_reduced": 1.0}]})
    assert r_reduced.terms[0][2] == pytest.approx(r_direct.terms[0][2], rel=1e-12)
    with pytest.raises(DomainError):
        load_reservoir_config({**base, "terms": [{"J": 1, "r": 0}]})
