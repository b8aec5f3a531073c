"""Independent validation path: discretized-mode Schrodinger dynamics.

The reservoir is discretized into N modes on a frequency band; the
one-excitation amplitudes are integrated in the frame rotating at the
transition frequency (a time-independent arrowhead Hamiltonian), and the
decay rate is extracted from the survival probability over one
measurement interval.  Projective measurements are modeled as exact
coherence erasures between intervals, so P_n = P(tau)^n and a single
interval determines the rate: Gamma = -ln P(tau) / tau.

Two integration routes guard against integrator bias: fixed-step RK4
(default) and exact diagonalization of the arrowhead Hamiltonian, which
solves its secular equation root by root in O(n_modes^2) time and
O(n_modes) memory, with no dense matrix.  RK4 advances four steps per
pass as the arrowhead's four-step RK4 propagator in closed form, a
diagonal factor on the modes plus one rank-16 update, built with no
eigenvalues so that it stays independent of the secular solver (about
0.25 s at 10^4 modes and 10^4 steps on a 2-core Xeon).

Because the modified/free rate ratio is coupling-independent in the
perturbative regime that the rate formula describes, the rate extraction
rescales the couplings into that regime by default: strong coupling would
otherwise contaminate the ratio with second-order level-shift effects
that are outside the formula being validated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .decay import METHOD_ORACLE, DecayResult, fgr_rate, modified_rate_quadrature
from .errors import DomainError, NumericalError
from .profile import MeasurementSchedule

__all__ = [
    "OracleConfig",
    "DiscretizedModes",
    "SurvivalResult",
    "BandLimitedReservoir",
    "discretize_reservoir",
    "survival_probability",
    "oracle_rate",
    "oracle_vs_quadrature",
]

_TWO_PI = 2.0 * math.pi

# Coverage demanded of the band around the transition frequency, in units
# of the measurement rate.
BAND_COVERAGE = 1e3

_EPS = float(np.finfo(float).eps)
# Bytes of the secular solver's one (roots x poles) work array: the block
# of roots iterated together is sized from it, so memory stays O(n_modes).
_BLOCK_BYTES = 1 << 20
_SECULAR_MAX_ITER = 64
# Mode limits: ED time grows as n_modes**2; RK4 peaks at 240 B per mode.
_ED_MAX_MODES = 20_000
_MAX_MODES = 1_000_000
_ED_TOO_LARGE = (f"exact diagonalization is limited to n_modes <= {_ED_MAX_MODES} "
                 "(its time grows as n_modes**2)")

METHOD_RK4 = "rk4"
METHOD_ED = "exact_diagonalization"


@dataclass(frozen=True)
class OracleConfig:
    """Discretization and integration parameters.

    band is (omega_lo, omega_hi) in rad/s; dt = None picks the stability
    default 0.1 / (max rotating-frame detuning).  coupling_scale = None
    rescales the couplings automatically into the perturbative regime;
    pass 1.0 to integrate the reservoir exactly as given.
    """

    n_modes: int = 10_000
    band: tuple[float, float] | None = None
    dt: float | None = None
    method: str = METHOD_RK4
    coupling_scale: float | None = None

    def __post_init__(self):
        if not 100 <= self.n_modes <= _MAX_MODES:
            raise DomainError(f"n_modes must lie in [100, {_MAX_MODES}]")
        if self.method not in (METHOD_RK4, METHOD_ED):
            raise DomainError(f"method must be '{METHOD_RK4}' or '{METHOD_ED}'")
        if self.method == METHOD_ED and self.n_modes > _ED_MAX_MODES:
            raise DomainError(_ED_TOO_LARGE)
        if self.band is not None:
            lo, hi = self.band
            if not (lo >= 0.0 and hi > lo):
                raise DomainError("band must satisfy 0 <= omega_lo < omega_hi")
        for name in ("dt", "coupling_scale"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < math.inf:
                raise DomainError(f"{name} must be finite and positive, got {value!r}")


class DiscretizedModes(NamedTuple):
    """Uniform mode grid omega_k with couplings g_k = sqrt(R(omega_k) d_omega)."""

    omega: np.ndarray
    g: np.ndarray

    @property
    def spacing(self) -> float:
        return float(self.omega[1] - self.omega[0])


class SurvivalResult(NamedTuple):
    probability: float
    norm_drift: float


def discretize_reservoir(reservoir, cfg: OracleConfig) -> DiscretizedModes:
    """Sample the reservoir on a uniform midpoint grid over cfg.band.

    The couplings satisfy sum(g_k^2) = integral of R over the band in the
    midpoint-rule sense, matching a unit density of states.
    """
    if cfg.band is None:
        raise DomainError("discretize_reservoir requires an explicit band")
    lo, hi = cfg.band
    d_omega = (hi - lo) / cfg.n_modes
    omega = lo + (np.arange(cfg.n_modes) + 0.5) * d_omega
    # a callable may return one value for all frequencies, as a flat spectrum can
    vals = np.broadcast_to(np.asarray(reservoir(omega), dtype=float), omega.shape)
    if not (np.all(np.isfinite(vals)) and np.all(vals >= 0)):
        raise DomainError("reservoir must be finite and non-negative on the band")
    return DiscretizedModes(omega=omega, g=np.sqrt(vals * d_omega))


# Steps advanced per pass: four RK4 steps are one degree-16 polynomial in hH.
_PASS_STEPS = 4


def _pass_map(s: np.ndarray, steps: int) -> np.ndarray:
    """The map of ``steps`` RK4 steps on (a, m_0..m_(d-1)), d = 4 steps.

    With RK4's step polynomial p(z) = sum_{j<=4} z^j / j!, the steps are
    p(-ihH)^steps = sum_j pi_j (-ihH)^j, a polynomial of degree d in
    hH = [[0, G^T], [G, X]].  (hH)^j maps (a, b) to an atom alpha.(a, m)
    and a bath X^j b + sum_i c_i X^i G, reading b only through the
    projections m_i = (X^i G).b; the bath's own part X^(j-1) b of the
    previous power adds m_(j-1) to the atom, its G part sum_i c_i s_i with
    the moments s_i = G.X^i G, i <= d - 2.  Row 0 of the result is the
    atom's increment k and row 1 + i the coefficient gamma_i of X^i G, each
    on (a, m).
    """
    d = 4 * steps
    rk4 = [1.0 / math.factorial(j) for j in range(5)]
    poly = np.polynomial.polynomial.polypow(rk4, steps)
    unit = np.eye(d + 1)
    alpha, c = unit[0], np.zeros((d, d + 1))
    step_map = np.zeros((d + 1, d + 1), dtype=np.complex128)
    for j in range(1, d + 1):
        alpha, c = unit[j] + s[:d - 1] @ c[:d - 1], np.vstack((alpha, c[:d - 1]))
        coef = (-1j) ** j * poly[j]
        step_map[0] += coef * alpha
        step_map[1:] += coef * c
    return step_map


def _survival_rk4(modes: DiscretizedModes, omega0: float, tau: float,
                  dt: float | None) -> SurvivalResult:
    delta = modes.omega - omega0
    w = max(float(np.max(np.abs(delta))), 1e-300)
    step = 0.1 / w if dt is None else min(dt, 0.1 / w)
    n_steps = max(int(math.ceil(tau / step)), 4)
    h = tau / n_steps

    # One step is T = p(-ihH), hH = [[0, G^T], [G, X]] with X = h diag(delta)
    # and G = h g; a pass applies T^4 and the n_steps mod 4 steps left over
    # take one shorter pass.  T^r takes (a, b) to
    # (a + k.(a, m), q^r b + sum_i gamma_i X^i G), i < 4r, with q = p(-iX),
    # the projections m_i = (X^i G).b and (k, gamma) the fixed map of
    # _pass_map: one rank-16 update per four steps.  The basis X^i G is held
    # mode by mode, so that the projection reads it and b's (real, imag)
    # pairs in place into a contiguous (2, d) buffer: a scratch copy of b
    # per call, which malloc may serve by mmap, would tie the run time to
    # the allocator.  The atom is advanced by its increment because
    # k_0 = O(h^2 |g|^2) would be lost in the rounding of 1 + k_0, biasing
    # every pass alike.
    n = len(delta)
    basis = np.empty((n, 4 * _PASS_STEPS))
    basis[:, 0] = h * modes.g
    hd = h * delta
    for i in range(1, basis.shape[1]):
        np.multiply(basis[:, i - 1], hd, out=basis[:, i])
    s = basis[:, 0] @ basis[:, :-1]
    z = -1j * hd
    q = 1.0 + z * (1.0 + z / 2.0 * (1.0 + z / 3.0 * (1.0 + z / 4.0)))

    y = np.zeros(n + 1, dtype=np.complex128)
    y[0] = 1.0
    b = y[1:]
    pairs = b.view(np.float64).reshape(n, 2)
    tmp = np.empty((n, 2))

    drift = 0.0
    full, rest = divmod(n_steps, _PASS_STEPS)
    check_every = max(1, full // 32)
    passes = [(_PASS_STEPS, full), (rest, 1)] if rest else [(_PASS_STEPS, full)]
    for steps, count in passes:
        d = 4 * steps
        step_map, factor, basis_d = _pass_map(s, steps), q ** steps, basis[:, :d]
        proj = np.empty((2, d))
        a_m = np.empty(d + 1, dtype=np.complex128)
        m_pairs_t = a_m[1:].view(np.float64).reshape(d, 2).T
        update = np.empty(d + 1, dtype=np.complex128)
        gamma_pairs = update[1:].view(np.float64).reshape(d, 2)
        for i in range(count):
            np.matmul(pairs.T, basis_d, out=proj)
            a_m[0] = y[0]
            m_pairs_t[...] = proj
            np.matmul(step_map, a_m, out=update)
            y[0] += update[0]
            b *= factor
            np.matmul(basis_d, gamma_pairs, out=tmp)
            pairs += tmp
            if i % check_every == 0:
                drift = max(drift, abs(float(np.vdot(y, y).real) - 1.0))
    drift = max(drift, abs(float(np.vdot(y, y).real) - 1.0))
    return SurvivalResult(probability=float(abs(y[0]) ** 2), norm_drift=drift)


def _secular_sums(anchor: np.ndarray, mu: np.ndarray, poles: np.ndarray,
                  z2: np.ndarray, work: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """psi = sum z2_k t_k and phi = sum z2_k t_k^2 over k != anchor.

    t_k = 1 / ((poles[anchor] - poles[k]) + mu): the pole differences are
    taken before the offset is added, so a root within rounding of its
    anchor pole keeps an accurate distance to every other pole.
    """
    t = work[:len(mu)]
    np.subtract.outer(poles[anchor], poles, out=t)
    t += mu[:, None]
    np.reciprocal(t, out=t)
    t[np.arange(len(mu)), anchor] = 0.0
    psi = t @ z2
    np.square(t, out=t)
    return psi, t @ z2


def _secular_roots(poles: np.ndarray, z2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Roots of F(lam) = lam - sum z2_k / (lam - poles_k) and weights 1 / F'(lam).

    The poles are ascending and distinct, every z2_k > 0.  Root j lies
    alone in (poles[j-1], poles[j]); the outer two lie within the coupling
    norm of the outer poles or of 0.  Each root is held as an anchor pole
    plus an offset mu and found by Newton's method on G(mu) = mu F(lam),
    which is convex on the root's interval, negative next to the anchor and
    positive on the far side.  Started on the far side, the iterates fall
    monotonically onto the root, so a step that would leave the bracket
    (anchor, mu) can only come from rounding and halves mu instead.
    """
    m = len(poles)
    norm = math.sqrt(float(z2.sum()))
    lo = np.concatenate(([min(0.0, poles[0]) - norm], poles))
    hi = np.concatenate((poles, [max(0.0, poles[-1]) + norm]))
    start = 0.5 * (lo + hi)
    start[0], start[-1] = lo[0], hi[-1]
    vals = np.empty(m + 1)
    weights = np.empty(m + 1)
    rows = max(1, _BLOCK_BYTES // (8 * m))
    work = np.empty((min(rows, m + 1), m))
    for first in range(0, m + 1, rows):
        j = np.arange(first, min(first + rows, m + 1))
        # F at the start points, through the left pole (the right one for j = 0)
        a = np.maximum(j - 1, 0)
        mu = start[j] - poles[a]
        psi, phi = _secular_sums(a, mu, poles, z2, work)
        f = start[j] - psi - z2[a] / mu
        df = 1.0 + phi + z2[a] / mu ** 2
        # anchor at the pole on the root's side of the start point
        left = f > 0
        left[j == 0], left[j == m] = False, True
        a = np.where(left, j - 1, j)
        mu = start[j] - poles[a]
        g = mu * f
        dg = f + mu * df
        for _ in range(_SECULAR_MAX_ITER):
            with np.errstate(divide="ignore", invalid="ignore"):
                step = g / dg
            # G <= 0 on the far side can only be rounding: the root is reached
            done = (g <= 0) | (np.abs(step) <= 4.0 * _EPS * np.abs(mu))
            vals[j[done]] = poles[a[done]] + np.where(g > 0, mu - step, mu)[done]
            weights[j[done]] = 1.0 / df[done]
            if done.all():
                break
            busy = ~done
            j, a, mu, step = j[busy], a[busy], mu[busy], step[busy]
            # the step must land strictly between the anchor and mu
            shrink = (mu - step) / mu
            mu = np.where((shrink > 0) & (shrink < 1), mu - step, 0.5 * mu)
            psi, phi = _secular_sums(a, mu, poles, z2, work)
            lam = poles[a] + mu
            g = mu * (lam - psi) - z2[a]
            dg = lam + mu - psi + mu * phi
            df = 1.0 + phi + z2[a] / mu ** 2
        else:
            raise NumericalError(
                f"secular equation: {len(j)} roots unconverged after "
                f"{_SECULAR_MAX_ITER} Newton steps")
    return vals, weights


def _arrowhead_eigensystem(modes: DiscretizedModes, omega0: float):
    """Eigenvalues of the arrowhead Hamiltonian and their weights on the atom.

    H = [[0, g^T], [g, diag(omega - omega0)]].  Returns its n + 1
    eigenvalues in ascending order and the squared first components of
    their eigenvectors, 1 / (1 + sum g_k^2 / (lam - delta_k)^2).  Couplings
    at or below eps * scale, and all but the first pole of a tie (which
    takes the tie's whole coupling weight), leave their pole as an
    eigenvalue of weight 0.  O(n^2) time and O(n) memory.
    """
    if len(modes.omega) > _ED_MAX_MODES:
        raise DomainError(_ED_TOO_LARGE)
    order = np.argsort(modes.omega, kind="stable")
    delta = modes.omega[order] - omega0
    g = np.abs(modes.g[order])
    scale = max(float(np.max(np.abs(delta))), float(np.linalg.norm(g)))
    tol = _EPS * scale
    coupled = g > tol
    d, z2 = delta[coupled], g[coupled] ** 2
    tie_start = np.ones(len(d), dtype=bool)
    tie_start[1:] = np.diff(d) > tol
    dropped = np.concatenate((delta[~coupled], d[~tie_start]))
    if len(d):
        roots, weights = _secular_roots(d[tie_start],
                                        np.add.reduceat(z2, np.flatnonzero(tie_start)))
    else:
        roots, weights = np.zeros(1), np.ones(1)
    vals = np.concatenate((roots, dropped))
    order = np.argsort(vals, kind="stable")
    return vals[order], np.concatenate((weights, np.zeros(len(dropped))))[order]


def _survival_ed(modes: DiscretizedModes, omega0: float, tau: float) -> SurvivalResult:
    vals, weights = _arrowhead_eigensystem(modes, omega0)
    amp = np.sum(weights * np.exp(-1j * vals * tau))
    return SurvivalResult(probability=float(abs(amp) ** 2),
                          norm_drift=abs(float(weights.sum()) - 1.0))


def survival_probability(modes: DiscretizedModes, omega0: float, tau: float,
                         cfg: OracleConfig) -> SurvivalResult:
    """Excited-state survival probability after one interval tau.

    Requires tau at least 10x below the discretization recurrence time
    2 pi / d_omega, beyond which the mode comb rephases and the dynamics
    is a discretization artifact.
    """
    if tau <= 0:
        raise DomainError("tau must be positive")
    if len(modes.omega) < 2:
        raise DomainError("the recurrence guard needs at least two modes")
    # the mean spacing, which does not depend on the order of the modes
    recurrence = _TWO_PI * (len(modes.omega) - 1) / np.ptp(modes.omega)
    if tau * 10.0 > recurrence:
        raise DomainError(
            f"tau={tau:g} is too long for the mode spacing: recurrence time "
            f"{recurrence:g} must exceed 10*tau; increase n_modes or shrink the band")
    if cfg.method == METHOD_ED:
        return _survival_ed(modes, omega0, tau)
    return _survival_rk4(modes, omega0, tau, cfg.dt)


def _auto_coupling_scale(modes: DiscretizedModes, omega0: float, tau: float,
                         nu: float) -> float:
    """Rescale couplings so the dynamics sits in the perturbative regime.

    Targets a free-decay probability Gamma0 tau ~ 1e-2 per interval and a
    second-order level shift below 5e-2 nu; the smaller rescaling wins.
    """
    # free rate from the discretized spectrum at omega0
    k0 = int(np.clip(round((omega0 - modes.omega[0]) / modes.spacing), 0,
                     len(modes.omega) - 1))
    r0 = modes.g[k0] ** 2 / modes.spacing
    gamma0 = _TWO_PI * r0
    scale_rate = math.inf if gamma0 <= 0 else 1e-2 / (gamma0 * tau)
    delta = modes.omega - omega0
    mask = np.abs(delta) > 2.0 * modes.spacing
    shift = abs(float(np.sum(modes.g[mask] ** 2 / (omega0 - modes.omega[mask]))))
    scale_shift = math.inf if shift == 0 else 5e-2 * nu / shift
    scale = min(scale_rate, scale_shift)
    if not math.isfinite(scale):
        return 1.0
    return scale


def _with_band(cfg: OracleConfig | None, omega0: float, nu: float) -> OracleConfig:
    """``cfg`` (default ``OracleConfig()``) with its band set and checked.

    See :func:`oracle_rate` for the default band and the coverage required.
    """
    if cfg is None:
        cfg = OracleConfig()
    required = (max(0.0, omega0 - BAND_COVERAGE * nu), omega0 + BAND_COVERAGE * nu)
    if cfg.band is None:
        return replace(cfg, band=required)
    band = cfg.band
    if band[0] > required[0] + 1e-12 * omega0 or band[1] < required[1] - 1e-12 * omega0:
        raise DomainError(
            f"band {band} does not cover {required} "
            f"(+-{BAND_COVERAGE:g} measurement widths around omega0)")
    return cfg


def oracle_rate(reservoir, omega0: float, m: MeasurementSchedule,
                cfg: OracleConfig | None = None) -> DecayResult:
    """Decay-rate ratio extracted from discretized-mode dynamics.

    The default band spans BAND_COVERAGE measurement widths around the
    transition frequency (clipped at zero); an explicit band must provide
    at least that coverage.  The ratio is Gamma_oracle / (2 pi R(omega0)),
    with both rates referring to the (possibly rescaled) couplings
    actually integrated.
    """
    if omega0 <= 0:
        raise DomainError("omega0 must be positive")
    nu = m.nu
    tau = m.tau
    cfg = _with_band(cfg, omega0, nu)
    # checked before any mode is built: P would be exactly 1 or the ratio 0/0
    gamma0 = fgr_rate(reservoir, omega0)
    if gamma0 <= 0:
        raise DomainError("free rate vanishes at omega0; ratio undefined")

    modes = discretize_reservoir(reservoir, cfg)
    scale = cfg.coupling_scale
    if scale is None:
        scale = _auto_coupling_scale(modes, omega0, tau, nu)
    if scale != 1.0:
        modes = DiscretizedModes(omega=modes.omega, g=modes.g * math.sqrt(scale))

    result = survival_probability(modes, omega0, tau, cfg)
    p = result.probability
    if not (0.0 < p < 1.0):
        raise NumericalError(
            f"survival probability {p!r} outside (0, 1): integration or "
            "discretization failure")
    gamma = -math.log(p) / tau
    gamma0 *= scale
    return DecayResult(
        ratio=gamma / gamma0,
        gamma0=gamma0,
        method=METHOD_ORACLE,
        err_estimate=result.norm_drift / max(p, 1e-12) + 1e-9,
        rwa_warning=nu >= omega0,
    )


class BandLimitedReservoir:
    """Reservoir restricted to a frequency band (zero outside).

    Used to compare the discretized-mode dynamics with the overlap-integral
    quadrature on identical footing: both then see exactly the same
    spectrum.  Carries the underlying cutoff for quadrature scaling and
    marks the band edge as the end of support so the quadrature truncates
    there with no remainder.  It carries no power-law metadata: a
    band-limited spectrum is integrable by construction.
    """

    def __init__(self, reservoir, band: tuple[float, float]):
        lo, hi = band
        if not (lo >= 0 and hi > lo):
            raise DomainError("band must satisfy 0 <= lo < hi")
        self._inner = reservoir
        self.band = (float(lo), float(hi))
        self.omega_x = getattr(reservoir, "omega_x", None)
        self.omega_support_end = float(hi)

    def __call__(self, omega):
        w = np.asarray(omega, dtype=float)
        lo, hi = self.band
        out = np.where((w >= lo) & (w <= hi), self._inner(np.maximum(w, 0.0)), 0.0)
        return float(out) if w.ndim == 0 else out


def oracle_vs_quadrature(reservoir, omega0: float, m: MeasurementSchedule,
                         cfg: OracleConfig | None = None
                         ) -> tuple[DecayResult, DecayResult, float]:
    """Oracle and quadrature results over the same band, plus relative difference.

    The quadrature runs on the band-limited reservoir so both routes
    integrate the same spectrum; the relative difference is
    |oracle - quadrature| / quadrature.
    """
    cfg = _with_band(cfg, omega0, m.nu)
    oracle = oracle_rate(reservoir, omega0, m, cfg)
    quad = modified_rate_quadrature(BandLimitedReservoir(reservoir, cfg.band), omega0, m)
    rel = abs(oracle.ratio - quad.ratio) / quad.ratio
    return oracle, quad, rel
