"""Independent validation path: discretized-mode Schrodinger dynamics.

The reservoir is discretized into N modes on a frequency band; the
one-excitation amplitudes are integrated in the frame rotating at the
transition frequency (a time-independent arrowhead Hamiltonian), and the
decay rate is extracted from the survival probability over one
measurement interval.  Projective measurements are modeled as exact
coherence erasures between intervals, so P_n = P(tau)^n and a single
interval determines the rate: Gamma = -ln P(tau) / tau.

The amplitude is the exact propagator e^(-iH tau) e_0, summed as a
Chebyshev series in H (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967
(1984)), with no time step and no eigenvalues.  The series stops where a
bound on the Bessel coefficients it leaves out falls below 1e-17.  Its
moments eliminate the modes exactly: the modes' own Chebyshev moments, by
baby and giant steps and one matrix product per chunk of modes, then a
scalar Toeplitz solve for the atom's.  The oracle's mode grids are
mirror-symmetric about the spectrum's center, so each pair of mirrored
modes folds into one node in 2 d^2 - 1, which halves the moments' work
(about 0.6 ms at 2000 modes and 1.5 ms at 10^4 on a 2-core Xeon).
Everything runs on the calling thread.  The tests check it against dense
diagonalization of the arrowhead, against the unfolded moments and
against the g^2 sum of perturbation theory.

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
from .reservoir import _whole

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

# Coverage demanded of the band around the transition frequency, in units
# of the measurement rate.
BAND_COVERAGE = 1e3

# The series' moments: bytes of the Chebyshev rows of each chunk of modes
# (_mode_moments), and the rows of _toeplitz_solve's diagonal block.
_CHUNK_BYTES = 1 << 19
_TOEPLITZ_BLOCK = 64
# The bound on the coefficients the series leaves out (_series_cut).
_SERIES_TAIL = 1e-17
# The series holds the chunk budget above plus O(n_modes) inputs.
_MAX_MODES = 1_000_000

METHOD_RK4 = "rk4"
METHOD_ED = "exact_diagonalization"


@dataclass(frozen=True)
class OracleConfig:
    """Discretization and integration parameters.

    band is (omega_lo, omega_hi) in rad/s.  method is ``rk4`` or
    ``exact_diagonalization``; both sum the exact propagator as a Chebyshev
    series and take no time step (``rk4`` is the name of the fixed-step
    integrator the series replaced).  coupling_scale = None rescales the
    couplings automatically into the perturbative regime; pass 1.0 to
    integrate the reservoir exactly as given.
    """

    n_modes: int = 10_000
    band: tuple[float, float] | None = None
    # validated, but selects nothing: both spellings run the series.
    # benchmarks/ sends and checks both, so the field stays until that
    # harness changes.
    method: str = METHOD_RK4
    coupling_scale: float | None = None

    @property
    def dt(self) -> None:
        # Not a field: there is no time step.  benchmarks/spans.py still
        # reads cfg.dt to size its traced oracle.rk4 spans by the old step
        # rule, so this stays until that file changes.
        return None

    def __post_init__(self):
        if not 100 <= _whole(self.n_modes, "n_modes") <= _MAX_MODES:
            raise DomainError(f"n_modes must lie in [100, {_MAX_MODES}]")
        if self.method not in (METHOD_RK4, METHOD_ED):
            raise DomainError(f"method must be '{METHOD_RK4}' or '{METHOD_ED}'")
        if self.band is not None:
            lo, hi = self.band
            if not 0.0 <= lo < hi < math.inf:
                raise DomainError("band must satisfy 0 <= omega_lo < omega_hi < inf")
        scale = self.coupling_scale
        if scale is not None and not 0.0 < scale < math.inf:
            raise DomainError(f"coupling_scale must be finite and positive, got {scale!r}")


class DiscretizedModes(NamedTuple):
    """Uniform mode grid omega_k with couplings g_k = sqrt(R(omega_k) d_omega)."""

    omega: np.ndarray
    g: np.ndarray

    @property
    def spacing(self) -> float:
        return float(self.omega[1] - self.omega[0])


class SurvivalResult(NamedTuple):
    """P(tau) and a bound on its integration error, the series' truncated
    tail."""

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
    # a callable may return one value for all frequencies, as a flat
    # spectrum can; an R that overflows far above omega0 (nu near 1e300)
    # is refused by the check below, not warned of
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.broadcast_to(np.asarray(reservoir(omega), dtype=float), omega.shape)
    if not (np.all(np.isfinite(vals)) and np.all(vals >= 0)):
        raise DomainError("reservoir must be finite and non-negative on the band")
    return DiscretizedModes(omega=omega, g=np.sqrt(vals * d_omega))


def _series_cut(z: float) -> tuple[int, float]:
    """The order K of exp(-i z x)'s Chebyshev series, and its tail bound.

    Coefficient k has modulus 2 |J_k(z)|, and for x = z / k <= 1,
    |J_k(z)| <= exp(k (ln x + r - ln(1 + r))) with r = sqrt(1 - x^2)
    (Kapteyn's inequality, DLMF 10.14.5).  K is the least order whose bound
    on the terms left out, summed, is within ``_SERIES_TAIL``; that sum is
    returned with it.  The computed coefficients cannot show this cut:
    their rounding floor, about eps sqrt(z), lies far above it.
    """
    z = max(z, 1e-300)
    k = np.arange(math.floor(z) + 1, math.ceil(z + 20.0 * z ** (1.0 / 3.0) + 60.0) + 1)
    x = z / k
    r = np.sqrt(1.0 - x * x)
    # the bound falls off geometrically or faster past the range's end
    tail = np.cumsum((2.0 * np.exp(k * (np.log(x) + r - np.log1p(r))))[::-1])[::-1]
    first = int(np.argmax(tail <= _SERIES_TAIL))
    return int(k[first]) - 1, float(tail[first])


def _smooth(n: int) -> int:
    """The least m >= n with no prime factor above 7."""
    while True:
        rest = n
        for prime in (2, 3, 5, 7):
            while rest % prime == 0:
                rest //= prime
        if rest == 1:
            return n
        n += 1


def _propagator_series(tau: float, center: float, radius: float) -> tuple[np.ndarray, float]:
    """Chebyshev coefficients in x = (lam - center) / radius of exp(-i lam tau),
    and the bound on the amplitude of the terms left out.

    They are e^(-i center tau) (2 - [k = 0]) (-i)^k J_k(z), z = radius * tau,
    which fall off past k = z; the series stops where ``_series_cut`` puts
    its tail bound.  The samples of exp(-i z x) are taken at the smooth
    length n >= K that keeps the FFT fast, and their phases round at about
    eps * z, as do the coefficients.
    """
    order, tail = _series_cut(radius * tau)
    n = _smooth(max(order, 1))
    x = np.cos(math.pi * np.arange(n + 1) / n)
    samples = np.exp(-1j * (radius * tau) * x)
    # samples at x_j = cos(pi j / n) to coefficients: a DCT-I, by FFT of the even extension
    coef = np.fft.fft(np.concatenate((samples, samples[n - 1:0:-1])))[:order + 1] / n
    coef[0] /= 2.0
    if order == n:
        coef[n] /= 2.0
    return coef * complex(math.cos(center * tau), -math.sin(center * tau)), tail


def _mirror_pairs(delta: np.ndarray, g: np.ndarray, center: float, radius: float,
                  grain: float, width: int, lone: list):
    """The modes that mirror each other about center, folded: (y, a, b) in
    chunks of at most width nodes.

    In S a mode has entry d = (delta - center) / radius and weight
    w = (g / radius)^2.  Mode j and mode j' = N - 1 - j mirror each other
    where |d_j + d_j'| <= grain / radius.  As U_n(-d) = (-1)^n U_n(d),
    U_2k(d) = U_k(y) + U_(k-1)(y) and U_(2k+1)(d) = 2 d U_k(y) with
    y = 2 d^2 - 1, such a pair is one node y = 2 d_j^2 - 1 with weights
    a = w_j + w_j' for the even moments and b = 2 d_j (w_j - w_j') for the
    odd; the middle mode of odd N, if it lies at center, is its own mirror
    (a = w, b = 2 d w).  The grids the oracle builds are mirror-symmetric
    about the band's midpoint, so their N modes fold into ceil(N / 2) nodes.
    The indices of the modes left unpaired are appended to lone.
    """
    n = len(delta)
    lower = (n + 1) // 2
    back_delta, back_g = delta[::-1], g[::-1]
    for first in range(0, lower, width):
        last = min(first + width, lower)
        d = (delta[first:last] - center) / radius
        paired = np.abs(d + (back_delta[first:last] - center) / radius) <= grain / radius
        w = np.square(g[first:last] / radius)
        v = np.square(back_g[first:last] / radius)
        if last > n // 2:
            # odd N: the middle mode is its own mirror
            v[-1] = 0.0
        if not paired.all():
            alone = first + np.flatnonzero(~paired)
            lone.append(alone)
            lone.append(n - 1 - alone[alone < n // 2])
            d, w, v = d[paired], w[paired], v[paired]
        if len(d):
            yield 2.0 * d * d - 1.0, w + v, 2.0 * d * (w - v)


def _unfold(p: np.ndarray, baby: int) -> np.ndarray:
    """The moments M_n, n < baby * giant, from p[i, j] = M_(jB+i) + M_(jB-i).

    U_-1 = 0 and U_-n = -U_(n-2) unfold p block by block.
    """
    giant = p.shape[1]
    m = np.empty(giant * baby)
    m[::baby] = 0.5 * p[0]
    # the first block reflects off n = -1: M_i = p[i, 0] + M_(i-2)
    m[1:baby:2] = np.cumsum(p[1:baby:2, 0])
    m[2:baby:2] = np.cumsum(p[2:baby:2, 0]) + m[0]
    for j in range(1, giant):
        at = j * baby
        m[at + 1:at + baby] = p[1:baby, j] - m[at - 1:at - baby:-1]
    return m


def _u_moments(chunks, nodes: int, count: int, sets: int) -> list[np.ndarray]:
    """M_s[n] = sum_j w_sj U_n(x_j), n = 0 .. count - 1, for each of sets
    weight vectors w_s, by baby and giant steps.

    chunks(width) yields the nodes as (x, w_0, .., w_(sets-1)), at most
    width and nodes in all.  With B = isqrt(sets count), the baby rows hold
    2 T_i(x), i = 0 .. B, and the giant rows w_s U_jB(x), advanced by
    U_(j+1)B = 2 T_B U_jB - U_(j-1)B.  One product of the two gives
    p[i, j] = M_(jB+i) + M_(jB-i) for each set, since
    2 T_i U_n = U_(n+i) + U_(n-i).  Each chunk of nodes takes at most
    ``_CHUNK_BYTES`` of rows.
    """
    baby = math.isqrt(sets * count)
    giant = -(-count // baby)
    width = max(1, _CHUNK_BYTES // (8 * (baby + 1 + sets * giant)))
    rows = np.empty((baby + 1) * min(width, nodes))
    steps = np.empty(giant * sets * min(width, nodes))
    p = np.zeros((baby + 1, giant * sets))
    for x, *weights in chunks(width):
        size = len(x)
        # contiguous views, so that the product below runs in BLAS; the
        # giant rows of the sets interleave, and advance in one step.  The
        # loops index lists of row views, which numpy would build anew
        # at each step.
        baby_rows = rows[:(baby + 1) * size].reshape(baby + 1, size)
        giant_rows = steps[:giant * sets * size].reshape(giant, sets, size)
        t, u = list(baby_rows), list(giant_rows)
        t[0][:] = 2.0
        np.multiply(x, 2.0, out=t[1])
        for i in range(1, baby):
            np.multiply(t[1], t[i], out=t[i + 1])
            np.subtract(t[i + 1], t[i - 1], out=t[i + 1])
        u[0][:] = weights
        if giant > 1:
            # U_B = 2 T_B + 2 T_(B-2) + ..., down to 2 T_1 or T_0
            ub = np.sum(baby_rows[baby:0:-2], axis=0)
            if baby % 2 == 0:
                ub += 1.0
            np.multiply(u[0], ub, out=u[1])
        for j in range(1, giant - 1):
            np.multiply(t[baby], u[j], out=u[j + 1])
            np.subtract(u[j + 1], u[j - 1], out=u[j + 1])
        p += baby_rows @ giant_rows.reshape(giant * sets, size).T
    return [_unfold(p[:, s::sets], baby)[:count] for s in range(sets)]


def _mode_moments(delta: np.ndarray, g: np.ndarray, center: float, radius: float,
                  count: int, grain: float) -> np.ndarray:
    """m_n = sum_j gamma_j^2 U_n(d_j), n = 0 .. count - 1.

    d = (delta - center) / radius and gamma = g / radius are the modes'
    entries and couplings in S.  The modes that mirror each other about
    center within grain fold into one node each (``_mirror_pairs``), whose
    sums E_k = sum a U_k(y) and O_k = sum b U_k(y), k < ceil(count / 2),
    give m_2k = E_k + E_(k-1) and m_(2k+1) = O_k; that halves the nodes and
    the work on a mirror-symmetric grid.  Every other mode adds its own
    U_n(d) (``_u_moments``).
    """
    half = (count + 1) // 2
    lone = []
    even, odd = _u_moments(
        lambda width: _mirror_pairs(delta, g, center, radius, grain, width, lone),
        (len(delta) + 1) // 2, half, 2)
    m = np.empty(2 * half)
    m[0::2] = even
    m[2::2] += even[:-1]
    m[1::2] = odd
    m = m[:count]
    if lone:
        at = np.concatenate(lone)

        def alone(width):
            for first in range(0, len(at), width):
                part = at[first:first + width]
                yield (delta[part] - center) / radius, np.square(g[part] / radius)

        m += _u_moments(alone, len(at), count, 1)[0]
    return m


def _toeplitz_solve(col: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """x with sum_(i<=k) col[k - i] x_i = rhs_k, for col[0] = 1.

    The lower-triangular Toeplitz system is solved in blocks of
    ``_TOEPLITZ_BLOCK`` rows.  The diagonal block, the same for every
    block, is inverted once: its inverse is the Toeplitz matrix of the
    power series 1 / col, cut after the block, found by Newton doubling.
    Each block takes the earlier blocks' terms in one convolution.
    """
    n = len(col)
    b = min(_TOEPLITZ_BLOCK, n)
    inv = np.ones(1)
    while len(inv) < b:
        k = min(2 * len(inv), b)
        # col inv = 1 + e with e zero below len(inv), and inv - inv e is good to k terms
        e = np.convolve(col[:k], inv)[len(inv):k]
        inv = np.concatenate((inv, -np.convolve(inv, e)[:k - len(inv)]))
    x = np.empty(n)
    for first in range(0, n, b):
        last = min(first + b, n)
        r = rhs[first:last]
        if first:
            r = r - np.convolve(col[1:last], x[:first], mode="valid")
        size = last - first
        block = np.convolve(inv[:size], r)[:size]
        # one step of refinement: the inverse's terms grow as the atom's
        # level nears the end of the interval, and so does its rounding
        block += np.convolve(inv[:size], r - np.convolve(col[:size], block)[:size])[:size]
        x[first:last] = block
    return x


def _arrowhead_moments(delta: np.ndarray, g: np.ndarray, center: float, radius: float,
                       order: int, grain: float) -> np.ndarray:
    """nu_k = [T_k(S) e_0]_0 - T_k(s), k = 0..order, with S = (H - center) / radius.

    H = [[0, g^T], [g, diag(delta)]] and s = -center / radius is S's atom
    entry, so nu_k is what the couplings add to the bare atom's moment: it
    vanishes with them and is rounded on its own scale.  The modes, with
    entries d = (delta - center) / radius and couplings gamma = g / radius,
    are eliminated exactly (a Schur complement), which leaves a scalar
    recurrence: nu_0 = nu_1 = 0 and, with c_0 = 1 and c_i = 2 (nu_i + T_i(s)),
    nu_(k+1) = 2 s nu_k - nu_(k-1) + 2 sum_(i<k) m_(k-1-i) c_i,
    where m_n = sum_j gamma_j^2 U_n(d_j) are the modes' own moments
    (``_mode_moments``, which folds modes that mirror each other about
    center within grain, the frequencies' rounding).  That is a unit
    lower-triangular Toeplitz system for nu_2 .. nu_order, with first column
    1, -2 s, 1 - 4 m_0, -4 m_1, ... and right side
    2 m_(k-1) + 4 sum_(i>=1) m_(k-1-i) T_i(s).
    """
    nu = np.zeros(order + 1)
    n = order - 1
    if n < 1:
        return nu
    s = -center / radius
    m = _mode_moments(delta, g, center, radius, n, grain)
    # 1 and 2 T_i(s) = 2 (sign s)^i cos(i acos|s|), i = 1 .. n - 1, as
    # |s| <= 1 (the interval holds 0); the angle is at most pi / 2, so i
    # times it rounds less than i acos(s) would near s = -1
    cheb = 2.0 * np.cos(np.arange(n) * math.acos(abs(s)))
    if s < 0.0:
        cheb[1::2] *= -1.0
    cheb[0] = 1.0
    col = np.zeros(max(n, 3))
    col[:3] = 1.0, -2.0 * s, 1.0
    col[2:] -= 4.0 * m[:len(col) - 2]
    rhs = 2.0 * np.convolve(m, cheb)[:n]
    nu[2:] = _toeplitz_solve(col[:n], rhs)
    return nu


def _spectrum_interval(delta: np.ndarray, g: np.ndarray,
                       omega0: float) -> tuple[float, float, float]:
    """center, radius and grain of the modes omega0 + delta with couplings g.

    H's spectrum lies within the coupling norm of [min(0, delta),
    max(0, delta)], the interval center +- radius.  grain is the
    frequencies' rounding, 8 ulps of the largest |omega| it allows, within
    which mirrored modes fold together.
    """
    norm = float(np.linalg.norm(g))
    lo = min(0.0, float(delta.min())) - norm
    hi = max(0.0, float(delta.max())) + norm
    return (0.5 * (lo + hi), max(0.5 * (hi - lo), 1e-300),
            8.0 * math.ulp(abs(omega0) + max(-lo, hi)))


def _survival_series(modes: DiscretizedModes, omega0: float, tau: float) -> SurvivalResult:
    delta = modes.omega - omega0
    # e^(-iH tau) e_0, summed as a Chebyshev series in H without
    # eigenvalues.  With H's spectrum mapped onto [-1, 1],
    # a = sum_k c_k mu_k with the coefficients c_k of _propagator_series and
    # the moments mu_k = T_k(s) + nu_k of _arrowhead_moments, which steps no
    # mode vector: it eliminates the modes and solves for the atom's
    # moments from the modes' own, in O(n_modes K + K^2).  The bare atom's
    # part sum_k c_k T_k(s) is e^0 = 1, so a = 1 + sum_k c_k nu_k, whose
    # loss stays resolved however weak the coupling.  As |mu_k| <= 1, the
    # bound on the coefficients left out bounds the terms cut off, and is
    # norm_drift.
    center, radius, grain = _spectrum_interval(delta, modes.g, omega0)
    series, tail = _propagator_series(tau, center, radius)
    amp = series @ _arrowhead_moments(delta, modes.g, center, radius, len(series) - 1, grain)
    return SurvivalResult(probability=float(abs(1.0 + amp) ** 2), norm_drift=tail)


def survival_probability(modes: DiscretizedModes, omega0: float, tau: float,
                         cfg: OracleConfig) -> SurvivalResult:
    """Excited-state survival probability after one interval tau.

    Requires tau at least 10x below the discretization recurrence time
    2 pi / d_omega, beyond which the mode comb rephases and the dynamics
    is a discretization artifact.
    """
    # cfg is not read: both method spellings run the series.
    # benchmarks/spans.py binds cfg by name and reads cfg.method in traced
    # runs, so the argument stays until that file changes.
    if tau <= 0:
        raise DomainError("tau must be positive")
    if len(modes.omega) < 2 or np.ptp(modes.omega) == 0.0:
        raise DomainError(
            "the recurrence guard needs modes at two or more distinct frequencies")
    # the mean spacing, which does not depend on the order of the modes
    recurrence = math.tau * (len(modes.omega) - 1) / np.ptp(modes.omega)
    if tau * 10.0 > recurrence:
        raise DomainError(
            f"tau={tau:g} is too long for the mode spacing: recurrence time "
            f"{recurrence:g} must exceed 10*tau; increase n_modes or shrink the band")
    return _survival_series(modes, omega0, tau)


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
    gamma0 = math.tau * r0
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
    if not math.isfinite(omega0 + BAND_COVERAGE * nu):
        raise DomainError(f"measurement rate nu={nu!r} is too large: the band "
                          f"omega0 +- {BAND_COVERAGE:g} nu must be finite")
    required = (max(0.0, omega0 - BAND_COVERAGE * nu), omega0 + BAND_COVERAGE * nu)
    band = required if cfg.band is None else cfg.band
    if band[0] > required[0] + 1e-12 * omega0 or band[1] < required[1] - 1e-12 * omega0:
        raise DomainError(
            f"band {band} does not cover {required} "
            f"(+-{BAND_COVERAGE:g} measurement widths around omega0)")
    # modes a few rounding units of the band's top apart sit on unevenly
    # rounded frequencies: at 10^4 modes spacings of 9 and 27 units put the
    # ratio 1e-3 and 2.4e-4 off, and one of 45 units 9e-6, with nothing in
    # the error estimate to show it; 32 units refuses the first two
    if (band[1] - band[0]) / cfg.n_modes < 32 * np.spacing(band[1]):
        raise DomainError(f"measurement rate nu={nu!r} is too small: {cfg.n_modes} modes "
                          f"over {band} lie under 32 rounding units apart")
    return replace(cfg, band=band) if cfg.band is None else cfg


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
        if not 0.0 <= lo < hi < math.inf:
            raise DomainError("band must satisfy 0 <= lo < hi < inf")
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
