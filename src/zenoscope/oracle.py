"""Independent validation path: discretized-mode Schrodinger dynamics.

The reservoir is discretized into N modes on a frequency band; the
one-excitation amplitudes are integrated in the frame rotating at the
transition frequency (a time-independent arrowhead Hamiltonian), and the
decay rate is extracted from the survival probability over one
measurement interval.  Projective measurements are modeled as exact
coherence erasures between intervals, so P_n = P(tau)^n and a single
interval determines the rate: Gamma = -ln P(tau) / tau.

Two integration routes guard against integrator bias: the exact propagator
e^(-iH tau) summed as a Chebyshev series (method ``rk4``, the default) and
exact diagonalization of the arrowhead Hamiltonian, which
solves its secular equation in O(n_modes) memory, with no dense matrix.
On the uniform mode grid one FFT convolution, in O(n_modes log n_modes)
time, forms for every pole the moments of the other poles' couplings.
Each weakly coupled root, one that hugs its pole, is solved from that
pole's series and kept only where a remainder bound certifies it, and
the few others (next to the atom's level) by direct sums over the poles,
in blocks of 1 MB of work arrays.  Unless the coupled modes are equally
spaced (off a grid, or where zero couplings leave holes in it) every
root is solved so.  Everything runs on the calling thread.  The series
route sums e^(-iH tau) e_0 in H (Tal-Ezer & Kosloff, J. Chem. Phys. 81,
3967 (1984)), with no eigenvalues, so that it stays independent of the
secular solver.  Its moments eliminate the modes exactly: the modes' own
Chebyshev moments, by baby and giant steps and one matrix product per
chunk of modes, then a scalar Toeplitz solve for the atom's (about 2 ms
at 2000 modes and 3-5 ms at 10^4 on a 2-core Xeon).  The method keeps
the name ``rk4`` of the fixed-step integrator it replaced.

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
from numpy.polynomial.polynomial import polyval

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
# Bytes of the direct secular sums' (roots x poles) work array: the block
# of roots summed at once is sized from it, so memory stays O(n_modes).
# The block also fixes the rows of each matrix-vector product, whose
# rounding depends on them.  Off a full lattice every root is solved so,
# in O(n_modes^2); on one only the roots the series leave (11, 12, 8 and 5
# of 2001 at the oracle benchmark's four ED points, 128 of 16,001 at
# eta = 3, nu = 1e-3, where 83 poles' FFT moments are too loose).
_BLOCK_BYTES = 1 << 20
_SECULAR_MAX_ITER = 64
# Order P (even) of the local series of a weakly coupled root about its
# pole.  At the oracle benchmark's four ED points (2000 modes), P = 4
# leaves 11, 12, 8 and 5 of the 2001 roots to direct sums (6 and 4 of
# them at poles whose FFT moments are too loose), and P = 6 leaves 2, 2,
# 2 and 1, but forms two more moments per pole.  Medians of 40 solves on
# a 2-core Xeon took 2.6-3.1 ms at P = 4 against 2.8-3.2 ms at P = 6, so
# P = 4 is kept; at 16,000 modes (eta = 3, nu = 1e-3) P = 4 leaves 128
# roots direct, 83 of them at loose poles (P = 6 leaves 25), and takes
# 41 ms against 26 ms, with the same ratio.  P = 2 leaves up to 1995.  The
# largest rho (_series_roots) certified at those points is 5.7e-4.
_SERIES_ORDER = 4
# Moments by FFT (_lattice_moments): how far a pole may sit off equal
# spacing, in eps * scale (the oracle's grids sit within 2.5), the lags
# summed directly on each side, and the relative accuracy demanded of
# S_(P+1), which the series certificate reads.
_LATTICE_TOL = 32.0
_LATTICE_NEAR = 8
_LATTICE_RTOL = 1e-10
# The series route's moments: bytes of the Chebyshev rows of each chunk of
# modes (_mode_moments), and the rows of _toeplitz_solve's diagonal block.
_CHUNK_BYTES = 1 << 19
_TOEPLITZ_BLOCK = 64
# Mode limits: ED off equal spacing solves every root by direct sums, in
# O(n_modes**2) time (about 3.6 s at 16,000 jittered or random poles on a
# 2-core Xeon); the series route holds the chunk budget above plus
# O(n_modes) inputs.
_ED_MAX_MODES = 20_000
_MAX_MODES = 1_000_000
_ED_TOO_LARGE = (f"exact diagonalization is limited to n_modes <= {_ED_MAX_MODES} "
                 "(off a uniform grid its time grows as n_modes**2)")

METHOD_RK4 = "rk4"
METHOD_ED = "exact_diagonalization"


@dataclass(frozen=True)
class OracleConfig:
    """Discretization and integration parameters.

    band is (omega_lo, omega_hi) in rad/s.  method ``rk4`` sums the exact
    propagator as a Chebyshev series and takes no time step; the name is
    kept from the fixed-step integrator it replaced.  coupling_scale = None
    rescales the couplings automatically into the perturbative regime;
    pass 1.0 to integrate the reservoir exactly as given.
    """

    n_modes: int = 10_000
    band: tuple[float, float] | None = None
    method: str = METHOD_RK4
    coupling_scale: float | None = None

    @property
    def dt(self) -> None:
        # Not a field: there is no time step.  benchmarks/spans.py still
        # reads cfg.dt to size its traced oracle.rk4 spans by the old step
        # rule, so this stays until that file changes.
        return None

    def __post_init__(self):
        # the range first: int() of an infinite or NaN count would raise
        if not 100 <= self.n_modes <= _MAX_MODES or self.n_modes != int(self.n_modes):
            raise DomainError(f"n_modes must be a whole number in [100, {_MAX_MODES}]")
        if self.method not in (METHOD_RK4, METHOD_ED):
            raise DomainError(f"method must be '{METHOD_RK4}' or '{METHOD_ED}'")
        if self.method == METHOD_ED and self.n_modes > _ED_MAX_MODES:
            raise DomainError(_ED_TOO_LARGE)
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
    """P(tau) and a bound on its integration error: ED's departure of the
    weights' sum from 1, or the series' truncated tail."""

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


def _propagator_series(tau: float, center: float, radius: float) -> np.ndarray:
    """Chebyshev coefficients in x = (lam - center) / radius of exp(-i lam tau).

    They are e^(-i center tau) (2 - [k = 0]) (-i)^k J_k(z), z = radius * tau,
    which fall off past k = z; the series stops at K = z + 10 z^(1/3) + 40.
    The samples' phases round at about eps * z, and so do the coefficients.
    """
    z = radius * tau
    order = math.ceil(z + 10.0 * z ** (1.0 / 3.0) + 40.0)
    x = np.cos(math.pi * np.arange(order + 1) / order)
    samples = np.exp(-1j * tau * (center + radius * x))
    # samples at x_j = cos(pi j / K) to coefficients: a DCT-I, by FFT of the even extension
    coef = np.fft.fft(np.concatenate((samples, samples[order - 1:0:-1])))[:order + 1] / order
    coef[[0, order]] /= 2.0
    return coef


def _mode_moments(delta: np.ndarray, g: np.ndarray, center: float, radius: float,
                  count: int) -> np.ndarray:
    """m_n = sum_j gamma_j^2 U_n(d_j), n = 0 .. count - 1, by baby and giant steps.

    d = (delta - center) / radius and gamma = g / radius are the modes'
    entries and couplings in S.  With B = isqrt(count), the baby rows hold
    2 T_i(d), i = 0 .. B, and the giant rows gamma^2 U_jB(d), advanced by
    U_(j+1)B = 2 T_B U_jB - U_(j-1)B.  One product of the two gives
    p[i, j] = m_(jB+i) + m_(jB-i), since 2 T_i U_n = U_(n+i) + U_(n-i), and
    U_-1 = 0, U_-n = -U_(n-2) unfold it block by block.  Each chunk of modes
    takes at most ``_CHUNK_BYTES`` of rows.
    """
    baby = math.isqrt(count)
    giant = -(-count // baby)
    chunk = max(1, _CHUNK_BYTES // (8 * (baby + 1 + giant)))
    width = min(chunk, len(delta))
    rows, steps = np.empty((baby + 1) * width), np.empty(giant * width)
    p = np.zeros((baby + 1, giant))
    for first in range(0, len(delta), chunk):
        size = min(chunk, len(delta) - first)
        # contiguous views, so that the product below runs in BLAS
        t = rows[:(baby + 1) * size].reshape(baby + 1, size)
        u = steps[:giant * size].reshape(giant, size)
        t[0] = 2.0
        np.subtract(delta[first:first + chunk], center, out=t[1])
        t[1] *= 2.0 / radius
        for i in range(1, baby):
            np.multiply(t[1], t[i], out=t[i + 1])
            t[i + 1] -= t[i - 1]
        np.divide(g[first:first + chunk], radius, out=u[0])
        np.square(u[0], out=u[0])
        if giant > 1:
            # U_B = 2 T_B + 2 T_(B-2) + ..., down to 2 T_1 or T_0
            np.sum(t[baby:0:-2], axis=0, out=u[1])
            if baby % 2 == 0:
                u[1] += 1.0
            u[1] *= u[0]
        for j in range(1, giant - 1):
            np.multiply(t[baby], u[j], out=u[j + 1])
            u[j + 1] -= u[j - 1]
        p += t @ u.T
    m = np.empty(giant * baby)
    m[::baby] = 0.5 * p[0]
    # the first block reflects off n = -1: m_i = p[i, 0] + m_(i-2)
    m[1:baby:2] = np.cumsum(p[1:baby:2, 0])
    m[2:baby:2] = np.cumsum(p[2:baby:2, 0]) + m[0]
    for j in range(1, giant):
        at = j * baby
        m[at + 1:at + baby] = p[1:baby, j] - m[at - 1:at - baby:-1]
    return m[:count]


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
                       order: int) -> np.ndarray:
    """nu_k = [T_k(S) e_0]_0 - T_k(s), k = 0..order, with S = (H - center) / radius.

    H = [[0, g^T], [g, diag(delta)]] and s = -center / radius is S's atom
    entry, so nu_k is what the couplings add to the bare atom's moment: it
    vanishes with them and is rounded on its own scale.  The modes, with
    entries d = (delta - center) / radius and couplings gamma = g / radius,
    are eliminated exactly (a Schur complement), which leaves a scalar
    recurrence: nu_0 = nu_1 = 0 and, with c_0 = 1 and c_i = 2 (nu_i + T_i(s)),
    nu_(k+1) = 2 s nu_k - nu_(k-1) + 2 sum_(i<k) m_(k-1-i) c_i,
    where m_n = sum_j gamma_j^2 U_n(d_j) are the modes' own moments
    (``_mode_moments``).  That is a unit lower-triangular Toeplitz system
    for nu_2 .. nu_order, with first column 1, -2 s, 1 - 4 m_0, -4 m_1, ...
    and right side 2 m_(k-1) + 4 sum_(i>=1) m_(k-1-i) T_i(s).
    """
    nu = np.zeros(order + 1)
    n = order - 1
    if n < 1:
        return nu
    s = -center / radius
    m = _mode_moments(delta, g, center, radius, n)
    # 1 and 2 T_i(s), i = 1 .. n - 1
    cheb = [2.0, 2.0 * s]
    for _ in range(2, n):
        cheb.append(2.0 * s * cheb[-1] - cheb[-2])
    cheb[0] = 1.0
    col = np.zeros(max(n, 3))
    col[:3] = 1.0, -2.0 * s, 1.0
    col[2:] -= 4.0 * m[:len(col) - 2]
    rhs = 2.0 * np.convolve(m, cheb[:n])[:n]
    nu[2:] = _toeplitz_solve(col[:n], rhs)
    return nu


def _survival_series(modes: DiscretizedModes, omega0: float, tau: float) -> SurvivalResult:
    delta = modes.omega - omega0
    # e^(-iH tau) e_0, summed as a Chebyshev series in H without
    # eigenvalues, so that this route stays independent of the secular
    # solver.  H's spectrum lies within the coupling norm of
    # [min(0, delta), max(0, delta)]; mapped onto [-1, 1],
    # a = sum_k c_k mu_k with the coefficients c_k of _propagator_series and
    # the moments mu_k = T_k(s) + nu_k of _arrowhead_moments, which steps no
    # mode vector: it eliminates the modes and solves for the atom's
    # moments from the modes' own, in O(n_modes K + K^2).  The bare atom's
    # part sum_k c_k T_k(s) is e^0 = 1, so a = 1 + sum_k c_k nu_k, whose
    # loss stays resolved however weak the coupling.  As |mu_k| <= 1, the
    # last few |c_k| bound the terms cut off, and are norm_drift.
    norm = float(np.linalg.norm(modes.g))
    lo = min(0.0, float(delta.min())) - norm
    hi = max(0.0, float(delta.max())) + norm
    center, radius = 0.5 * (lo + hi), max(0.5 * (hi - lo), 1e-300)
    series = _propagator_series(tau, center, radius)
    amp = series @ _arrowhead_moments(delta, modes.g, center, radius, len(series) - 1)
    return SurvivalResult(probability=float(abs(1.0 + amp) ** 2),
                          norm_drift=float(np.abs(series[-4:]).sum()))


def _secular_sums(anchor: np.ndarray, mu: np.ndarray, poles: np.ndarray,
                  z2: np.ndarray, work: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """psi = sum z2_k t_k and phi = sum z2_k t_k^2 over k != anchor.

    t_k = 1 / ((poles[anchor] - poles[k]) + mu): the pole differences are
    taken before the offset is added, so a root within rounding of its
    anchor pole keeps an accurate distance to every other pole.
    """
    t = work[:len(mu)]
    np.copyto(t, poles[anchor][:, None])
    t -= poles
    t += mu[:, None]
    np.reciprocal(t, out=t)
    t[np.arange(len(mu)), anchor] = 0.0
    psi = t @ z2
    np.square(t, out=t)
    return psi, t @ z2


def _newton_terms(pole, w, mu, psi, phi):
    """G(mu) = mu F(pole + mu), G'(mu) and F'(pole + mu), where F's anchor
    term w / mu is written out and psi and phi sum the other poles."""
    lam = pole + mu
    return mu * (lam - psi) - w, lam + mu - psi + mu * phi, 1.0 + phi + w / mu ** 2


def _newton(anchor, mu, g, dg, df, poles, z2, sums):
    """Newton's method on G(mu) = mu F(poles[anchor] + mu) for each root.

    Each mu starts on the far side of its root, with G, G' and F' there in
    g, dg and df; sums(i, mu) returns psi and phi of the roots i.  Returns
    the offsets of the roots from their anchors, F' at each, and the
    indices of the roots still unconverged after ``_SECULAR_MAX_ITER``
    steps.
    """
    offset = np.empty(len(mu))
    slope = np.empty(len(mu))
    i = np.arange(len(mu))
    for _ in range(_SECULAR_MAX_ITER):
        with np.errstate(divide="ignore", invalid="ignore"):
            step = g / dg
        # G <= 0 on the far side can only be rounding: the root is reached
        done = (g <= 0) | (np.abs(step) <= 4.0 * _EPS * np.abs(mu))
        offset[i[done]] = np.where(g > 0, mu - step, mu)[done]
        slope[i[done]] = df[done]
        if done.all():
            return offset, slope, i[:0]
        busy = ~done
        i, mu, step = i[busy], mu[busy], step[busy]
        # the step must land strictly between the anchor and mu
        shrink = (mu - step) / mu
        mu = np.where((shrink > 0) & (shrink < 1), mu - step, 0.5 * mu)
        a = anchor[i]
        g, dg, df = _newton_terms(poles[a], z2[a], mu, *sums(i, mu))
    return offset, slope, i


def _secular_block(j: np.ndarray, poles: np.ndarray, z2: np.ndarray, start: np.ndarray,
                   vals: np.ndarray, weights: np.ndarray, work: np.ndarray) -> None:
    """Solve the roots j by direct sums, writing them to vals and weights.

    ``work`` holds a row of pole terms for each root of j.
    """
    m = len(poles)
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
    offset, slope, busy = _newton(
        a, mu, mu * f, f + mu * df, df, poles, z2,
        lambda i, mu: _secular_sums(a[i], mu, poles, z2, work))
    if len(busy):
        raise NumericalError(
            f"secular equation: {len(busy)} roots unconverged after "
            f"{_SECULAR_MAX_ITER} Newton steps")
    vals[j] = poles[a] + offset
    weights[j] = 1.0 / slope


def _lattice(poles: np.ndarray) -> float | None:
    """The spacing h of ascending poles that all lie within ``_LATTICE_TOL``
    eps * scale of poles[0] + k h, k = 0 .. len(poles) - 1; or None when
    they are not so equally spaced."""
    m = len(poles)
    h = (poles[-1] - poles[0]) / max(m - 1, 1)
    tol = _LATTICE_TOL * _EPS * max(abs(poles[0]), abs(poles[-1]))
    return h if m > 1 and np.all(np.abs(poles[0] + np.arange(m) * h - poles) <= tol) else None


def _lattice_moments(poles: np.ndarray, z2: np.ndarray, h: float) -> np.ndarray:
    """The moments of ``_moments`` for poles spaced h apart (``_lattice``).

    S_p(a) = sum over lags j of z2(a - j) K_p(j), K_p(j) = (j h)^-(p+1) and
    K_p(0) = 0: a linear convolution, taken for every p by one FFT of z2,
    one of the kernels and one inverse.  The ``_LATTICE_NEAR`` nearest lags
    on each side are left out of the kernels and summed directly over the
    poles' own differences.  The FFT's rounding is on the scale of the
    largest couplings, so where the couplings are weak it may still leave
    S_(P+1), which the series certificate reads, too far off.  Each of the
    three transforms adds about 6.7 eps log2(size) of its input's norm
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    ch. 24), so 20 eps log2(size) |z2|_2 |K_(P+1)|_1 bounds it (the errors
    measured at the oracle's weakly coupled poles stay below 3% of that),
    and it must stay below ``_LATTICE_RTOL`` S_(P+1).  The rows of the
    poles where it does not are NaN.
    """
    m = len(poles)
    size = 1 << (2 * m - 1).bit_length()
    powers = np.arange(1, _SERIES_ORDER + 3)[:, None]
    kernels = np.zeros((len(powers), size))
    kernels[:, _LATTICE_NEAR + 1:m] = np.arange(_LATTICE_NEAR + 1.0, m) ** -powers
    # K_p(-j) = (-1)^(p+1) K_p(j)
    kernels[:, size - m + 1:size - _LATTICE_NEAR] = (
        kernels[:, m - 1:_LATTICE_NEAR:-1] * (-1.0) ** powers)
    far = np.fft.irfft(np.fft.rfft(kernels) * np.fft.rfft(z2, size), size)[:, :m]
    near = np.zeros((len(powers), m))
    # a close pair of poles may overflow the high powers: its roots then go direct
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, min(_LATTICE_NEAR, m - 1) + 1):
            # 1 / (pole i + j - pole i), then its powers
            inv = 1.0 / (poles[j:] - poles[:-j])
            power = inv.copy()
            for p in range(len(powers)):
                near[p, j:] += z2[:-j] * power
                near[p, :-j] += z2[j:] * (power if p % 2 else -power)
                power *= inv
        scale = h ** -powers
        s = (far * scale + near).T
        bound = (20.0 * _EPS * math.log2(size) * np.linalg.norm(z2)
                 * np.abs(kernels[-1]).sum() * scale[-1, 0])
        s[~(bound <= _LATTICE_RTOL * s[:, -1])] = np.nan
    return s


def _moments(poles: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """s[a, p] = sum over k != a of z2_k / (poles[a] - poles[k])^(p+1),
    p = 0 .. P + 1, for every pole a.

    On equally spaced poles they come from one FFT convolution
    (``_lattice_moments``), in O(n log n); otherwise (a grid with holes
    included) every row is NaN, as are the rows whose FFT rounding bound
    is too loose, and the roots of those poles go to direct sums.
    """
    h = _lattice(poles)
    if h is None:
        return np.full((len(poles), _SERIES_ORDER + 2), np.nan)
    return _lattice_moments(poles, z2, h)


def _series_roots(poles: np.ndarray, z2: np.ndarray, s: np.ndarray, vals: np.ndarray,
                  weights: np.ndarray) -> np.ndarray:
    """Solve the roots that a pole's local series certifies; return the others.

    Near pole a, F(poles[a] + mu) = poles[a] + mu - z2_a / mu - psi(mu),
    where psi(mu) = sum_p (-mu)^p S_p(a) and phi = -psi' =
    sum_p (p + 1) (-mu)^p S_(p+1)(a), both cut at p = P = ``_SERIES_ORDER``,
    with the moments S = s of ``_moments``.

    Pole a owns the root on its right when c_a = poles[a] - S_0(a) > 0,
    and the one on its left when c_a < 0.  ``_newton`` solves it from
    mu = z2_a / c_a, where G > 0, if there the series converges: if
    |mu| < near, the distance to the nearest other pole.  The root is
    accepted when its interval has no other owner, mu lies on the owned
    side, rho = |mu| / near < 1, and the terms cut off psi and phi are
    below eps times psi and phi.  With P even, S_(P+1) sums positive
    terms, so |mu|^(P+1) S_(P+1) / (1 - rho) bounds those of psi, and
    (P + 2) / (near (1 - rho)) times that bound those of phi.

    Returns the indices of every root not accepted, in ascending order.
    """
    m = len(poles)
    order = s.shape[1] - 2
    gaps = np.diff(poles)
    near = np.minimum(np.concatenate(([np.inf], gaps)), np.concatenate((gaps, [np.inf])))
    c = poles - s[:, 0]
    # a non-finite value fails the tests below, and its root goes direct
    with np.errstate(all="ignore"):
        mu = z2 / c
        # the iterates fall from mu towards the anchor, so they stay where
        # the series converges
        a = np.flatnonzero((np.abs(mu) < near) & np.isfinite(s).all(axis=1))
        psi_coef = s[a, :-1].T
        phi_coef = s[a, 1:].T * np.arange(1, order + 2)[:, None]

        def sums(i, mu):
            return (polyval(-mu, psi_coef[:, i], tensor=False),
                    polyval(-mu, phi_coef[:, i], tensor=False))

        mu = mu[a]
        offset, slope, busy = _newton(
            a, mu, *_newton_terms(poles[a], z2[a], mu, *sums(slice(None), mu)),
            poles, z2, sums)
        psi, phi = sums(slice(None), offset)
        rho = np.abs(offset) / near[a]
        tail = np.abs(offset) ** (order + 1) * s[a, -1] / (1.0 - rho)
        ok = ((offset * c[a] > 0) & (rho < 1.0) & (tail <= _EPS * np.abs(psi))
              & ((order + 2) * tail / (near[a] * (1.0 - rho)) <= _EPS * phi))
    ok[busy] = False
    j = a + (c[a] > 0)
    owners = np.bincount(np.flatnonzero(c > 0) + 1, minlength=m + 1)
    owners += np.bincount(np.flatnonzero(c < 0), minlength=m + 1)
    ok &= owners[j] == 1
    vals[j[ok]] = poles[a[ok]] + offset[ok]
    weights[j[ok]] = 1.0 / slope[ok]
    # m poles own at most m of the m + 1 intervals, so at least one root is left
    direct = np.ones(m + 1, dtype=bool)
    direct[j[ok]] = False
    return np.flatnonzero(direct)


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

    On equally spaced poles one FFT convolution forms every pole's moments
    in O(n log n) (``_moments``), and each weakly coupled root, one that
    hugs its pole, is solved from its pole's series (``_series_roots``).
    The rest (the roots near the atom's level, intervals owned twice or
    not at all, any root the series cannot certify, and every root unless
    the poles are equally spaced) are solved by direct O(n) sums per
    Newton step (``_secular_block``), from the midpoints of their
    intervals (the outer ends for the outer two), in blocks of
    ``_BLOCK_BYTES`` of work.
    """
    m = len(poles)
    vals = np.empty(m + 1)
    weights = np.empty(m + 1)
    direct = _series_roots(poles, z2, _moments(poles, z2), vals, weights)
    norm = math.sqrt(float(z2.sum()))
    lo = np.concatenate(([min(0.0, poles[0]) - norm], poles))
    hi = np.concatenate((poles, [max(0.0, poles[-1]) + norm]))
    start = 0.5 * (lo + hi)
    start[0], start[-1] = lo[0], hi[-1]
    rows = max(2, _BLOCK_BYTES // (8 * m))
    work = np.empty((min(rows, len(direct)), m))
    for first in range(0, len(direct), rows):
        _secular_block(direct[first:first + rows], poles, z2, start, vals, weights, work)
    return vals, weights


def _arrowhead_eigensystem(modes: DiscretizedModes, omega0: float):
    """Eigenvalues of the arrowhead Hamiltonian and their weights on the atom.

    H = [[0, g^T], [g, diag(omega - omega0)]].  Returns its n + 1
    eigenvalues in ascending order and the squared first components of
    their eigenvectors, 1 / (1 + sum g_k^2 / (lam - delta_k)^2).  Couplings
    at or below eps * scale, and all but the first pole of a tie (which
    takes the tie's whole coupling weight), leave their pole as an
    eigenvalue of weight 0.  On a full uniform grid such as
    ``discretize_reservoir``'s, one O(n log n) moments pass plus direct sums
    for the few roots the series leave; off it, holes included, direct sums
    for every root, in O(n^2) time.  O(n) memory, about 1 MB.
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
    if len(modes.omega) < 2 or np.ptp(modes.omega) == 0.0:
        raise DomainError(
            "the recurrence guard needs modes at two or more distinct frequencies")
    # the mean spacing, which does not depend on the order of the modes
    recurrence = _TWO_PI * (len(modes.omega) - 1) / np.ptp(modes.omega)
    if tau * 10.0 > recurrence:
        raise DomainError(
            f"tau={tau:g} is too long for the mode spacing: recurrence time "
            f"{recurrence:g} must exceed 10*tau; increase n_modes or shrink the band")
    if cfg.method == METHOD_ED:
        return _survival_ed(modes, omega0, tau)
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
    d_omega = (required[1] - required[0]) / cfg.n_modes
    # placed as discretize_reservoir places them, the first two modes must differ
    if not required[0] + 0.5 * d_omega < required[0] + 1.5 * d_omega:
        raise DomainError(f"measurement rate nu={nu!r} is too small: {cfg.n_modes} modes "
                          f"over omega0 +- {BAND_COVERAGE:g} nu round onto each other")
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
