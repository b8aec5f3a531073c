"""Measurement-modified decay rates: quadrature of the overlap integral and
closed-form approximations.

The modified rate is 2 pi times the overlap of the measurement-broadened
profile with the reservoir coupling spectrum,

    Gamma = 2 pi Integral_0^inf  F_tau(omega - omega0) R(omega) d omega.

Everything is computed in the scaled detuning u = (omega - omega0) / nu,
where the sinc^2 kernel has lobes of fixed width 2 pi regardless of how
small nu is.  Near resonance each lobe is integrated exactly with fixed-
order Gauss-Legendre nodes.  Beyond the near region the walk continues
over lobe-aligned panels that group geometrically many lobes: there the
kernel is split as sinc^2(u/2) = 2(1 - cos u)/u^2, the smooth 2 R/u^2 part
is integrated exactly, and the oscillatory cosine part - whose panel
boundaries sit on sinc zeros - telescopes to endpoint derivative terms,
centered differences of 2 R/u^2, that are subtracted from the result;
their absolute values, summed panel by panel, go into the error
estimate.  The walk runs to a hard truncation at ``max_omega_factor``
times the cutoff, beyond which a power-law envelope bounds the
remainder; the result is ``converged`` when that bound is below
``rel_tol`` of the rate.

Each point makes one reservoir call.  The geometry is built for one side
of resonance, from u = 0 outwards, and the side below is its mirror image:
the same pieces, each reversed and with u negated.  The mirror is exact,
because the Gauss-Legendre nodes are antisymmetric, their weights
symmetric and sinc^2 even.  The whole side is the same in u for every nu,
so it is built once per configuration (``near_lobes``, ``nodes_per_lobe``):
its panel bounds - its ``near_lobes`` lobe multiples, then every boundary
of the far-field walk up to where the next would overflow - those bounds
shifted by +1/2 and -1/2, the nodes and weights of every panel, and
sinc^2(u/2) at the near-lobe nodes.  Only where each side ends depends on
nu, and one rule cuts it there: the panel that holds the end is cut, and
the panels below it are slices of the built ones; a partial lobe then
reaches omega = 0 or a band edge.  One function, ``_side``, lists a side's
pieces in the order a point gathers them; the side below is that list
reversed piece by piece and negated once gathered, so the full-kernel
nodes of both sides meet in the middle.  The integrand is sinc^2(u/2) R
over those and 2 R/u^2 over each side's walk and shifted bounds, and one
dot product with the weights sums every node the point evaluates.

The closed form (``analytic_rate``) is one Beta-function tail summed over
the reservoir's ``term_powers()`` and normalised by its ``leading_term()``;
a single-term reservoir is the sum with one term.  Its method tag is the
reservoir's ``closed_form``; a reservoir without one has no closed form.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTransitionError, DomainError, NumericalError
from .profile import MeasurementSchedule
from .specfun import beta, sinc_sq

__all__ = [
    "QuadratureConfig",
    "DecayResult",
    "fgr_rate",
    "modified_rate_quadrature",
    "analytic_rate",
]

_TWO_PI = 2.0 * math.pi

METHOD_QUADRATURE = "quadrature"
METHOD_ORACLE = "oracle"
# the closed-form tags are the reservoir classes' ``closed_form``
_METHODS = (METHOD_QUADRATURE, "analytic_simple", "analytic_full", METHOD_ORACLE)


@dataclass(frozen=True)
class QuadratureConfig:
    """Tuning knobs for the overlap-integral quadrature.

    near_lobes       : sinc^2 lobes integrated exactly on each side of resonance
    nodes_per_lobe   : Gauss-Legendre order per lobe / far-field panel
    rel_tol          : ``converged`` threshold on the truncation bound, relative to Gamma
    max_omega_factor : hard truncation at this multiple of the cutoff frequency
    """

    near_lobes: int = 64
    nodes_per_lobe: int = 15
    rel_tol: float = 1e-9
    max_omega_factor: float = 50.0

    def __post_init__(self):
        if self.near_lobes < 1:
            raise DomainError("near_lobes must be >= 1")
        if self.nodes_per_lobe < 5:
            raise DomainError("nodes_per_lobe must be >= 5")
        if not 0.0 < self.rel_tol < 1e-2:
            raise DomainError("rel_tol must lie in (0, 1e-2)")
        if self.max_omega_factor < 10:
            raise DomainError("max_omega_factor must be >= 10")


@dataclass(frozen=True)
class DecayResult:
    """Modified/free rate ratio with provenance and an error estimate.

    gamma0 is in the reservoir's rate units and is physically meaningful
    only when the coupling amplitude was supplied in physical units.
    gamma_resonant / gamma_tail carry the closed-form decomposition when
    the method provides one.
    """

    ratio: float
    gamma0: float
    method: str
    err_estimate: float
    rwa_warning: bool = False
    converged: bool = True
    gamma_resonant: float | None = None
    gamma_tail: float | None = None

    def __post_init__(self):
        if self.method not in _METHODS:
            raise DomainError(f"unknown method tag {self.method!r}")
        if not (self.ratio > 0 and math.isfinite(self.ratio)):
            raise NumericalError(f"computed rate ratio {self.ratio!r} is not positive/finite")
        if self.err_estimate < 0:
            raise NumericalError("error estimate must be non-negative")


def fgr_rate(reservoir, omega0: float) -> float:
    """Free (golden-rule) decay rate 2 pi R(omega0)."""
    if omega0 <= 0:
        raise DomainError("omega0 must be positive")
    return _TWO_PI * float(reservoir(omega0))


_GROWTH = 1.25  # far-field panel width ratio


@functools.lru_cache(maxsize=None)
def _gl_cache(n: int):
    """Gauss-Legendre nodes and weights of order n on [-1, 1], read-only."""
    xi, wi = np.polynomial.legendre.leggauss(n)
    xi.flags.writeable = False
    wi.flags.writeable = False
    return xi, wi


def _panel_nodes(edges: np.ndarray, n: int):
    """Flat GL nodes and weights for each consecutive panel in ``edges``."""
    xi, wi = _gl_cache(n)
    a = edges[:-1][:, None]
    b = edges[1:][:, None]
    nodes = 0.5 * a + 0.5 * b + 0.5 * (b - a) * xi[None, :]
    weights = 0.5 * (b - a) * wi[None, :]
    return nodes.ravel(), weights.ravel()


def _one_panel(a: float, b: float, n: int):
    """GL nodes and weights of the single panel [a, b]."""
    xi, wi = _gl_cache(n)
    half = 0.5 * (b - a)
    return 0.5 * a + 0.5 * b + half * xi, half * wi


@functools.lru_cache(maxsize=8)
def _side_geometry(near_lobes: int, n: int):
    """One side of resonance as far as the float range reaches, read-only.

    Returns ``(edges, plus, minus, u, w, s)``: the panel bounds, those bounds
    shifted by +1/2 and by -1/2, the GL nodes and weights of every panel, and
    sinc^2(u/2) at the near-lobe nodes.  The bounds are the lobe multiples
    2 pi k for k < ``near_lobes``, then the far-field walk from 2 pi
    near_lobes: each boundary is the lobe multiple at or above the larger of
    1.25 times and one lobe beyond the last, until the next would overflow,
    so the walk covers every finite end.
    """
    edges = [_TWO_PI * k for k in range(near_lobes + 1)]
    while True:
        reach = max(edges[-1] * _GROWTH, edges[-1] + _TWO_PI) / _TWO_PI
        nxt = _TWO_PI * math.ceil(reach) if reach < math.inf else math.inf
        if nxt == math.inf:
            break
        edges.append(nxt)
    edges = np.asarray(edges)
    u, w = _panel_nodes(edges, n)
    arrays = (edges, edges + 0.5, edges - 0.5, u, w, sinc_sq(0.5 * u[:near_lobes * n]))
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _side(d: float, near_lobes: int, n: int, aligned: bool, mirrored: bool = False):
    """One side of resonance, from u = 0 out to the distance ``d`` > 0, in the
    order a point gathers it.

    Returns ``(u, w, s, walk, shifted)``.  ``u`` lists the pieces of every u
    at which the side evaluates R; from u = 0 outwards:

    - the full-kernel nodes: the near region up to min(d, 2 pi near_lobes),
      its whole lobes a slice of ``_side_geometry``, then the lobe cut at d
      if d falls inside it; then the partial lobe beyond the walk, if any;
    - the far-field walk's nodes, empty inside the near region.  Beyond it
      the walk is cut at d, or, when ``aligned``, at the last lobe multiple
      at least 1/2 below d, so that its bound shifted by +1/2 stays inside,
      and the partial lobe runs from that multiple to d;
    - the walk's bounds shifted by +1/2, then by -1/2.

    ``w`` lists the weights of the full-kernel and walk nodes, ``s``
    sinc^2(u/2) at the full-kernel nodes, and ``walk`` and ``shifted`` count
    the walk's nodes and shifted bounds.  One rule cuts both regions: the
    panel that holds the end is cut there, and the panels below it are
    whole.  ``mirrored`` gives the side below resonance, its u not yet
    negated: each list in the other order, and each piece reversed.
    """
    edges, plus, minus, u, w, s = _side_geometry(near_lobes, n)
    lobe_k = _TWO_PI * near_lobes
    end = max(lobe_k, _TWO_PI * math.floor((d - 0.5) / _TWO_PI)) if aligned and d > lobe_k else d
    k = int(edges.searchsorted(end))
    whole = min(k - 1, near_lobes) * n
    cut_u, cut_w = _one_panel(float(edges[k - 1]), end, n)
    full = [(u[:whole], w[:whole], s[:whole])]
    if k <= near_lobes:
        full.append((cut_u, cut_w, sinc_sq(0.5 * cut_u)))
    if end < d:
        lobe_u, lobe_w = _one_panel(end, d, n)
        full.append((lobe_u, lobe_w, sinc_sq(0.5 * lobe_u)))
    pieces = [list(p) for p in zip(*full)]
    walk = shifted = 0
    if k > near_lobes:
        pieces[0] += [u[whole:(k - 1) * n], cut_u, plus[near_lobes:k], (end + 0.5,),
                      minus[near_lobes:k], (end - 0.5,)]
        pieces[1] += [w[whole:(k - 1) * n], cut_w]
        walk, shifted = (k - near_lobes) * n, 2 * (k - near_lobes + 1)
    if mirrored:
        pieces = [[p[::-1] for p in block[::-1]] for block in pieces]
    return (*pieces, walk, shifted)


def _telescoped(shifted: np.ndarray) -> tuple[float, float]:
    """The cosine part of a side's far-field walk, and a bound on it.

    ``shifted`` holds the smooth part h = 2 R/u^2 at the panel bounds
    shifted by +1/2, then at those shifted by -1/2; their centered
    differences dh stand for h' at the bounds, which lie on sinc zeros.
    Each panel's integral of h cos u is h' at its upper bound less h' at
    its lower, so the walk's telescopes to dh[-1] - dh[0]; on the side
    below, whose bounds come outermost first with u negated, the same.
    Returns that signed sum and |dh[0]| + |dh[-1]| + sum |dh[k+1] - dh[k]|,
    both zero without panels.
    """
    half = shifted.size // 2
    dh = shifted[:half] - shifted[half:]
    if not dh.size:
        return 0.0, 0.0
    first, last = float(dh[0]), float(dh[-1])
    return last - first, abs(first) + abs(last) + float(np.abs(dh[1:] - dh[:-1]).sum())


def modified_rate_quadrature(reservoir, omega0: float, m: MeasurementSchedule,
                             cfg: QuadratureConfig | None = None) -> DecayResult:
    """Rate ratio Gamma/Gamma0 by direct quadrature of the overlap integral.

    ``reservoir`` is any callable R(omega) acting elementwise on 1-D numpy
    arrays and vanishing fast enough at infinity.  It may expose metadata,
    each item optional:

    - ``omega_x``: the cutoff; the walk is truncated at
      ``max_omega_factor * omega_x`` (else at that multiple of omega0);
    - ``omega_support_end``: where R ends, truncating there with no remainder;
      the walk then ends on a lobe multiple at least 1/2 inside it, where the
      telescoped cosine part reads R on both sides, and the cut lobe is exact;
    - ``mu`` and ``term_powers()``: the rolloff exponent and the
      ``(amplitude, power)`` of every term, which must be integrable and
      give the power-law bound on the integral beyond the truncation.

    Results for nu >= omega0 carry ``rwa_warning=True``: the overlap
    formula itself is outside its rotating-wave validity domain there.
    """
    if cfg is None:
        cfg = QuadratureConfig()
    if omega0 <= 0:
        raise DomainError("omega0 must be positive")
    nu = m.nu

    omega_x = getattr(reservoir, "omega_x", None)
    support_end = getattr(reservoir, "omega_support_end", None)
    mu = getattr(reservoir, "mu", None)
    term_powers = getattr(reservoir, "term_powers", None)
    terms = term_powers() if term_powers is not None and mu is not None else ()
    if terms and 2 * mu <= max(p for _, p in terms) + 1:
        raise DomainError("reservoir is not integrable over [0, inf)")

    gamma0 = fgr_rate(reservoir, omega0)
    if not (gamma0 > 0 and math.isfinite(gamma0)):
        raise DomainError("free rate 2 pi R(omega0) must be positive to form a ratio")

    omega_max = cfg.max_omega_factor * (omega_x if omega_x else omega0)
    truncated_by_support = support_end is not None and support_end < omega_max
    if truncated_by_support:
        omega_max = support_end
    if omega_max <= omega0:
        raise DomainError("truncation frequency must exceed omega0")

    u_min = -omega0 / nu
    u_max = (omega_max - omega0) / nu
    if not (math.isfinite(u_min) and math.isfinite(u_max)):
        raise DomainError(f"measurement rate nu={nu!r} is too small: the integration "
                          "range in units of nu overflows")
    n = cfg.nodes_per_lobe

    # --- both sides in u, one reservoir call --------------------------------
    # The side below, mirrored, then the side above (``_side``): the shifted
    # bounds and walk below, the full-kernel nodes of both sides, then the
    # walk and shifted bounds above.
    u_below, w_below, s_below, walk_below, shifted_below = _side(
        -u_min, cfg.near_lobes, n, aligned=True, mirrored=True)
    u_above, w_above, s_above, walk_above, shifted_above = _side(
        u_max, cfg.near_lobes, n, aligned=truncated_by_support)
    u = np.concatenate(u_below + u_above)
    w = np.concatenate(w_below + w_above)
    mirrored = u[:sum(map(len, u_below))]
    np.negative(mirrored, out=mirrored)
    omega = np.maximum(omega0 + nu * u, 0.0)
    r = reservoir(omega)
    # a callable may return one value for all frequencies, as a flat spectrum can
    if np.shape(r) != omega.shape:
        r = np.broadcast_to(r, omega.shape)
    # the integrand: sinc^2(u/2) R over the full-kernel nodes, 2 R/u^2 over the
    # walks and shifted bounds; far out at tiny nu u^2 overflows, and 2 R/u^2 -> 0
    # is the right limit
    lo, hi = shifted_below + walk_below, u.size - shifted_above - walk_above
    with np.errstate(over="ignore"):
        below, above = (2.0 * r[p] / (u[p] * u[p]) for p in (slice(lo), slice(hi, u.size)))
    f = np.concatenate([below, *s_below, *s_above, above])
    f[lo:hi] *= r[lo:hi]

    cos_below, bound_below = _telescoped(f[:shifted_below])
    cos_above, bound_above = _telescoped(f[u.size - shifted_above:])
    # the walks integrate 2 R/u^2 alone; sinc^2(u/2) takes off its cosine part
    gamma = float(np.dot(f[shifted_below:u.size - shifted_above], w)) - cos_below - cos_above
    if not (gamma > 0 and math.isfinite(gamma)):
        raise NumericalError("quadrature produced a non-positive modified rate")
    beyond = 0.0 if truncated_by_support else _beyond_truncation_bound(
        terms, mu, omega_x, omega0, nu, omega_max)
    err_abs = bound_below + bound_above + beyond

    return DecayResult(
        ratio=gamma / gamma0,
        gamma0=gamma0,
        method=METHOD_QUADRATURE,
        err_estimate=err_abs / gamma + 1e-14,
        rwa_warning=nu >= omega0,
        converged=beyond < cfg.rel_tol * gamma,
    )


def _beyond_truncation_bound(terms, mu, omega_x, omega0: float, nu: float,
                             omega_max: float) -> float:
    """Envelope bound on the overlap integral beyond the truncation point.

    Uses F <= 2 nu / (pi delta^2) and the asymptotic power law of each
    integrable ``(amplitude, power)`` term.  Zero without power-law
    metadata (custom callables).
    """
    if not terms or omega_x is None or omega_max <= 2 * omega0:
        return 0.0
    geom = (1.0 - omega0 / omega_max) ** 2
    bound = 0.0
    for d, p in terms:
        decay = 2 * mu + 1 - p
        bound += 4.0 * nu * d * omega_x ** (2 * mu - p + 1) \
            * omega_max ** (p - 2 * mu - 1) / (decay * geom)
    return bound


@functools.lru_cache(maxsize=64)
def _tail_sum(term_powers: tuple, d_lead: float, mu) -> float:
    """Sum over the terms (D, p) with p > 3/2 of (D/D_lead) B(mu - (p-1)/2, (p-1)/2).

    It does not depend on nu, so it is computed once per reservoir.
    """
    total = 0.0
    for d, power in term_powers:
        if power <= 1.5:  # step-function gate: no tail below quadratic growth
            continue
        total += (d / d_lead) * beta(0.5 * (1 - power) + mu, -0.5 * (1 - power))
    return total


def _tail_excess(reservoir, x: float, y: float) -> float:
    """Measurement-induced excess of Gamma/Gamma0, in units of the free rate.

    x = omega_x/omega0, y = nu/omega0.  Every term (D, p) with p > 3/2
    adds (D/D_lead) B(mu - (p-1)/2, (p-1)/2) relative to the leading term
    (D_lead, eta_lead); the sum is scaled by y x^(eta_lead - 1) / (2 pi).
    A lone eta = 1 term has no excess.
    """
    d_lead, eta_lead = reservoir.leading_term()
    if d_lead == 0.0:
        raise DegenerateTransitionError(
            "the (J_min, r=0) coupling amplitude vanishes, so the leading-order "
            "free rate cannot normalize the closed-form ratio; this degenerate "
            "case has no defined closed form here and is rejected rather than "
            "silently renormalized")
    total = _tail_sum(reservoir.term_powers(), d_lead, reservoir.mu)
    return y * x ** (eta_lead - 1) * total / _TWO_PI


def analytic_rate(reservoir, omega0: float, m: MeasurementSchedule) -> DecayResult:
    """Closed-form DecayResult for a package reservoir in any unit system.

    The resonant part is the free rate and the tail its Beta-function
    excess, valid in the wide-reservoir hierarchy omega_x >> omega0 (a
    warning is issued below a ratio of 10).  Raises
    DegenerateTransitionError when the leading coupling vanishes.
    """
    method = getattr(reservoir, "closed_form", None)
    if method is None:
        raise DomainError("analytic_rate requires a SimpleReservoir or FullReservoir")
    if omega0 <= 0:
        raise DomainError("omega0 must be positive")
    x = reservoir.omega_x / omega0
    if x < 10.0:
        warnings.warn(
            f"cutoff/transition frequency ratio {x:g} < 10: the closed-form "
            "ratio assumes a wide reservoir and may be inaccurate",
            stacklevel=2,
        )
    tail = _tail_excess(reservoir, x, m.nu / omega0)
    gamma0 = fgr_rate(reservoir, omega0)
    return DecayResult(
        ratio=1.0 + tail,
        gamma0=gamma0,
        method=method,
        err_estimate=0.0,
        rwa_warning=m.nu >= omega0,
        gamma_resonant=gamma0,
        gamma_tail=tail * gamma0,
    )
