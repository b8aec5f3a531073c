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
boundaries sit on sinc zeros - telescopes to endpoint derivative terms
that are added to the error estimate instead of the result.  The walk
stops once a panel contributes less than ``rel_tol`` of the running sum
and the inverse-square envelope bound on the remainder is equally small;
a hard truncation with a power-law remainder bound applies at
``max_omega_factor`` times the cutoff.

Each point makes one reservoir call.  The Gauss-Legendre nodes are
computed once per order, and the unclipped near-region nodes, weights and
sinc^2(u/2) - the same in u for every nu - once per configuration; the
far-field panels and the partial lobe at omega = 0 are gathered with them
into a single array.  The sums run on the same numpy calls over the same
contiguous lengths as a per-region evaluation would, so the results do
not depend on how the nodes are gathered.

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
    rel_tol          : relative stopping threshold for the far-field walk
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
    nodes = 0.5 * (a + b) + 0.5 * (b - a) * xi[None, :]
    weights = 0.5 * (b - a) * wi[None, :]
    return nodes.ravel(), weights.ravel()


def _aligned_geometric(start: float, end: float, growth: float) -> np.ndarray:
    """Panel boundaries from start to end, on lobe multiples except ``end``."""
    out = [start]
    cur = start
    while cur < end:
        nxt = _TWO_PI * math.ceil(max(cur * growth, cur + _TWO_PI) / _TWO_PI)
        if nxt >= end:
            out.append(end)
            break
        out.append(nxt)
        cur = nxt
    return np.asarray(out)


def _near_edges(lo: float, hi: float) -> np.ndarray:
    """Lobe boundaries of the near region [lo, hi]."""
    k_lo = math.floor(lo / _TWO_PI)
    k_hi = math.ceil(hi / _TWO_PI)
    edges = np.clip(_TWO_PI * np.arange(k_lo, k_hi + 1), lo, hi)
    # ascending, so dropping repeats needs no np.unique, whose first call
    # imports numpy.ma (about 1.6 MB resident)
    return edges[np.append(True, edges[1:] != edges[:-1])]


@functools.lru_cache(maxsize=8)
def _shared_near(near_lobes: int, n: int):
    """Nodes, weights and sinc^2(u/2) of the unclipped near region, read-only.

    Every nu whose integration range covers all ``near_lobes`` lobes on both
    sides of resonance integrates exactly these nodes.
    """
    lobe_k = _TWO_PI * near_lobes
    u, weights = _panel_nodes(_near_edges(-lobe_k, lobe_k), n)
    arrays = (u, weights, sinc_sq(0.5 * u))
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _telescoped(dh: np.ndarray) -> float:
    """Bound on the cosine part of panels whose boundaries give ``dh``.

    ``dh`` is the centered difference of the smooth part 2 R/u^2 at the
    panel boundaries; the cosine integrals telescope to these terms.
    """
    return abs(dh[0]) + abs(dh[-1]) + float(np.abs(np.diff(dh)).sum())


def _reservoir_values(reservoir, omega0: float, nu: float, parts: list) -> list:
    """R(max(omega0 + nu u, 0)) for each array u in ``parts``, in one call."""
    omega = np.maximum(omega0 + nu * np.concatenate(parts), 0.0)
    # a callable may return one value for all frequencies, as a flat spectrum can
    values = np.broadcast_to(reservoir(omega), omega.shape)
    return np.split(values, np.cumsum([u.size for u in parts])[:-1])


def modified_rate_quadrature(reservoir, omega0: float, m: MeasurementSchedule,
                             cfg: QuadratureConfig | None = None) -> DecayResult:
    """Rate ratio Gamma/Gamma0 by direct quadrature of the overlap integral.

    ``reservoir`` is any callable R(omega) acting elementwise on 1-D numpy
    arrays and vanishing fast enough at infinity.  It may expose metadata,
    each item optional:

    - ``omega_x``: the cutoff; the walk is truncated at
      ``max_omega_factor * omega_x`` (else at that multiple of omega0);
    - ``omega_support_end``: where R ends, truncating there with no remainder;
      the walk then ends on a lobe multiple and the cut lobe is exact;
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

    u_min = -omega0 / nu
    u_max = (omega_max - omega0) / nu
    if u_max <= u_min:
        raise DomainError("truncation frequency must exceed omega0")
    n = cfg.nodes_per_lobe
    lobe_k = _TWO_PI * cfg.near_lobes

    # --- panels in u -------------------------------------------------------
    # Near resonance every lobe is integrated exactly with the full kernel
    # sinc^2(u/2) R.  Each far-field side takes the smooth part 2 R/u^2 at
    # its nodes and, for the error bound, half a unit either side of its
    # panel bounds; the partial lobe down to omega = 0 is exact again.
    if u_min > -lobe_k or u_max < lobe_k:
        near_u, near_w = _panel_nodes(_near_edges(max(u_min, -lobe_k), min(u_max, lobe_k)), n)
        near_s = sinc_sq(0.5 * near_u)
    else:
        near_u, near_w, near_s = _shared_near(cfg.near_lobes, n)
    parts = {"near": near_u}
    weights = {}
    far = {}
    if u_min < -lobe_k:
        aligned_end = _TWO_PI * math.floor(-u_min / _TWO_PI)
        if aligned_end > lobe_k:
            far["below"] = -_aligned_geometric(lobe_k, aligned_end, _GROWTH)[::-1]
        if u_min < -aligned_end:
            parts["tail"], weights["tail"] = _panel_nodes(np.array([u_min, -aligned_end]), n)
    if u_max > lobe_k:
        # where R ends, the walk stops on a lobe multiple; the cut lobe is exact
        top = (max(lobe_k, _TWO_PI * math.floor(u_max / _TWO_PI)) if truncated_by_support
               else u_max)
        if top > lobe_k:
            far["above"] = _aligned_geometric(lobe_k, top, _GROWTH)
        if top < u_max:
            parts["edge"], weights["edge"] = _panel_nodes(np.array([top, u_max]), n)
    for side, edges in far.items():
        parts[side], weights[side] = _panel_nodes(edges, n)
        parts[side + "+"] = edges + 0.5
        parts[side + "-"] = edges - 0.5

    r = dict(zip(parts, _reservoir_values(reservoir, omega0, nu, list(parts.values()))))

    def smooth(key):
        return 2.0 * r[key] / (parts[key] * parts[key])

    gamma_near = float(np.dot(near_s * r["near"], near_w))
    err_abs = 0.0

    # --- far region below resonance, then the final partial lobe -------------
    gamma_below = 0.0
    if "below" in far:
        gamma_below += float(np.dot(smooth("below"), weights["below"]))
        err_abs += _telescoped(smooth("below+") - smooth("below-"))
    if "tail" in parts:
        gamma_below += float(np.dot(sinc_sq(0.5 * parts["tail"]) * r["tail"], weights["tail"]))

    # --- far region above resonance, then the partial lobe at the band edge:
    # stop at the first panel that is small and leaves a small remainder bound
    beyond = 0.0 if truncated_by_support else _beyond_truncation_bound(
        terms, mu, omega_x, omega0, nu, omega_max)
    gamma_above = 0.0
    converged = True
    per_panel = np.empty(0)
    if "above" in far:
        per_panel = (smooth("above") * weights["above"]).reshape(-1, n).sum(axis=1)
    if "edge" in parts:
        per_panel = np.append(per_panel, np.dot(sinc_sq(0.5 * parts["edge"]) * r["edge"],
                                                weights["edge"]))
    if per_panel.size:
        prefix = np.cumsum(per_panel)
        suffix = prefix[-1] - prefix
        base = gamma_near + gamma_below
        running = base + prefix
        small = ((per_panel < cfg.rel_tol * running)
                 & (2.0 * suffix + beyond < cfg.rel_tol * running))
        stop = int(np.argmax(small)) if small.any() else len(per_panel) - 1
        gamma_above = float(prefix[stop])
        remainder_bound = 2.0 * float(suffix[stop]) + beyond
        err_abs += remainder_bound
        if stop == len(per_panel) - 1 and remainder_bound >= cfg.rel_tol * (base + prefix[stop]):
            converged = False
        if "above" in far:
            err_abs += _telescoped((smooth("above+") - smooth("above-"))[: stop + 2])
    else:
        err_abs += beyond

    gamma = gamma_near + gamma_below + gamma_above
    if not (gamma > 0 and math.isfinite(gamma)):
        raise NumericalError("quadrature produced a non-positive modified rate")

    return DecayResult(
        ratio=gamma / gamma0,
        gamma0=gamma0,
        method=METHOD_QUADRATURE,
        err_estimate=err_abs / gamma + 1e-14,
        rwa_warning=nu >= omega0,
        converged=converged,
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
    total = 0.0
    for d, power in reservoir.term_powers():
        if power <= 1.5:  # step-function gate: no tail below quadratic growth
            continue
        total += (d / d_lead) * beta(0.5 * (1 - power) + reservoir.mu, -0.5 * (1 - power))
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
