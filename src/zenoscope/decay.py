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
computed once per order.  What is the same in u for every nu is built once
per configuration: the near-region nodes, weights and sinc^2(u/2) of all
``near_lobes`` whole lobes on each side, and the far-field walk - every
panel boundary it places, up to where the next would overflow, with the
nodes and weights of its panels.  Only where the near region is clipped
and where the walk stops depend on nu, so every point takes its whole near
lobes as a slice of the shared ones and a prefix of the walk, and builds
only its cut panels: the near lobe cut at omega = 0 or at a band edge,
the last far-field panel on each side, the partial lobe at omega = 0 and
the one at a band edge.  The full kernel is carried by the near lobes and
the partial lobes: the whole near lobes take their sinc^2(u/2) from
``_shared_near`` and every cut lobe from ``_cut_lobe``.  The side below
resonance is the mirror image of the walk above, exactly, because the
nodes are antisymmetric and the weights symmetric.  All parts are gathered
into a single array for the reservoir call.  The sums run on the same
numpy calls over the same contiguous lengths as a per-region evaluation
would, so the results do not depend on how the nodes are gathered.

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


def _one_panel(a: float, b: float, n: int):
    """GL nodes and weights of the single panel [a, b]."""
    xi, wi = _gl_cache(n)
    half = 0.5 * (b - a)
    return 0.5 * (a + b) + half * xi, half * wi


@functools.lru_cache(maxsize=8)
def _lobe_edges(start: float) -> np.ndarray:
    """Every far-field panel boundary the walk from ``start`` places, read-only.

    Each boundary is the lobe multiple at or above the larger of 1.25 times
    and one lobe beyond the last; the walk runs until the next boundary
    would overflow, so it covers every finite end.
    """
    out = [start]
    while True:
        reach = max(out[-1] * _GROWTH, out[-1] + _TWO_PI) / _TWO_PI
        nxt = _TWO_PI * math.ceil(reach) if reach < math.inf else math.inf
        if nxt == math.inf:
            break
        out.append(nxt)
    edges = np.asarray(out)
    edges.flags.writeable = False
    return edges


@functools.lru_cache(maxsize=64)
def _lobe_nodes(start: float, n: int, panels: int):
    """GL nodes and weights of the first ``panels`` panels of the walk, read-only."""
    # panels past the walk a point asked for may overflow at the top of the float range
    with np.errstate(over="ignore"):
        u, w = _panel_nodes(_lobe_edges(start)[:panels + 1], n)
    u.flags.writeable = False
    w.flags.writeable = False
    return u, w


def _cut_walk(start: float, end: float, n: int):
    """Walk boundaries from ``start`` cut at ``end`` > start, with their GL nodes.

    The boundaries are the walk's below ``end``, then ``end``; the nodes and
    weights are a prefix of the cached walk's plus the one cut panel.
    """
    edges = _lobe_edges(start)
    k = int(edges.searchsorted(end))
    # cache the next power of two >= k - 1 panels: few sizes, at most twice the need
    u, w = _lobe_nodes(start, n, 1 << max(k - 2, 0).bit_length())
    cut_u, cut_w = _one_panel(edges[k - 1], end, n)
    m = (k - 1) * n
    return (np.concatenate((edges[:k], (end,))), np.concatenate((u[:m], cut_u)),
            np.concatenate((w[:m], cut_w)))


@functools.lru_cache(maxsize=8)
def _shared_near(near_lobes: int, n: int):
    """Nodes, weights and sinc^2(u/2) of the whole near region, read-only.

    These are the ``near_lobes`` whole lobes on each side of resonance;
    every nu takes the whole lobes of its near region as a slice of them.
    """
    u, weights = _panel_nodes(_TWO_PI * np.arange(-near_lobes, near_lobes + 1), n)
    arrays = (u, weights, sinc_sq(0.5 * u))
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _cut_lobe(a: float, b: float, n: int):
    """Nodes, weights and sinc^2(u/2) of the single panel [a, b].

    It builds every full-kernel lobe not sliced from ``_shared_near``: a near
    lobe cut at a clipped end, and the partial lobes at omega = 0 and a band edge.
    """
    u, w = _one_panel(a, b, n)
    return u, w, sinc_sq(0.5 * u)


def _near_region(lo: float, hi: float, near_lobes: int, n: int):
    """Nodes, weights and sinc^2(u/2) of the near region [lo, hi].

    ``-2 pi near_lobes <= lo < hi <= 2 pi near_lobes``.  The panels are
    bounded by np.clip(2 pi k, lo, hi) for k from floor(lo / 2 pi) to
    ceil(hi / 2 pi), repeats dropped.  The whole lobes, from the first
    multiple of 2 pi at or above lo to the last at or below hi, are a slice
    of ``_shared_near``; only the cut lobe at a clipped end is built.
    """
    k_lo = math.floor(lo / _TWO_PI)
    k_hi = math.ceil(hi / _TWO_PI)
    k_a = k_lo if _TWO_PI * k_lo >= lo else k_lo + 1
    k_b = k_hi if _TWO_PI * k_hi <= hi else k_hi - 1
    if k_a > k_b:  # no lobe boundary inside
        return _cut_lobe(lo, hi, n)
    pieces = [tuple(a[(k_a + near_lobes) * n:(k_b + near_lobes) * n]
                    for a in _shared_near(near_lobes, n))]
    if _TWO_PI * k_lo < lo < _TWO_PI * k_a:
        pieces.insert(0, _cut_lobe(lo, _TWO_PI * k_a, n))
    if _TWO_PI * k_b < hi < _TWO_PI * k_hi:
        pieces.append(_cut_lobe(_TWO_PI * k_b, hi, n))
    if len(pieces) == 1:
        return pieces[0]
    return tuple(np.concatenate(arrays) for arrays in zip(*pieces))


def _telescoped(dh: np.ndarray) -> float:
    """Bound on the cosine part of panels whose boundaries give ``dh``.

    ``dh`` is the centered difference of the smooth part 2 R/u^2 at the
    panel boundaries; the cosine integrals telescope to these terms.
    """
    return abs(dh[0]) + abs(dh[-1]) + float(np.abs(dh[1:] - dh[:-1]).sum())


def _reservoir_values(reservoir, omega0: float, nu: float, parts: dict) -> dict:
    """R(max(omega0 + nu u, 0)) for each array u in ``parts``, in one call."""
    omega = np.maximum(omega0 + nu * np.concatenate(list(parts.values())), 0.0)
    values = reservoir(omega)
    # a callable may return one value for all frequencies, as a flat spectrum can
    if np.shape(values) != omega.shape:
        values = np.broadcast_to(values, omega.shape)
    r, start = {}, 0
    for key, u in parts.items():
        r[key] = values[start:start + u.size]
        start += u.size
    return r


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
    if not (math.isfinite(u_min) and math.isfinite(u_max)):
        raise DomainError(f"measurement rate nu={nu!r} is too small: the integration "
                          "range in units of nu overflows")
    if u_max <= u_min:
        raise DomainError("truncation frequency must exceed omega0")
    n = cfg.nodes_per_lobe
    lobe_k = _TWO_PI * cfg.near_lobes

    # --- panels in u -------------------------------------------------------
    # Near resonance every lobe is integrated exactly with the full kernel
    # sinc^2(u/2) R.  Each far-field side takes the smooth part 2 R/u^2 at
    # its nodes and, for the error bound, half a unit either side of its
    # panel bounds; the partial lobes down to omega = 0 and up to a band
    # edge are exact again.  ``kernel`` holds sinc^2(u/2) of those lobes.
    parts, weights, kernel, far = {}, {}, {}, {}
    parts["near"], weights["near"], kernel["near"] = _near_region(
        max(u_min, -lobe_k), min(u_max, lobe_k), cfg.near_lobes, n)
    if u_min < -lobe_k:
        aligned_end = _TWO_PI * math.floor(-u_min / _TWO_PI)
        if aligned_end > lobe_k:
            # the mirror image of the walk above: leggauss nodes are antisymmetric
            # and its weights symmetric, so this is exact
            edges, u, w = _cut_walk(lobe_k, aligned_end, n)
            far["below"] = -edges[::-1], -u[::-1], w[::-1].copy()
        if u_min < -aligned_end:
            parts["tail"], weights["tail"], kernel["tail"] = _cut_lobe(u_min, -aligned_end, n)
    if u_max > lobe_k:
        # where R ends, the walk stops on a lobe multiple; the cut lobe is exact
        top = (max(lobe_k, _TWO_PI * math.floor(u_max / _TWO_PI)) if truncated_by_support
               else u_max)
        if top > lobe_k:
            far["above"] = _cut_walk(lobe_k, top, n)
        if top < u_max:
            parts["edge"], weights["edge"], kernel["edge"] = _cut_lobe(top, u_max, n)
    for side, (edges, u, w) in far.items():
        parts[side], weights[side] = u, w
        parts[side + "+"] = edges + 0.5
        parts[side + "-"] = edges - 0.5

    r = _reservoir_values(reservoir, omega0, nu, parts)
    # far out at tiny nu u^2 overflows, and 2 R/u^2 -> 0 is the right limit
    with np.errstate(over="ignore"):
        smooth = {key: 2.0 * r[key] / (parts[key] * parts[key])
                  for side in far for key in (side, side + "+", side + "-")}

    lobes = {key: float(np.dot(s * r[key], weights[key])) for key, s in kernel.items()}
    gamma_near = lobes["near"]
    err_abs = 0.0

    # --- far region below resonance, then the final partial lobe -------------
    gamma_below = 0.0
    if "below" in far:
        gamma_below += float(np.dot(smooth["below"], weights["below"]))
        err_abs += _telescoped(smooth["below+"] - smooth["below-"])
    if "tail" in lobes:
        gamma_below += lobes["tail"]

    # --- far region above resonance, then the partial lobe at the band edge:
    # stop at the first panel that is small and leaves a small remainder bound
    beyond = 0.0 if truncated_by_support else _beyond_truncation_bound(
        terms, mu, omega_x, omega0, nu, omega_max)
    gamma_above = 0.0
    converged = True
    per_panel = np.empty(0)
    if "above" in far:
        per_panel = (smooth["above"] * weights["above"]).reshape(-1, n).sum(axis=1)
    if "edge" in lobes:
        per_panel = np.append(per_panel, lobes["edge"])
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
            err_abs += _telescoped((smooth["above+"] - smooth["above-"])[: stop + 2])
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
