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
nodes and weights of its panels, their mirror image below resonance, and
the boundaries shifted by +1/2 and -1/2 on both sides.  The mirror image
is exact, because the nodes are antisymmetric and the weights symmetric.
Only where the near region is clipped and where the walk stops depend on
nu, so every point takes its whole near lobes as a slice of the shared
ones and each walk as a slice of the cached one, and builds only its cut
panels: the near lobe cut at omega = 0 or at a band edge, the last
far-field panel on each side, the partial lobe at omega = 0 and the one
at a band edge.  A point gathers its nodes in three blocks: the
full-kernel block (the near lobes and the partial lobes, with sinc^2(u/2)
from ``_shared_near`` or ``_cut_lobe``), the far-field nodes below and
above resonance, and the shifted boundaries.  sinc^2(u/2) R runs once over
the first block and 2 R/u^2 once over the other two; each part then
reduces over its own contiguous slice with the same numpy call over the
same length as a per-region evaluation would, so the results do not
depend on how the nodes are gathered.  The stopping rule scans the panel
sums in Python floats, which add as np.cumsum does.

The closed form (``analytic_rate``) is one Beta-function tail summed over
the reservoir's ``term_powers()`` and normalised by its ``leading_term()``;
a single-term reservoir is the sum with one term.  Its method tag is the
reservoir's ``closed_form``; a reservoir without one has no closed form.
"""

from __future__ import annotations

import functools
import itertools
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


@functools.lru_cache(maxsize=64)
def _mirrored_lobe_nodes(start: float, n: int, panels: int):
    """The nodes and weights of ``_lobe_nodes`` mirrored below resonance, read-only.

    They are -u[::-1] and w[::-1]: the GL nodes and weights of the mirrored
    panels, exactly, because leggauss nodes are antisymmetric and its
    weights symmetric.
    """
    u, w = _lobe_nodes(start, n, panels)
    arrays = (-u[::-1], w[::-1].copy())
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=8)
def _shifted_edges(start: float):
    """The walk's boundaries shifted by +1/2 and -1/2, then mirrored and shifted, read-only.

    Returns ``(edges + 0.5, edges - 0.5, -edges[::-1] + 0.5, -edges[::-1] - 0.5)``
    for ``edges = _lobe_edges(start)``.
    """
    edges = _lobe_edges(start)
    mirrored = -edges[::-1]
    arrays = (edges + 0.5, edges - 0.5, mirrored + 0.5, mirrored - 0.5)
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _cut_walk(start: float, end: float, n: int, mirrored: bool = False):
    """The walk from ``start`` cut at ``end`` > start, as pieces in increasing u.

    Returns lists of the pieces of its nodes, of its weights, and of its
    boundaries shifted by +1/2 and by -1/2.  The boundaries are the walk's
    below ``end``, then ``end``; the nodes and weights are a prefix of the
    cached walk's plus the one cut panel.  ``mirrored`` gives the walk from
    -end to -start instead, from the mirrored caches.
    """
    edges = _lobe_edges(start)
    k = int(edges.searchsorted(end))
    # cache the next power of two >= k - 1 panels: few sizes, at most twice the need
    panels = 1 << max(k - 2, 0).bit_length()
    m = (k - 1) * n
    plus, minus, mirrored_plus, mirrored_minus = _shifted_edges(start)
    if not mirrored:
        u, w = _lobe_nodes(start, n, panels)
        cut_u, cut_w = _one_panel(edges[k - 1], end, n)
        return ([u[:m], cut_u], [w[:m], cut_w], [plus[:k], (end + 0.5,)],
                [minus[:k], (end - 0.5,)])
    u, w = _mirrored_lobe_nodes(start, n, panels)
    # the cut panel built on its mirrored bounds has the bits of the mirrored cut panel
    cut_u, cut_w = _one_panel(-end, -edges[k - 1], n)
    first, skip = u.size - m, edges.size - k
    return ([cut_u, u[first:]], [cut_w, w[first:]], [(-end + 0.5,), mirrored_plus[skip:]],
            [(-end - 0.5,), mirrored_minus[skip:]])


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
    """Nodes, weights and sinc^2(u/2) of the near region [lo, hi], as a list of pieces.

    ``-2 pi near_lobes <= lo < hi <= 2 pi near_lobes``.  The panels are
    bounded by np.clip(2 pi k, lo, hi) for k from floor(lo / 2 pi) to
    ceil(hi / 2 pi), repeats dropped.  The whole lobes, from the first
    multiple of 2 pi at or above lo to the last at or below hi, are a slice
    of ``_shared_near``; only the cut lobe at a clipped end is built.  Each
    piece is a ``(u, weights, sinc^2(u/2))`` triple, in increasing u.
    """
    k_lo = math.floor(lo / _TWO_PI)
    k_hi = math.ceil(hi / _TWO_PI)
    k_a = k_lo if _TWO_PI * k_lo >= lo else k_lo + 1
    k_b = k_hi if _TWO_PI * k_hi <= hi else k_hi - 1
    if k_a > k_b:  # no lobe boundary inside
        return [_cut_lobe(lo, hi, n)]
    pieces = [tuple(a[(k_a + near_lobes) * n:(k_b + near_lobes) * n]
                    for a in _shared_near(near_lobes, n))]
    if _TWO_PI * k_lo < lo < _TWO_PI * k_a:
        pieces.insert(0, _cut_lobe(lo, _TWO_PI * k_a, n))
    if _TWO_PI * k_b < hi < _TWO_PI * k_hi:
        pieces.append(_cut_lobe(_TWO_PI * k_b, hi, n))
    return pieces


def _telescoped(dh: np.ndarray) -> float:
    """Bound on the cosine part of panels whose boundaries give ``dh``.

    ``dh`` is the centered difference of the smooth part 2 R/u^2 at the
    panel boundaries; the cosine integrals telescope to these terms.
    """
    return abs(dh[0]) + abs(dh[-1]) + float(np.abs(dh[1:] - dh[:-1]).sum())


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
    # sinc^2(u/2) R, and so are the partial lobes down to omega = 0 (``tail``)
    # and up to a band edge (``edge``).  Each far-field walk takes the smooth
    # part 2 R/u^2 at its nodes and, for the error bound, half a unit either
    # side of its panel bounds.
    full = _near_region(max(u_min, -lobe_k), min(u_max, lobe_k), cfg.near_lobes, n)
    tail = edge = below = above = None
    if u_min < -lobe_k:
        aligned_end = _TWO_PI * math.floor(-u_min / _TWO_PI)
        if aligned_end > lobe_k:
            below = _cut_walk(lobe_k, aligned_end, n, mirrored=True)
        if u_min < -aligned_end:
            tail = _cut_lobe(u_min, -aligned_end, n)
    if u_max > lobe_k:
        # where R ends, the walk stops on a lobe multiple; the cut lobe is exact
        top = (max(lobe_k, _TWO_PI * math.floor(u_max / _TWO_PI)) if truncated_by_support
               else u_max)
        if top > lobe_k:
            above = _cut_walk(lobe_k, top, n)
        if top < u_max:
            edge = _cut_lobe(top, u_max, n)
    n_near = sum(piece[0].size for piece in full)
    full += [lobe for lobe in (tail, edge) if lobe is not None]
    n_full = n_near + n * ((tail is not None) + (edge is not None))
    walk_u, walk_w, plus, minus = ([a for walk in (below, above) if walk for a in walk[i]]
                                   for i in range(4))
    n_below = sum(a.size for a in below[0]) if below else 0
    bounds_below = n_below // n + 1 if below else 0

    # --- one reservoir call over three blocks: the full-kernel nodes (near,
    # tail, edge), the far-field nodes (below, above) and the shifted panel
    # bounds (every +1/2 one, then every -1/2 one); each part then reduces
    # over its own contiguous slice with the same numpy call as on its own
    u = np.concatenate([piece[0] for piece in full] + walk_u + plus + minus)
    w = np.concatenate([piece[1] for piece in full] + walk_w)
    omega = np.maximum(omega0 + nu * u, 0.0)
    r = reservoir(omega)
    # a callable may return one value for all frequencies, as a flat spectrum can
    if np.shape(r) != omega.shape:
        r = np.broadcast_to(r, omega.shape)
    kr = np.concatenate([piece[2] for piece in full]) * r[:n_full]
    far_u, far_w = u[n_full:], w[n_full:]
    # far out at tiny nu u^2 overflows, and 2 R/u^2 -> 0 is the right limit
    with np.errstate(over="ignore"):
        smooth = 2.0 * r[n_full:] / (far_u * far_u)
    n_far = far_w.size
    bounds = (smooth.size - n_far) // 2
    dh = smooth[n_far:n_far + bounds] - smooth[n_far + bounds:]

    gamma_near = float(np.dot(kr[:n_near], w[:n_near]))
    err_abs = 0.0

    # --- far region below resonance, then the final partial lobe -------------
    gamma_below = 0.0
    if below is not None:
        gamma_below += float(np.dot(smooth[:n_below], far_w[:n_below]))
        err_abs += _telescoped(dh[:bounds_below])
    if tail is not None:
        gamma_below += float(np.dot(kr[n_near:n_near + n], w[n_near:n_near + n]))

    # --- far region above resonance, then the partial lobe at the band edge:
    # stop at the first panel that is small and leaves a small remainder bound
    beyond = 0.0 if truncated_by_support else _beyond_truncation_bound(
        terms, mu, omega_x, omega0, nu, omega_max)
    gamma_above = 0.0
    converged = True
    panels = []
    if above is not None:
        panels = (smooth[n_below:n_far] * far_w[n_below:]).reshape(-1, n).sum(axis=1).tolist()
    if edge is not None:
        panels.append(float(np.dot(kr[n_full - n:], w[n_full - n:n_full])))
    if panels:
        # sequential sums, as np.cumsum adds
        prefix = list(itertools.accumulate(panels))
        base = gamma_near + gamma_below
        stop = len(panels) - 1
        for i, (panel, summed) in enumerate(zip(panels, prefix)):
            threshold = cfg.rel_tol * (base + summed)
            if panel < threshold and 2.0 * (prefix[-1] - summed) + beyond < threshold:
                stop = i
                break
        gamma_above = prefix[stop]
        remainder_bound = 2.0 * (prefix[-1] - gamma_above) + beyond
        err_abs += remainder_bound
        if stop == len(panels) - 1 and remainder_bound >= cfg.rel_tol * (base + gamma_above):
            converged = False
        if above is not None:
            err_abs += _telescoped(dh[bounds_below:bounds_below + stop + 2])
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
