"""Reservoir coupling spectra for hydrogen-like multipole transitions.

The electromagnetic reservoir seen by a hydrogen-like transition has a
closed-form coupling spectrum: a power law ``omega**eta`` rolled off by
``[1 + (omega/omega_x)**2]**mu`` at the non-relativistic cutoff
``omega_x``.  A transition with maximal excited-state angular momentum
decaying to 1S produces a single such term (``SimpleReservoir``); the
general case is a sum over photon angular momenta J and radial orders r
(``FullReservoir``) whose coefficient table is a user input.  Both expose
the same metadata: ``mu``, ``omega_x``, ``term_powers()`` (the
``(amplitude, power)`` of every term), ``leading_term()`` (the term
that normalises the closed-form ratio) and ``closed_form``, the method
tag of their closed-form ratio.  Both evaluate through one kernel that
sums ``term_powers()`` under a single shared rolloff; a scalar frequency
takes numpy-scalar arithmetic in the same term order as an array and
returns a float, without building an array.

Dimensionless convention: coupling amplitudes default to ``d = 1`` and the
transition frequency to ``omega0 = 1`` (the modified/free rate ratio does
not depend on either), so built-in transitions carry ``omega_x`` equal to
the cutoff-to-transition frequency ratio.  Absolute rates require
amplitudes in physical units.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

__all__ = [
    "ALPHA",
    "Transition",
    "SimpleReservoir",
    "FullReservoir",
    "hydrogenic_cutoff",
    "cutoff_frequency",
    "frequency_ratio",
    "eta_for",
    "mu_for",
    "nj_for",
    "builtin_transition",
    "builtin_names",
    "load_reservoir_config",
]


# CODATA 2018: the fine-structure constant, the speed of light (m/s) and the
# Bohr radius (m)
ALPHA = 7.2973525693e-3
_SPEED_OF_LIGHT = 2.99792458e8
_BOHR_RADIUS = 5.29177210903e-11

ELECTRIC = "electric"
MAGNETIC = "magnetic"


@dataclass(frozen=True)
class Transition:
    """Quantum numbers and multipole character of a bound-bound transition.

    character : 'electric' or 'magnetic'
    n_g, l_g, m_g / n_e, l_e, m_e : ground / excited quantum numbers
    z : effective nuclear charge (positive real; non-integer values support
        alkali-like ions treated with an effective core charge)
    """

    character: str
    n_g: int
    l_g: int
    m_g: int
    n_e: int
    l_e: int
    m_e: int
    z: float = 1.0

    def __post_init__(self):
        if self.character not in (ELECTRIC, MAGNETIC):
            raise DomainError(f"character must be 'electric' or 'magnetic', got {self.character!r}")
        for n, l, m, tag in ((self.n_g, self.l_g, self.m_g, "ground"),
                             (self.n_e, self.l_e, self.m_e, "excited")):
            if n < 1:
                raise DomainError(f"{tag} state: n must be >= 1")
            if not 0 <= l <= n - 1:
                raise DomainError(f"{tag} state: l must satisfy 0 <= l <= n-1")
            if abs(m) > l:
                raise DomainError(f"{tag} state: |m| must not exceed l")
        if not (self.n_e > self.n_g or (self.n_e == self.n_g and self.l_e != self.l_g)):
            raise DomainError("excited state must lie above the ground state "
                              "(n_e > n_g, or equal n with different l)")
        if abs(self.l_e - self.l_g) < 1:
            raise DomainError("radiative transition requires |l_e - l_g| >= 1")
        if not 0.0 < self.z < math.inf:
            raise DomainError(f"effective charge z must be finite and positive, got {self.z!r}")

    @property
    def epsilon(self) -> int:
        """0 for electric, 1 for magnetic transitions."""
        return 0 if self.character == ELECTRIC else 1

    @property
    def j_min(self) -> int:
        return abs(self.l_e - self.l_g)

    @property
    def j_max(self) -> int:
        return self.l_e + self.l_g


def hydrogenic_cutoff(n_g: int, n_e: int, z: float) -> float:
    """Non-relativistic cutoff frequency (1/n_g + 1/n_e) (c/a0) z, in rad/s.

    Symmetric in the two principal quantum numbers, so it also covers
    level orderings that cannot be expressed as a ``Transition`` (e.g. the
    metastable-D alkali-ion case where the excited n lies below the
    ground n).
    """
    if n_g < 1 or n_e < 1:
        raise DomainError("principal quantum numbers must be >= 1")
    if not 0.0 < z < math.inf:
        raise DomainError(f"effective charge z must be finite and positive, got {z!r}")
    return (1.0 / n_g + 1.0 / n_e) * (_SPEED_OF_LIGHT / _BOHR_RADIUS) * z


def cutoff_frequency(t: Transition) -> float:
    """Cutoff frequency omega_x of a transition, rad/s."""
    return hydrogenic_cutoff(t.n_g, t.n_e, t.z)


def frequency_ratio(t: Transition, alpha: float = ALPHA) -> float:
    """Bohr transition frequency over cutoff frequency, (z alpha / 2)(1/n_g - 1/n_e).

    Requires an emission transition with n_e > n_g, and a finite, positive
    fine-structure constant ``alpha``.
    """
    if not 0.0 < alpha < math.inf:
        raise DomainError(f"alpha must be finite and positive, got {alpha!r}")
    if t.n_e <= t.n_g:
        raise DomainError("frequency_ratio requires n_e > n_g (Bohr emission frequency)")
    return 0.5 * t.z * alpha * (1.0 / t.n_g - 1.0 / t.n_e)


def eta_for(j: int, epsilon: int) -> int:
    """Low-frequency power-law exponent for photon angular momentum j.

    2j - 1 for electric (epsilon=0), 2j + 1 for magnetic (epsilon=1).
    """
    if j < 1:
        raise DomainError("photon angular momentum j must be >= 1")
    if epsilon not in (0, 1):
        raise DomainError("epsilon must be 0 (electric) or 1 (magnetic)")
    return 2 * j - 1 + 2 * epsilon


def mu_for(t: Transition) -> int:
    """Rolloff exponent mu = 2(n_g + n_e - 1)."""
    return 2 * (t.n_g + t.n_e - 1)


def nj_for(t: Transition, j: int) -> int:
    """Last radial order N_J = 2(n_e + n_g) - 4 - j - l_e - l_g - epsilon.

    A negative value means the J-term is absent (empty r-sum), not an error.
    """
    if not t.j_min <= j <= t.j_max:
        raise DomainError(f"j={j} outside the selection-rule range "
                          f"[{t.j_min}, {t.j_max}]")
    return 2 * (t.n_e + t.n_g) - 4 - j - t.l_e - t.l_g - t.epsilon


def _rolloff_sum(omega, term_powers, mu: int, omega_x: float):
    """Sum of d omega_x x^p / (1 + x^2)^mu over ``(d, p)`` in order, x = omega/omega_x.

    A Python or numpy float (or int) takes numpy-scalar arithmetic and gives a
    float; anything else goes through an array.
    """
    if isinstance(omega, (float, int)):
        w = np.float64(omega)
        negative = w < 0
    else:
        w = np.asarray(omega, dtype=float)
        negative = (w < 0).any()
    if negative:
        raise DomainError("reservoir evaluation requires omega >= 0")
    x = w / omega_x
    rolloff = (1.0 + x * x) ** mu
    (d, p), *rest = term_powers
    total = d * omega_x * x ** p / rolloff
    for d, p in rest:
        total = total + d * omega_x * x ** p / rolloff
    return float(total) if w.ndim == 0 else total


@dataclass(frozen=True)
class SimpleReservoir:
    """Single-term coupling spectrum d * omega^eta / omega_x^(eta-1) / [1+(omega/omega_x)^2]^mu.

    Integrability over [0, inf) requires 2 mu > eta + 1.
    """

    closed_form = "analytic_simple"

    d: float
    eta: int
    mu: int
    omega_x: float

    def __post_init__(self):
        # the range first: int() of an infinite or NaN eta would raise
        if not 1 <= self.eta < math.inf or self.eta != int(self.eta):
            raise DomainError("eta must be an integer >= 1")
        # a NaN mu would pass the integrability test below
        if not math.isfinite(self.mu):
            raise DomainError(f"mu must be finite, got {self.mu!r}")
        if 2 * self.mu <= self.eta + 1:
            raise DomainError("integrability requires 2*mu > eta + 1")
        if not 0.0 < self.omega_x < math.inf:
            raise DomainError("omega_x must be finite and positive")
        if not 0.0 < self.d < math.inf:
            raise DomainError("coupling amplitude d must be finite and positive")

    def eval(self, omega):
        """Coupling spectrum at omega (scalar or array), omega >= 0."""
        return _rolloff_sum(omega, self.term_powers(), self.mu, self.omega_x)

    __call__ = eval

    def term_powers(self) -> tuple[tuple[float, int], ...]:
        """(amplitude, power) of the one term."""
        return ((self.d, self.eta),)

    def leading_term(self) -> tuple[float, int]:
        """(amplitude, power) of the term that normalises the closed form."""
        return self.d, self.eta


@dataclass(frozen=True)
class FullReservoir:
    """Multi-term spectrum: sum over (J, r) of D_Jr omega^(eta_J + 2r) terms.

    terms    : sequence of (J, r, D_Jr) with D_Jr in the same units as a
               SimpleReservoir amplitude
    epsilon  : 0 electric / 1 magnetic
    mu       : shared rolloff exponent
    omega_x  : cutoff frequency
    j_range  : (J_min, J_max) selection-rule window
    degenerate_ok : allow the (J_min, r=0) term to be absent or zero

    Radial-order bounds r <= N_J depend on the quantum numbers and are
    enforced by :meth:`from_transition`; directly constructed instances
    check only what the fields themselves allow.
    """

    closed_form = "analytic_full"

    terms: tuple[tuple[int, int, float], ...]
    epsilon: int
    mu: int
    omega_x: float
    j_range: tuple[int, int]
    degenerate_ok: bool = field(default=False, compare=False)

    def __post_init__(self):
        if self.epsilon not in (0, 1):
            raise DomainError("epsilon must be 0 or 1")
        # a NaN mu would pass every integrability test below
        if not math.isfinite(self.mu):
            raise DomainError(f"mu must be finite, got {self.mu!r}")
        if not 0.0 < self.omega_x < math.inf:
            raise DomainError("omega_x must be finite and positive")
        terms = tuple((_whole(j, "J"), _whole(r, "r"), float(d)) for j, r, d in self.terms)
        object.__setattr__(self, "terms", terms)
        if not terms:
            raise DomainError("at least one (J, r, D) term is required")
        j_lo, j_hi = self.j_range
        if j_lo < 1 or j_hi < j_lo:
            raise DomainError(f"invalid j_range {self.j_range}")
        for j, r, d in terms:
            if not j_lo <= j <= j_hi:
                raise DomainError(f"term J={j} outside selection-rule range {self.j_range}")
            if r < 0:
                raise DomainError("radial order r must be >= 0")
            if not math.isfinite(d):
                raise DomainError(f"term (J={j}, r={r}) amplitude D must be finite, got {d!r}")
            if 2 * self.mu <= eta_for(j, self.epsilon) + 2 * r + 1:
                raise DomainError(f"term (J={j}, r={r}) is not integrable for mu={self.mu}")
        if not self.degenerate_ok and self.leading_term()[0] == 0.0:
            raise DomainError("no nonzero (J_min, r=0) term; pass degenerate_ok=True "
                              "to build a reservoir with a vanishing leading coupling")
        # built once: every eval and every metadata read returns this tuple
        object.__setattr__(self, "_term_powers", tuple(
            (d, eta_for(j, self.epsilon) + 2 * r) for j, r, d in terms))

    @classmethod
    def from_transition(cls, t: Transition,
                        terms: list[tuple[int, int, float]] | None = None,
                        omega_x: float | None = None,
                        degenerate_ok: bool = False) -> "FullReservoir":
        """Build from quantum numbers, enforcing the selection rules.

        With ``terms`` omitted, the single leading term (J_min, r=0, D=1) is
        used.  ``omega_x`` defaults to the physical cutoff in rad/s; pass a
        dimensionless value (e.g. omega_x/omega0) to work in scaled units.
        """
        if omega_x is None:
            omega_x = cutoff_frequency(t)
        if terms is None:
            terms = [(t.j_min, 0, 1.0)]
        mu = mu_for(t)
        for j, r, _ in terms:
            n_j = nj_for(t, j)  # also validates the J window
            if n_j < 0:
                raise DomainError(f"J={j} term is absent for this transition (N_J < 0)")
            if r > n_j:
                raise DomainError(f"radial order r={r} exceeds N_J={n_j} for J={j}")
        return cls(terms=tuple(terms), epsilon=t.epsilon, mu=mu,
                   omega_x=omega_x, j_range=(t.j_min, t.j_max),
                   degenerate_ok=degenerate_ok)

    def leading_term(self) -> tuple[float, int]:
        """(D, eta_Jmin) of the (J_min, r=0) term, with D = 0.0 if absent."""
        j_min = self.j_range[0]
        return (sum(d for j, r, d in self.terms if j == j_min and r == 0),
                eta_for(j_min, self.epsilon))

    def term_powers(self) -> tuple[tuple[float, int], ...]:
        """(amplitude, eta_J + 2r) for every term."""
        return self._term_powers

    def eval(self, omega):
        """Coupling spectrum at omega (scalar or array), omega >= 0."""
        return _rolloff_sum(omega, self.term_powers(), self.mu, self.omega_x)

    __call__ = eval


# Quantum numbers of the three reference electric transitions of hydrogen
# (maximal l_e, decay to 1S); they fix eta and mu and regenerate table 1.
BUILTIN_QUANTUM_NUMBERS: dict[str, Transition] = {
    "2P-1S": Transition(ELECTRIC, 1, 0, 0, 2, 1, 0, 1.0),
    "3D-1S": Transition(ELECTRIC, 1, 0, 0, 3, 2, 0, 1.0),
    "4F-1S": Transition(ELECTRIC, 1, 0, 0, 4, 3, 0, 1.0),
}

# Tabulated cutoff-to-transition frequency ratio of each builtin.
_BUILTIN_OMEGA_X = {"2P-1S": 548.1, "3D-1S": 411.1, "4F-1S": 365.4}


def builtin_names() -> list[str]:
    return list(BUILTIN_QUANTUM_NUMBERS)


def builtin_transition(name: str) -> tuple[SimpleReservoir, float]:
    """Reference reservoir for a named transition, in dimensionless mode.

    Returns ``(reservoir, omega0)`` with d = 1, omega0 = 1, eta and mu from
    the quantum numbers and omega_x set to the tabulated cutoff-to-transition
    frequency ratio.
    """
    try:
        t = BUILTIN_QUANTUM_NUMBERS[name]
    except KeyError:
        raise DomainError(
            f"unknown transition {name!r}; valid names: {', '.join(builtin_names())}"
        ) from None
    return SimpleReservoir(d=1.0, eta=eta_for(t.j_min, t.epsilon), mu=mu_for(t),
                           omega_x=_BUILTIN_OMEGA_X[name]), 1.0


def _whole(value, name: str) -> int:
    """``value`` as an int; a bool, a string or a fraction, which int() would
    take or truncate, is a DomainError naming ``name``."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) or (
            isinstance(value, float) and value.is_integer())):
        raise DomainError(f"{name} must be a whole number, got {value!r}")
    return int(value)


def _field(where: str, entry: dict, key: str, kind=None, default=None):
    """``kind(entry[key])``, or ``entry[key]`` without ``kind``.

    An absent key gives ``default``, or without one a DomainError naming the
    key; so does a value that ``kind`` (``_whole`` for int) rejects.
    """
    if key not in entry:
        if default is None:
            raise DomainError(f"{where} is missing key {key!r}")
        return default
    if kind is None:
        return entry[key]
    if kind is int:
        return _whole(entry[key], f"{where} key {key!r}")
    try:
        return kind(entry[key])
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{where} key {key!r} must be a finite number, "
                          f"got {entry[key]!r}") from None


def _term_amplitude(entry: dict, t: Transition, j: int) -> float:
    """Coupling amplitude of one config term.

    Either a ready-made ``D`` or a reduced amplitude ``d_reduced`` to be
    dressed with the squared angular coupling factor
    <l_g, J, m_g, M | l_g, J, l_e, m_e>^2 of the transition (the photon
    magnetic number M is fixed to m_e - m_g by the selection rules).
    """
    if "D" in entry:
        return _field("reservoir term", entry, "D", float)
    if "d_reduced" in entry:
        from .specfun import clebsch_gordan

        factor = clebsch_gordan(t.l_g, j, t.m_g, t.m_e - t.m_g, t.l_e, t.m_e)
        return _field("reservoir term", entry, "d_reduced", float) * factor ** 2
    raise DomainError("each reservoir term needs a 'D' or 'd_reduced' amplitude")


def load_reservoir_config(source):
    """Build a reservoir from a JSON config (path, file object, or dict).

    Expected keys: character, n_g, l_g, m_g, n_e, l_e, m_e, z and an
    optional ``terms`` list of {"J": .., "r": .., "D": ..} entries (a term
    may carry "d_reduced" instead of "D"; see :func:`_term_amplitude`).
    Without ``terms``, the simplified single-term reservoir with D = 1 is
    built from the quantum numbers.  Returns ``(reservoir, omega0)`` in
    dimensionless mode (omega0 = 1, omega_x = cutoff/transition frequency
    ratio).  A file that cannot be read or is not JSON, and a config that
    is not an object, lacks a key or holds a value of the wrong type, are
    DomainErrors.
    """
    if isinstance(source, dict):
        cfg = source
    else:
        name = getattr(source, "name", source)
        try:
            if hasattr(source, "read"):
                cfg = json.load(source)
            else:
                with open(source, "r", encoding="utf-8") as fh:
                    cfg = json.load(fh)
        except OSError as exc:
            raise DomainError(f"cannot read reservoir config {name}: {exc.strerror}") from None
        except ValueError as exc:  # not JSON, or not UTF-8
            raise DomainError(f"reservoir config {name} is not JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise DomainError(f"reservoir config must be a JSON object, not {type(cfg).__name__}")

    where = "reservoir config"
    t = Transition(
        _field(where, cfg, "character"),
        *(_field(where, cfg, key, int) for key in ("n_g", "l_g", "m_g", "n_e", "l_e", "m_e")),
        z=_field(where, cfg, "z", float, 1.0),
    )

    x = 1.0 / frequency_ratio(t)
    raw_terms = cfg.get("terms")
    if not raw_terms:
        eta = eta_for(t.j_min, t.epsilon)
        return SimpleReservoir(d=1.0, eta=eta, mu=mu_for(t), omega_x=x), 1.0
    if not (isinstance(raw_terms, list) and all(isinstance(e, dict) for e in raw_terms)):
        raise DomainError("reservoir config key 'terms' must be a list of objects")
    terms = []
    for e in raw_terms:
        j = _field("reservoir term", e, "J", int)
        terms.append((j, _field("reservoir term", e, "r", int, 0), _term_amplitude(e, t, j)))
    return FullReservoir.from_transition(t, terms=terms, omega_x=x), 1.0
