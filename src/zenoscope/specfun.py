"""Scalar special functions used by the reservoir and rate formulas.

Everything here is pure and stateless: the Euler Beta function evaluated
in log space, a series-protected sinc^2, and Clebsch-Gordan coefficients
via Racah's sum in exact integers.  ``sinc_sq`` also accepts numpy arrays since
the quadrature engine evaluates it on large node batches.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__ = ["beta", "sinc_sq", "clebsch_gordan"]


def beta(a: float, b: float) -> float:
    """Euler Beta function B(a, b) = Gamma(a)Gamma(b)/Gamma(a+b), a, b > 0.

    Computed as exp(lnG(a) + lnG(b) - lnG(a+b)) with ``math.lgamma`` so
    large arguments (high principal quantum numbers) do not overflow.
    """
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise DomainError(f"beta requires finite a > 0 and b > 0, got a={a!r}, b={b!r}")
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


_SINC_SWITCH = 1e-4


def sinc_sq(x):
    """(sin x / x)^2 with the removable singularity handled.

    For |x| < 1e-4 the three-term Taylor series 1 - x^2/3 + 2x^4/45 is used;
    at the switchover the two branches agree to better than 1e-15.
    Accepts scalars or numpy arrays.
    """
    arr = np.asarray(x, dtype=float)
    small = np.abs(arr) < _SINC_SWITCH
    x2 = arr * arr
    series = 1.0 - x2 / 3.0 + (2.0 / 45.0) * x2 * x2
    safe = np.where(small, 1.0, arr)
    direct = np.square(np.sin(arr) / safe)
    out = np.where(small, series, direct)
    return float(out) if arr.ndim == 0 else out


def _as_twice(value: float, name: str) -> int:
    """Return round(2*value), rejecting non-half-integer input."""
    twice = 2.0 * value
    rounded = round(twice)
    if abs(twice - rounded) > 1e-9:
        raise DomainError(f"{name}={value!r} is not a half-integer")
    return int(rounded)


def clebsch_gordan(j1: float, j2: float, m1: float, m2: float,
                   J: float, M: float) -> float:
    """Clebsch-Gordan coefficient <j1 j2 m1 m2 | J M> (Condon-Shortley phase).

    Racah's sum is evaluated in exact integers: the squared coefficient is
    rational, so one square root of its correctly rounded value, signed by
    the sum, is within 1 ulp.  Returns 0.0 when M != m1 + m2 or J violates
    the triangle rule; raises DomainError for arguments that are not
    consistent angular momenta (|m| > j, j - m not an integer, negative j).
    """
    tj1, tj2, tJ = _as_twice(j1, "j1"), _as_twice(j2, "j2"), _as_twice(J, "J")
    tm1, tm2, tM = _as_twice(m1, "m1"), _as_twice(m2, "m2"), _as_twice(M, "M")
    if tj1 < 0 or tj2 < 0 or tJ < 0:
        raise DomainError("angular momenta must be non-negative")
    for tj, tm, jn, mn in ((tj1, tm1, "j1", "m1"), (tj2, tm2, "j2", "m2"),
                           (tJ, tM, "J", "M")):
        if abs(tm) > tj:
            raise DomainError(f"|{mn}| exceeds {jn}")
        if (tj - tm) % 2 != 0:
            raise DomainError(f"{jn} - {mn} is not an integer")

    if tM != tm1 + tm2:
        return 0.0
    if tJ < abs(tj1 - tj2) or tJ > tj1 + tj2:
        return 0.0
    if (tj1 + tj2 - tJ) % 2 != 0:
        return 0.0

    # imported here, so that only a config with d_reduced terms pays for it
    from fractions import Fraction

    # All factorial arguments below are guaranteed integral now.
    def f(twice: int) -> int:
        return math.factorial(twice // 2)

    k_min = max(0, (tj2 - tJ - tm1) // 2, (tj1 + tm2 - tJ) // 2)
    k_max = min((tj1 + tj2 - tJ) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
    total = sum(Fraction((-1) ** k, math.factorial(k) * f(tj1 + tj2 - tJ - 2 * k)
                         * f(tj1 - tm1 - 2 * k) * f(tj2 + tm2 - 2 * k)
                         * f(tJ - tj2 + tm1 + 2 * k) * f(tJ - tj1 - tm2 + 2 * k))
                for k in range(k_min, k_max + 1))
    square = total * total * Fraction(
        (tJ + 1) * f(tj1 + tj2 - tJ) * f(tj1 - tj2 + tJ) * f(-tj1 + tj2 + tJ)
        * f(tJ + tM) * f(tJ - tM) * f(tj1 - tm1) * f(tj1 + tm1) * f(tj2 - tm2) * f(tj2 + tm2),
        f(tj1 + tj2 + tJ + 2))
    return math.sqrt(square) if total >= 0 else -math.sqrt(square)
