"""Special-function tests against stdlib and independent recursion oracles."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from zenoscope.errors import DomainError
from zenoscope.specfun import beta, clebsch_gordan, sinc_sq


# ---------------------------------------------------------------------------
# beta
# ---------------------------------------------------------------------------

def test_beta_examples():
    assert beta(5.0, 1.0) == pytest.approx(0.2, rel=1e-12)
    # B(6, 2) from exact factorials: 5! 1! / 7!
    exact = math.factorial(5) * math.factorial(1) / math.factorial(7)
    assert beta(6.0, 2.0) == pytest.approx(exact, rel=1e-12)
    # B(1/2, 1/2) = Gamma(1/2)^2 = pi
    assert beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-12)


def test_beta_matches_exact_factorials():
    # every tail term with odd power p >= 3 and mu <= 10 evaluates
    # B(mu - (p-1)/2, (p-1)/2): integer a, b >= 1 with a + b <= 10, where
    # B(a, b) = (a-1)! (b-1)! / (a+b-1)! exactly
    for b in range(1, 10):
        for a in range(1, 11 - b):
            exact = Fraction(math.factorial(a - 1) * math.factorial(b - 1),
                             math.factorial(a + b - 1))
            rel = abs(Fraction(beta(float(a), float(b))) - exact) / exact
            assert rel <= 5e-15, (a, b, float(rel))


def test_beta_symmetry_grid():
    grid = np.arange(0.5, 20.5, 0.5)
    for a in grid[::3]:
        for b in grid[::3]:
            assert beta(float(a), float(b)) == pytest.approx(
                beta(float(b), float(a)), rel=1e-12)


def test_beta_recurrence_grid():
    # B(a+1, b) = B(a, b) a / (a + b)
    grid = np.arange(0.5, 20.5, 0.5)
    for a in grid:
        for b in grid[::2]:
            a_, b_ = float(a), float(b)
            assert beta(a_ + 1.0, b_) == pytest.approx(
                beta(a_, b_) * a_ / (a_ + b_), rel=1e-12)


@pytest.mark.parametrize("a,b", [(0.0, 1.0), (1.0, 0.0), (-2.0, 3.0), (math.inf, 1.0),
                                 (1.0, math.nan)])
def test_beta_domain(a, b):
    with pytest.raises(DomainError):
        beta(a, b)


# ---------------------------------------------------------------------------
# sinc_sq
# ---------------------------------------------------------------------------

def test_sinc_sq_special_points():
    assert sinc_sq(0.0) == 1.0
    assert sinc_sq(math.pi) == pytest.approx(0.0, abs=1e-30)
    assert sinc_sq(math.pi / 2) == pytest.approx(4.0 / math.pi ** 2, rel=1e-14)


def test_sinc_sq_even_and_bounded():
    xs = np.linspace(-50, 50, 10001)
    vals = sinc_sq(xs)
    assert np.allclose(vals, sinc_sq(-xs), rtol=0, atol=0)
    assert np.all(vals <= 1.0)
    assert np.all(vals >= 0.0)
    # attains 1 only at 0
    assert np.all(vals[xs != 0] < 1.0)


def test_sinc_sq_branch_agreement():
    # series and direct evaluation agree at the switchover
    for x in (1e-4, -1e-4, 0.99e-4, 1.01e-4):
        series = 1 - x**2 / 3 + 2 * x**4 / 45
        direct = (math.sin(x) / x) ** 2
        assert sinc_sq(x) == pytest.approx(series, rel=1e-12)
        assert sinc_sq(x) == pytest.approx(direct, rel=1e-12)


def test_sinc_sq_array_matches_scalar():
    xs = np.array([0.0, 1e-5, 0.3, math.pi, 12.7])
    out = sinc_sq(xs)
    for x, v in zip(xs, out):
        assert v == sinc_sq(float(x))


# ---------------------------------------------------------------------------
# Clebsch-Gordan: independent ladder-operator recursion oracle
# ---------------------------------------------------------------------------

def _cg_recursion_table(j1, j2):
    """All <j1 j2 m1 m2 | J M> by lowering from stretched states.

    For each J (from j1+j2 downward) the top state |J, J> is the unit
    vector in the M = J product block orthogonal to all higher-J top
    states, signed so the largest-m1 component is positive; lowering with
    J- = J1- + J2- then fills in every M.  Independent of Racah's sum.
    """
    def lower_factor(j, m):
        return math.sqrt(j * (j + 1) - m * (m - 1))

    def block_states(m_tot):
        m1s = np.arange(max(-j1, m_tot - j2), min(j1, m_tot + j2) + 1e-9, 1.0)
        return [(float(m1), float(m_tot - m1)) for m1 in m1s]

    table = {}
    n_j = int(round(2 * min(j1, j2))) + 1
    j_values = [j1 + j2 - k for k in range(n_j)]
    for idx, J in enumerate(j_values):
        states = block_states(J)
        if idx == 0:
            vec = {states[-1]: 1.0}  # stretched state (m1 = j1, m2 = j2)
        else:
            rows = [[table[jp][J].get(s, 0.0) for s in states] for jp in j_values[:idx]]
            _, _, vt = np.linalg.svd(np.array(rows))
            null = vt[-1]
            if null[-1] < 0:  # largest m1 component positive
                null = -null
            vec = {s: float(c) for s, c in zip(states, null) if abs(c) > 1e-14}
        table[J] = {J: vec}
        cur, m = vec, J
        while m > -J:
            nxt = {}
            norm = lower_factor(J, m)
            for (m1, m2), c in cur.items():
                if m1 > -j1 + 1e-9:
                    key = (m1 - 1.0, m2)
                    nxt[key] = nxt.get(key, 0.0) + c * lower_factor(j1, m1) / norm
                if m2 > -j2 + 1e-9:
                    key = (m1, m2 - 1.0)
                    nxt[key] = nxt.get(key, 0.0) + c * lower_factor(j2, m2) / norm
            table[J][m - 1.0] = nxt
            cur, m = nxt, m - 1.0
    return table


def test_cg_coupling_with_zero():
    for j in (0.5, 1.0, 2.0):
        m = -j
        while m <= j:
            assert clebsch_gordan(0, j, 0, m, j, m) == pytest.approx(1.0, rel=1e-14)
            m += 1.0


def test_cg_frozen_examples():
    # values computed with the ladder-recursion oracle before freezing
    assert clebsch_gordan(1, 1, 1, -1, 2, 0) == pytest.approx(
        0.4082482904638631, rel=1e-12)  # 1/sqrt(6)
    assert clebsch_gordan(1, 1, 0, 0, 1, 0) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("j1,j2", [(0.5, 0.5), (1.0, 0.5), (1.0, 1.0),
                                   (1.5, 1.0), (2.0, 1.5), (2.0, 2.0)])
def test_cg_against_recursion_oracle(j1, j2):
    table = _cg_recursion_table(j1, j2)
    for J, by_m in table.items():
        for M, vec in by_m.items():
            for (m1, m2), expected in vec.items():
                got = clebsch_gordan(j1, j2, m1, m2, J, M)
                assert got == pytest.approx(expected, rel=1e-10, abs=1e-12), \
                    (j1, j2, m1, m2, J, M)


def test_cg_selection_rules_return_zero():
    assert clebsch_gordan(1, 1, 1, 0, 2, 0) == 0.0       # M != m1+m2
    assert clebsch_gordan(1, 1, 0, 0, 3, 0) == 0.0       # J outside triangle
    assert clebsch_gordan(2, 0.5, 0, 0.5, 0.5, 0.5) == 0.0  # J below |j1-j2|


def test_cg_domain_errors():
    with pytest.raises(DomainError):
        clebsch_gordan(1, 1, 2, -1, 2, 1)     # |m1| > j1
    with pytest.raises(DomainError):
        clebsch_gordan(1, 1, 0.5, 0, 2, 0.5)  # j1 - m1 not an integer
    with pytest.raises(DomainError):
        clebsch_gordan(0.3, 1, 0.3, 0, 1, 0.3)  # not half-integer


def test_cg_orthogonality():
    # sum over (m1, m2) of <..|J M><..|J' M'> = delta_JJ' delta_MM'
    js = (0.5, 1.0, 1.5, 2.0)
    for j1 in js:
        for j2 in js:
            n_j = int(round(2 * min(j1, j2))) + 1
            j_values = [j1 + j2 - k for k in range(n_j)]
            m1s = np.arange(-j1, j1 + 1e-9, 1.0)
            m2s = np.arange(-j2, j2 + 1e-9, 1.0)
            for Ja in j_values:
                for Jb in j_values:
                    for Ma in np.arange(-Ja, Ja + 1e-9, 1.0):
                        for Mb in np.arange(-Jb, Jb + 1e-9, 1.0):
                            s = sum(
                                clebsch_gordan(j1, j2, m1, m2, Ja, Ma)
                                * clebsch_gordan(j1, j2, m1, m2, Jb, Mb)
                                for m1 in m1s for m2 in m2s)
                            want = 1.0 if (Ja == Jb and Ma == Mb) else 0.0
                            assert s == pytest.approx(want, abs=1e-10)


def test_cg_stretched_states_match_the_binomial_form():
    # <j1 m1 j2 m2 | j1+j2, m1+m2>^2 = C(2j1, j1+m1) C(2j2, j2+m2) / C(2J, J+M),
    # exactly; a seeded sample over j1, j2 <= 25 must agree within 2 ulp
    rng = random.Random(7)
    for _ in range(10_000):
        t1, t2 = rng.randint(0, 50), rng.randint(0, 50)
        k1, k2 = rng.randint(0, t1), rng.randint(0, t2)
        want = math.sqrt(Fraction(math.comb(t1, k1) * math.comb(t2, k2),
                                  math.comb(t1 + t2, k1 + k2)))
        j1, j2, m1, m2 = t1 / 2, t2 / 2, k1 - t1 / 2, k2 - t2 / 2
        got = clebsch_gordan(j1, j2, m1, m2, j1 + j2, m1 + m2)
        assert abs(got - want) <= 2 * math.ulp(want), (j1, j2, m1, m2)
