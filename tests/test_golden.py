"""Golden output: the CLI, the quadrature and the oracle must reproduce recorded values.

The files under ``tests/data/golden/`` were written by the quadrature that
preceded the cached-node, one-reservoir-call evaluation.  The CSV files
keep 9 significant digits; ``quadrature.json`` keeps every bit of
``ratio`` and ``err_estimate``.  Any change to either is a regression.

``oracle_ed.json`` was written by dense-``eigh`` exact diagonalization at
2000 modes, at the desk-scale points of the oracle benchmark.  The oracle
no longer diagonalizes: both its ``method`` spellings sum the propagator
series, so this file is the series' dense-``eigh`` reference at 2000
modes, run under the ``exact_diagonalization`` spelling, and the package
cannot re-record it.  ``oracle_rk4.json`` was re-recorded at the same
points at 10^4 modes (``python tests/test_golden.py oracle_rk4``) when the
``rk4`` route came to sum the exact propagator in place of RK4's n-step
polynomial; its ratios moved by -7e-10 to -2.0e-7, RK4's own time-step
error, and each lay within 1e-11 of exact diagonalization at the same 10^4
modes.  The quadrature fields of both files must match bit for bit; the
oracle ratio, to 1e-10.

The quadrature of a band-limited reservoir now ends the far-field walk on
the last lobe multiple below the band edge and integrates the partial lobe
beyond it with the full sinc^2 kernel, instead of leaving that lobe's
oscillating part to the error estimate.  So the ``band-limited`` case of
``quadrature.json`` and, in both oracle files, ``ratio_quadrature`` and
``rel_difference`` were re-recorded from that quadrature; every other
field, the oracle ratios of ``oracle_ed.json`` included, is as first
recorded.

``cli-json.txt`` was recorded before ``dumps_json`` became a flat writer
over ``json.dumps``: ``python tests/test_golden.py cli-json``.

``quadrature-grid.json`` was recorded before each quadrature point was
gathered in one block of nodes per kernel: ``python tests/test_golden.py
quadrature-grid``.

When the far-field walk lost its stopping rule and each point came to sum
every node it evaluates, every quadrature output was re-recorded from that
quadrature: ``quadrature.json``, ``quadrature-grid.json``, ``cli-json.txt``
(``python tests/test_golden.py {quadrature,quadrature-grid,cli-json}``),
the three CSV files (the commands of ``CLI_CASES``), and ``ratio_quadrature``
and ``rel_difference`` of oracle points 0 and 2, where the sum moved by an
ulp; the oracle ratios were not re-recorded then.  A ratio moved by at
most 5e-10 of itself, into the share of the rate that the stop had dropped
and charged twice to ``err_estimate``; no ``converged`` flag changed.  The
``sinking`` case now returns a ratio at nu = 1e-8 to 1e-3: there the stop
dropped a negative band, which made the error estimate negative.

When the far field's telescoped cosine part came to be subtracted from
the rate, where it had only been added to the error estimate, and an
aligned walk came to stop at the last lobe multiple at least 1/2 inside
its end, so that the centered difference at its last bound reads R on
both sides, every quadrature output was re-recorded once more:
``quadrature.json``, ``quadrature-grid.json``, ``cli-json.txt``, the four
CSV files, and ``ratio_quadrature`` and ``rel_difference`` of both oracle
files, the latter from each file's own ``ratio_oracle`` and the new
``ratio_quadrature``.  The oracle ratios did not move.  At the default
config the ratios fell by about 2e-8 at small nu, the cosine part's bias
over the 64 near lobes, and moved by up to 1.1e-6 at the oracle points,
where R is large at the band edge, and up to 1e-5 at nu >= 0.3; at 4 near
lobes by up to 3e-3.  No ``converged`` flag and no error changed.  The
new oracle-file quadrature ratios lie within 1e-11 of a
Richardson-extrapolated midpoint sum over each band, where the old ones
were up to 1.1e-6 off.

``figure2-points200.csv`` was recorded from the serial path before long
requests were shared out over worker processes; on two or more CPUs the
test reads the split path, and CI diffs the console script's output
against it on every CPU and on one.

To record a golden JSON file from a source tree, put that tree's ``src``
first on ``PYTHONPATH`` and run ``python tests/test_golden.py quadrature``
(or ``quadrature-grid`` or ``oracle_rk4``).
"""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from zenoscope.cli import main
from zenoscope.decay import QuadratureConfig, modified_rate_quadrature
from zenoscope.errors import ZenoscopeError
from zenoscope.oracle import BandLimitedReservoir, OracleConfig, oracle_vs_quadrature
from zenoscope.profile import MeasurementSchedule
from zenoscope.reservoir import (FullReservoir, SimpleReservoir, builtin_transition,
                                 load_reservoir_config)

DATA = Path(__file__).resolve().parent / "data"

CLI_CASES = {
    "figure2-points20.csv": ("figure2", "--points", "20"),
    # long enough that the rows are shared out over worker processes
    "figure2-points200.csv": ("figure2", "--points", "200"),
    "sweep-4F-1S.csv": ("sweep", "--transition", "4F-1S", "--nu-min", "1e-7",
                        "--nu-max", "1e-5"),
    # multi-term reservoir, reaching past nu = omega0 (rwa_warning rows)
    "sweep-5D-1S.csv": ("sweep", "--transition", str(DATA / "5D-1S.json"),
                        "--nu-min", "1e-6", "--nu-max", "3", "--points", "24"),
}


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_reproduces_golden_csv(capsys, name):
    assert main(list(CLI_CASES[name])) == 0
    assert capsys.readouterr().out == (DATA / "golden" / name).read_text()


# The JSON documents of ``rate`` and ``ca``, and the ``table1`` TSV; a path
# is relative to the repository root.
CLI_JSON_REQUESTS = [
    *(("rate", "--transition", t, "--nu", nu, "--method", method)
      for t in ("2P-1S", "3D-1S", "4F-1S", "tests/data/5D-1S.json")
      for nu in ("1e-6", "1e-3", "0.3") for method in ("quadrature", "analytic")),
    ("table1",),
    ("table1", "--alpha", "0.0073"),
    ("ca",),
    ("ca", "--precision", "0.05", "--prefactor-a", "0.0145"),
]


def _cli_json_transcript() -> str:
    """Each request of CLI_JSON_REQUESTS, its stdout and its exit code."""
    root = DATA.parent.parent
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for argv in CLI_JSON_REQUESTS:
            print("$ zenoscope " + " ".join(argv))
            code = main([str(root / a) if a.endswith(".json") else a for a in argv])
            print(f"exit {code}")
    return out.getvalue()


def test_cli_reproduces_golden_json():
    assert _cli_json_transcript() == (DATA / "golden" / "cli-json.txt").read_text()


# One point per decade.  Above nu = 1 / (2 pi near_lobes) ~ 2.5e-3 the near
# region is clipped at omega = 0, so the grid covers both near-region paths.
QUADRATURE_NUS = [float(nu) for nu in np.geomspace(1e-9, 10.0, 11)]


def _plain(omega):
    # no metadata: truncation at 50 omega0, no remainder bound
    return omega ** 3 / (1.0 + (omega / 40.0) ** 2) ** 6


def _sinking(omega):
    # a deep negative band at 5-6 omega0: at nu = 0.1 and 1 the quadrature's
    # modified rate is negative (NumericalError), at the other nu of the grid not
    w = np.asarray(omega, dtype=float)
    return np.where(w < 5.0, 1.0, np.where(w <= 6.0, -1000.0, 0.0))


def _builtin(name, cfg=None):
    return lambda: (*builtin_transition(name), cfg)


# name: () -> (reservoir, omega0, config or None)
QUADRATURE_CASES = {
    **{name: _builtin(name) for name in ("2P-1S", "3D-1S", "4F-1S")},
    "4F-1S-small-config": _builtin("4F-1S", QuadratureConfig(
        near_lobes=4, nodes_per_lobe=7, rel_tol=1e-6)),
    "full": lambda: (FullReservoir(terms=((2, 0, 1.0), (2, 1, 0.3), (2, 2, 0.1)), epsilon=0,
                                   mu=6, omega_x=400.0, j_range=(2, 2)), 1.0, None),
    # support ends at 5 omega0, well before the 50x cutoff truncation
    "band-limited": lambda: (BandLimitedReservoir(builtin_transition("3D-1S")[0], (0.0, 5.0)),
                             1.0, None),
    "plain": lambda: (_plain, 1.0, None),
    # one value for every frequency, returned as a scalar
    "flat": lambda: (lambda omega: 1.0, 1.0, None),
    # unconverged above nu ~ 0.04: the truncation bound exceeds rel_tol
    "heavy-tail": lambda: (SimpleReservoir(d=1.0, eta=1, mu=2, omega_x=10.0), 1.0, None),
    "sinking": lambda: (_sinking, 1.0, None),
}


def _record(name):
    """One entry per nu: the result's fields, or the error type raised."""
    reservoir, omega0, cfg = QUADRATURE_CASES[name]()
    out = []
    for nu in QUADRATURE_NUS:
        try:
            res = modified_rate_quadrature(reservoir, omega0, MeasurementSchedule(nu=nu), cfg)
        except ZenoscopeError as exc:
            out.append({"nu": nu, "error": type(exc).__name__})
            continue
        out.append({"nu": nu, "ratio": res.ratio, "err_estimate": res.err_estimate,
                    "converged": res.converged, "rwa_warning": res.rwa_warning})
    return out


@pytest.mark.parametrize("name", sorted(QUADRATURE_CASES))
def test_quadrature_reproduces_golden_values_exactly(name):
    # json round-trips floats exactly, so == compares every bit
    want = json.loads((DATA / "golden" / "quadrature.json").read_text())[name]
    assert _record(name) == want


# ``quadrature-grid.json`` pins every branch of the quadrature's assembly,
# bit for bit: the near region clipped on either side, the walk below with
# and without the partial lobe at omega = 0, the band-edge lobe, and
# nu >= omega0.  ``ratio`` and ``err_estimate`` are stored as ``float.hex``.
GRID_RESERVOIRS = {
    **{name: _builtin(name) for name in ("2P-1S", "3D-1S", "4F-1S")},
    "5D-1S": lambda: (*load_reservoir_config(DATA / "5D-1S.json"), None),
    "3D-1S-band-0-5": lambda: (BandLimitedReservoir(builtin_transition("3D-1S")[0],
                                                    (0.0, 5.0)), 1.0, None),
    "3D-1S-band-0.5-1.7": lambda: (BandLimitedReservoir(builtin_transition("3D-1S")[0],
                                                        (0.5, 1.7)), 1.0, None),
}
GRID_CONFIGS = {"default": QuadratureConfig(),
                "small": QuadratureConfig(near_lobes=4, nodes_per_lobe=7)}
TWO_PI = 2.0 * math.pi


def _on_lobe_multiple(span: float, k: int) -> float:
    """A nu for which span / nu is exactly the lobe multiple 2 pi k', k' >= k."""
    for k_hit in range(k, k + 64):
        guess = span / (TWO_PI * k_hit)
        for nu in (_ulps(guess, s) for d in range(9) for s in (d, -d)):
            x = span / nu
            if x == TWO_PI * math.floor(x / TWO_PI):
                return nu
    raise AssertionError(f"no nu puts {span!r} on a lobe multiple from k={k}")


def _ulps(nu: float, steps: int) -> float:
    """nu moved by ``steps`` floats, up for steps > 0 and down for steps < 0."""
    for _ in range(abs(steps)):
        nu = math.nextafter(nu, math.inf if steps > 0 else 0.0)
    return nu


def _neighbours(nu: float) -> list[float]:
    return [_ulps(nu, -1), nu, _ulps(nu, 1)]


def _grid_nus(reservoir, omega0: float, cfg: QuadratureConfig) -> list[float]:
    """About 40 nu: a log grid and the values at which a branch switches."""
    lobe_k = TWO_PI * cfg.near_lobes
    omega_x = getattr(reservoir, "omega_x", None)
    omega_max = cfg.max_omega_factor * (omega_x or omega0)
    omega_max = min(omega_max, getattr(reservoir, "omega_support_end", math.inf))
    below, above = omega0, omega_max - omega0
    nus = [float(nu) for nu in np.geomspace(1e-9, 3.0, 24)] + [1.0]
    # the near region clipped at omega = 0 and at the truncation
    nus += _neighbours(below / lobe_k) + _neighbours(above / lobe_k)
    # a partial lobe at omega = 0 and no walk below, and the same at the top
    nus += [below / (lobe_k + 0.5 * TWO_PI), above / (lobe_k + 0.5 * TWO_PI)]
    # omega = 0 and the band edge exactly on a lobe multiple, where the walk
    # below and the walk above stop a lobe short, leaving a whole lobe
    for k in (cfg.near_lobes + 3, 50 * cfg.near_lobes, 10 ** 6):
        nus += [_on_lobe_multiple(below, k), _on_lobe_multiple(above, k)]
    return nus


def _record_grid(name: str, config: str) -> list:
    reservoir, omega0, _ = GRID_RESERVOIRS[name]()
    cfg = GRID_CONFIGS[config]
    out = []
    for nu in _grid_nus(reservoir, omega0, cfg):
        try:
            res = modified_rate_quadrature(reservoir, omega0, MeasurementSchedule(nu=nu), cfg)
        except ZenoscopeError as exc:
            out.append({"nu": nu.hex(), "error": type(exc).__name__})
            continue
        out.append({"nu": nu.hex(), "ratio": res.ratio.hex(),
                    "err_estimate": res.err_estimate.hex(), "converged": res.converged})
    return out


@pytest.mark.parametrize("config", sorted(GRID_CONFIGS))
@pytest.mark.parametrize("name", sorted(GRID_RESERVOIRS))
def test_quadrature_reproduces_the_golden_grid_exactly(name, config):
    want = json.loads((DATA / "golden" / "quadrature-grid.json").read_text())
    assert _record_grid(name, config) == want[f"{name}/{config}"]


# The oracle benchmark's points: desk-scale reservoir, the series at 2000
# modes under the exact_diagonalization spelling and at 10^4 under rk4.
ORACLE_POINTS = [(eta, nu) for eta in (1, 3) for nu in (1e-2, 3e-2)]
ORACLE_CONFIGS = {
    "oracle_ed": OracleConfig(n_modes=2000, method="exact_diagonalization"),
    "oracle_rk4": OracleConfig(n_modes=10_000, method="rk4"),
}


def _record_oracle(name, eta, nu):
    reservoir = SimpleReservoir(d=1.0, eta=eta, mu=6, omega_x=50.0)
    oracle, quad, rel = oracle_vs_quadrature(
        reservoir, 1.0, MeasurementSchedule(nu=nu), ORACLE_CONFIGS[name])
    return {"eta": eta, "nu": nu, "ratio_oracle": oracle.ratio,
            "ratio_quadrature": quad.ratio, "rel_difference": rel}


def _check_oracle_golden(name, index):
    want = json.loads((DATA / "golden" / f"{name}.json").read_text())[index]
    got = _record_oracle(name, *ORACLE_POINTS[index])
    assert (got["eta"], got["nu"]) == (want["eta"], want["nu"])
    assert got["ratio_quadrature"] == want["ratio_quadrature"]
    assert got["ratio_oracle"] == pytest.approx(want["ratio_oracle"], rel=1e-10, abs=0)
    # rel_difference = |oracle - quadrature| / quadrature inherits the
    # oracle's relative error magnified by oracle / |oracle - quadrature|
    scale = want["ratio_oracle"] / abs(want["ratio_oracle"] - want["ratio_quadrature"])
    assert got["rel_difference"] == pytest.approx(want["rel_difference"],
                                                  rel=1e-10 * scale, abs=0)


@pytest.mark.parametrize("index", range(len(ORACLE_POINTS)))
def test_oracle_ed_reproduces_golden_values(index):
    _check_oracle_golden("oracle_ed", index)


@pytest.mark.parametrize("index", range(len(ORACLE_POINTS)))
def test_oracle_rk4_reproduces_golden_values(index):
    _check_oracle_golden("oracle_rk4", index)


if __name__ == "__main__":
    if sys.argv[1:] == ["cli-json"]:
        sys.stdout.write(_cli_json_transcript())
        sys.exit()
    if sys.argv[1:] == ["quadrature-grid"]:
        doc = {f"{name}/{config}": _record_grid(name, config)
               for name in GRID_RESERVOIRS for config in GRID_CONFIGS}
    elif sys.argv[1:] == ["oracle_rk4"]:
        doc = [_record_oracle("oracle_rk4", eta, nu) for eta, nu in ORACLE_POINTS]
    else:
        doc = {name: _record(name) for name in QUADRATURE_CASES}
    json.dump(doc, sys.stdout, indent=1)
    sys.stdout.write("\n")
