"""Output checks of the benchmark, run after the timed region.

A result point fails when its command exits nonzero, when its CSV row is
missing, malformed, off the requested nu grid or carries a ``status`` other
than ``ok``, or when its value fails a check:

* a seeded sample of quadrature rows must match, to 2e-5 relative, an
  independent quadrature at a much tighter configuration (17-44 ms a
  point, hence the sample);
* every oracle result must agree with quadrature to 3% (acceptance
  criterion 5).
"""

from __future__ import annotations

import json
import math
import random
from typing import NamedTuple

import numpy as np

from workloads import BUILTINS, Request

SWEEP_HEADER = "nu_over_omega0,ratio_quadrature,ratio_analytic,rel_err,rwa_warning,status"
FIGURE2_HEADER = "transition," + SWEEP_HEADER
QUAD_REL_TOL = 2e-5
ORACLE_REL_LIMIT = 0.03
TIGHT_QUADRATURE = {"near_lobes": 1024, "nodes_per_lobe": 41, "rel_tol": 1e-13,
                    "max_omega_factor": 1000.0}
SAMPLE_ROWS = 24


class Outcome(NamedTuple):
    """One completed request: exit code (None if it raised), stdout, wall time."""

    request: Request
    rc: int | None
    stdout: str
    latency: float


class Checker:
    """Counts failed result points over a run's outcomes."""

    def __init__(self, zs, seed: int):
        self._zs = zs
        self._rng = random.Random(f"check:{seed}")
        self._tight = zs.decay.QuadratureConfig(**TIGHT_QUADRATURE)
        self.failures: list[str] = []

    def check(self, outcomes: list[Outcome]) -> int:
        """Number of failed points; reasons are appended to ``failures``."""
        failed = 0
        candidates: list[tuple[str, float, float]] = []
        for o in outcomes:
            failed += self._check_one(o, candidates)
        picked = self._rng.sample(candidates, min(SAMPLE_ROWS, len(candidates)))
        for transition, nu, ratio in picked:
            ref = self.reference(transition, nu)
            if not abs(ratio - ref) <= QUAD_REL_TOL * ref:
                failed += 1
                self.failures.append(f"{transition} nu={nu:.9g}: ratio {ratio!r} vs tight {ref!r}")
        return failed

    def reference(self, transition: str, nu: float) -> float:
        """Tight-configuration quadrature ratio at one point."""
        zs = self._zs
        if transition in BUILTINS:
            reservoir, omega0 = zs.reservoir.builtin_transition(transition)
        else:
            reservoir, omega0 = zs.reservoir.load_reservoir_config(transition)
        m = zs.profile.MeasurementSchedule(nu=nu)
        return zs.decay.modified_rate_quadrature(reservoir, omega0, m, self._tight).ratio

    def _check_one(self, o: Outcome, candidates: list) -> int:
        req = o.request
        if o.rc != 0:
            self.failures.append(f"{' '.join(req.argv)}: exit code {o.rc}")
            return req.points
        if req.argv[0] == "oracle":
            return self._check_oracle(req, o.stdout)
        return self._check_rows(req, o.stdout, candidates)

    def _check_oracle(self, req: Request, stdout: str) -> int:
        p = req.params
        try:
            doc = json.loads(stdout)
            ok = (doc["rel_difference"] < ORACLE_REL_LIMIT and doc["method"] == p["method"]
                  and doc["n_modes"] == p["n_modes"] and doc["eta"] == p["eta"]
                  and doc["nu_over_omega0"] == p["nu"])
        except (ValueError, KeyError, TypeError):
            ok = False
        if not ok:
            self.failures.append(f"{' '.join(req.argv)}: oracle output {stdout.strip()!r}")
        return 0 if ok else 1

    def _check_rows(self, req: Request, stdout: str, candidates: list) -> int:
        p = req.params
        figure2 = req.argv[0] == "figure2"
        if figure2:
            header = FIGURE2_HEADER
            expected = [(t, float(nu)) for t in BUILTINS
                        for nu in np.geomspace(p["nu_min"], p["nu_max"], req.points // len(BUILTINS))]
        else:
            header = SWEEP_HEADER
            expected = [(p["transition"], float(nu))
                        for nu in np.geomspace(p["nu_min"], p["nu_max"], req.points)]
        lines = stdout.splitlines()
        if not lines or lines[0] != header or len(lines) - 1 != len(expected):
            self.failures.append(f"{' '.join(req.argv)}: expected {len(expected)} rows under the header")
            return req.points
        failed = 0
        for line, (transition, nu) in zip(lines[1:], expected):
            fields = line.split(",")
            if figure2:
                name, fields = fields[0], fields[1:]
            else:
                name = transition
            try:
                ok = (name == transition and len(fields) == 6 and fields[5] == "ok"
                      and abs(float(fields[0]) - nu) <= 1e-8 * nu)
                ratio = float(fields[1]) if ok else math.nan
            except ValueError:
                ok = False
            if ok and ratio > 0 and math.isfinite(ratio):
                candidates.append((transition, nu, ratio))
            else:
                failed += 1
                self.failures.append(f"{transition} nu={nu:.9g}: row {line!r}")
        return failed
