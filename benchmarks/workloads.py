"""Seeded request streams for the benchmark workloads.

Each workload is an endless stream of CLI argument lists drawn from
``random.Random(seed)``: the seed is an argument of the benchmark, and the
program sees only the generated arguments.  The same seed always yields
the same stream.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Iterator, NamedTuple

# Multi-term 4D-1S reservoir (J = 2, r = 0..2): the only input that puts
# FullReservoir.eval and ratio_analytic_full on a timed path.
CONFIG_4D_1S = str(Path(__file__).resolve().parent / "data" / "4D-1S.json")

BUILTINS = ("2P-1S", "3D-1S", "4F-1S")
SWEEP_TRANSITIONS = BUILTINS + (CONFIG_4D_1S,)
SWEEP_POINTS = 20
FIGURE2_POINTS = 200
# Desk-scale reservoir of the oracle acceptance criterion.  At 2000 modes
# the recurrence guard rejects nu < 1e-2, so nu stays at or above it.
ORACLE_FIXED = ("--mu", "6", "--omega-x", "50")
ORACLE_PAIRS = ((1, "1e-2"), (1, "3e-2"), (3, "1e-2"), (3, "3e-2"))
ORACLE_METHODS = (("rk4", 10_000), ("exact_diagonalization", 2000))

WORKLOADS = ("sweep", "figure2", "oracle")


class Request(NamedTuple):
    """One CLI command and what its output must contain.

    points is the number of result points the command produces; params
    holds the generated values the output checks need.
    """

    argv: tuple[str, ...]
    points: int
    params: dict


def _num(x: float) -> str:
    return f"{x:.6e}"


def _sweep(rng: random.Random) -> Iterator[Request]:
    while True:
        # Every block of four requests covers each transition once, so the
        # mix is the same at every seed.
        block = list(SWEEP_TRANSITIONS)
        rng.shuffle(block)
        for transition in block:
            lo = 10.0 ** rng.uniform(-7.0, -2.0)
            nu_min, nu_max = _num(lo), _num(min(100.0 * lo, 1.0))
            argv = ("sweep", "--transition", transition, "--nu-min", nu_min,
                    "--nu-max", nu_max, "--points", str(SWEEP_POINTS), "--jobs", "1")
            yield Request(argv, SWEEP_POINTS, {
                "transition": transition, "nu_min": float(nu_min),
                "nu_max": float(nu_max)})


def _figure2(rng: random.Random) -> Iterator[Request]:
    while True:
        nu_min = _num(1e-4 * (1.0 + rng.uniform(-0.1, 0.1)))
        nu_max = _num(1e-2 * (1.0 + rng.uniform(-0.1, 0.1)))
        argv = ("figure2", "--points", str(FIGURE2_POINTS), "--jobs", "2",
                "--nu-min", nu_min, "--nu-max", nu_max)
        yield Request(argv, FIGURE2_POINTS * len(BUILTINS), {
            "nu_min": float(nu_min), "nu_max": float(nu_max)})


def _oracle(rng: random.Random) -> Iterator[Request]:
    while True:
        for method, n_modes in ORACLE_METHODS:
            eta, nu = rng.choice(ORACLE_PAIRS)
            argv = ("oracle",) + ORACLE_FIXED + (
                "--eta", str(eta), "--nu", nu, "--method", method,
                "--n-modes", str(n_modes))
            yield Request(argv, 1, {"eta": eta, "nu": float(nu),
                                    "method": method, "n_modes": n_modes})


_STREAMS = {"sweep": _sweep, "figure2": _figure2, "oracle": _oracle}

# Requests per closed-loop round.  An oracle round is one RK4 and one ED
# request, so that every measurement holds both methods equally often.
ROUND = {"sweep": 1, "figure2": 1, "oracle": len(ORACLE_METHODS)}


def requests(workload: str, seed: int) -> Iterator[Request]:
    """Endless seeded request stream of one workload."""
    return _STREAMS[workload](random.Random(seed))
