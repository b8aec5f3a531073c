"""Command-line front end: rates, sweeps, table regeneration, oracle runs.

All frequencies on the CLI are dimensionless (units of the transition
frequency omega0) except the Ca+ feasibility command, which reports SI
rates.  JSON output serializes floats with 17 significant digits and CSV
with 9, so identical inputs produce byte-identical output.

On Linux, a sweep or figure2 request of at least 200 quadrature rows is
shared out over forked worker processes, one per CPU this process may run
on and at most one per 100 rows; shorter requests, analytic-only sweeps,
other platforms and processes with a second thread run serially.  Rows
are printed in input order either way, so the output does not depend on
the number of workers.

Exit codes: 0 success, 2 argument/domain error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import signal
import sys
import threading
from dataclasses import dataclass
from typing import Callable, NoReturn

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
# Rows a forked worker must take to pay for itself.  On a 2-vCPU Xeon a fork,
# exit and reap cost about 3 ms, and two processes computing side by side
# each run their rows 1.3-1.9x slower than one alone; a 2-way split broke
# even at 100 quadrature rows and gained 7% at 150, 27% at 300 and 38% at
# 1,200.
_ROWS_PER_WORKER = 100


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


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call outside Linux
        return os.cpu_count() or 1


def _worker(row: Callable, share: list, write_fd: int) -> NoReturn:
    """Write row(item) for each item of the share to write_fd, a line each,
    and exit with status 0 once all are written, 1 otherwise.  os._exit
    skips the atexit handlers and the stdout buffer inherited from the
    parent, which are the parent's to run and flush."""
    status = 1
    try:
        text = "".join(row(item) + "\n" for item in share)
        with open(write_fd, "w", encoding="utf-8") as pipe:
            pipe.write(text)
        status = 0
    finally:
        os._exit(status)


def _forked_shares(row: Callable, items: list, workers: int) -> list[list[str]] | None:
    """row(item) over each share items[w::workers]: share 0 in this process,
    every other in a forked worker that writes it to a pipe.

    None when a share raised or a worker did not exit with status 0.  Every
    worker is reaped before this returns or raises; on failure it is killed
    first, since its rows are no longer wanted.
    """
    readers, pids, shares = [], [], None
    try:
        for w in range(1, workers):
            read_fd, write_fd = os.pipe()
            readers.append(open(read_fd, encoding="utf-8"))
            try:
                pid = os.fork()
                if pid == 0:
                    _worker(row, items[w::workers], write_fd)
            finally:
                os.close(write_fd)
            pids.append(pid)
        mine = [row(item) for item in items[::workers]]
        shares = [mine] + [reader.read().splitlines() for reader in readers]
    except Exception:  # the serial rerun raises it again, with its traceback
        shares = None
    finally:
        for reader in readers:
            reader.close()
        for pid in pids:
            if shares is None:
                os.kill(pid, signal.SIGKILL)
            if os.waitpid(pid, 0)[1] != 0:
                shares = None
    return shares


def _print_rows(row: Callable, items: list, quadrature: bool) -> None:
    """Print row(item) for every item, in order.

    Quadrature rows split over min(CPUs, rows // _ROWS_PER_WORKER)
    processes when that is 2 or more: on Linux only, as Windows has no fork
    and macOS's Accelerate BLAS is not fork-safe, and only while this is
    the one Python thread, as a fork copies no other.  Workers are forked,
    not spawned, because a fresh interpreter's imports cost more than a
    whole request.  If any share fails, the request runs serially from the
    start, so that it prints and raises what the serial path does.
    """
    workers = 1
    if quadrature and sys.platform == "linux" and threading.active_count() == 1:
        workers = min(_cpu_count(), len(items) // _ROWS_PER_WORKER)
    if workers > 1:
        # computed before any fork, so that a warning it raises is in the
        # registry every worker inherits, and prints once as it does serially
        head = row(items[0])
        shares = _forked_shares(row, items[1:], workers)
        if shares is not None:
            rest = [shares[i % workers][i // workers] for i in range(len(items) - 1)]
            print("\n".join([head] + rest))
            return
    for item in items:
        print(row(item))


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
    _print_rows(lambda nu: _sweep_csv_row(reservoir, omega0, nu, want_quad, want_analytic),
                spec.nu_values(), want_quad)
    return 0


def cmd_figure2(args) -> int:
    print(FIGURE2_HEADER)
    items = []
    for name in builtin_names():
        spec = SweepSpec(transition=name, nu_min=args.nu_min,
                         nu_max=args.nu_max, points=args.points)
        reservoir, omega0 = builtin_transition(name)
        items += [(name, reservoir, omega0, nu) for nu in spec.nu_values()]

    def row(item) -> str:
        name, reservoir, omega0, nu = item
        return f"{name},{_sweep_csv_row(reservoir, omega0, nu, True, True)}"

    _print_rows(row, items, True)
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


_JOBS_HELP = ("accepted for compatibility and ignored: long quadrature requests "
              "use one process per CPU")


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
