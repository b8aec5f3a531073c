"""Span recording for the traced benchmark run, and the layer metrics.

The recorder wraps the public functions of each layer from outside the
program: every name bound to a wrapped function, in any module or class
that holds it, is replaced for the duration of ``Recorder.installed`` and
restored afterwards.  A span records its name, start, end, parent span and
request id, plus a size (nodes evaluated, or mode-steps).  Spans stay in
memory until the run ends.

Each thread keeps its own span stack, so the two sweep threads of
``figure2 --jobs 2`` nest their spans correctly; a span opened on a thread
with an empty stack is a child of the request's ``cli.command`` span.
"""

from __future__ import annotations

import contextlib
import inspect
import itertools
import math
import statistics
import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable, NamedTuple

import numpy as np


_QUAD = "points_per_s on sweep and figure2, nothing on oracle"
_GL = "points_per_s on sweep most, then figure2, nothing on oracle"
_ANALYTIC = "nothing end to end; guards the closed-form merge"
_ORACLE = "points_per_s and latency_p50_ms on oracle"

# name: (unit, better, the end-to-end metric and workload it should move)
LAYER_METRICS = {
    "cli.self_ms_per_request": ("ms", "lower", "latency_p50_ms on sweep"),
    # Span time includes waits for the interpreter lock, so this reads
    # about --jobs on figure2 and falls when the thread pool goes.
    "cli.parallelism": ("frac", "none", "points_per_s on figure2; includes lock waits"),
    "decay.request_share": ("frac", "none", "share of request time in decay spans"),
    "decay.quadrature_calls": ("count", "lower", _QUAD),
    "decay.quadrature_us_p50": ("us", "lower", _QUAD),
    "decay.quadrature_self_us": ("us", "lower", _QUAD),
    "decay.gl_calls_per_quadrature": ("count", "lower", _GL),
    "decay.gl_us_per_quadrature": ("us", "lower", _GL),
    "decay.analytic_calls": ("count", "lower", _ANALYTIC),
    "decay.analytic_us_p50": ("us", "lower", _ANALYTIC),
    "reservoir.eval_calls": ("count", "lower", _QUAD),
    "reservoir.nodes_per_quadrature": ("count", "lower", _QUAD),
    "reservoir.ns_per_node": ("ns", "lower", _QUAD),
    "specfun.sinc_sq_ns_per_node": ("ns", "lower", _QUAD),
    "specfun.beta_calls": ("count", "lower", _QUAD),
    "oracle.request_share": ("frac", "none", "share of request time in oracle spans"),
    "oracle.discretize_ms": ("ms", "lower", _ORACLE),
    "oracle.rk4_s_per_point": ("s", "lower", _ORACLE),
    "oracle.rk4_ns_per_mode_step": ("ns", "lower", _ORACLE + "; mode-steps computed"),
    "oracle.ed_s_per_point": ("s", "lower", "points_per_s and peak_rss_mb on oracle"),
    "oracle.ed_matrix_mb": ("MB", "lower", "peak_rss_mb on oracle; computed (N+1)^2*8 B"),
    "trace.overhead_frac": ("frac", "lower", "nothing; the cost of tracing itself"),
}

# Reported in the result line of every traced run: measured (not computed
# from the workload's arguments), nonzero on every workload, with a
# direction.  The rest appear in the printed report and layers-*.json only:
# times and counts of layers some workload does not reach, the computed ED
# matrix size, and the shares.
RESULT_LAYER_METRICS = tuple(
    name for name in LAYER_METRICS
    if LAYER_METRICS[name][1] != "none" and name not in {
        "decay.analytic_calls", "decay.analytic_us_p50", "specfun.beta_calls",
        "oracle.discretize_ms", "oracle.rk4_s_per_point", "oracle.rk4_ns_per_mode_step",
        "oracle.ed_s_per_point", "oracle.ed_matrix_mb"})


class Span(NamedTuple):
    id: int
    parent: int | None
    request: int
    name: str
    start: float
    end: float
    size: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Target(NamedTuple):
    """A function to wrap: the span name it records, and how it is described.

    describe(args, kwargs) -> (span name, size) refines the record from
    the call's arguments; it runs after the call, outside the span.
    """

    func: Callable
    name: str
    describe: Callable | None = None
    root: bool = False


class Recorder:
    """Collects spans from wrapped layer functions."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request = -1
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: int | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, target: Target) -> Callable:
        func, name, describe, root = target

        def traced(*args, **kwargs):
            stack = self._stack()
            # next() on a count and list.append are single atomic steps
            # under the interpreter lock, so the threads need no lock here.
            sid = next(self._ids)
            if root:
                parent = None
                self._root = sid
            else:
                parent = stack[-1] if stack else self._root
            stack.append(sid)
            start = perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                label, size = (name, 0) if describe is None else describe(args, kwargs)
                self.spans.append(Span(sid, parent, self.request, label, start, end, size))

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        return traced

    @contextlib.contextmanager
    def installed(self, targets: list[Target], namespaces: list):
        """Replace every binding of each target in ``namespaces``; restore on exit."""
        patched = []
        try:
            for target in targets:
                wrapper = self.wrap(target)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is target.func:
                            setattr(ns, attr, wrapper)
                            patched.append((ns, attr, value))
            yield self
        finally:
            for ns, attr, value in reversed(patched):
                setattr(ns, attr, value)


def _sized(name: str, index: int):
    """Describe a call by the number of nodes in positional argument ``index``."""
    def describe(args, kwargs):
        return name, int(np.size(args[index]))
    return describe


def _survival(func):
    """Name the span by method; size is mode-steps (RK4) or modes (ED).

    The RK4 step count is computed from the documented step rule
    h <= 0.1 / max|delta|, not read from the program.
    """
    sig = inspect.signature(func)

    def describe(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        modes, omega0, tau, cfg = (bound.arguments[k] for k in ("modes", "omega0", "tau", "cfg"))
        n = len(modes.omega)
        if cfg.method == "exact_diagonalization":
            return "oracle.ed", n
        w = max(float(np.max(np.abs(modes.omega - omega0))), 1e-300)
        step = 0.1 / w if cfg.dt is None else min(cfg.dt, 0.1 / w)
        return "oracle.rk4", n * max(math.ceil(tau / step), 4)
    return describe


def layer_targets(zs) -> tuple[list[Target], list]:
    """Targets on the hot paths and the namespaces that bind them.

    ``zs`` is the imported ``zenoscope`` package.  profile and
    experiment_ca take no measurable time on any workload and are not
    wrapped.
    """
    legendre = np.polynomial.legendre
    res_size = _sized("reservoir.eval", 1)
    targets = [
        Target(zs.cli.main, "cli.command", root=True),
        Target(zs.decay.modified_rate_quadrature, "decay.quadrature"),
        Target(zs.decay.analytic_rate, "decay.analytic"),
        # Gauss-Legendre node construction, called from decay.
        Target(legendre.leggauss, "decay.gl"),
        Target(zs.reservoir.SimpleReservoir.eval, "reservoir.eval", res_size),
        Target(zs.reservoir.FullReservoir.eval, "reservoir.eval", res_size),
        # Band-limited reservoirs call their inner reservoir: nested spans.
        Target(zs.oracle.BandLimitedReservoir.__call__, "reservoir.eval", res_size),
        Target(zs.specfun.sinc_sq, "specfun.sinc_sq", _sized("specfun.sinc_sq", 0)),
        Target(zs.specfun.beta, "specfun.beta"),
        Target(zs.oracle.oracle_vs_quadrature, "oracle.compare"),
        Target(zs.oracle.oracle_rate, "oracle.rate"),
        Target(zs.oracle.discretize_reservoir, "oracle.discretize"),
        Target(zs.oracle.survival_probability, "oracle.survival",
               _survival(zs.oracle.survival_probability)),
    ]
    modules = [zs, zs.cli, zs.decay, zs.reservoir, zs.specfun, zs.oracle,
               zs.profile, zs.experiment_ca, legendre]
    classes = [zs.reservoir.SimpleReservoir, zs.reservoir.FullReservoir,
               zs.oracle.BandLimitedReservoir]
    return targets, modules + classes


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(span: Span, children) -> float:
    """The span's interval minus the union of its children's intervals."""
    return span.duration - union_length(((c.start, c.end) for c in children),
                                        span.start, span.end)


def _ratio(num: float, den: float) -> float | None:
    return num / den if den else None


def layer_metrics(spans: list[Span]) -> dict[str, float | None]:
    """Per-layer metrics of one traced run; None where a layer is not reached."""
    by_id = {s.id: s for s in spans}
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[int, list[Span]] = defaultdict(list)
    by_request: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            children[s.parent].append(s)
        by_request[s.request].append(s)

    def parent_name(s: Span) -> str | None:
        p = by_id.get(s.parent)
        return None if p is None else p.name

    cmds = by_name["cli.command"]
    wall = sum(c.duration for c in cmds)
    quads = by_name["decay.quadrature"]
    analytic = by_name["decay.analytic"]
    gl = [g for g in by_name["decay.gl"] if parent_name(g) == "decay.quadrature"]
    res = by_name["reservoir.eval"]
    res_outer = [r for r in res if parent_name(r) != "reservoir.eval"]
    res_in_quad = [r for r in res_outer if parent_name(r) == "decay.quadrature"]
    sinc = by_name["specfun.sinc_sq"]
    rk4, ed = by_name["oracle.rk4"], by_name["oracle.ed"]
    disc = by_name["oracle.discretize"]

    def share(names) -> float | None:
        covered = 0.0
        for c in cmds:
            covered += union_length(((s.start, s.end) for s in by_request[c.request]
                                     if s.name in names), c.start, c.end)
        return _ratio(covered, wall)

    def mean(xs) -> float | None:
        return statistics.fmean(xs) if xs else None

    def median(xs) -> float | None:
        return statistics.median(xs) if xs else None

    def scaled(x, k):
        return None if x is None else x * k

    return {
        "cli.self_ms_per_request": scaled(
            mean([self_time(c, children[c.id]) for c in cmds]), 1e3),
        "cli.parallelism": _ratio(sum(s.duration for s in quads + analytic), wall),
        "decay.request_share": share({"decay.quadrature", "decay.analytic"}),
        "decay.quadrature_calls": len(quads),
        "decay.quadrature_us_p50": scaled(median([q.duration for q in quads]), 1e6),
        "decay.quadrature_self_us": scaled(
            mean([self_time(q, children[q.id]) for q in quads]), 1e6),
        "decay.gl_calls_per_quadrature": _ratio(len(gl), len(quads)),
        "decay.gl_us_per_quadrature": scaled(
            _ratio(sum(g.duration for g in gl), len(quads)), 1e6),
        "decay.analytic_calls": len(analytic),
        "decay.analytic_us_p50": scaled(median([a.duration for a in analytic]), 1e6),
        "reservoir.eval_calls": len(res),
        "reservoir.nodes_per_quadrature": _ratio(sum(r.size for r in res_in_quad), len(quads)),
        "reservoir.ns_per_node": scaled(
            _ratio(sum(r.duration for r in res_outer), sum(r.size for r in res_outer)), 1e9),
        "specfun.sinc_sq_ns_per_node": scaled(
            _ratio(sum(s.duration for s in sinc), sum(s.size for s in sinc)), 1e9),
        "specfun.beta_calls": len(by_name["specfun.beta"]),
        "oracle.request_share": share({"oracle.compare"}),
        "oracle.discretize_ms": scaled(mean([d.duration for d in disc]), 1e3),
        "oracle.rk4_s_per_point": mean([r.duration for r in rk4]),
        "oracle.rk4_ns_per_mode_step": scaled(
            _ratio(sum(r.duration for r in rk4), sum(r.size for r in rk4)), 1e9),
        "oracle.ed_s_per_point": mean([e.duration for e in ed]),
        # Computed, not measured: the dense (N+1)^2 float64 Hamiltonian.
        "oracle.ed_matrix_mb": max(((e.size + 1) ** 2 * 8 / 1e6 for e in ed), default=0.0),
    }


def write_spans(spans: list[Span], path) -> None:
    """Write spans as CSV, one per line, times in seconds from the first span."""
    t0 = min((s.start for s in spans), default=0.0)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,parent,request,name,start_s,end_s,size\n")
        for s in spans:
            parent = "" if s.parent is None else s.parent
            fh.write(f"{s.id},{parent},{s.request},{s.name},"
                     f"{s.start - t0:.9f},{s.end - t0:.9f},{s.size}\n")
