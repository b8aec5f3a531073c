#!/usr/bin/env python3
"""zenoscope benchmark: a closed loop of CLI requests through ``zenoscope.cli.main``.

Run from the repository root:

    python3 benchmarks/run.py --workload sweep --seed 1 --seconds 30 --trace 0

One client sends the next request only after the previous one returns.
The program is imported from ``src/`` of the same checkout; there is
nothing to build.  Workloads (see ``workloads.py``):

* ``sweep``   short ``zenoscope sweep`` requests, 20 points, ``--jobs 1``;
* ``figure2`` ``zenoscope figure2 --points 200 --jobs 2`` (600 points);
* ``oracle``  alternating RK4 (10^4 modes) and ED (2000 modes) oracle runs.

``--trace 0`` measures for ``--seconds`` seconds and reports the end-to-end
metrics.  ``--trace 1`` runs a fixed number of requests, so that its counts
repeat exactly for one seed, each once untraced and once with every layer
wrapped in spans (``spans.py``); it reports the per-layer metrics and writes
the spans and every layer value to ``benchmarks/out/``, where an untraced
run also leaves every end-to-end figure.  Both modes check
every output after the timed region (``checks.py``).  Human-readable lines
come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import checks
import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 120
# Requests replayed by a traced run, about 20 s of work for both phases
# together at the seed commit.  Fixed so that layer counts repeat exactly.
TRACE_REQUESTS = {"sweep": 200, "figure2": 8, "oracle": 6}
# Tail percentiles tried from the top, in basis points; the first with at
# least ten samples beyond it is reported.
TAIL_LADDER_BP = (9999, 9990, 9900, 9500, 9000)
TAIL_MIN_BEYOND = 10

END_TO_END = {"points_per_s": "points/s", "latency_p50_ms": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}


def import_program():
    """Import ``zenoscope`` from this checkout's ``src/``, or exit with code 2."""
    init = SRC / "zenoscope" / "__init__.py"
    if not init.is_file():
        print(f"error: {init} not found; run from a zenoscope checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import zenoscope
    import zenoscope.cli

    if Path(zenoscope.__file__).resolve() != init.resolve():
        print(f"error: imported zenoscope from {zenoscope.__file__}, not {init}",
              file=sys.stderr)
        raise SystemExit(2)
    return zenoscope


def call(zs, req: workloads.Request) -> checks.Outcome:
    """Run one CLI command in-process, capturing its output."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = zs.cli.main(list(req.argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc()
        rc = None
    latency = perf_counter() - start
    if rc != 0:
        sys.stderr.write(err.getvalue())
    return checks.Outcome(req, rc, out.getvalue(), latency)


def closed_loop(zs, stream, seconds: float, round_len: int, probe):
    """Send requests until ``seconds`` of request time have passed and a
    round is complete.

    ``probe()`` runs SETUP_REPEATS times between requests, at even steps
    of request time, so that the set-up figure spans the same stretch of
    the run as the throughput; its time is left out of the wall time.
    Returns the outcomes, the request wall time and the probe times.
    """
    outcomes, probe_times = [], []
    wall = 0.0
    while True:
        start = perf_counter()
        outcomes.append(call(zs, next(stream)))
        wall += perf_counter() - start
        if (len(probe_times) < SETUP_REPEATS
                and wall >= seconds * len(probe_times) / SETUP_REPEATS):
            probe_times.append(probe())
        if (wall >= seconds and len(outcomes) % round_len == 0
                and len(probe_times) == SETUP_REPEATS):
            return outcomes, wall, probe_times


def tail_latency(latencies: list[float]):
    """(percentile, value, samples beyond) of the highest ladder percentile
    with at least ten samples beyond it, by nearest rank; None if none has."""
    n = len(latencies)
    ordered = sorted(latencies)
    for bp in TAIL_LADDER_BP:
        rank = -(-n * bp // 10_000)
        if n - rank >= TAIL_MIN_BEYOND:
            return bp / 100, ordered[rank - 1], n - rank
    return None


def setup_probe(args) -> int:
    """Fresh-interpreter set-up: import, build the inputs, one warm-up request."""
    zs = import_program()
    stream = workloads.requests(args.workload, args.seed)
    return 0 if call(zs, next(stream)).rc == 0 else 1


def measure_setup(args) -> float:
    """Wall time of one set-up probe in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    start = perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, timeout=PROBE_TIMEOUT_S)
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        print(f"error: set-up probe exited with {proc.returncode}", file=sys.stderr)
        raise SystemExit(1)
    return elapsed


def run_untraced(args, zs, stream):
    outcomes, wall, setup_times = closed_loop(zs, stream, args.seconds,
                                              workloads.ROUND[args.workload],
                                              lambda: measure_setup(args))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    checker = checks.Checker(zs, args.seed)
    failed = checker.check(outcomes)
    attempted = sum(o.request.points for o in outcomes)
    latencies_ms = [o.latency * 1e3 for o in outcomes]
    values = {
        "points_per_s": (attempted - failed) / wall,
        "latency_p50_ms": statistics.median(latencies_ms),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss_mb,
    }
    n = len(outcomes)
    lines = [
        f"workload {args.workload}  seed {args.seed}  requests {n}  "
        f"points {attempted}  wall {wall:.3f} s",
        f"  points_per_s     {values['points_per_s']:.6g} points/s  ({n} requests)",
        f"  latency_p50_ms   {values['latency_p50_ms']:.6g} ms  ({n} requests)",
    ]
    tail = tail_latency(latencies_ms)
    if tail is None:
        lines.append(f"  latency_tail_ms  omitted: {n} requests leave fewer than "
                     f"{TAIL_MIN_BEYOND} beyond p{TAIL_LADDER_BP[-1] / 100:g}")
    else:
        p, value, beyond = tail
        lines.append(f"  latency_tail_ms  {value:.6g} ms  (p{p:g} of {n} requests, {beyond} beyond)")
    lines += [
        f"  setup_s          {values['setup_s']:.6g} s  (median of {len(setup_times)} "
        f"fresh interpreters spread over the run: "
        f"{', '.join(f'{t:.3f}' for t in setup_times)})",
        f"  peak_rss_mb      {values['peak_rss_mb']:.6g} MB  (ru_maxrss, 1 process)",
        f"  error_rate       {failed / attempted:.6g}  ({failed} of {attempted} points)",
    ]
    lines += [f"  FAILED {reason}" for reason in checker.failures[:20]]
    # Every end-to-end figure, the report-only ones too, for the baseline.
    OUT.mkdir(exist_ok=True)
    details = dict(values, requests=n, error_rate=failed / attempted,
                   latency_tail_ms=None if tail is None else dict(zip(
                       ("percentile", "value", "beyond"), tail)),
                   setup_times_s=setup_times)
    (OUT / f"e2e-{args.workload}-seed{args.seed}.json").write_text(
        json.dumps(details, indent=1) + "\n")
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
    return lines, attempted, failed, metrics


def run_traced(args, zs, stream):
    """Run each request untraced and traced, back to back in alternating
    order, so that both see the same machine state."""
    reqs = [next(stream) for _ in range(TRACE_REQUESTS[args.workload])]
    recorder = spans.Recorder()
    targets, namespaces = spans.layer_targets(zs)
    plain, traced = [], []
    for i, req in enumerate(reqs):
        recorder.request = i
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                with recorder.installed(targets, namespaces):
                    traced.append(call(zs, req))
            else:
                plain.append(call(zs, req))
    checker = checks.Checker(zs, args.seed)
    failed = checker.check(plain + traced)
    attempted = 2 * sum(r.points for r in reqs)
    plain_wall = sum(o.latency for o in plain)
    traced_wall = sum(o.latency for o in traced)
    values = spans.layer_metrics(recorder.spans)
    # Same requests on both sides, so the throughput ratio is a time ratio.
    values["trace.overhead_frac"] = 1.0 - plain_wall / traced_wall
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    span_file = OUT / f"spans-{stem}.csv"
    spans.write_spans(recorder.spans, span_file)
    (OUT / f"layers-{stem}.json").write_text(json.dumps(values, indent=1) + "\n")

    lines = [f"workload {args.workload}  seed {args.seed}  traced requests {len(reqs)}  "
             f"untraced {plain_wall:.3f} s  traced {traced_wall:.3f} s  "
             f"spans {len(recorder.spans)} -> {span_file.relative_to(ROOT)}"]
    for name, (unit, _, moves) in spans.LAYER_METRICS.items():
        v = values[name]
        shown = "n/a (layer not reached)" if v is None else f"{v:.6g} {unit}"
        lines.append(f"  {name:32s} {shown:28s} moves {moves}")
    lines.append(f"  error_rate {failed / attempted:.6g}  ({failed} of {attempted} points)")
    lines += [f"  FAILED {reason}" for reason in checker.failures[:20]]
    metrics = {name: {"value": values[name], "unit": spans.LAYER_METRICS[name][0]}
               for name in spans.RESULT_LAYER_METRICS}
    return lines, attempted, failed, metrics


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    zs = import_program()
    if args.setup_probe:
        return setup_probe(args)
    stream = workloads.requests(args.workload, args.seed)
    warm = call(zs, next(stream))
    if warm.rc != 0:
        print(f"error: warm-up request exited with {warm.rc}", file=sys.stderr)
        return 1
    if args.trace:
        lines, attempted, failed, metrics = run_traced(args, zs, stream)
    else:
        lines, attempted, failed, metrics = run_untraced(args, zs, stream)
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
