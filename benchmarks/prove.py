#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise the spread of each metric.

Run from the repository root:

    python3 benchmarks/prove.py --workloads sweep figure2 oracle --seeds 1-10
    python3 benchmarks/prove.py --seeds 1-10 --baseline benchmarks/baseline.json
    python3 benchmarks/prove.py --trace --baseline benchmarks/baseline.json

It prints every run's report (each end-to-end metric with its unit,
including the tail latency and the error rate), then for each workload and
each end-to-end metric of ``BENCHMARK.json`` the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median
next to a third of the metric's bound.  ``--trace`` makes one traced run
per workload instead and collects every per-layer value.  ``--baseline``
merges the results into a JSON file together with the machine record, the
workload reasons and the mapping from layer metrics to end-to-end metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "benchmarks" / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    *report, result = proc.stdout.strip().splitlines()
    print("\n".join(report), flush=True)
    return json.loads(result)


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def lscpu_caches() -> dict:
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except OSError:
        return {}
    keep = ("Model name", "L2 cache", "L3 cache")
    return {k.strip(): v.strip() for k, _, v in (line.partition(":") for line in out.splitlines())
            if k.strip() in keep}


def machine_record() -> dict:
    import numpy

    caches = lscpu_caches()
    return {"nproc": os.cpu_count(), "cpu_model": caches.get("Model name", platform.processor()),
            "l2_cache": caches.get("L2 cache"), "l3_cache": caches.get("L3 cache"),
            "python": platform.python_version(), "numpy": numpy.__version__}


def computed_working_sets() -> dict:
    """Working sets derived from the algorithms, not measured."""
    rk4_n = dict(workloads.ORACLE_METHODS)["rk4"]
    ed_n = dict(workloads.ORACLE_METHODS)["exact_diagonalization"]
    # RK4 keeps y, k1..k4 and tmp (N+1 complex each) plus the coupling,
    # detuning and scratch vectors (N complex each).
    rk4_bytes = (6 * (rk4_n + 1) + 3 * rk4_n) * 16
    return {
        f"rk4_{rk4_n}_modes_mb": {"value": rk4_bytes / 1e6, "label": "computed",
                                  "note": "nine complex128 vectors; fits one core's 2 MiB L2"},
        f"ed_{ed_n}_modes_matrix_mb": {"value": (ed_n + 1) ** 2 * 8 / 1e6, "label": "computed",
                                       "note": "dense float64 (N+1)^2 Hamiltonian, "
                                               "once more for the eigenvectors"},
    }


def update_baseline(path: Path, section: str, results: dict) -> None:
    """Merge one section of per-workload results into the baseline file."""
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc.update({
        "machine": machine_record(),
        "run_seconds": SPEC["run_seconds"],
        "workloads": {w["name"]: w["why"] for w in SPEC["workloads"]},
        "layer_metrics": {name: {"unit": unit, "better": better, "moves": moves}
                          for name, (unit, better, moves) in spans.LAYER_METRICS.items()},
        "computed_working_sets": computed_working_sets(),
    })
    for w, value in results.items():
        doc.setdefault("results", {}).setdefault(w, {})[section] = value
    path.write_text(json.dumps(doc, indent=1) + "\n")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS),
                   choices=workloads.WORKLOADS)
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--trace", action="store_true",
                   help="one traced run per workload at the first seed, instead")
    p.add_argument("--baseline", type=Path, help="merge the results into this JSON file")
    args = p.parse_args()
    seeds = seed_range(args.seeds)

    if args.trace:
        results = {}
        for w in args.workloads:
            run_once(w, seeds[0], 1)
            layers = OUT / f"layers-{w}-seed{seeds[0]}.json"
            results[w] = {"seed": seeds[0], **json.loads(layers.read_text())}
        if args.baseline:
            update_baseline(args.baseline, "per_layer", results)
        return 0

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    results = {}
    for w in args.workloads:
        runs = [run_once(w, s, 0) for s in seeds]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"{w:8s} error_rate       {failed / attempted:.6g}  ({failed} of {attempted} points)")
        details = [json.loads((OUT / f"e2e-{w}-seed{s}.json").read_text()) for s in seeds]
        tails = [d["latency_tail_ms"] for d in details]
        if all(tails):
            stats = summarise([t["value"] for t in tails])
            pct = sorted({t["percentile"] for t in tails})
            print(f"{w:8s} latency_tail_ms  median {stats['median']:.6g}  (p{'/p'.join(f'{p:g}' for p in pct)})"
                  f"  spread {stats['spread']:.4f}")
        per_metric = {}
        for name, bound in bounds.items():
            stats = summarise([r["metrics"][name]["value"] for r in runs])
            per_metric[name] = stats
            flag = "" if stats["spread"] < bound / 3 else "  <-- above bound/3"
            print(f"{w:8s} {name:16s} median {stats['median']:.6g}  q1 {stats['q1']:.6g}  "
                  f"q3 {stats['q3']:.6g}  spread {stats['spread']:.4f}  bound/3 {bound / 3:.4f}{flag}")
        results[w] = {"seeds": args.seeds, "attempted": attempted, "failed": failed,
                      "metrics": per_metric, "runs": details}
    if args.baseline:
        update_baseline(args.baseline, "end_to_end", results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
