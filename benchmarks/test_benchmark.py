"""Tests of the benchmark's own code: statistics, spans, output checks, seeding."""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import numpy as np

import checks
import run
import spans
import workloads

zs = run.import_program()


def test_tail_percentile_is_highest_with_ten_samples_beyond():
    assert run.tail_latency([1.0] * 99) is None
    xs = [float(i) for i in range(1, 101)]
    assert run.tail_latency(xs) == (90.0, 90.0, 10)
    assert run.tail_latency([float(i) for i in range(1, 200)])[0] == 90.0
    assert run.tail_latency([float(i) for i in range(1, 201)]) == (95.0, 190.0, 10)
    assert run.tail_latency([float(i) for i in range(1, 1000)])[0] == 95.0
    assert run.tail_latency([float(i) for i in range(1, 1001)]) == (99.0, 990.0, 10)
    # order of the samples does not matter
    assert run.tail_latency(xs[::-1]) == (90.0, 90.0, 10)


def _span(i, start, end, parent=None):
    return spans.Span(i, parent, 0, "x", start, end, 0)


def test_self_time_subtracts_union_of_overlapping_children():
    parent = _span(1, 0.0, 10.0)
    children = [_span(2, 1.0, 4.0, 1), _span(3, 3.0, 6.0, 1),
                _span(4, 8.0, 12.0, 1), _span(5, -2.0, 0.5, 1)]
    # covered: [0, 0.5] + [1, 6] + [8, 10] = 7.5
    assert spans.self_time(parent, children) == 2.5
    assert spans.union_length([(1.0, 2.0), (1.5, 3.0), (5.0, 5.0)], 0.0, 10.0) == 2.0
    assert spans.self_time(parent, []) == 10.0


def test_recorder_threads_nesting_and_restore():
    originals = (zs.cli.main, zs.decay.modified_rate_quadrature,
                 zs.cli.modified_rate_quadrature, zs.oracle.modified_rate_quadrature,
                 zs.reservoir.SimpleReservoir.__call__, zs.reservoir.SimpleReservoir.eval,
                 zs.oracle.BandLimitedReservoir.__call__, zs.decay.sinc_sq,
                 np.polynomial.legendre.leggauss)
    recorder = spans.Recorder()
    targets, namespaces = spans.layer_targets(zs)
    with recorder.installed(targets, namespaces):
        assert zs.decay.modified_rate_quadrature is not originals[1]
        recorder.request = 0
        with contextlib.redirect_stdout(io.StringIO()):
            assert zs.cli.main(["figure2", "--points", "2", "--jobs", "2"]) == 0
        recorder.request = 1
        reservoir, omega0 = zs.reservoir.builtin_transition("3D-1S")
        band_limited = zs.oracle.BandLimitedReservoir(reservoir, (0.0, 5.0))
        zs.decay.modified_rate_quadrature(band_limited, omega0,
                                          zs.profile.MeasurementSchedule(nu=1e-2))
    assert (zs.cli.main, zs.decay.modified_rate_quadrature,
            zs.cli.modified_rate_quadrature, zs.oracle.modified_rate_quadrature,
            zs.reservoir.SimpleReservoir.__call__, zs.reservoir.SimpleReservoir.eval,
            zs.oracle.BandLimitedReservoir.__call__, zs.decay.sinc_sq,
            np.polynomial.legendre.leggauss) == originals

    by_id = {s.id: s for s in recorder.spans}
    (cmd,) = [s for s in recorder.spans if s.name == "cli.command"]
    quads = [s for s in recorder.spans if s.name == "decay.quadrature" and s.request == 0]
    # six points on two pool threads, each a child of the command span
    assert len(quads) == 6 and all(q.parent == cmd.id for q in quads)
    for s in recorder.spans:
        if s.request == 0 and s is not cmd:
            assert s.parent in by_id
    nested = [s for s in recorder.spans if s.name == "reservoir.eval"
              and by_id.get(s.parent, cmd).name == "reservoir.eval"]
    assert nested and all(s.request == 1 for s in nested)
    for s in nested:
        assert by_id[s.parent].start <= s.start <= s.end <= by_id[s.parent].end

    values = spans.layer_metrics(recorder.spans)
    assert values["decay.quadrature_calls"] == 7
    outer = [s for s in recorder.spans if s.name == "reservoir.eval"
             and by_id[s.parent].name == "decay.quadrature"]
    assert values["reservoir.nodes_per_quadrature"] == sum(s.size for s in outer) / 7
    assert values["oracle.rk4_s_per_point"] is None


def _sweep_outcome(rows_edit=None):
    req = workloads.Request(
        ("sweep", "--transition", "3D-1S", "--nu-min", "1e-2", "--nu-max", "1e-1",
         "--points", "3", "--jobs", "1"),
        3, {"transition": "3D-1S", "nu_min": 1e-2, "nu_max": 1e-1})
    outcome = run.call(zs, req)
    if rows_edit is not None:
        lines = outcome.stdout.splitlines()
        lines = [lines[0]] + [rows_edit(i, line) for i, line in enumerate(lines[1:])]
        outcome = outcome._replace(stdout="\n".join(lines) + "\n")
    return outcome


def test_output_check_accepts_good_rows_and_rejects_bad_ones():
    assert checks.Checker(zs, seed=1).check([_sweep_outcome()]) == 0

    def perturb(i, line):
        if i != 1:
            return line
        fields = line.split(",")
        fields[1] = f"{float(fields[1]) * (1 + 1e-4):.9g}"
        return ",".join(fields)

    checker = checks.Checker(zs, seed=1)
    assert checker.check([_sweep_outcome(perturb)]) == 1
    assert "vs tight" in checker.failures[0]

    def unconverged(i, line):
        return line.replace(",ok", ",unconverged") if i == 0 else line

    assert checks.Checker(zs, seed=1).check([_sweep_outcome(unconverged)]) == 1


def test_output_check_rejects_failed_oracle_and_nonzero_exit():
    req = workloads.Request(("oracle",), 1, {"eta": 3, "nu": 1e-2, "method": "rk4",
                                             "n_modes": 10_000})
    doc = {"rel_difference": 0.002, "method": "rk4", "n_modes": 10_000, "eta": 3,
           "nu_over_omega0": 1e-2}
    good = checks.Outcome(req, 0, json.dumps(doc), 1.0)
    bad = checks.Outcome(req, 0, json.dumps(dict(doc, rel_difference=0.05)), 1.0)
    crashed = checks.Outcome(req, 3, "", 1.0)
    assert checks.Checker(zs, seed=1).check([good, bad, crashed]) == 2


def test_same_seed_regenerates_identical_requests():
    for w in workloads.WORKLOADS:
        a, b, c = (workloads.requests(w, s) for s in (7, 7, 8))
        first = [next(a) for _ in range(12)]
        assert first == [next(b) for _ in range(12)]
        assert first != [next(c) for _ in range(12)]


def test_sweep_stream_covers_every_transition_in_each_block():
    stream = workloads.requests("sweep", 3)
    for _ in range(5):
        block = {next(stream).params["transition"] for _ in range(4)}
        assert block == set(workloads.SWEEP_TRANSITIONS)


def test_benchmark_json_declares_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (n, *spans.LAYER_METRICS[n][:2]) for n in spans.RESULT_LAYER_METRICS]


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
