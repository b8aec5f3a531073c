"""CLI contract tests: schemas, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from zenoscope import cli
from zenoscope.cli import FIGURE2_HEADER, SWEEP_HEADER, SweepSpec, dumps_json, main
from zenoscope.decay import modified_rate_quadrature
from zenoscope.errors import DomainError
from zenoscope.profile import MeasurementSchedule
from zenoscope.reservoir import SimpleReservoir


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_dumps_json_round_trip():
    doc = {"ratio": 6.379539253979501, "n": 3, "flag": True, "name": "3D-1S",
           "none": None, "list": [1.0, 2.5]}
    text = dumps_json(doc)
    assert json.loads(text) == doc


# ---------------------------------------------------------------------------
# rate
# ---------------------------------------------------------------------------

def test_rate_analytic_quadrupole(capsys):
    code, out, _ = run_cli(capsys, "rate", "--transition", "3D-1S",
                           "--nu", "1e-3", "--method", "analytic")
    assert code == 0
    doc = json.loads(out)
    assert doc["ratio"] == pytest.approx(6.3795392539795, rel=1e-10)
    assert doc["method"] == "analytic_simple"
    assert doc["rwa_warning"] is False
    assert doc["converged"] is True
    assert set(doc) == {"ratio", "gamma0", "method", "err_estimate", "rwa_warning",
                        "converged"}


def test_rate_analytic_dipole_is_unity(capsys):
    code, out, _ = run_cli(capsys, "rate", "--transition", "2P-1S",
                           "--nu", "1e-3", "--method", "analytic")
    assert code == 0
    assert json.loads(out)["ratio"] == 1.0


def test_rate_quadrature(capsys):
    code, out, _ = run_cli(capsys, "rate", "--transition", "3D-1S", "--nu", "1e-3")
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "quadrature"
    assert doc["ratio"] == pytest.approx(6.485, rel=1e-3)
    assert doc["converged"] is True


def test_rate_reports_unconverged_quadrature(capsys, monkeypatch):
    # a tail heavy enough that the truncation bound exceeds rel_tol at nu = 0.1
    heavy = SimpleReservoir(d=1.0, eta=1, mu=2, omega_x=10.0)
    monkeypatch.setattr(cli, "_resolve_transition", lambda spec: (heavy, 1.0))
    code, out, _ = run_cli(capsys, "rate", "--transition", "heavy", "--nu", "0.1")
    assert code == 0
    doc = json.loads(out)
    assert doc["converged"] is False
    assert list(doc) == ["ratio", "gamma0", "method", "err_estimate", "rwa_warning",
                         "converged"]


def test_rate_reports_an_unconverged_truncation_bound_without_panels(capsys):
    # at nu = 1e308 no panel lies above resonance and the truncation bound
    # is infinite, which rel_tol cannot accept; JSON holds it as null
    code, out, _ = run_cli(capsys, "rate", "--transition", "3D-1S", "--nu", "1e308")
    assert code == 0
    doc = json.loads(out)
    assert doc["err_estimate"] is None
    assert doc["converged"] is False


def _negative_off_resonance(omega):
    # positive at omega0 = 1, so the free rate is, and -1 at every quadrature node
    w = np.asarray(omega, dtype=float)
    return np.where(w == 1.0, 1.0, -1.0)


def test_rate_numerical_failure_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_resolve_transition", lambda spec: (_negative_off_resonance, 1.0))
    code, out, err = run_cli(capsys, "rate", "--transition", "negative", "--nu", "1e-3")
    assert code == 3
    assert out == ""
    assert err == "numerical failure: quadrature produced a non-positive modified rate\n"


def test_sweep_numerical_failures_keep_their_rows_and_exit_0(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_resolve_transition", lambda spec: (_negative_off_resonance, 1.0))
    code, out, _ = run_cli(capsys, "sweep", "--transition", "negative", "--nu-min", "1e-3",
                           "--nu-max", "1e-1", "--points", "3")
    assert code == 0
    rows = out.rstrip("\n").split("\n")[1:]
    nus = SweepSpec(transition="negative", nu_min=1e-3, nu_max=1e-1, points=3).nu_values()
    assert rows == [f"{nu:.9g},,,,,error:NumericalError" for nu in nus]


def test_rate_unknown_transition(capsys):
    code, out, err = run_cli(capsys, "rate", "--transition", "bogus", "--nu", "1e-3")
    assert code == 2
    assert out == ""
    for name in ("2P-1S", "3D-1S", "4F-1S"):
        assert name in err


def test_rate_from_config_file(capsys, tmp_path):
    cfg = {"character": "electric", "n_g": 1, "l_g": 0, "m_g": 0,
           "n_e": 3, "l_e": 2, "m_e": 0, "z": 1.0}
    path = tmp_path / "reservoir.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(capsys, "rate", "--transition", str(path),
                           "--nu", "1e-3", "--method", "analytic")
    assert code == 0
    # alpha-exact cutoff ratio differs a hair from the rounded builtin value
    assert json.loads(out)["ratio"] == pytest.approx(6.3795, rel=1e-3)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_schema_and_order(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--transition", "3D-1S",
                           "--nu-min", "1e-4", "--nu-max", "1e-2",
                           "--points", "5")
    assert code == 0
    lines = out.rstrip("\n").split("\n")
    # frozen schema: literal header bytes
    assert lines[0] == ("nu_over_omega0,ratio_quadrature,ratio_analytic,"
                        "rel_err,rwa_warning,status")
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 6
    nus = [float(line.split(",")[0]) for line in lines[1:]]
    assert nus == sorted(nus)
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 6
        assert fields[5] == "ok"
        rel_err = float(fields[3])
        assert rel_err < 0.02


def test_sweep_two_point_degenerate(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--transition", "2P-1S",
                           "--nu-min", "1e-3", "--nu-max", "2e-3",
                           "--points", "2", "--spacing", "linear")
    assert code == 0
    lines = out.rstrip("\n").split("\n")
    assert len(lines) == 3


def test_sweep_methods_subset(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--transition", "3D-1S",
                           "--nu-min", "1e-3", "--nu-max", "2e-3",
                           "--points", "2", "--methods", "analytic")
    assert code == 0
    for line in out.rstrip("\n").split("\n")[1:]:
        fields = line.split(",")
        assert fields[1] == ""   # quadrature column empty
        assert fields[2] != ""
        assert fields[3] == ""   # no rel_err without both methods


def test_sweep_deterministic_and_job_invariant(capsys):
    args = ("sweep", "--transition", "3D-1S", "--nu-min", "1e-4",
            "--nu-max", "1e-3", "--points", "4")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    _, out3, _ = run_cli(capsys, *args, "--jobs", "2")
    assert out3 == out1


def test_sweep_failed_points_keep_their_own_rows(capsys, monkeypatch):
    def sinking(omega):
        # between nu = 1e-2 and 0.3 the modified rate turns negative above ~0.06
        w = np.asarray(omega, dtype=float)
        return np.where(w < 5.0, 1.0, np.where(w <= 6.0, -1000.0, 0.0))

    monkeypatch.setattr(cli, "_resolve_transition", lambda spec: (sinking, 1.0))
    code, out, _ = run_cli(capsys, "sweep", "--transition", "sinking", "--nu-min", "1e-2",
                           "--nu-max", "0.3", "--points", "5", "--methods", "quadrature")
    assert code == 0
    rows = [line.split(",") for line in out.rstrip("\n").split("\n")[1:]]
    assert [r[5] for r in rows] == ["ok"] * 3 + ["error:NumericalError"] * 2
    nus = SweepSpec(transition="sinking", nu_min=1e-2, nu_max=0.3, points=5).nu_values()
    for r, nu in zip(rows[:3], nus):
        want = modified_rate_quadrature(sinking, 1.0, MeasurementSchedule(nu=nu))
        assert r[1] == f"{want.ratio:.9g}"
    assert all(r[1:5] == ["", "", "", ""] for r in rows[3:])


def test_sweep_marks_unconverged_points(capsys, monkeypatch):
    # the truncation bound of this heavy tail exceeds rel_tol above nu ~ 0.04
    heavy = SimpleReservoir(d=1.0, eta=1, mu=2, omega_x=10.0)
    monkeypatch.setattr(cli, "_resolve_transition", lambda spec: (heavy, 1.0))
    code, out, _ = run_cli(capsys, "sweep", "--transition", "heavy", "--nu-min", "1e-2",
                           "--nu-max", "0.3", "--points", "4")
    assert code == 0
    rows = [line.split(",") for line in out.rstrip("\n").split("\n")[1:]]
    assert [r[5] for r in rows] == ["ok", "ok", "unconverged", "unconverged"]
    nus = SweepSpec(transition="heavy", nu_min=1e-2, nu_max=0.3, points=4).nu_values()
    for r, nu in zip(rows, nus):
        # an unconverged point still reports its ratio
        want = modified_rate_quadrature(heavy, 1.0, MeasurementSchedule(nu=nu))
        assert r[1] == f"{want.ratio:.9g}" and want.converged == (r[5] == "ok")


@pytest.mark.parametrize("error", [ValueError, FloatingPointError])
def test_sweep_reservoir_errors_keep_their_own_rows(capsys, monkeypatch, error):
    base = SimpleReservoir(d=1.0, eta=3, mu=6, omega_x=50.0)

    def touchy(omega):
        # the nearest quadrature node sits 0.0377 nu from resonance, so only
        # the middle point, nu = 1e-4, meets a node in (1e-6, 1e-5)
        w = np.asarray(omega, dtype=float)
        if w.ndim and 1e-6 < np.min(np.abs(w - 1.0)) < 1e-5:
            raise error("reservoir undefined here")
        return base(omega)

    monkeypatch.setattr(cli, "_resolve_transition", lambda spec: (touchy, 1.0))
    code, out, _ = run_cli(capsys, "sweep", "--transition", "touchy", "--nu-min", "1e-6",
                           "--nu-max", "1e-2", "--points", "5", "--methods", "quadrature")
    assert code == 0
    rows = [line.split(",") for line in out.rstrip("\n").split("\n")[1:]]
    assert [r[5] for r in rows] == ["ok", "ok", f"error:{error.__name__}", "ok", "ok"]
    assert rows[2][1:5] == ["", "", "", ""]
    nus = SweepSpec(transition="touchy", nu_min=1e-6, nu_max=1e-2, points=5).nu_values()
    for i in (0, 1, 3, 4):
        want = modified_rate_quadrature(touchy, 1.0, MeasurementSchedule(nu=nus[i]))
        assert rows[i][1] == f"{want.ratio:.9g}"


def test_sweep_error_rows_keep_the_quadrature_rwa_flag(capsys, monkeypatch):
    # the quadrature succeeds on a plain callable; the closed form then
    # rejects it, and the row keeps the rwa flag the quadrature found
    def plain(omega):
        return SimpleReservoir(d=1.0, eta=3, mu=6, omega_x=50.0)(omega)

    monkeypatch.setattr(cli, "_resolve_transition", lambda spec: (plain, 1.0))
    code, out, _ = run_cli(capsys, "sweep", "--transition", "plain", "--nu-min", "1e-3",
                           "--nu-max", "1e-1", "--points", "3", "--methods", "both")
    assert code == 0
    rows = out.rstrip("\n").split("\n")[1:]
    nus = SweepSpec(transition="plain", nu_min=1e-3, nu_max=1e-1, points=3).nu_values()
    assert rows == [f"{nu:.9g},,,,false,error:DomainError" for nu in nus]


def test_sweep_spec_validation():
    spec = SweepSpec(transition="3D-1S", nu_min=1e-4, nu_max=1e-2, points=5)
    values = spec.nu_values()
    assert len(values) == 5 and values == sorted(values)
    with pytest.raises(DomainError):
        SweepSpec(transition="3D-1S", nu_min=0.0, nu_max=1e-2)
    with pytest.raises(DomainError):
        SweepSpec(transition="3D-1S", nu_min=1e-2, nu_max=1e-4)
    with pytest.raises(DomainError):
        SweepSpec(transition="3D-1S", nu_min=1e-4, nu_max=1e-2, points=1)
    with pytest.raises(DomainError):
        SweepSpec(transition="3D-1S", nu_min=1e-4, nu_max=1e-2, spacing="cubic")
    with pytest.raises(DomainError):
        SweepSpec(transition="3D-1S", nu_min=1e-4, nu_max=math.inf)
    # rejected before nu_values() could allocate the grid
    SweepSpec(transition="3D-1S", nu_min=1e-4, nu_max=1e-2, points=1_000_000)
    for points in (1_000_001, 10 ** 9):
        with pytest.raises(DomainError, match="points"):
            SweepSpec(transition="3D-1S", nu_min=1e-4, nu_max=1e-2, points=points)


def test_sweep_rejects_an_infinite_bound(capsys):
    code, out, err = run_cli(capsys, "sweep", "--transition", "3D-1S",
                             "--nu-min", "1e-4", "--nu-max", "inf", "--points", "3")
    assert code == 2 and out == ""
    assert "max" in err


def test_nu_too_small_for_the_quadrature_is_a_domain_error(capsys):
    code, out, err = run_cli(capsys, "rate", "--transition", "3D-1S", "--nu", "1e-310")
    assert code == 2 and out == ""
    assert "too small" in err
    code, out, _ = run_cli(capsys, "sweep", "--transition", "3D-1S", "--nu-min", "1e-310",
                           "--nu-max", "1e-309", "--points", "2", "--methods", "quadrature")
    assert code == 0
    assert out.splitlines()[1:] == ["1e-310,,,,,error:DomainError",
                                    "1e-309,,,,,error:DomainError"]


def test_tiny_nu_reports_its_rate_without_overflow_warnings():
    # far out u^2 overflows; 2 R/u^2 -> 0 is the right limit and no cause for a warning
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-W", "default", "-m", "zenoscope.cli", "rate",
                           "--transition", "2P-1S", "--nu", "1e-300"],
                          capture_output=True, text=True, env=env, check=False)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == ('{"ratio": 0.99999999999848677, "gamma0": 6.2831016474143748, '
                           '"method": "quadrature", "err_estimate": 3.9161745526971594e-08, '
                           '"rwa_warning": false, "converged": true}\n')


def _config_with(tmp_path, **changes):
    cfg = {"character": "electric", "n_g": 1, "l_g": 0, "m_g": 0,
           "n_e": 3, "l_e": 2, "m_e": 0, "z": 1.0, **changes}
    path = tmp_path / "reservoir.json"
    path.write_text(json.dumps(cfg))  # json writes NaN as a bare NaN, which it reads back
    return str(path)


def test_non_finite_config_values_are_domain_errors(capsys, tmp_path):
    path = _config_with(tmp_path, z=math.nan)
    code, out, err = run_cli(capsys, "rate", "--transition", path, "--nu", "1e-3")
    assert code == 2 and out == ""
    assert "charge z" in err
    code, out, _ = run_cli(capsys, "sweep", "--transition", path, "--nu-min", "1e-4",
                           "--nu-max", "1e-2", "--points", "3")
    assert code == 2 and out == ""
    path = _config_with(tmp_path, terms=[{"J": 2, "r": 0, "D": math.nan}])
    code, out, err = run_cli(capsys, "rate", "--transition", path, "--nu", "1e-3",
                             "--method", "analytic")
    assert code == 2 and out == ""
    assert "D must be finite" in err


_GOOD_CONFIG = ('{"character": "electric", "n_g": 1, "l_g": 0, "m_g": 0, '
                '"n_e": 3, "l_e": 2, "m_e": 0')


@pytest.mark.parametrize("text, named", [
    (_GOOD_CONFIG + ', "terms": [{"r": 0, "D": 1.0}]}', "'J'"),
    (_GOOD_CONFIG.replace('"n_g": 1', '"n_g": "one"') + "}", "'n_g'"),
    ("[" + _GOOD_CONFIG + "}]", "JSON object"),
    ("character = electric\n", "reservoir.json is not JSON"),
    # int() would truncate these to 3, (2, 0) and (2, 0), parse "2" and take true as 1
    (_GOOD_CONFIG.replace('"n_e": 3', '"n_e": 3.9') + "}", "'n_e'"),
    (_GOOD_CONFIG + ', "terms": [{"J": 2.6, "r": 0, "D": 1.0}]}', "'J'"),
    (_GOOD_CONFIG + ', "terms": [{"J": 2, "r": 0.4, "D": 1.0}]}', "'r'"),
    (_GOOD_CONFIG.replace('"l_e": 2', '"l_e": "2"') + "}", "'l_e'"),
    (_GOOD_CONFIG.replace('"n_g": 1', '"n_g": true') + "}", "'n_g'"),
], ids=["term-without-J", "non-integer-n_g", "top-level-list", "not-json", "fractional-n_e",
        "fractional-J", "fractional-r", "string-l_e", "bool-n_g"])
def test_malformed_config_is_a_domain_error(capsys, tmp_path, text, named):
    path = tmp_path / "reservoir.json"
    path.write_text(text)
    for argv in (("rate", "--transition", str(path), "--nu", "1e-3"),
                 ("sweep", "--transition", str(path), "--nu-min", "1e-4", "--nu-max", "1e-2",
                  "--points", "3")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and named in err, err


def test_sweep_invalid_range(capsys):
    code, _, err = run_cli(capsys, "sweep", "--transition", "3D-1S",
                           "--nu-min", "1e-2", "--nu-max", "1e-3",
                           "--points", "4")
    assert code == 2
    assert "min" in err


# ---------------------------------------------------------------------------
# figure2 preset
# ---------------------------------------------------------------------------

def test_figure2_preset(capsys):
    code, out, _ = run_cli(capsys, "figure2", "--points", "3")
    assert code == 0
    lines = out.rstrip("\n").split("\n")
    assert lines[0] == ("transition,nu_over_omega0,ratio_quadrature,"
                        "ratio_analytic,rel_err,rwa_warning,status")
    assert lines[0] == FIGURE2_HEADER
    assert len(lines) == 1 + 3 * 3
    names = {line.split(",")[0] for line in lines[1:]}
    assert names == {"2P-1S", "3D-1S", "4F-1S"}


# ---------------------------------------------------------------------------
# worker processes
# ---------------------------------------------------------------------------

DATA = Path(__file__).resolve().parent / "data"
# 300 rows, enough for three workers, with rwa_warning rows above nu = 1
LONG_SWEEP = ("sweep", "--transition", str(DATA / "5D-1S.json"), "--nu-min", "1e-6",
              "--nu-max", "3", "--points", "300")


def _count_forks(monkeypatch, refuse=False):
    """Count os.fork calls from now on; with refuse, each raises OSError."""
    forks, fork = [], os.fork

    def counted():
        forks.append(1)
        if refuse:
            raise OSError("fork refused")
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


@pytest.mark.parametrize("argv", [("figure2", "--points", "200"), LONG_SWEEP],
                         ids=["figure2", "sweep"])
def test_split_output_equals_the_serial_output(capsys, monkeypatch, argv):
    forks = _count_forks(monkeypatch)
    outs = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(cli, "_cpu_count", lambda: cpus)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        outs.append(out)
    assert len(forks) == 0 + 1 + 2
    assert outs[1] == outs[0] and outs[2] == outs[0]
    assert (",true," in outs[0]) == (argv[0] == "sweep")


@pytest.mark.parametrize("bad", [2, 3], ids=["in-a-worker", "in-the-parent"])
def test_a_raising_row_raises_as_serially_and_leaves_no_worker(capsys, monkeypatch, bad):
    # on two CPUs row 0 runs before the fork, then rows 1, 3, ... in this
    # process and rows 2, 4, ... in the worker
    nus = SweepSpec(transition="5D-1S", nu_min=1e-6, nu_max=3, points=300).nu_values()
    row = cli._sweep_csv_row

    def flaky(reservoir, omega0, nu, *methods):
        if nu == nus[bad]:
            raise RuntimeError(f"row {bad}")
        return row(reservoir, omega0, nu, *methods)

    monkeypatch.setattr(cli, "_sweep_csv_row", flaky)
    forks = _count_forks(monkeypatch)
    outs = []
    for cpus in (1, 2):
        monkeypatch.setattr(cli, "_cpu_count", lambda: cpus)
        with pytest.raises(RuntimeError, match=f"^row {bad}$"):
            main(list(LONG_SWEEP))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        outs.append(capsys.readouterr().out)
    assert len(forks) == 1
    # the rows before the failing one, as the serial path prints them
    assert outs[1] == outs[0] and outs[0].count("\n") == 1 + bad


def test_requests_too_short_to_pay_for_a_fork_do_not_fork(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_cpu_count", lambda: 8)
    forks = _count_forks(monkeypatch, refuse=True)
    nu = ("--nu-min", "1e-4", "--nu-max", "1e-2")
    for argv in (("sweep", "--transition", "3D-1S", *nu, "--points", "20"),
                 ("figure2", "--points", "20"),
                 ("sweep", "--transition", "3D-1S", *nu, "--points", "5000",
                  "--methods", "analytic")):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out.endswith(",ok\n")
    assert forks == []


def test_no_fork_beside_another_thread_or_off_linux(capsys, monkeypatch):
    golden = (DATA / "golden" / "figure2-points200.csv").read_text()
    monkeypatch.setattr(cli, "_cpu_count", lambda: 2)
    forks = _count_forks(monkeypatch, refuse=True)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60,))
    thread.start()
    try:
        assert run_cli(capsys, "figure2", "--points", "200")[:2] == (0, golden)
    finally:
        release.set()
        thread.join(60)
    assert not thread.is_alive()
    monkeypatch.setattr(sys, "platform", "darwin")
    assert run_cli(capsys, "figure2", "--points", "200")[:2] == (0, golden)
    assert forks == []
    # a refused fork runs the request serially
    monkeypatch.setattr(sys, "platform", "linux")
    assert run_cli(capsys, "figure2", "--points", "200")[:2] == (0, golden)
    assert forks == [1]


def test_a_warning_prints_once_whatever_the_worker_count(tmp_path):
    # z = 60 makes omega_x/omega0 = 6.85, below the closed form's wide-reservoir bound
    path = _config_with(tmp_path, z=60.0)
    script = "\n".join([
        "import sys",
        "from zenoscope import cli",
        "cli._cpu_count = lambda: int(sys.argv[1])",
        "forks = []",
        "sys.addaudithook(lambda event, args: event == 'os.fork' and forks.append(1))",
        "code = cli.main(sys.argv[2:])",
        "print('forks', len(forks), file=sys.stderr)",
        "sys.exit(code)"])
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    runs = [subprocess.run([sys.executable, "-c", script, str(cpus), "sweep", "--transition",
                            path, "--nu-min", "1e-4", "--nu-max", "1e-2", "--points", "300"],
                           capture_output=True, text=True, env=env, check=True)
            for cpus in (1, 3)]
    assert runs[1].stdout == runs[0].stdout
    warned = [run.stderr.splitlines() for run in runs]
    assert warned[0][-1] == "forks 0" and warned[1][-1] == "forks 2"
    assert warned[1][:-1] == warned[0][:-1]
    assert sum("UserWarning: cutoff/transition frequency ratio 6.8518 < 10" in line
               for line in warned[0]) == 1


# ---------------------------------------------------------------------------
# table1
# ---------------------------------------------------------------------------

def test_table1_output(capsys):
    code, out, _ = run_cli(capsys, "table1")
    assert code == 0
    lines = out.rstrip("\n").split("\n")
    assert lines[0] == "transition\teta\tmu\tomega_x_over_omega0"
    rows = {line.split("\t")[0]: line.split("\t")[1:] for line in lines[1:]}
    assert rows["2P-1S"] == ["1", "4", "548.1"]
    assert rows["3D-1S"] == ["3", "6", "411.1"]
    assert rows["4F-1S"] == ["5", "8", "365.4"]


def test_table1_alpha_override(capsys):
    _, out_default, _ = run_cli(capsys, "table1")
    # a slightly different alpha still lands on the same 4-figure display
    code, out, _ = run_cli(capsys, "table1", "--alpha", "0.00729735")
    assert code == 0
    assert out == out_default
    # a markedly different alpha visibly recomputes the ratio column
    code, out, _ = run_cli(capsys, "table1", "--alpha", "0.01")
    assert code == 0
    row = [l for l in out.split("\n") if l.startswith("3D-1S")][0]
    # 3 / alpha for the quadrupole line
    assert float(row.split("\t")[3]) == pytest.approx(300.0, rel=1e-3)


@pytest.mark.parametrize("alpha", ["0", "nan"])
def test_table1_rejects_a_bad_alpha(capsys, alpha):
    code, out, err = run_cli(capsys, "table1", "--alpha", alpha)
    assert code == 2
    assert out == ""
    assert "alpha" in err


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def test_oracle_command(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--nu", "3e-2",
                           "--n-modes", "2000")
    assert code == 0
    doc = json.loads(out)
    assert doc["rel_difference"] < 0.03
    assert doc["ratio_quadrature"] > 1.0
    assert doc["method"] == "rk4"


@pytest.mark.parametrize("nu", ["1e-300", "1e-16"])
def test_oracle_rejects_a_nu_too_small_for_its_band(capsys, nu):
    # omega0 +- 1e3 nu rounds to the single point 1.0, or its 10^4 modes
    # round onto each other: the error names nu, not the band the command
    # builds from it, nor a division by the zero spacing
    code, out, err = run_cli(capsys, "oracle", "--nu", nu)
    assert code == 2 and out == ""
    assert err.startswith(f"error: measurement rate nu={float(nu)!r} is too small"), err


def test_oracle_rejects_a_vanishing_free_rate(capsys):
    # R(omega0) underflows to 0 at this cutoff: a usage error, raised before
    # the modes are integrated into a survival probability of exactly 1
    code, out, err = run_cli(capsys, "oracle", "--nu", "1e-2", "--omega-x", "1e308",
                             "--n-modes", "2000", "--method", "exact_diagonalization")
    assert code == 2 and out == ""
    assert "free rate vanishes at omega0" in err


# ---------------------------------------------------------------------------
# ca
# ---------------------------------------------------------------------------

def test_ca_command(capsys):
    code, out, _ = run_cli(capsys, "ca")
    assert code == 0
    doc = json.loads(out)
    assert doc["ratio_sq"] == pytest.approx(6.6e6, rel=0.02)
    assert doc["required_nu"] == pytest.approx(4e6, rel=0.10)
    assert doc["precision"] == 0.01
    assert doc["prefactor_a"] == 1


def test_ca_prefactor_flag(capsys):
    _, out1, _ = run_cli(capsys, "ca")
    _, out2, _ = run_cli(capsys, "ca", "--prefactor-a", "10")
    nu1 = json.loads(out1)["required_nu"]
    nu2 = json.loads(out2)["required_nu"]
    assert nu2 == pytest.approx(nu1 / 10.0, rel=1e-12)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_ca_rejects_a_non_finite_prefactor(capsys, value):
    # a usage error that names the flag; a NaN required_nu would not be JSON
    code, out, err = run_cli(capsys, "ca", "--prefactor-a", value)
    assert code == 2 and out == ""
    assert "prefactor a must be finite and positive" in err


def test_build_parser_returns_a_fresh_parser():
    parser = cli.build_parser()
    parser.add_argument("--extra")
    assert cli.build_parser() is not parser
    assert main(["table1"]) == 0
