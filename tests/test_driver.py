import dataclasses
import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest
import scipy

import penaltyflow
from penaltyflow import continuity, driver, momentum
from penaltyflow.cli import main as cli_main
from penaltyflow.config import (RunConfig, default_config, load_config,
                                write_example_config)
from penaltyflow.driver import run, sweep
from penaltyflow.errors import (ConfigError, LinearSolveDiverged,
                                MassBudgetError)
from test_checks import check_test

# properties kept once, as checks in penaltyflow.checks
test_zero_data_run_inert = check_test("zero_data_run_is_inert")


def test_example_config_roundtrip(tmp_path):
    path = tmp_path / "example.cfg"
    write_example_config(path)
    cfg = load_config(path)
    assert cfg == default_config()


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[params]\ndelta = 1e-3\ndeltaa = 1e-3\n")
    with pytest.raises(ConfigError, match="deltaa"):
        load_config(path)
    path.write_text("[paramz]\ndelta = 1e-3\n")
    with pytest.raises(ConfigError, match="paramz"):
        load_config(path)


def test_case_sensitive_knobs(tmp_path):
    path = tmp_path / "nn.cfg"
    path.write_text("[params]\nn = 500\nN = 128\n")
    cfg = load_config(path)
    assert cfg.n == 500.0
    assert cfg.N == 128.0


def test_initial_margin_rejected():
    with pytest.raises(ConfigError, match="margin"):
        default_config(x0=0.2, y0=0.5, radius=0.15)


def test_out_of_range_params_and_grid_rejected():
    with pytest.raises(ConfigError, match="gamma"):
        default_config(gamma=1.4)
    with pytest.raises(ConfigError, match="8x8"):
        default_config(nx=4)


def test_delta_of_one_or_more_rejected():
    # the initial density's clamp [delta, 1/delta] is empty from delta = 1
    for delta in (1.0, 2.0, 1e11):
        with pytest.raises(ConfigError, match="delta"):
            default_config(delta=delta)
    default_config(delta=0.5)


@pytest.mark.parametrize("key", ["rho0", "rho_b"])
def test_nonpositive_density_rejected(key):
    # the run would raise a bare ValueError in set-up
    for value in (0.0, -1.0):
        with pytest.raises(ConfigError, match=key):
            default_config(nx=24, ny=24, r=0.1, t_end=0.01, **{key: value})
    default_config(nx=24, ny=24, r=0.1, t_end=0.01, **{key: 0.05})


def test_unresolved_mollifier_rejected():
    # r < 2 max(dx, dy): the run would raise KernelUnresolved in set-up
    with pytest.raises(ConfigError, match="mollifier"):
        default_config(nx=32, ny=32, r=0.05)
    default_config(nx=32, ny=32, r=0.0625)
    # without a body no kernel is built
    default_config(nx=32, ny=32, r=0.05, body_present=False)


def test_erosion_of_the_whole_body_rejected():
    # r >= radius: make_body would raise InvalidShape in set-up
    with pytest.raises(ConfigError, match="erosion"):
        default_config(r=0.15, radius=0.15)


def test_probe_ring_in_the_wall_collar_rejected():
    # the body's margin 0.13 exceeds h, but the probe ring 2 cells outside
    # it (dx = 1/24) lies within 2 cells of the wall: ProbeOutside at step 1
    with pytest.raises(ConfigError, match="probe ring"):
        default_config(nx=24, ny=24, r=0.09, x0=0.28)
    default_config(nx=24, ny=24, r=0.09, x0=0.32)


def test_default_run_outputs(tmp_path):
    cfg = default_config(t_end=0.01, snapshots=True, cadence=3, vtk=True)
    rep = run(cfg, outdir=str(tmp_path))
    assert (tmp_path / "diagnostics.csv").exists()
    assert (tmp_path / "body.csv").exists()
    assert (tmp_path / "report.json").exists()
    snaps = list(tmp_path.glob("snap_*_rho.dat"))
    assert snaps, "cadence snapshots written"
    assert list(tmp_path.glob("snap_*.vti"))
    header = (tmp_path / "diagnostics.csv").read_text().splitlines()[0]
    assert header == ("t,E,dissipation,eps_term,outflow_term,"
                      "convexity_slack_min,mass_residual,energy_residual,"
                      "rigidity,pnorm_gamma,pnorm_beta,Fx,Fy,torque,margin")
    body_header = (tmp_path / "body.csv").read_text().splitlines()[0]
    assert body_header == "t,Xx,Xy,theta,Vx,Vy,w,rigidity_defect,margin"
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["steps"] == rep.steps
    assert report["aggregates"]["max_mass_residual"] <= 1e-10
    assert "error" not in report
    versions = report["versions"]
    assert versions["python"] == platform.python_version()
    assert versions["numpy"] == np.__version__
    assert versions["scipy"] == scipy.__version__
    assert all(b["threads"] == 1 and os.path.isfile(b["library"])
               for b in versions["blas"])


def test_outdir_env_override(tmp_path, monkeypatch):
    target = tmp_path / "env_out"
    monkeypatch.setenv("PENALTYFLOW_OUTDIR", str(target))
    cfg = default_config(t_end=0.004, nx=32, ny=32, r=0.07, dt=2e-3)
    rep = run(cfg)
    assert rep.outdir == str(target)
    assert (target / "diagnostics.csv").exists()


def test_early_stop_semantics():
    cfg = default_config(nx=64, ny=64, h=0.08, r=0.04, radius=0.12,
                         x0=0.72, y0=0.5, u0="stream", n=1e3, speed=0.4,
                         t_end=1.5)
    rep = run(cfg, outdir=False)
    assert rep.stopped_early
    assert rep.final_t < 1.5
    # the violating margin belongs to the would-be next step
    assert rep.violation_margin < 0
    assert rep.violation_t > rep.final_t
    # every accepted row respects the guard
    assert all(r[8] >= 0 for r in rep.body_rows)
    # a Stepper takes the same steps, and the step the guard rejects leaves
    # its state as it was
    s, _ = driver.start(cfg)
    lines = []
    while True:
        kept = (s.t, s.steps, s.rho, s.vel, s.body, s.chi, s.E_prev)
        rho, u, v = s.rho.copy(), s.vel.u.copy(), s.vel.v.copy()
        rec = s.step(driver._timestep(cfg, s))
        if not rec.accepted:
            break
        lines.append((driver._csv_line(rec.row.csv_values()),
                      driver._csv_line(s.body_values(rec))))
    assert rec.row is None and rec.body is not None
    assert all(a is b for a, b in
               zip(kept, (s.t, s.steps, s.rho, s.vel, s.body, s.chi,
                          s.E_prev)))
    assert (np.array_equal(s.rho, rho) and np.array_equal(s.vel.u, u)
            and np.array_equal(s.vel.v, v))
    assert lines == [(driver._csv_line(r.csv_values()), driver._csv_line(b))
                     for r, b in zip(rep.rows, rep.body_rows)]
    assert s.t == rep.final_t and s.steps == rep.steps == len(lines)
    assert (rec.t, rec.margin) == (rep.violation_t, rep.violation_margin)


def test_sweep_requires_monotone_values():
    cfg = default_config(t_end=0.004, nx=32, ny=32, r=0.07)
    with pytest.raises(ConfigError):
        sweep(cfg, "n", [1e3, 1e2, 1e4])
    with pytest.raises(ConfigError):
        sweep(cfg, "mu", [0.1, 0.2])


def test_sweep_isolation_matches_single_runs():
    cfg = default_config(t_end=0.01, nx=32, ny=32, r=0.07, dt=2e-3)
    rep = sweep(cfg, "n", [1e2, 1e3])
    singles = [run(cfg.with_updates(n=v, dt=2e-3), outdir=False)
               for v in (1e2, 1e3)]
    for summary, single in zip(rep.run_summaries, singles):
        assert summary["aggregates"] == single.aggregates


def test_sweep_parallel_jobs_match_serial():
    cfg = default_config(t_end=0.008, nx=32, ny=32, r=0.07, dt=2e-3)
    serial = sweep(cfg, "n", [1e2, 1e3], jobs=1)
    parallel = sweep(cfg, "n", [1e2, 1e3], jobs=2)
    assert serial.run_summaries == parallel.run_summaries


def test_run_loads_no_unused_modules():
    # a fresh interpreter: this test session has already imported them
    script = (
        "import sys\n"
        "from penaltyflow.config import default_config\n"
        "from penaltyflow.driver import run\n"
        "run(default_config(t_end=0.004, nx=32, ny=32, r=0.07, dt=2e-3),"
        " outdir=False)\n"
        "print(' '.join(m for m in ('scipy.ndimage', 'scipy.special',"
        " 'multiprocessing') if m in sys.modules))\n")
    src = os.path.dirname(os.path.dirname(penaltyflow.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == ""


def test_sweep_dx_changes_grid():
    cfg = default_config(t_end=0.004, nx=32, ny=32, r=0.07, dt=1e-3,
                         body_present=False)
    rep = sweep(cfg, "dx", [1 / 32, 1 / 64])
    assert [s["steps"] for s in rep.run_summaries] == [4, 4]


def test_sweep_eps_pressure_norms_bounded():
    # interior density norms stay within a factor 2 across the
    # mass-diffusion sweep
    cfg = default_config(t_end=0.04)
    rep = sweep(cfg, "eps", [4e-3, 2e-3, 1e-3])
    for key in ("pnorm_gamma_max", "pnorm_beta_max"):
        vals = rep.trend[key]
        assert max(vals) <= 2.0 * min(vals)


def test_sweep_delta_energy_trajectories_converge():
    cfg = default_config(t_end=0.04)
    rep = sweep(cfg, "delta", [1e-2, 1e-3, 1e-4])
    assert rep.trend["last_pair_max_rel_diff"] <= 0.05


def test_determinism_bitwise(tmp_path):
    cfg = default_config(t_end=0.008, nx=48, ny=48, r=0.05)
    run(cfg, outdir=str(tmp_path / "a"))
    run(cfg, outdir=str(tmp_path / "b"))
    ba = (tmp_path / "a" / "diagnostics.csv").read_bytes()
    bb = (tmp_path / "b" / "diagnostics.csv").read_bytes()
    assert ba == bb


def test_solution_history_belongs_to_the_run(tmp_path, monkeypatch):
    histories = []
    step = driver.momentum_step

    def record(*args, **kwargs):
        if kwargs["history"] not in histories:
            histories.append(kwargs["history"])
        return step(*args, **kwargs)
    monkeypatch.setattr(driver, "momentum_step", record)
    cfg = default_config(t_end=0.03, nx=48, ny=48, r=0.05)
    for name in ("a", "b"):
        assert run(cfg, outdir=str(tmp_path / name)).steps >= 4
    # each run projects onto its own solutions only
    assert len(histories) == 2 and len(histories[0].diffs) >= 3
    assert ((tmp_path / "a" / "diagnostics.csv").read_bytes()
            == (tmp_path / "b" / "diagnostics.csv").read_bytes())


def test_failing_run_keeps_rows_and_reports_the_error(tmp_path,
                                                     monkeypatch):
    cfg = default_config(t_end=0.01, nx=32, ny=32, r=0.07, dt=2e-3)
    whole = run(cfg, outdir=str(tmp_path / "whole"))
    assert whole.steps == 5
    step, calls, raised = driver.momentum_step, [], []

    def fail_third(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raised.append(LinearSolveDiverged("planted on the third solve"))
            raise raised[0]
        return step(*args, **kwargs)
    monkeypatch.setattr(driver, "momentum_step", fail_third)
    with pytest.raises(LinearSolveDiverged) as info:
        run(cfg, outdir=str(tmp_path / "failed"))
    assert info.value is raised[0]
    for name in ("diagnostics.csv", "body.csv"):
        kept = (tmp_path / "failed" / name).read_text().splitlines()
        assert kept == (tmp_path / "whole" / name).read_text() \
            .splitlines()[:3]
    report = json.loads((tmp_path / "failed" / "report.json").read_text())
    assert report["steps"] == 2
    assert report["final_t"] == whole.rows[1].t
    assert report["aggregates"] == driver._aggregate(whole.rows[:2])
    assert report["error"] == {"type": "LinearSolveDiverged",
                               "message": "planted on the third solve",
                               "step": 3, "t": whole.rows[1].t}
    assert report["versions"] == json.loads(
        (tmp_path / "whole" / "report.json").read_text())["versions"]


@pytest.mark.parametrize("stage, module, knob, value, grid, message", [
    # one MG-PCG iteration cannot gain ten decades; 96^2 takes the V-cycle
    ("momentum_step", momentum, "MG_MAXITER", 1, dict(),
     "momentum viscous CG: info=1, rel residual"),
    # no recursive residual falls below a zero tolerance; this one reaches
    # exactly zero on the way, and CG's next step divides 0 by 0
    pytest.param("continuity_step", continuity, "CG_RTOL", 0.0,
                 dict(nx=32, ny=32, r=0.07),
                 "continuity diffusion CG: info=10240",
                 marks=pytest.mark.filterwarnings(
                     "ignore:invalid value:RuntimeWarning")),
], ids=["momentum", "continuity"])
def test_a_solve_that_does_not_converge_stops_the_run(
        tmp_path, monkeypatch, stage, module, knob, value, grid, message):
    cfg = default_config(t_end=0.01, dt=2e-3, **grid)
    whole = run(cfg, outdir=str(tmp_path / "whole"))
    assert whole.steps == 5
    step, calls = getattr(driver, stage), []

    def starve_third(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            monkeypatch.setattr(module, knob, value)
        return step(*args, **kwargs)
    monkeypatch.setattr(driver, stage, starve_third)
    with pytest.raises(LinearSolveDiverged, match=message):
        run(cfg, outdir=str(tmp_path / "failed"))
    assert len(calls) == 3
    for name in ("diagnostics.csv", "body.csv"):
        kept = (tmp_path / "failed" / name).read_text().splitlines()
        assert kept == (tmp_path / "whole" / name).read_text() \
            .splitlines()[:3]
    report = json.loads((tmp_path / "failed" / "report.json").read_text())
    assert report["steps"] == 2
    assert report["aggregates"] == driver._aggregate(whole.rows[:2])
    error = report["error"]
    assert error["type"] == "LinearSolveDiverged"
    assert error["message"].startswith(message)
    assert (error["step"], error["t"]) == (3, whole.rows[1].t)


def test_mass_budget_guard_stops_the_run(tmp_path, monkeypatch):
    cfg = default_config(t_end=0.01, nx=32, ny=32, r=0.07, dt=2e-3)
    whole = run(cfg, outdir=str(tmp_path / "whole"))
    step, calls = driver.continuity_step, []

    def leak_on_third(*args, **kwargs):
        calls.append(None)
        rho, info = step(*args, **kwargs)
        if len(calls) == 3:
            info = dataclasses.replace(info, mass_residual=1e-9)
        return rho, info
    monkeypatch.setattr(driver, "continuity_step", leak_on_third)
    with pytest.raises(MassBudgetError, match="1.000e-09"):
        run(cfg, outdir=str(tmp_path / "failed"))
    for name in ("diagnostics.csv", "body.csv"):
        kept = (tmp_path / "failed" / name).read_text().splitlines()
        assert kept == (tmp_path / "whole" / name).read_text() \
            .splitlines()[:3]
    report = json.loads((tmp_path / "failed" / "report.json").read_text())
    assert report["steps"] == 2
    assert report["aggregates"] == driver._aggregate(whole.rows[:2])
    assert report["error"]["type"] == "MassBudgetError"
    assert report["error"]["step"] == 3
    assert report["error"]["t"] == whole.rows[1].t


def test_cli_run_and_sweep(tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "[grid]\nnx = 32\nny = 32\n[params]\nr = 0.07\n"
        "[time]\nt_end = 0.004\ndt = 2e-3\n"
        f"[output]\ndir = {tmp_path / 'out'}\n")
    assert cli_main(["run", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "out" / "report.json").exists()
    # driver.run alone decides the output directory: --outdir, then
    # PENALTYFLOW_OUTDIR, then the config's
    monkeypatch.setenv("PENALTYFLOW_OUTDIR", str(tmp_path / "env"))
    assert cli_main(["run", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "env" / "report.json").exists()
    assert cli_main(["run", "--config", str(cfg_path), "--outdir",
                     str(tmp_path / "arg")]) == 0
    assert (tmp_path / "arg" / "report.json").exists()
    monkeypatch.delenv("PENALTYFLOW_OUTDIR")
    assert cli_main(["sweep", "--config", str(cfg_path), "--param", "n",
                     "--values", "100,1000"]) == 0
    assert (tmp_path / "out" / "sweep_n.json").exists()
    out = capsys.readouterr().out
    assert "rigidity_mean" in out


EXAMPLE_CONFIG = """\
[domain]
Lx = 1.0
Ly = 1.0
h = 0.1

[grid]
nx = 96
ny = 96

[params]
a = 1.0
gamma = 1.6666666666666667
delta = 0.001
beta = 8.0
eps = 0.001
n = 1000.0
r = 0.03
N = 64.0
mu = 0.1
lam = 0.1

[boundary]
profile = throughflow
speed = 0.2
rho_b = 1.0
taper = 0.0

[initial]
rho0 = 1.0
u0 = stream

[body]
present = True
mobile = True
x0 = 0.5
y0 = 0.5
radius = 0.15
rho_s = 2.0
markers = 64
v0x = 0.0
v0y = 0.0
w0 = 0.0

[time]
t_end = 0.1
cfl = 0.4
dt = 0.0

[output]
dir = out
cadence = 10
snapshots = False
vtk = False
"""


def test_cli_example_config(tmp_path):
    path = tmp_path / "ex.cfg"
    assert cli_main(["example-config", str(path)]) == 0
    assert path.read_text() == EXAMPLE_CONFIG
    assert load_config(path) == default_config()


def test_config_physics_defaults_are_penalty_params():
    assert RunConfig().make_params() == continuity.PenaltyParams()


def test_verify_fast_green_and_fault_injection(tmp_path, monkeypatch):
    from penaltyflow import checks, diagnostics
    code, results = checks.run_verify(
        fast=True, report_path=str(tmp_path / "verify.json"))
    assert code == 0
    assert len(results) >= 30
    data = json.loads((tmp_path / "verify.json").read_text())
    assert data["n_failed"] == 0
    # a stress with the bulk viscosity's sign flipped, in every module that
    # calls it by name, fails a stress check
    stress = momentum.stress

    def flipped(d11, d12, d22, mu_n, lam_n):
        return stress(d11, d12, d22, mu_n, -lam_n)
    for mod in (momentum, diagnostics, checks):
        monkeypatch.setattr(mod, "stress", flipped)
    code_bad, results_bad = checks.run_verify(fast=True)
    assert code_bad == 1
    failed = [r["name"] for r in results_bad if not r["passed"]]
    assert any("stress" in name for name in failed)


def test_run_config_is_immutable_value_object():
    cfg = default_config()
    cfg2 = cfg.with_updates(n=123.0)
    assert cfg.n != cfg2.n
    with pytest.raises(Exception):
        cfg.n = 5.0
