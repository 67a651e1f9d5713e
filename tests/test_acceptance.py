"""Acceptance gate: every criterion at its stated tolerance, one test per
criterion, one printed verdict line each.  Run with -s to see the lines.

The shared default scenario: unit box, 96x96 cells, tapered through-flow
at speed 0.2, disc body at the center, horizon t = 0.1.
"""

import time

import numpy as np
import pytest

from penaltyflow.body import (body_step, make_disc_body,
                              rigid_velocity_field)
from penaltyflow.config import default_config
from penaltyflow.driver import run, sweep
from penaltyflow.fields import (MollifierKernel, StaggeredGrid, divergence,
                                sym_gradient)
from penaltyflow.geometry import (DomainSpec, build_extension,
                                  throughflow_boundary)


def _verdict(num, name, passed, detail):
    mark = "PASS" if passed else "FAIL"
    print(f"[ACCEPT] criterion {num} ({name}): {mark} - {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def default_run():
    cfg = default_config(t_end=0.1)
    return run(cfg, outdir=False, keep_fields=True)


def test_criterion_1_rigidification_trend():
    t0 = time.time()
    cfg = default_config(t_end=0.1)
    rep = sweep(cfg, "n", [1e2, 1e3, 1e4])
    wall = time.time() - t0
    rig = rep.trend["rigidity_mean"]
    ratios = rep.trend["decade_ratios"]
    ok = (rep.trend["strictly_decreasing"]
          and all(r >= 3.0 for r in ratios)
          and wall <= 900.0)
    _verdict(1, "rigidification trend", ok,
             f"rigidity {['%.3e' % r for r in rig]}, "
             f"decade ratios {['%.1f' % r for r in ratios]}, "
             f"wall {wall:.0f}s")


def test_criterion_2_energy_ledger(default_run):
    rows = default_run.rows
    worst = min(min(r.dissipation, r.eps_term, r.outflow_term,
                    r.convexity_term, r.convexity_slack_min) for r in rows)
    sign_ok = worst >= -1e-12

    cfg = default_config(t_end=0.05)
    rep = sweep(cfg, "dt", [1e-3, 5e-4, 2.5e-4])
    ratios = rep.trend["halving_ratios"]
    ratio_ok = all(1.5 <= r <= 3.0 for r in ratios)
    _verdict(2, "energy inequality ledger", sign_ok and ratio_ok,
             f"min sign-definite term {worst:.2e}, "
             f"halving ratios {['%.2f' % r for r in ratios]}")


def test_criterion_3_mass_budget(default_run):
    worst = max(r.mass_residual for r in default_run.rows)
    _verdict(3, "mass budget", worst <= 1e-10,
             f"max per-step relative residual {worst:.2e}")


def test_criterion_4_extension_clauses():
    results = []
    for n in (64, 96):
        grid = StaggeredGrid(n, n, 1.0 / n, 1.0 / n)
        domain = DomainSpec(1.0, 1.0, 0.1)
        bc = throughflow_boundary(domain, grid, 0.2, 1.0)
        u_ext, rep = build_extension(bc, domain, grid)
        div = divergence(grid, u_ext.u, u_ext.v)
        inner = domain.collar_mask(grid, domain.h, "centers")
        far_u = ~domain.collar_mask(grid, 2 * domain.h, "ufaces")
        far_v = ~domain.collar_mask(grid, 2 * domain.h, "vfaces")
        results.append((rep.trace_error <= 1e-10,
                        float(np.min(div[inner])) >= -1e-12,
                        np.all(u_ext.u[far_u] == 0.0)
                        and np.all(u_ext.v[far_v] == 0.0)))
    ok = all(all(r) for r in results)
    _verdict(4, "extension lemma clauses", ok,
             f"trace/divergence/support at 64^2 and 96^2: {results}")


def test_criterion_5_mms_convergence():
    from penaltyflow.mms import continuity_convergence, momentum_convergence
    c = continuity_convergence(nx_list=(32, 64, 128, 256), t_end=0.1)
    m = momentum_convergence(nx_list=(16, 32, 64, 128), t_end=0.05)
    ok = c["order"] >= 0.9 and m["order"] >= 0.9
    _verdict(5, "manufactured-solution convergence", ok,
             f"continuity L1 order {c['order']:.2f}, "
             f"momentum L2 order {m['order']:.2f}")


def test_criterion_6_rigid_kernel_and_isometry():
    g = StaggeredGrid(48, 48, 1 / 48, 1 / 48)
    rng = np.random.default_rng(7)
    worst_d = 0.0
    for _ in range(100):
        vel = rigid_velocity_field(g, rng.uniform(0.2, 0.8, 2),
                                   rng.normal(size=2), rng.normal())
        for d in sym_gradient(g, vel.u, vel.v):
            worst_d = max(worst_d, float(np.max(np.abs(d))))

    dom = DomainSpec(1, 1, 0.1)
    kern = MollifierKernel.build(0.05, g.dx, g.dy)
    body = make_disc_body((0.5, 0.5), 0.12, 0.05, 2.0)
    ref = body.markers()
    refd = np.sqrt(np.sum((ref[None] - ref[:, None]) ** 2, axis=2))
    drift = 0.0
    for _ in range(1000):
        rig = rigid_velocity_field(g, body.X, np.array([0.012, -0.007]),
                                   0.8)
        body, _ = body_step(g, dom, body, rig, kern, 1e-3)
        m = body.markers()
        md = np.sqrt(np.sum((m[None] - m[:, None]) ** 2, axis=2))
        drift = max(drift, float(np.max(np.abs(md - refd))))
    ok = worst_d <= 1e-12 and drift <= 1e-12
    _verdict(6, "rigid kernel and marker isometry", ok,
             f"max |D(rigid)| {worst_d:.1e}, "
             f"pairwise drift over 10^3 steps {drift:.1e}")


def test_criterion_7_collision_guard_and_t0():
    cfg = default_config(nx=64, ny=64, h=0.08, r=0.04, radius=0.12,
                         x0=0.72, y0=0.5, u0="stream", n=1e3, speed=0.4,
                         t_end=1.5)
    rep = run(cfg, outdir=False)
    stopped = rep.stopped_early and rep.violation_margin < 0
    accepted_ok = all(r[8] >= 0 for r in rep.body_rows)
    t0_ok = rep.t0_bound is not None and rep.final_t >= rep.t0_bound
    ok = stopped and accepted_ok and t0_ok
    _verdict(7, "collision guard and existence-time bound", ok,
             f"stopped at t = {rep.final_t:.4f} (margin "
             f"{rep.violation_margin:.1e} at the next step), "
             f"T0 = {rep.t0_bound:.4f} from c_run = {rep.c_run:.3f}")


def test_criterion_8_boundary_regularization_consistency():
    cfg = default_config(t_end=0.05)
    rep = sweep(cfg, "N", [16, 64, 256])
    cau = rep.trend["cauchy_l1"]
    ok = rep.trend["decreasing"] and all(c > 0 for c in cau)
    _verdict(8, "boundary-regularization consistency", ok,
             f"L1 Cauchy differences {['%.3e' % c for c in cau]}")


def test_criterion_9_static_equilibrium():
    cfg = default_config(profile="zero", u0="zero", n=0.0, nx=48, ny=48,
                         r=0.05, radius=0.15, speed=0.0, t_end=1.0,
                         dt=1e-3)
    rep = run(cfg, outdir=False, keep_fields=True)
    umax = rep.final_vel.max_speed()
    e0 = rep.aggregates["E_first"]
    drift = abs(rep.aggregates["E_final"] - e0)
    ok = rep.steps == 1000 and umax <= 1e-10 and drift <= 1e-12 * e0
    _verdict(9, "static equilibrium", ok,
             f"{rep.steps} steps, max|u| {umax:.1e}, "
             f"E drift {drift:.1e} (E0 = {e0:.3f})")


def test_criterion_10_determinism(tmp_path):
    cfg = default_config(t_end=0.015)
    run(cfg, outdir=str(tmp_path / "a"))
    run(cfg, outdir=str(tmp_path / "b"))
    ba = (tmp_path / "a" / "diagnostics.csv").read_bytes()
    bb = (tmp_path / "b" / "diagnostics.csv").read_bytes()
    _verdict(10, "bitwise determinism", ba == bb,
             f"{len(ba)} bytes, repeat identical: {ba == bb}")
