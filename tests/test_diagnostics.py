import numpy as np
import pytest

from penaltyflow.body import make_disc_body, body_signed_distance
from penaltyflow.continuity import PenaltyParams, continuity_step
from penaltyflow.diagnostics import (effective_viscous_flux, fluid_mask,
                                     ledger_step, surface_force_torque)
from penaltyflow.errors import ProbeOutside
from penaltyflow.fields import VectorField
from penaltyflow.geometry import (DomainSpec, build_extension,
                                  resting_boundary, throughflow_boundary)
from penaltyflow.momentum import Problem, ViscousState, pressure_potential
from test_checks import check_test

# properties kept once, as checks in penaltyflow.checks
test_energy_total_cases = check_test("energy_total_cases")
test_energy_total_nonnegative = check_test("energy_total_cases")
test_ledger_static_equilibrium_all_zero = check_test(
    "ledger_static_equilibrium_zero")
test_rigidity_measure_cases = check_test("rigidity_measure_cases")
test_effective_viscous_flux_cases = check_test("effective_viscous_flux_cases")
test_surface_force_static_fluid_zero = check_test(
    "static_closed_curve_force_zero")
test_interior_pressure_norms = check_test("interior_pressure_norm_formula")


def test_ledger_pure_diffusion_hand_oracle(domain):
    """One tiny backward-Euler diffusion step on an x-striped state; every
    ledger entry is recomputed here with bare loops as the oracle."""
    from penaltyflow.fields import StaggeredGrid
    g = StaggeredGrid(8, 8, 1 / 8, 1 / 8)
    params = PenaltyParams(eps=1e-3, delta=1e-3, bc_sharpness=1e12)
    dom = DomainSpec(1, 1, 0.1)
    bc = resting_boundary(dom, g, 1.0)
    bc.u_ext = VectorField.zeros(g)
    rho0 = np.ones((8, 8))
    rho0[:3, :] = 1.4
    rho0[5:, :] = 0.7
    dt = 1e-6
    problem = Problem(g, dom, params, bc)
    rho1, info = continuity_step(problem, rho0, VectorField.zeros(g), dt)
    zero = VectorField.zeros(g)
    state = ViscousState(problem, np.full((8, 8), -1.0))
    row = ledger_step(state, rho0, zero, rho1, zero, dt, dt)

    # hand-computed energy and diffusion terms (plain loops, no package
    # operators)
    def P(z):
        return z ** params.gamma / (params.gamma - 1.0) \
            + params.delta * z ** params.beta / (params.beta - 1.0)

    def Pdd(z):
        return params.gamma * z ** (params.gamma - 2.0) \
            + params.delta * params.beta * z ** (params.beta - 2.0)

    vol = g.dx * g.dy
    E0_hand = sum(P(rho0[i, j]) * vol for i in range(8) for j in range(8))
    E1_hand = sum(P(rho1[i, j]) * vol for i in range(8) for j in range(8))
    eps_hand = 0.0
    for i in range(7):          # interior x faces
        for j in range(8):
            gx = (rho1[i + 1, j] - rho1[i, j]) / g.dx
            mid = 0.5 * (rho1[i + 1, j] + rho1[i, j])
            eps_hand += params.eps * Pdd(mid) * gx * gx * vol
    for i in range(8):          # interior y faces
        for j in range(7):
            gy = (rho1[i, j + 1] - rho1[i, j]) / g.dy
            mid = 0.5 * (rho1[i, j + 1] + rho1[i, j])
            eps_hand += params.eps * Pdd(mid) * gy * gy * vol
    assert row.E == pytest.approx(E1_hand, rel=1e-12)
    assert row.eps_term == pytest.approx(eps_hand, rel=1e-12)
    assert row.eps_term > 0.0
    assert row.E < E0_hand  # diffusion spends potential energy
    # with a tiny step the backward-Euler convexity slack is negligible
    assert abs(row.energy_residual) <= 1e-10
    assert info.mass_residual <= 1e-12


def test_ledger_sign_structure_on_dynamic_state(grid24, domain, params,
                                                rng):
    bc = throughflow_boundary(domain, grid24, 0.2, 1.0)
    bc.u_ext, _ = build_extension(bc, domain, grid24)
    from penaltyflow.momentum import momentum_step
    rho = np.ones(grid24.shape("centers"))
    vel = bc.u_ext.copy()
    problem = Problem(grid24, domain, params, bc)
    state = ViscousState(problem, np.full(grid24.shape("centers"), -1.0))
    dt = 1e-3
    for _ in range(3):
        rho1, _ = continuity_step(problem, rho, vel, dt)
        vel1, _ = momentum_step(state, rho, rho1, vel, dt)
        row = ledger_step(state, rho, vel, rho1, vel1, dt, dt)
        assert row.dissipation >= -1e-12
        assert row.eps_term >= -1e-12
        assert row.outflow_term >= -1e-12
        assert row.convexity_term >= -1e-12
        assert row.convexity_slack_min >= -1e-12
        rho, vel = rho1, vel1


def test_effective_viscous_flux_constant_state(grid24, domain, params):
    # static equilibrium: spatially constant to discretization error
    rho = np.ones(grid24.shape("centers"))
    f = effective_viscous_flux(grid24, rho, VectorField.zeros(grid24),
                               params)
    assert np.max(np.abs(f - f.mean())) < 1e-12


def test_surface_force_linear_pressure_oracle(grid64, domain):
    # grad p = 0.5 e_x: the closed-curve integral equals -grad p * area
    params = PenaltyParams(a=1.0, gamma=2.0, delta=1e-15)
    xc, yc = grid64.cell_xy()
    rho = np.sqrt(1.0 + 0.5 * (xc - 0.5))
    body = make_disc_body((0.5, 0.5), 0.15, 0.03, 2.0)
    F, _ = surface_force_torque(grid64, domain, rho,
                                VectorField.zeros(grid64), body, params)
    ring = 0.15 + 2 * grid64.dx
    assert F[0] == pytest.approx(-0.5 * np.pi * ring ** 2, rel=5e-3)
    assert abs(F[1]) < 1e-12


def test_surface_force_probe_outside(grid24, domain, params):
    body = make_disc_body((0.15, 0.5), 0.1, 0.03, 2.0)
    with pytest.raises(ProbeOutside):
        surface_force_torque(grid24, domain, np.ones(grid24.shape("centers")),
                             VectorField.zeros(grid24), body, params)


def test_fluid_mask_excludes_collars(grid64, domain, params):
    body = make_disc_body((0.5, 0.5), 0.15, params.r_moll, 2.0)
    chi = body_signed_distance(body, grid64)
    problem = Problem(grid64, domain, params,
                      resting_boundary(domain, grid64, 1.0))
    mask = fluid_mask(problem, chi)
    xc, yc = grid64.cell_xy()
    wd = domain.boundary_distance(xc, yc)
    assert not np.any(mask & (wd <= params.h))
    assert not np.any(mask & (chi >= -params.r_moll))
    assert np.any(mask)


def test_ledger_rows_all_finite_on_dynamic_run():
    from penaltyflow.config import default_config
    from penaltyflow.driver import run
    rep = run(default_config(t_end=0.01), outdir=False)
    for row in rep.rows:
        vals = np.array(row.csv_values())
        assert np.all(np.isfinite(vals))


def test_drag_sign_and_stokes_mu_scaling():
    """Tethered disc in a slow stream: the traction ring reports a
    downstream force, and doubling both viscosities roughly doubles it
    (creeping-flow linearity; the compressible stratification adds a small
    viscosity-independent part, hence the wide ratio band)."""
    from penaltyflow.config import default_config
    from penaltyflow.driver import run

    def mean_tail_drag(mu):
        cfg = default_config(nx=64, ny=64, r=0.04, radius=0.1, mu=mu,
                             lam=mu, speed=0.1, n=1e3, t_end=0.6, dt=2e-3,
                             body_mobile=False)
        rep = run(cfg, outdir=False)
        fx = np.array([r.Fx for r in rep.rows])
        return float(np.mean(fx[2 * len(fx) // 3:]))

    d1 = mean_tail_drag(0.8)
    d2 = mean_tail_drag(1.6)
    assert d1 > 0.0, "drag points downstream"
    assert 1.6 <= d2 / d1 <= 2.4, f"mu-doubling ratio {d2 / d1:.2f}"


def test_energy_conservation_identity_inflow_slack(grid24, domain, params):
    # every inflow face carries a nonnegative convexity gap
    bc = throughflow_boundary(domain, grid24, 0.25, 1.3)
    bc.u_ext, _ = build_extension(bc, domain, grid24)
    rho = 0.8 * np.ones(grid24.shape("centers"))
    vel = bc.u_ext.copy()
    problem = Problem(grid24, domain, params, bc)
    rho1, _ = continuity_step(problem, rho, vel, 1e-3)
    state = ViscousState(problem, np.full(grid24.shape("centers"), -1.0))
    row = ledger_step(state, rho, vel, rho1, vel, 1e-3, 1e-3)
    assert row.convexity_slack_min >= 0.0
    # independent recomputation of the minimum gap on the inflow wall
    tr = rho1[0, :]
    gap = (pressure_potential(bc.rho["left"], params)
           - (pressure_potential(tr + 1e-7, params)
              - pressure_potential(tr - 1e-7, params)) / 2e-7
           * (bc.rho["left"] - tr)
           - pressure_potential(tr, params))
    assert row.convexity_slack_min == pytest.approx(
        float(np.min(gap[bc.ub["left"][:, 0] > 0])), rel=1e-5)
