"""Monitored quantities: the per-step energy ledger, mass budget hooks,
rigidity measure, effective viscous flux, interior pressure norms, and the
body surface force/torque probe.

The energy accounting is checked in integrated form between consecutive
accepted steps; sign-definite entries (dissipation, diffusion term,
outflow term, inflow convexity slack) are assembled as explicit sums of
squares or convexity gaps so their nonnegativity is structural.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dc_fields

import numpy as np

from .body import BodyState
from .continuity import PenaltyParams
from .errors import ProbeOutside
from .fields import (WALL, StaggeredGrid, VectorField, cell_gradient,
                     divergence, faces_to_centers, full_gradient, integrate,
                     interp_cell, sym_gradient, wall_line, wall_spacing)
from .geometry import WALLS, DomainSpec
from .momentum import (Problem, ViscousState, pressure, pressure_potential,
                       pressure_potential_d1, pressure_potential_d2, stress)

CSV_SCHEMA = ("t", "E", "dissipation", "eps_term", "outflow_term",
              "convexity_slack_min", "mass_residual", "energy_residual",
              "rigidity", "pnorm_gamma", "pnorm_beta", "Fx", "Fy", "torque",
              "margin")


@dataclass
class EnergyLedgerRow:
    t: float
    E: float
    dissipation: float
    eps_term: float
    outflow_term: float
    convexity_term: float
    convexity_slack_min: float
    conv_coupling: float
    pressure_dilation: float
    inflow_term: float
    uinf_stress: float
    eps_coupling: float
    energy_residual: float
    mass_residual: float = 0.0
    rigidity: float = 0.0
    pnorm_gamma: float = 0.0
    pnorm_beta: float = 0.0
    Fx: float = 0.0
    Fy: float = 0.0
    torque: float = 0.0
    margin: float = 0.0

    def csv_values(self):
        return [getattr(self, k) for k in CSV_SCHEMA]

    def as_dict(self):
        return {f.name: getattr(self, f.name) for f in dc_fields(self)}


def energy_total(grid: StaggeredGrid, rho: np.ndarray, vel: VectorField,
                 u_ext: VectorField, params: PenaltyParams) -> float:
    """Total energy relative to the boundary extension."""
    duc, dvc = faces_to_centers(grid, vel.u - u_ext.u, vel.v - u_ext.v)
    kin = 0.5 * rho * (duc ** 2 + dvc ** 2)
    return integrate(grid, kin + pressure_potential(rho, params))


def ledger_step(state: ViscousState, rho0, vel0: VectorField, rho1,
                vel1: VectorField, dt: float, t_new: float,
                E0: float = None) -> EnergyLedgerRow:
    """Assemble every energy-accounting term for one accepted step.

    Rate terms are evaluated at the step endpoint, matching the implicit
    side of the splitting; the residual (integrated left side minus right
    side) then shrinks first order in dt, which is what the dt-halving
    consistency check expects of this splitting.  E0, when given, is the
    energy of (rho0, vel0), the previous row's E; it is computed otherwise.
    state, the run's ``momentum.ViscousState`` of the step's chi, supplies
    the viscosities and (through its Problem) the grid, the boundary data
    and the boundary extension's fixed terms.
    """
    problem = state.problem
    grid, params, bc = problem.grid, problem.params, problem.bc
    u_ext = bc.u_ext

    if E0 is None:
        E0 = energy_total(grid, rho0, vel0, u_ext, params)
    E1 = energy_total(grid, rho1, vel1, u_ext, params)

    rm = rho1
    um = vel1

    mu_n, lam_n = state.mu_n, state.lam_n
    # the symmetric gradient's diagonal is the full gradient's, and the
    # divergence their sum, bit for bit (``full_gradient``)
    exx, exy, eyx, eyy, e12 = problem.ext_gradient
    # each term's work arrays are freed once it is summed, which keeps the
    # step's memory peak low

    # u - u_ext vanishes on the walls, so its tangential wall traces are 0
    wu = um.u - u_ext.u
    wv = um.v - u_ext.v
    wxx, wxy, wyx, wyy, w12 = full_gradient(grid, wu, wv,
                                            dict.fromkeys(WALL, 0.0))
    div_w = wxx + wyy
    dissipation = integrate(
        grid, 2.0 * mu_n * (wxx ** 2 + 2.0 * w12 ** 2 + wyy ** 2)
        + lam_n * div_w ** 2)
    # a right-hand-side rate (signs folded in, like those below) on the
    # same strain
    s11, s12, s22 = stress(exx, e12, eyy, mu_n, lam_n)
    uinf_stress = -integrate(
        grid, s11 * wxx + 2.0 * s12 * w12 + s22 * wyy)
    del w12, div_w, s11, s12, s22

    # face-difference assembly: this is the pairing the implicit diffusion
    # actually dissipates, so the step residual stays second order in dt
    gfx = (rm[1:, :] - rm[:-1, :]) / grid.dx
    gfy = (rm[:, 1:] - rm[:, :-1]) / grid.dy
    p2x = pressure_potential_d2(0.5 * (rm[1:, :] + rm[:-1, :]), params)
    p2y = pressure_potential_d2(0.5 * (rm[:, 1:] + rm[:, :-1]), params)
    eps_term = params.eps * grid.cell_volume * (
        np.sum(p2x * gfx ** 2) + np.sum(p2y * gfy ** 2))
    del gfx, gfy, p2x, p2y

    un = problem.normal_traces
    outflow_term = 0.0
    convexity_term = 0.0
    slack_min = np.inf
    any_in = False
    for w in WALLS:
        tr, inflow = wall_line(rm, w), problem.inflow[w]
        flen = wall_spacing(grid, w)[1]
        pout = np.where(inflow, 0.0,
                        pressure_potential(tr, params) * un[w])
        outflow_term += np.sum(pout) * flen
        if np.any(inflow):
            any_in = True
            gap = (pressure_potential(bc.rho[w], params)
                   - pressure_potential_d1(tr, params) * (bc.rho[w] - tr)
                   - pressure_potential(tr, params))
            gin = np.where(inflow, gap * np.abs(un[w]), 0.0)
            convexity_term += np.sum(gin) * flen
            slack_min = min(slack_min, float(np.min(gap[inflow])))
    if not any_in:
        slack_min = 0.0

    # right-hand-side rates, each with its sign folded in
    umc, vmc = faces_to_centers(grid, um.u, um.v)
    wuc, wvc = faces_to_centers(grid, wu, wv)
    conv_coupling = -integrate(
        grid, rm * ((umc * exx + vmc * exy) * wuc
                    + (umc * eyx + vmc * eyy) * wvc))
    del umc, vmc, wuc, wvc

    # the divergence of u_ext is exx + eyy, bit for bit
    pressure_dilation = -integrate(grid, pressure(rm, params)
                                   * (exx + eyy))
    inflow_term = problem.inflow_term

    uec, vec = faces_to_centers(grid, u_ext.u, u_ext.v)
    grx, gry = cell_gradient(grid, rm)
    eps_coupling = params.eps * integrate(
        grid, grx * (wxx * uec + wyx * vec) + gry * (wxy * uec + wyy * vec))

    lhs = (E1 - E0) + dt * (dissipation + eps_term + outflow_term
                            + convexity_term)
    rhs = dt * (conv_coupling + pressure_dilation + inflow_term
                + uinf_stress + eps_coupling)
    return EnergyLedgerRow(
        t=t_new, E=E1, dissipation=dissipation, eps_term=eps_term,
        outflow_term=outflow_term, convexity_term=convexity_term,
        convexity_slack_min=slack_min, conv_coupling=conv_coupling,
        pressure_dilation=pressure_dilation, inflow_term=inflow_term,
        uinf_stress=uinf_stress, eps_coupling=eps_coupling,
        energy_residual=lhs - rhs)


def rigidity_measure(grid: StaggeredGrid, vel: VectorField, chi: np.ndarray,
                     strain=None) -> float:
    """Squared symmetric-gradient content of the velocity over the solid
    core compact (cells deeper than 2 max(dx, dy) inside the core).
    strain, if given, is ``sym_gradient`` of vel."""
    mask = chi >= 2.0 * max(grid.dx, grid.dy)
    if not np.any(mask):
        return 0.0
    d11, d12, d22 = (sym_gradient(grid, vel.u, vel.v) if strain is None
                     else strain)
    return integrate(grid, d11 ** 2 + 2.0 * d12 ** 2 + d22 ** 2, mask)


def effective_viscous_flux(grid: StaggeredGrid, rho: np.ndarray,
                           vel: VectorField,
                           params: PenaltyParams) -> np.ndarray:
    """Pressure minus (lam + 2 mu) times dilation, the compactness
    quantity, as a cell field."""
    return pressure(rho, params) \
        - (params.lam + 2.0 * params.mu) * divergence(grid, vel.u, vel.v)


def fluid_mask(problem: Problem, chi: np.ndarray) -> np.ndarray:
    """Canonical fluid compact: excludes the body collar (2 max(dx, dy)
    past the mollification radius) and the wall collar (the run's
    ``momentum.Problem`` keeps the cells clear of it)."""
    margin = 2.0 * max(problem.grid.dx, problem.grid.dy)
    return (chi < -(problem.params.r_moll + margin)) & problem.clear_of_walls


def interior_pressure_norm(grid: StaggeredGrid, rho: np.ndarray,
                           mask: np.ndarray, params: PenaltyParams):
    """Interior L^{gamma+1} and L^{beta+1} density norms."""
    pg = params.gamma + 1.0
    pb = params.beta + 1.0
    ng = integrate(grid, np.abs(rho) ** pg, mask) ** (1.0 / pg)
    nb = integrate(grid, np.abs(rho) ** pb, mask) ** (1.0 / pb)
    return ng, nb


def probe_ring(grid: StaggeredGrid, domain: DomainSpec, body: BodyState):
    """Points and unit outward directions of the traction probe ring, 2
    cells outside the physical body surface; ProbeOutside when the ring
    reaches the wall collar."""
    off = 2.0 * max(grid.dx, grid.dy)
    ring_r = body.radius + off
    bm = body.boundary_markers()
    dirs = (bm - body.X[None, :]) / body.core_radius
    pts = body.X[None, :] + ring_r * dirs
    wall_d = domain.boundary_distance(pts[:, 0], pts[:, 1])
    if np.min(wall_d) < off:
        raise ProbeOutside("probe ring reaches the wall collar")
    return pts, dirs


def surface_force_torque(grid: StaggeredGrid, domain: DomainSpec,
                         rho: np.ndarray, vel: VectorField, body: BodyState,
                         params: PenaltyParams, strain=None):
    """Surface traction integral over the probe ring (``probe_ring``);
    physical viscosities only.  A diagnostic of momentum exchange, not a
    dynamic input.  strain, if given, is ``sym_gradient`` of vel."""
    pts, dirs = probe_ring(grid, domain, body)

    d11, d12, d22 = (sym_gradient(grid, vel.u, vel.v) if strain is None
                     else strain)
    s11, s12, s22 = stress(d11, d12, d22, params.mu, params.lam)
    p = pressure(rho, params)
    S11 = interp_cell(grid, s11, pts[:, 0], pts[:, 1])
    S12 = interp_cell(grid, s12, pts[:, 0], pts[:, 1])
    S22 = interp_cell(grid, s22, pts[:, 0], pts[:, 1])
    P = interp_cell(grid, p, pts[:, 0], pts[:, 1])

    nxv, nyv = dirs[:, 0], dirs[:, 1]
    txv = (S11 - P) * nxv + S12 * nyv
    tyv = S12 * nxv + (S22 - P) * nyv
    nxt = np.roll(pts, -1, axis=0)
    prv = np.roll(pts, 1, axis=0)
    ds = 0.5 * np.hypot(nxt[:, 0] - prv[:, 0], nxt[:, 1] - prv[:, 1])
    Fx = np.sum(txv * ds)
    Fy = np.sum(tyv * ds)
    rx = pts[:, 0] - body.X[0]
    ry = pts[:, 1] - body.X[1]
    torque = np.sum((rx * tyv - ry * txv) * ds)
    return np.array([Fx, Fy]), float(torque)

