"""The property suite: every invariant that needs no pytest machinery.

Each check returns (passed, detail); failures are data, collected into a
machine-readable report.  `penaltyflow verify` runs the battery, and
`tests/test_checks.py` runs its fast entries as tier-1 tests.  The --fast
subset skips the manufactured-solution convergence studies and the long
marches.
"""

from __future__ import annotations

import json
import time

import numpy as np

from .body import (body_signed_distance, body_step, collision_guard,
                   make_disc_body, project_rigid, rigid_velocity_field,
                   t0_lower_bound)
from .config import default_config
from .continuity import (PenaltyParams, _advected, continuity_step,
                         initial_bc_residual, regularize_initial_density,
                         renormalized_residual, smoothed_negative_part)
from .diagnostics import (effective_viscous_flux, energy_total,
                          interior_pressure_norm, ledger_step,
                          rigidity_measure, surface_force_torque)
from .errors import ErosionEmpty, InvalidMargin, InvalidShape, NegativeDensity
from .fields import (WALL, MollifierKernel, StaggeredGrid, VectorField,
                     _node_differences, cell_gradient, divergence,
                     full_gradient, integrate, mollify, sym_gradient,
                     wall_along, wall_faces, wall_line, wall_spacing)
from .geometry import (BoundaryData, Disc, DomainSpec, Rectangle,
                       build_extension, corner_tapered, erode,
                       resting_boundary, signed_distance,
                       throughflow_boundary, wall_cutoff)
from .momentum import (Problem, ViscosityModel, ViscousState, _d12_slots,
                       _explicit_terms, _face_density, _face_views,
                       momentum_step, penalty_ramp, pressure,
                       pressure_potential, pressure_potential_d1, stress,
                       viscosity_fields, viscous_quadratic_form)

CHECKS = []


def check(name, fast=True):
    def deco(fn):
        CHECKS.append((name, fast, fn))
        return fn
    return deco


DOM = DomainSpec(1, 1, 0.1)


def _grid(n=32, L=1.0):
    return StaggeredGrid(n, n, L / n, L / n)


def _ok(cond, detail=""):
    return bool(cond), detail


def _raises(exc, fn, *args):
    """True when fn(*args) raises exc; any other exception propagates."""
    try:
        fn(*args)
    except exc:
        return True
    return False


def _rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


# ------------------------------------------------------------------ geometry

@check("boundary_classification_signs")
def _c1():
    # inflow where u_B . n < 0; resting walls (the ties) are outflow
    bc = resting_boundary(DOM, _grid(16), 1.0)
    bc.ub["left"][:, 0] = 0.2   # pointing inward on the left wall
    bc.ub["right"][:, 0] = 0.2  # pointing outward on the right wall
    inflow = Problem(bc.grid, DOM, PenaltyParams(), bc).inflow
    ok = all(np.all(m == (w == "left")) for w, m in inflow.items())
    rng = np.random.default_rng(0)
    for w in bc.ub:
        bc.ub[w][:] = rng.normal(size=bc.ub[w].shape)
    inflow = Problem(bc.grid, DOM, PenaltyParams(), bc).inflow
    ub = bc.ub   # the component across each wall, pointing in
    inward = {"left": ub["left"][:, 0], "right": -ub["right"][:, 0],
              "bottom": ub["bottom"][:, 1], "top": -ub["top"][:, 1]}
    ok &= all(np.array_equal(inflow[w], inward[w] > 0) for w in inward)
    return _ok(ok, "inflow where u_B . n < 0, ties to outflow")


@check("signed_distance_disc_exact")
def _c2():
    d = Disc(0.4, 0.6, 0.15)
    vals = [signed_distance(d, 0.4, 0.6) - 0.15,
            signed_distance(d, 0.55, 0.6),
            signed_distance(d, 0.65, 0.6) + 0.1]
    d = Disc(0.3, 0.4, 0.15)
    tight = [signed_distance(d, 0.3, 0.4) - 0.15,
             signed_distance(d, 0.45, 0.4),
             signed_distance(d, 0.55, 0.4) + 0.1]
    return _ok(max(abs(v) for v in vals) < 1e-14
               and max(abs(v) for v in tight) <= 1e-15,
               f"residuals {vals + tight}")


@check("signed_distance_rect_gradient_norm")
def _c3():
    # values, the corner's euclidean distance included
    r = Rectangle(0.0, 0.0, 1.0, 2.0)
    vals = [signed_distance(r, 0.5, 1.0) - 0.5,
            signed_distance(r, 0.0, 1.0),
            signed_distance(r, -0.3, 1.0) + 0.3,
            signed_distance(r, -0.3, -0.4) + 0.5]
    # piecewise-linear signed distance: centered differences give |grad|=1
    # exactly away from the kink sets (interior medial axis, the boundary
    # band, and the exterior corner fans where the nearest feature is a
    # corner point)
    g = _grid(64)
    x0, y0, x1, y1 = 0.2, 0.25, 0.8, 0.85
    r = Rectangle(x0, y0, x1, y1)
    xc, yc = g.cell_xy()
    f = signed_distance(r, xc, yc)
    gx = (f[2:, 1:-1] - f[:-2, 1:-1]) / (2 * g.dx)
    gy = (f[1:-1, 2:] - f[1:-1, :-2]) / (2 * g.dy)
    x_in, y_in = xc[1:-1, 1:-1], yc[1:-1, 1:-1]
    m = 2 * g.dx
    corner_fan = ((np.minimum(np.abs(x_in - x0), np.abs(x_in - x1)) < m)
                  | (x_in < x0) | (x_in > x1)) \
        & ((np.minimum(np.abs(y_in - y0), np.abs(y_in - y1)) < m)
           | (y_in < y0) | (y_in > y1))
    keep = (np.abs(f[1:-1, 1:-1]) > m) & ~corner_fan \
        & (np.abs((x_in - x0) - (x1 - x_in)) > m) \
        & (np.abs((x_in - x0) - (y_in - y0)) > m) \
        & (np.abs((x_in - x0) - (y1 - y_in)) > m) \
        & (np.abs((x1 - x_in) - (y_in - y0)) > m) \
        & (np.abs((x1 - x_in) - (y1 - y_in)) > m) \
        & (np.abs((y_in - y0) - (y1 - y_in)) > m)
    err = np.max(np.abs(np.hypot(gx, gy)[keep] - 1.0))
    return _ok(err <= 5e-2 * g.dx and max(abs(v) for v in vals) < 1e-12,
               f"max |grad|-1 = {err}, values {vals}")


@check("erode_composition_identity")
def _c4():
    d = Disc(0.5, 0.5, 0.15)
    rng = np.random.default_rng(0)
    ok = abs(erode(d, 0.03).radius - 0.12) < 1e-15
    for r, lo, hi, count in ((0.03, 0.2, 0.8, 50), (0.04, 0.0, 1.0, 100)):
        pts = rng.uniform(lo, hi, size=(count, 2))
        lhs = signed_distance(erode(d, r), pts[:, 0], pts[:, 1])
        rhs = signed_distance(d, pts[:, 0], pts[:, 1]) - r
        ok &= np.max(np.abs(lhs - rhs)) < 1e-14
    ok &= erode(d, 0.0) == d
    ok &= _raises(ErosionEmpty, erode, d, 0.15)
    ok &= _raises(InvalidShape, Disc, 0.5, 0.5, 0.0)
    # an erosion that empties the body's core
    ok &= _raises(InvalidShape, make_disc_body, (0.5, 0.5), 0.1, 0.1, 1.0)
    return _ok(ok, "shift identity, r=0, empty erosion, zero radius")


@check("extension_zero_trace")
def _c5():
    ok = True
    for n in (48, 64):
        g = _grid(n)
        u_ext, rep = build_extension(resting_boundary(DOM, g, 1.0), DOM, g)
        ok &= u_ext.max_speed() == 0.0 and rep.trace_error == 0.0
    return _ok(ok, "zero trace extends to zero")


@check("extension_throughflow_clauses")
def _c6():
    g = _grid(64)
    bc = throughflow_boundary(DOM, g, 0.2, 1.0)
    u_ext, rep = build_extension(bc, DOM, g)
    # the clauses recomputed from the field, not read off the report
    div = divergence(g, u_ext.u, u_ext.v)
    div_min = float(np.min(div[DOM.collar_mask(g, DOM.h, "centers")]))
    far_u = ~DOM.collar_mask(g, 2 * DOM.h, "ufaces")
    far_v = ~DOM.collar_mask(g, 2 * DOM.h, "vfaces")
    return _ok(rep.trace_error <= 1e-10
               and np.allclose(u_ext.u[0, :], bc.ub["left"][:, 0],
                               atol=1e-12)
               and np.allclose(u_ext.u[-1, :], bc.ub["right"][:, 0],
                               atol=1e-12)
               and rep.div_min_inner_collar >= -rep.div_roundoff
               and div_min >= -1e-12
               and rep.max_outside_outer_collar == 0.0
               and np.all(u_ext.u[far_u] == 0.0)
               and np.all(u_ext.v[far_v] == 0.0),
               f"trace {rep.trace_error:.2e}, div_min {div_min:.2e}")


@check("extension_unbalanced_clauses")
def _c7():
    g = _grid(64)
    ok = True
    for scale in (1.7, 0.4):  # net outflow, net inflow
        bc = throughflow_boundary(DOM, g, 0.2, 1.0)
        bc.ub["right"][:, 0] *= scale
        _, rep = build_extension(bc, DOM, g)
        ok &= (rep.trace_error <= 1e-10
               and rep.div_min_inner_collar >= -min(rep.div_roundoff, 1e-12)
               and rep.max_outside_outer_collar == 0.0)
    return _ok(ok, f"div_min {rep.div_min_inner_collar:.2e}")


def _mirrored(by_wall):
    """Data keyed by wall, for the domain mirrored in x = y: each wall
    trades places with the wall at the same end of the other axis."""
    at = {ae: w for w, ae in WALL.items()}
    return {at[1 - WALL[w][0], WALL[w][1]]: a for w, a in by_wall.items()}


@check("extension_transposition_all_walls")
def _c55():
    # random corner-tapered normal and tangential traces on all four walls
    # of a 1.2 x 0.9 domain: the extension of the data mirrored in x = y
    # is the mirrored extension, for balanced, net-outflow and net-inflow
    # data.  The mirror trades left with bottom and right with top, so a
    # wrong walk, slab or excess sign on one wall shows
    dom, domt = DomainSpec(1.2, 0.9, 0.15), DomainSpec(0.9, 1.2, 0.15)
    g = StaggeredGrid(48, 40, 1.2 / 48, 0.9 / 40)
    gt = StaggeredGrid(40, 48, 0.9 / 40, 1.2 / 48)
    rng = np.random.default_rng(55)
    amp = {w: corner_tapered(dom, wall_along(g, w), (dom.Ly, dom.Lx)[axis])
           for w, (axis, _) in WALL.items()}
    rho = {w: np.ones(a.size) for w, a in amp.items()}
    errs = []
    for target in (0.0, 0.1, -0.1):   # balanced, net outflow, net inflow
        ub = {w: rng.uniform(-1, 1, (a.size, 2)) * a[:, None]
              for w, a in amp.items()}
        bc = BoundaryData(g, dom, ub, rho)
        q = sum(np.sum(bc.normal_trace(w)) * wall_spacing(g, w)[1]
                for w in WALL)
        bc.ub["right"][:, 0] += (target - q) / (np.sum(amp["right"]) * g.dy) \
            * amp["right"]
        ext, rep = build_extension(bc, dom, g)
        bct = BoundaryData(gt, domt, _mirrored(
            {w: a[:, ::-1] for w, a in bc.ub.items()}), _mirrored(rho))
        extt, rept = build_extension(bct, domt, gt)
        if abs(rep.net_flux - target) > 1e-12 or rep.trace_error > 1e-10:
            return _ok(False, f"net flux {rep.net_flux:.3e} for {target}, "
                       f"trace error {rep.trace_error:.1e}")
        errs.append(max(np.max(np.abs(ext.u - extt.v.T)),
                        np.max(np.abs(ext.v - extt.u.T))) / rep.max_speed)
    return _ok(max(errs) <= 1e-13,
               "mirrored extension, relative to max speed: "
               + ", ".join(f"{e:.1e}" for e in errs))


@check("cutoff_profile_shape")
def _c8():
    prof = wall_cutoff(DOM)
    ok = True
    for d in (np.linspace(0, 0.2, 401), np.linspace(0, 0.25, 501)):
        v = prof.value(d)
        ok &= (np.all(v[d <= 0.05] == 0.0) and np.all(v[d >= 0.1] == 1.0)
               and np.all(np.diff(v) >= -1e-15)
               and np.all((v >= 0) & (v <= 1)))
    # C1, on the second sampling: small difference quotients at both ends
    dv = np.diff(v) / np.diff(d)
    ok &= abs(dv[np.searchsorted(d, 0.05)]) < 0.2 and dv[-1] == 0.0
    return _ok(ok, "0 on U_h/2, 1 beyond U_h, monotone and C1 in between")


# -------------------------------------------------------------------- fields

@check("divergence_linear_fields")
def _c9():
    ok = True
    for n in (24, 32):
        g = _grid(n)
        xu, yu = g.uface_xy()
        xv, yv = g.vface_xy()
        ok &= (np.max(np.abs(divergence(g, xu, -yv))) < 1e-12
               and np.max(np.abs(divergence(g, xu, yv) - 2.0)) < 1e-12)
    return _ok(ok, "div(x,-y)=0 and div(x,y)=2 exactly")


@check("divergence_trig_second_order")
def _c10():
    errs = []
    for n in (32, 64, 128):
        g = _grid(n)
        xu, _ = g.uface_xy()
        d = divergence(g, np.sin(xu), np.zeros(g.shape("vfaces")))
        xc, _ = g.cell_xy()
        errs.append(np.max(np.abs(d - np.cos(xc))))
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    return _ok(np.all(rates > 1.9), f"observed rates {rates}")


@check("sym_gradient_rigid_kernel_100")
def _c12():
    g = _grid(24)
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        V = rng.normal(size=2)
        w = rng.normal()
        X = rng.uniform(0.0, 1.0, size=2)
        vel = rigid_velocity_field(g, X, V, w)
        d11, d12, d22 = sym_gradient(g, vel.u, vel.v)
        worst = max(worst, np.max(np.abs(d11)), np.max(np.abs(d12)),
                    np.max(np.abs(d22)))
    return _ok(worst <= 1e-12, f"max |D(rigid)| = {worst:.1e}")


@check("sym_gradient_affine_cases")
def _c13():
    ok = True
    for n in (16, 24):
        g = _grid(n)
        xu, yu = g.uface_xy()
        xv, yv = g.vface_xy()
        d11, d12, d22 = sym_gradient(g, xu, yv)          # u=(x,y): identity
        e11, e12, e22 = sym_gradient(g, yu, 0.0 * xv)    # u=(y,0): shear
        ok &= (np.max(np.abs(d11 - 1)) < 1e-13
               and np.max(np.abs(d22 - 1)) < 1e-13
               and np.max(np.abs(d12)) < 1e-13
               and np.max(np.abs(e12 - 0.5)) < 1e-13
               and np.max(np.abs(e11)) < 1e-13
               and np.max(np.abs(e22)) < 1e-13)
    return _ok(ok, "identity and pure shear reproduced")


@check("mollifier_kernel_moments")
def _c14():
    g = _grid(64)
    k = MollifierKernel.build(0.05, g.dx, g.dy)
    w = k.weights
    m = (w.shape[0] - 1) // 2
    ii, jj = np.meshgrid(np.arange(-m, m + 1),
                         np.arange(-(w.shape[1] - 1) // 2,
                                   (w.shape[1] - 1) // 2 + 1), indexing="ij")
    ok = (abs(np.sum(w) - 1.0) < 1e-12
          and np.all(w >= 0)
          and abs(np.sum(w * ii)) < 1e-14 and abs(np.sum(w * jj)) < 1e-14
          and np.max(np.abs(w - w[::-1, :])) < 1e-15
          and np.max(np.abs(w - w[:, ::-1])) < 1e-15)
    rr = np.hypot(ii * g.dx, jj * g.dy).ravel()
    ww = w.ravel()
    order = np.argsort(rr, kind="stable")
    monotone = np.all(np.diff(ww[order]) <= 1e-15)
    support = np.all(ww[rr > k.radius] == 0.0)
    return _ok(ok and monotone and support,
               "unit mass, symmetry, radial monotone, compact support")


@check("mollify_constant_affine_monotone")
def _c15():
    g = _grid(64)
    k = MollifierKernel.build(0.06, g.dx, g.dy)
    xc, yc = g.cell_xy()
    interior = np.minimum(np.minimum(xc, 1 - xc),
                          np.minimum(yc, 1 - yc)) > 0.08
    ok = True
    for c in (2.5, 3.7):
        mc = mollify(np.full((g.nx, g.ny), c), k)
        ok &= np.max(np.abs(mc[interior] - c)) < 1e-12
    aff = 1.0 + 2.0 * xc - 0.5 * yc
    ok &= np.max(np.abs((mollify(aff, k) - aff)[interior])) < 1e-10
    rng = np.random.default_rng(3)
    f = np.abs(rng.normal(size=(g.nx, g.ny)))
    ok &= np.min(mollify(f, k)) >= 0.0
    return _ok(ok, "constants and affine preserved, positivity kept")


@check("integrate_values_and_additivity")
def _c16():
    rng = np.random.default_rng(4)
    ok = True
    for n in (24, 32):
        g = _grid(n)
        one = np.ones((g.nx, g.ny))
        xc, _ = g.cell_xy()
        f = rng.normal(size=(g.nx, g.ny))
        ok &= (abs(integrate(g, one) - 1.0) < 1e-12
               and integrate(g, 0.0 * one) == 0.0
               and abs(integrate(g, xc) - 0.5) <= g.dx ** 2
               and integrate(g, f) == integrate(g, f))
        # additive over disjoint masks to reduction round-off
        scale = integrate(g, np.abs(f))
        for m in (xc < 0.5, rng.normal(size=(g.nx, g.ny)) > 0):
            ok &= abs(integrate(g, f, m) + integrate(g, f, ~m)
                      - integrate(g, f)) <= 8 * np.finfo(float).eps * scale
    return _ok(ok, "unit area, zero, first moment, mask additivity, "
                   "repeatable")


# ---------------------------------------------------------------- continuity

@check("negative_part_properties_1e4")
def _c17():
    ok = (smoothed_negative_part(-5.0, 1.0) == -5.0
          and smoothed_negative_part(5.0, 1.0) == 0.0)
    rng = np.random.default_rng(5)
    v = rng.uniform(-3, 3, size=10000)
    N = 10.0 ** rng.uniform(-1, 3, size=10000)
    for i in range(0, 10000, 500):
        vv, nn = v[i:i + 500], N[i:i + 500]
        f = np.array([smoothed_negative_part(a, b)
                      for a, b in zip(vv, nn)])
        ok &= np.all(f <= np.minimum(vv, 0.0) + 1e-15)
        ok &= np.all(f[vv <= -1.0 / nn] == vv[vv <= -1.0 / nn])
        ok &= np.all(f[vv >= 1.0 / nn] == 0.0)
    # monotone on the blend interval, and C1 at its ends: slope 1 at the
    # lower junction, 0 at the upper
    h = 1e-9
    for N0 in (1.0, 7.0, 16.0, 64.0, 256.0):
        for count, tol in ((200, 1e-15), (400, 1e-16)):
            vv = np.linspace(-1 / N0, 1 / N0, count)
            ok &= np.all(np.diff(smoothed_negative_part(vv, N0)) >= -tol)
        ok &= -1 / N0 <= smoothed_negative_part(0.0, N0) <= 0.0
        for end, slope in ((-1 / N0, 1.0), (1 / N0, 0.0)):
            d = (smoothed_negative_part(end + h, N0)
                 - smoothed_negative_part(end - h, N0)) / (2 * h)
            ok &= abs(d - slope) <= 1e-5
    return _ok(ok, "10^4 samples: bound, tails, monotone C1 blend")


@check("negative_part_sharpness_limit")
def _c18():
    ok = True
    for v in (np.linspace(-0.5, 0.5, 1001), np.linspace(-0.4, 0.4, 801)):
        gaps = [np.max(np.abs(smoothed_negative_part(v, N)
                              - np.minimum(v, 0.0)))
                for N in (16, 64, 256, 1024)]
        ok &= all(a > b for a, b in zip(gaps[:-1], gaps[1:]))
        ok &= gaps[-1] <= 1.0 / 1024
    return _ok(ok, f"sup gaps {gaps}")


@check("regularize_initial_density_band_and_bc")
def _c19():
    params = PenaltyParams()
    lo, hi = params.delta, 1.0 / params.delta
    rng = np.random.default_rng(6)
    ok = True
    res = 0.0
    # grid, spread, vacuum pocket, cell above the cap
    for n, sd, pocket, cap in ((32, 0.5, slice(4, 8), 10),
                               (24, 0.4, slice(5, 9), 12)):
        g = _grid(n)
        bc = throughflow_boundary(DOM, g, 0.2, 1.0)
        rho0 = np.abs(rng.normal(1.0, sd, size=(g.nx, g.ny)))
        rho0[pocket, pocket] = 0.0
        rho0[cap, cap] = hi + 2.0
        rho = regularize_initial_density(g, rho0, params, bc)
        res = max(res, initial_bc_residual(g, rho, params, bc))
        ok &= (np.min(rho) >= lo and np.max(rho) <= hi
               and np.array_equal(rho[2:-2, 2:-2],
                                  np.clip(rho0, lo, hi)[2:-2, 2:-2]))
    return _ok(ok and res < 1e-10,
               f"band kept, interior untouched, bc residual {res:.1e}")


@check("continuity_neumann_conservation")
def _c20():
    g = _grid(24)
    bc = resting_boundary(DOM, g, 1.0)
    bc.u_ext, _ = build_extension(bc, DOM, g)
    rng = np.random.default_rng(7)
    rho = 1.0 + 0.3 * np.abs(rng.normal(size=(g.nx, g.ny)))
    vel = VectorField.zeros(g)
    m0 = integrate(g, rho)
    rho1, info = continuity_step(Problem(g, DOM, PenaltyParams(), bc), rho,
                                 vel, 1e-3)
    drift = abs(integrate(g, rho1) - m0)
    # rho != rho_B so the smoothed negative part leaks a touch of flux at
    # resting walls; the budget must still close exactly
    ok = (info.mass_residual < 1e-12
          and drift <= abs(info.inflow_flux + info.outflow_flux)
          * 1e-3 + 1e-12)
    # a very sharp blend makes the Robin closure vanish at u_B = 0 (its
    # value at zero is -1/(4N)): pure-Neumann diffusion keeps the mass
    sharp = PenaltyParams(bc_sharpness=1e12)
    rho1, info2 = continuity_step(Problem(g, DOM, sharp, bc), rho, vel, 1e-3)
    ok &= (abs(integrate(g, rho1) - m0) <= 1e-12 * m0
           and info2.mass_residual <= 1e-12)
    return _ok(ok, f"budget residual {info.mass_residual:.1e}, "
                   f"{info2.mass_residual:.1e}")


@check("continuity_constant_state_steady")
def _c21():
    g = _grid(24)
    params = PenaltyParams()
    bc = throughflow_boundary(DOM, g, 0.2, 1.0)
    # uniform through-flow: the constant field is its own extension
    bc.ub = {w: bc.ub[w] * 0.0 for w in bc.ub}
    for w in bc.ub:
        bc.ub[w][:, 0] = 0.2
    vel = VectorField(g, np.full(g.shape("ufaces"), 0.2),
                      np.zeros(g.shape("vfaces")))
    rho = np.ones((g.nx, g.ny))
    rho1, info = continuity_step(Problem(g, DOM, params, bc), rho, vel, 5e-3)
    err = np.max(np.abs(rho1 - 1.0))
    return _ok(err < 1e-11 and info.mass_residual < 1e-11,
               f"constant state drift {err:.1e}")


@check("continuity_positivity_random")
def _c22():
    g = _grid(24)
    params = PenaltyParams()
    bc = throughflow_boundary(DOM, g, 0.2, 1.0)
    problem = Problem(g, DOM, params, bc)
    rng = np.random.default_rng(8)
    ok = True
    for sd in (0.8, 1.0):
        for _ in range(5):
            rho = np.abs(rng.normal(1.0, sd, size=(g.nx, g.ny)))
            rho[rng.integers(0, g.nx), rng.integers(0, g.ny)] = 0.0
            u = rng.normal(0, 0.2, size=g.shape("ufaces"))
            v = rng.normal(0, 0.2, size=g.shape("vfaces"))
            vel = VectorField(g, u, v)
            dt = 0.4 * g.dx / max(vel.max_speed(), 0.2)
            rho1, _ = continuity_step(problem, rho, vel, dt)
            ok &= np.min(rho1) >= 0.0
    return _ok(ok, "nonnegativity under the advective limit")


@check("renormalized_defect_cases")
def _c23():
    g = _grid(24)
    params = PenaltyParams()
    bc = throughflow_boundary(DOM, g, 0.2, 1.0)
    problem = Problem(g, DOM, params, bc)
    rng = np.random.default_rng(9)
    rho = 1.0 + 0.2 * np.abs(rng.normal(size=(g.nx, g.ny)))
    u = rng.normal(0, 0.1, size=g.shape("ufaces"))
    v = rng.normal(0, 0.1, size=g.shape("vfaces"))
    vel = VectorField(g, u, v)
    dt = 0.25 * g.dx / 0.6
    rho1, info = continuity_step(problem, rho, vel, dt)
    hist_r = [rho, rho1]
    hist_u = [vel, vel]
    d_id = renormalized_residual(g, bc, params, hist_r, hist_u, dt,
                                 lambda z: z, lambda z: 1.0 + 0.0 * z,
                                 lambda z: 0.0 * z)
    d_const = renormalized_residual(g, bc, params, hist_r, hist_u, dt,
                                    lambda z: 3.0 + 0.0 * z,
                                    lambda z: 0.0 * z, lambda z: 0.0 * z)
    # b = const with an explicit unit test function, over a shorter step
    rho2, _ = continuity_step(problem, rho, vel, 1e-3)
    d_psi = renormalized_residual(g, bc, params, [rho, rho2], hist_u, 1e-3,
                                  lambda z: 3.0 + 0.0 * z,
                                  lambda z: 0.0 * z, lambda z: 0.0 * z,
                                  np.ones((g.nx, g.ny)))
    # constant state, u = 0, b = z^2
    rho_c = np.ones((g.nx, g.ny))
    bc0 = resting_boundary(DOM, g, 1.0)
    d_sq = renormalized_residual(g, bc0, params, [rho_c, rho_c],
                                 [VectorField.zeros(g)] * 2, dt,
                                 lambda z: z ** 2, lambda z: 2 * z,
                                 lambda z: 2.0 + 0.0 * z)
    mass_defect = info.mass_residual * integrate(g, rho)
    ok = (abs(d_id) <= mass_defect + 1e-10
          and abs(d_const) < 1e-12 and abs(d_psi) < 1e-12
          and abs(d_sq) < 1e-12)
    return _ok(ok, f"b=id {d_id:.1e}, b=const {d_const:.1e}, "
                   f"{d_psi:.1e}, b=z^2 const state {d_sq:.1e}")


# ------------------------------------------------------------------ momentum

@check("penalty_ramp_properties")
def _c24():
    z = np.linspace(-2, 2, 801)
    v = penalty_ramp(z)
    ok = (np.all(v[z <= 0] == 0.0) and np.all(v[z > 0] > 0.0)
          and penalty_ramp(2.0) == 4.0
          and penalty_ramp(0.0) == 0.0 and penalty_ramp(-1.0) == 0.0
          and np.all(np.diff(v) >= 0.0))
    return _ok(ok, "zero on z<=0, positive, convex growth")


@check("viscosity_fields_invariants")
def _c25():
    ok = True
    for n, params in ((48, PenaltyParams(n_solid=1e3, r_moll=0.03)),
                      (64, PenaltyParams())):
        g = _grid(n)
        xc, yc = g.cell_xy()
        wd = DOM.boundary_distance(xc, yc)
        model = ViscosityModel.from_params(params, DOM)
        chi = body_signed_distance(
            make_disc_body((0.5, 0.5), 0.15, params.r_moll, 2.0), g)
        mu_n, lam_n = viscosity_fields(chi, model, wd)
        # outside the offset neighborhood of the core the ramp vanishes
        outside = chi + params.r_moll <= 0
        ok &= (np.all(mu_n >= params.mu)
               and np.all(mu_n + lam_n >= 0.0)
               and np.all(mu_n[outside] == params.mu)
               and np.max(mu_n) > params.mu)
        # pointwise formula at the body center
        i, j = g.nx // 2, g.ny // 2
        expect = params.mu + params.n_solid \
            * (chi[i, j] + params.r_moll) ** 2 * model.cutoff.value(wd[i, j])
        ok &= abs(mu_n[i, j] - expect) <= 1e-14 * expect
        # the wall collar is penalty-free whatever chi says
        mu_w, _ = viscosity_fields(np.full_like(chi, 0.1), model, wd)
        ok &= np.all(mu_w[wd <= DOM.h / 2] == params.mu)
    return _ok(ok, "floor, sum bound, zero ramp outside, formula, wall "
                   "collar clean")


@check("pressure_laws_and_convexity_1e4")
def _c26():
    p0 = PenaltyParams(a=1.0, gamma=2.0, delta=1e-15)
    ok = abs(pressure(np.array(2.0), p0) - 4.0) < 1e-10
    ok &= abs(pressure_potential(np.array(2.0), p0) - 4.0) < 1e-10
    ok &= pressure(np.array(0.0), p0) == 0.0
    ok &= pressure_potential(np.array(0.0), p0) == 0.0
    ok &= _raises(NegativeDensity, pressure, np.array(-0.5), p0)
    params = PenaltyParams()
    rng = np.random.default_rng(10)
    rho = rng.uniform(0.0, 3.0, size=10000)
    rho_b = rng.uniform(0.1, 3.0, size=10000)
    gap = (pressure_potential(rho_b, params)
           - pressure_potential_d1(rho, params) * (rho_b - rho)
           - pressure_potential(rho, params))
    return _ok(ok and np.min(gap) >= -1e-12,
               f"laws at gamma=2; min convexity slack {np.min(gap):.1e}")


@check("stress_formula_cases")
def _c27():
    # the dilation response 2 mu + 2 lam trips when the bulk term's sign
    # is tampered with (fault injection)
    mu, lam = 0.3, 0.2
    ok = True
    for n, X in ((16, (0.5, 0.5)), (24, (0.4, 0.6))):
        g = _grid(n)
        xu, yu = g.uface_xy()
        xv, yv = g.vface_xy()
        s11, s12, s22 = stress(*sym_gradient(g, xu, yv), mu, lam)
        ok &= (np.max(np.abs(s11 - (2 * mu + 2 * lam))) < 1e-12
               and np.max(np.abs(s22 - (2 * mu + 2 * lam))) < 1e-12
               and np.max(np.abs(s12)) < 1e-12)
        t11, t12, t22 = stress(*sym_gradient(g, yu, 0.0 * xv), mu, lam)
        ok &= (np.max(np.abs(t12 - mu)) < 1e-12
               and np.max(np.abs(t11)) < 1e-12
               and np.max(np.abs(t22)) < 1e-12)
        rig = rigid_velocity_field(g, np.array(X), np.array([1.0, -2.0]),
                                   3.0)
        r = stress(*sym_gradient(g, rig.u, rig.v), mu, lam)
        ok &= max(np.max(np.abs(c)) for c in r) < 1e-11
    return _ok(ok, "isotropic dilation incl. bulk sign, shear, rigid kernel")


@check("viscous_quadform_psd_100")
def _c28():
    params = PenaltyParams(n_solid=1e4, lam=-0.05)
    body = make_disc_body((0.5, 0.5), 0.15, 0.03, 2.0)
    rng = np.random.default_rng(11)
    worst = np.inf
    for n in (16, 24):
        g = _grid(n)
        state = ViscousState(Problem(g, DOM, params,
                                     resting_boundary(DOM, g, 1.0)),
                             body_signed_distance(body, g))
        for _ in range(100):
            vel = VectorField(g, rng.normal(size=g.shape("ufaces")),
                              rng.normal(size=g.shape("vfaces")))
            worst = min(worst, viscous_quadratic_form(state, vel))
    return _ok(worst >= -1e-10, f"min quadratic form {worst:.2e}")


@check("rigid_steady_state_of_viscous_operator")
def _c29():
    g = _grid(24)
    params = PenaltyParams(n_solid=1e4)
    body = make_disc_body((0.5, 0.5), 0.15, 0.03, 2.0)
    chi = body_signed_distance(body, g)
    X, V, w = np.array([0.45, 0.55]), np.array([0.1, -0.2]), 0.7
    rig = rigid_velocity_field(g, X, V, w)
    bc = _rigid_trace_boundary(g, X, V, w)
    quad = viscous_quadratic_form(ViscousState(Problem(g, DOM, params, bc),
                                               chi), rig)
    return _ok(abs(quad) <= 1e-20,
               f"viscous energy of a rigid field: {quad:.2e}")


def _rigid_trace_boundary(g, X, V, w):
    bc = resting_boundary(DOM, g, 1.0)
    for wall, ub in bc.ub.items():
        x, y = DOM.wall_xy(g, wall)
        ub[:, 0] = V[0] - w * (y - X[1])
        ub[:, 1] = V[1] + w * (x - X[0])
    bc.u_ext = VectorField.zeros(g)
    return bc


@check("momentum_static_equilibrium_exact")
def _c30():
    g = _grid(24)
    params = PenaltyParams()
    bc = resting_boundary(DOM, g, 1.0)
    bc.u_ext = VectorField.zeros(g)
    rho = np.ones((g.nx, g.ny))
    body = make_disc_body((0.5, 0.5), 0.2, 0.03, 2.0)
    chi = body_signed_distance(body, g)
    vel = VectorField.zeros(g)
    state = ViscousState(Problem(g, DOM, params, bc), chi)
    vel1, info = momentum_step(state, rho, rho, vel, 2e-3)
    m = vel1.max_speed()
    return _ok(m <= 1e-12 and info.pinned_vacuum_faces == 0,
               f"max |u'| = {m:.1e}")


@check("momentum_uniform_translation_steady")
def _c31():
    g = _grid(24)
    params = PenaltyParams(n_solid=0.0)
    rho = np.ones((g.nx, g.ny))
    chi = np.full((g.nx, g.ny), -1.0)
    vel = VectorField(g, np.full(g.shape("ufaces"), 0.3),
                      np.zeros(g.shape("vfaces")))
    err = 0.0
    # with the uniform field as the extension, and with the resting one
    for u_ext in (vel, None):
        bc = resting_boundary(DOM, g, 1.0)
        for w in bc.ub:
            bc.ub[w][:, 0] = 0.3
        if u_ext is not None:
            bc.u_ext = u_ext
        state = ViscousState(Problem(g, DOM, params, bc), chi)
        vel1, _ = momentum_step(state, rho, rho, vel, 5e-3)
        err = max(err, np.max(np.abs(vel1.u - 0.3)), np.max(np.abs(vel1.v)))
    return _ok(err < 1e-10, f"translation drift {err:.1e}")


@check("momentum_stiffness_10x_still_converges")
def _c32():
    iters = []
    for n_grid, r in ((32, 0.04), (24, 0.09)):
        g = _grid(n_grid)
        bc = throughflow_boundary(DOM, g, 0.2, 1.0)
        bc.u_ext, _ = build_extension(bc, DOM, g)
        chi = body_signed_distance(make_disc_body((0.5, 0.5), 0.15, r, 2.0),
                                   g)
        rho = np.ones((g.nx, g.ny))
        for n in (1e3, 1e4):
            params = PenaltyParams(n_solid=n, r_moll=r)
            state = ViscousState(Problem(g, DOM, params, bc), chi)
            _, info = momentum_step(state, rho, rho, bc.u_ext.copy(), 2e-3)
            iters.append(info.iterations)
            if info.solve_residual > 1e-8:
                return _ok(False, f"residual {info.solve_residual}")
    return _ok(True, f"iteration counts {iters}")


@check("transposition_equivariant_kernels")
def _c52():
    # each face kernel is written once, for the component whose normal is
    # axis 0, and serves the other on transposed views: on a grid with
    # nx != ny and dx != dy, the transposed call returns the transposed,
    # swapped result bit for bit.  _to_cells adds a cell's four corners in
    # a fixed order that the transpose permutes, so the strain's node
    # averages (D12, du/dy, dv/dx on cells) agree to round-off only.
    g = StaggeredGrid(24, 32, 0.03, 0.02)
    gt = StaggeredGrid(32, 24, 0.02, 0.03)
    rng = np.random.default_rng(52)
    rho, rho1 = rng.uniform(0.5, 1.5, (2, 24, 32))
    vel = VectorField(g, rng.normal(size=(25, 32)), rng.normal(size=(24, 33)))
    velt = VectorField(gt, vel.v.T, vel.u.T)
    tr = {w: rng.normal(size=wall_faces(g, w) + 1) for w in WALL}
    trt = _mirrored(tr)
    src = (rng.normal(size=(25, 32)), rng.normal(size=(24, 33)))

    def swap(x):   # a face vector of g as the face vector of gt
        u, v = _face_views(g, x)
        return np.concatenate([v.T.ravel(), u.T.ravel()])

    def same(a, b):   # b is a's transposed-call counterpart, pairwise
        return all(np.array_equal(x, y.T) for x, y in zip(a, b))

    terms = _explicit_terms(g, rho, rho1, vel, PenaltyParams(), 1e-3, tr, src)
    terms_t = _explicit_terms(gt, rho.T, rho1.T, velt, PenaltyParams(), 1e-3,
                              trt, (src[1].T, src[0].T))
    slots, slots_t = _d12_slots(g), _d12_slots(gt)
    sg, sgt = (sym_gradient(*a) for a in ((g, vel.u, vel.v, tr),
                                          (gt, velt.u, velt.v, trt)))
    fg, fgt = (full_gradient(*a) for a in ((g, vel.u, vel.v, tr),
                                           (gt, velt.u, velt.v, trt)))
    exact = {
        "cell_gradient": same(cell_gradient(g, rho),
                              cell_gradient(gt, rho.T)[::-1]),
        "advection": same([_advected(g, rho, vel, 1e-3)],
                          [_advected(gt, rho.T, velt, 1e-3)]),
        "face density": np.array_equal(swap(_face_density(g, rho)),
                                       _face_density(gt, rho.T)),
        "d12 slots": same(slots, slots_t[2:] + slots_t[:2]),
        "explicit terms": all(np.array_equal(swap(a), b)
                              for a, b in zip(terms, terms_t)),
        "node differences": same(_node_differences(g, vel.u, vel.v, tr),
                                 _node_differences(gt, velt.u, velt.v,
                                                   trt)[::-1]),
        "strain diagonal": same((sg[0], sg[2], fg[0], fg[3]),
                                (sgt[2], sgt[0], fgt[3], fgt[0])),
    }
    gap = max(np.max(np.abs(a - b.T)) / np.max(np.abs(a)) for a, b in
              ((sg[1], sgt[1]), (fg[1], fgt[2]), (fg[2], fgt[1]),
               (fg[4], fgt[4])))
    bad = [k for k, ok in exact.items() if not ok]
    return _ok(not bad and gap <= 4 * np.finfo(float).eps,
               f"not bitwise: {bad}; node averages rel {gap:.1e}")


@check("eps_coupling_exact_rectangular_cells")
def _c53():
    # affine rho and u on cells with dx != dy: the coupling eps grad(rho) .
    # grad(u) of _explicit_terms is exact on every interior face, so its
    # part of the right-hand side, the difference of two eps, is constant
    g = StaggeredGrid(24, 32, 0.03, 0.02)
    xc, yc = g.cell_xy()
    (xu, yu), (xv, yv) = g.uface_xy(), g.vface_xy()
    rho = 1.0 + 0.3 * xc - 0.2 * yc
    vel = VectorField(g, 0.1 + 0.4 * xu - 0.7 * yu, -0.2 + 0.5 * xv + 0.3 * yv)
    tr = {w: wall_line((vel.u, vel.v)[1 - axis], w)
          for w, (axis, _) in WALL.items()}
    rhs = [_explicit_terms(g, rho, rho, vel, PenaltyParams(eps=eps), 1.0,
                           tr, None)[0] for eps in (0.5, 0.25)]
    ru, rv = _face_views(g, (rhs[1] - rhs[0]) / (0.25 * g.cell_volume))
    err = max(np.max(np.abs(ru[1:-1] - (0.3 * 0.4 + 0.2 * 0.7))),
              np.max(np.abs(rv[:, 1:-1] - (0.3 * 0.5 - 0.2 * 0.3))))
    return _ok(err <= 1e-10, f"coupling error {err:.1e}")


# ---------------------------------------------------------------------- body

@check("procrustes_recovery_and_noise")
def _c34():
    body = make_disc_body((0.0, 0.0), 0.15, 0.03, 1.0)
    ref = body.ref_markers
    count = ref.shape[0]
    X0, th0, d0 = project_rigid(ref, ref)
    th = np.deg2rad(30.0)
    moved = np.array([1.0, 2.0]) + ref @ _rotation(th).T
    X1, th1, d1 = project_rigid(ref, moved)
    ok = (d0 < 1e-14 and np.allclose(X0, 0, atol=1e-14) and abs(th0) < 1e-14
          and abs(th1 - th) < 1e-12 and np.allclose(X1, [1, 2], atol=1e-12)
          and d1 < 1e-12)
    rng = np.random.default_rng(12)
    sig = 1e-3
    defects = []
    # noisy markers: a defect of the noise's size, and no rotation on a
    # brute-force grid fits better
    for X, a0, bound in (((1.0, 2.0), th, 3 * sig * np.sqrt(2 * count)),
                         ((0.3, -0.2), 0.4, 3 * sig * np.sqrt(count))):
        noisy = np.array(X) + ref @ _rotation(a0).T \
            + rng.normal(0, sig, size=ref.shape)
        _, th2, d2 = project_rigid(ref, noisy)
        best = np.inf
        for a in np.linspace(th2 - 0.02, th2 + 0.02, 201):
            Ra = _rotation(a)
            Xa = noisy.mean(axis=0) - Ra @ ref.mean(axis=0)
            best = min(best, np.sqrt(np.sum((noisy - Xa - ref @ Ra.T) ** 2)))
        ok &= 0 < d2 < bound and d2 <= best + 1e-12
        defects.append(d2)
    return _ok(ok, f"defects {d0:.1e}, {d1:.1e}, noisy {defects}")


@check("body_translation_exact")
def _c35():
    g = _grid(64)
    k = MollifierKernel.build(0.05, g.dx, g.dy)
    body = make_disc_body((0.5, 0.5), 0.15, 0.05, 2.0)
    c = np.array([0.21, -0.13])
    vel = VectorField(g, np.full(g.shape("ufaces"), c[0]),
                      np.full(g.shape("vfaces"), c[1]))
    dt = 0.01
    b1, info = body_step(g, DOM, body, vel, k, dt)
    ok = (np.max(np.abs(b1.X - (body.X + dt * c))) < 1e-12
          and abs(b1.theta) < 1e-12 and info.rigidity_defect < 1e-12)
    return _ok(ok, "translation advances the center exactly")


@check("body_rotation_second_order")
def _c36():
    w0 = 1.5
    drift = []
    ok = True
    for n, r in ((96, 0.03), (64, 0.05)):  # grid, mollifier radius
        g = _grid(n)
        k = MollifierKernel.build(r, g.dx, g.dy)
        body = make_disc_body((0.5, 0.5), 0.15, r, 2.0)
        for dt in (0.02, 0.01):
            rig = rigid_velocity_field(g, np.array([0.5, 0.5]),
                                       np.array([0.0, 0.0]), w0)
            b1, _ = body_step(g, DOM, body, rig, k, dt)
            drift.append(abs(b1.theta - _midpoint_angle(w0, dt)))
            # the map is second-order accurate in the step size
            ok &= (drift[-1] <= 1e-12
                   and abs(b1.theta - dt * w0) <= (dt * w0) ** 3)
    return _ok(ok, f"angle matches the explicit midpoint map: {drift}")


def _midpoint_angle(w0, dt):
    # closed form of one midpoint step of a pure rotation about the center
    return float(np.arctan2(dt * w0, 1.0 - 0.5 * (dt * w0) ** 2))


@check("body_isometry_drift_march", fast=False)
def _c37():
    g = _grid(64)
    worst = 0.0
    # mollifier radius, body radius, V, w, dt, steps
    for r, radius, V, w, dt, steps in (
            (0.04, 0.12, (0.02, -0.01), 0.8, 2e-3, 100),
            (0.05, 0.12, (0.015, -0.008), 0.9, 1e-3, 1000)):
        k = MollifierKernel.build(r, g.dx, g.dy)
        body = make_disc_body((0.5, 0.5), radius, r, 2.0)
        refd = _pairdist(body.markers())
        for _ in range(steps):
            rig = rigid_velocity_field(g, body.X, np.array(V), w)
            body, _ = body_step(g, DOM, body, rig, k, dt)
            worst = max(worst, np.max(np.abs(_pairdist(body.markers())
                                             - refd)))
    return _ok(worst <= 1e-12, f"pairwise distance drift {worst:.1e}")


def _pairdist(pts):
    d = pts[None, :, :] - pts[:, None, :]
    return np.sqrt(np.sum(d ** 2, axis=2))


@check("chi_sign_and_equivariance")
def _c38():
    body = make_disc_body((0.5, 0.5), 0.15, 0.03, 2.0)
    ok = abs(float(signed_distance(body.core(), 0.5, 0.5)) - 0.12) <= 1e-15
    ok &= abs(float(signed_distance(body.core(), 0.5 + 0.12, 0.5))) <= 1e-15
    for n in (48, 64):
        g = _grid(n)
        chi = body_signed_distance(body, g)
        i, j = g.nx // 2, g.ny // 2
        ok &= chi[i, j] > 0 and chi[0, 0] < 0
        ok &= abs(chi[i, j] - 0.12) <= g.dx
    return _ok(ok, "signs and analytic values")


@check("collision_guard_arithmetic")
def _c39():
    b0 = make_disc_body((0.5, 0.5), 0.15, 0.03, 2.0)
    g0 = collision_guard(b0, DOM, 0.1, 0.03)
    b1 = make_disc_body((0.25, 0.5), 0.15, 0.03, 2.0)
    g1 = collision_guard(b1, DOM, 0.1, 0.03)
    b2 = make_disc_body((0.2, 0.5), 0.15, 0.03, 2.0)
    g2 = collision_guard(b2, DOM, 0.1, 0.03)
    ok = (g0.ok and abs(g0.margin - 0.25) < 1e-14
          and g1.ok and abs(g1.margin) < 1e-14
          and (not g2.ok) and g2.margin < 0)
    return _ok(ok, f"margins {g0.margin}, {g1.margin}, {g2.margin}")


@check("t0_bound_formula")
def _c40():
    ok = abs(t0_lower_bound(1.1, 0.1, 1.0, 10.0) - 1.0) < 1e-14
    ok &= t0_lower_bound(1.1, 0.1, 1e12, 10.0) < 1e-12
    ok &= abs(t0_lower_bound(1.1, 0.1, 1e9, 10.0)) <= 1e-15
    ok &= t0_lower_bound(1.1, 0.1, 0.1, 0.5) == 0.5
    ok &= t0_lower_bound(1.1, 0.1, 0.2, 0.5) == 0.5
    ok &= _raises(InvalidMargin, t0_lower_bound, 0.05, 0.1, 1.0, 1.0)
    return _ok(ok, "formula, clamp, horizon cap, invalid margin")


# ----------------------------------------------------------------- ledgers

@check("energy_total_cases")
def _c41():
    g = _grid(24)
    zero = VectorField.zeros(g)
    ok = True
    # P(1) = 1 at gamma = 2 up to the delta term
    for delta, tol in ((1e-9, 1e-6), (1e-15, 1e-12)):
        params = PenaltyParams(a=1.0, gamma=2.0, delta=delta)
        ok &= energy_total(g, np.zeros((g.nx, g.ny)), zero, zero,
                           params) == 0.0
        e = energy_total(g, np.ones((g.nx, g.ny)), zero, zero, params)
        ok &= abs(e - 1.0) <= tol
    rng = np.random.default_rng(13)
    for params, draws in ((PenaltyParams(a=1.0, gamma=2.0, delta=1e-9), 5),
                          (PenaltyParams(), 10)):
        for _ in range(draws):
            rho = np.abs(rng.normal(size=(g.nx, g.ny)))
            vel = VectorField(g, rng.normal(size=g.shape("ufaces")),
                              rng.normal(size=g.shape("vfaces")))
            ok &= energy_total(g, rho, vel, zero, params) >= 0.0
    return _ok(ok, "zero state, unit state, nonnegativity")


@check("ledger_static_equilibrium_zero")
def _c42():
    g = _grid(24)
    params = PenaltyParams()
    bc = resting_boundary(DOM, g, 1.0)
    bc.u_ext = VectorField.zeros(g)
    rho = np.ones((g.nx, g.ny))
    zero = VectorField.zeros(g)
    chi = np.full((g.nx, g.ny), -1.0)
    state = ViscousState(Problem(g, DOM, params, bc), chi)
    row = ledger_step(state, rho, zero, rho, zero, 1e-3, 1e-3)
    vals = [row.dissipation, row.eps_term, row.outflow_term,
            row.conv_coupling, row.pressure_dilation, row.inflow_term,
            row.uinf_stress, row.eps_coupling, row.energy_residual]
    worst = max(abs(v) for v in vals)
    return _ok(worst < 1e-12, f"all terms at rest <= {worst:.1e}")


@check("effective_viscous_flux_cases")
def _c43():
    g = _grid(24)
    params = PenaltyParams(a=1.0, gamma=2.0, delta=1e-15, mu=0.25, lam=0.5)
    xu, yu = g.uface_xy()
    xv, yv = g.vface_xy()
    div_free = effective_viscous_flux(g, np.ones((g.nx, g.ny)),
                                      VectorField(g, xu, -yv), params)
    ok = np.max(np.abs(div_free - 1.0)) < 1e-10
    zero = effective_viscous_flux(g, np.zeros((g.nx, g.ny)),
                                  VectorField(g, xu, -yv), params)
    ok &= np.max(np.abs(zero)) < 1e-12
    return _ok(ok, "divergence-free unit state and vacuum state")


@check("static_closed_curve_force_zero")
def _c44():
    g = _grid(64)
    params = PenaltyParams()
    body = make_disc_body((0.5, 0.5), 0.15, 0.03, 2.0)
    F, tq = surface_force_torque(g, DOM, np.ones((g.nx, g.ny)),
                                 VectorField.zeros(g), body, params)
    return _ok(np.max(np.abs(F)) < 1e-12 and abs(tq) < 1e-12,
               f"|F| = {np.max(np.abs(F)):.1e}, torque {tq:.1e}")


@check("interior_pressure_norm_formula")
def _c45():
    params = PenaltyParams()
    eg = 0.5 ** (1.0 / (params.gamma + 1.0))
    eb = 0.5 ** (1.0 / (params.beta + 1.0))
    ok = True
    for n in (24, 32):
        g = _grid(n)
        mask = np.zeros((g.nx, g.ny), dtype=bool)
        mask[:, :g.ny // 2] = True  # half the unit square
        ng, nb = interior_pressure_norm(g, np.ones((g.nx, g.ny)), mask,
                                        params)
        z, zb = interior_pressure_norm(g, np.zeros((g.nx, g.ny)), mask,
                                       params)
        ok &= (abs(ng - eg) < 1e-12 and abs(nb - eb) < 1e-12
               and z == 0.0 and zb == 0.0)
    return _ok(ok, "half-domain unit norms")


@check("rigidity_measure_cases")
def _c47():
    g = _grid(48)
    body = make_disc_body((0.5, 0.5), 0.2, 0.03, 2.0)
    chi = body_signed_distance(body, g)
    r0 = max(rigidity_measure(g, rigid_velocity_field(g, body.X,
                                                      np.array(V), w), chi)
             for V, w in (((0.3, -0.1), 2.0), ((0.4, -0.2), 1.5)))
    xu, yu = g.uface_xy()
    shear = VectorField(g, yu, np.zeros(g.shape("vfaces")))
    r1 = rigidity_measure(g, shear, chi)
    area = float(np.sum(chi >= 2 * g.dx)) * g.cell_volume
    return _ok(r0 <= 1e-12 and abs(r1 - 0.5 * area) <= 1e-12 * 0.5 * area,
               f"rigid -> {r0:.1e}, shear -> half the compact area")


# ------------------------------------------------------------- whole runs

@check("zero_data_run_is_inert")
def _c50():
    from .driver import run
    details = []
    ok = True
    for kw in (dict(t_end=0.02, dt=2e-3), dict(speed=0.0, t_end=0.01,
                                               dt=1e-3)):
        cfg = default_config(profile="zero", u0="zero", n=0.0, nx=32, ny=32,
                             r=0.07, radius=0.18, **kw)
        rep = run(cfg, outdir=False, keep_fields=True)
        umax = rep.final_vel.max_speed()
        e0 = rep.aggregates["E_first"]
        drift = rep.aggregates["E_final"] - e0
        ok &= umax == 0.0 and drift == 0.0 and not rep.stopped_early
        details.append(f"max|u| {umax:.1e}, E drift {drift:.1e}")
    return _ok(ok, "; ".join(details))


@check("throughflow_mirror_symmetry")
def _c51():
    # a centred body in balanced left-to-right through-flow is its own
    # mirror image in y = Ly/2: rho, u and -v mirror, lift and torque vanish
    from .driver import run
    rep = run(default_config(nx=48, ny=48, r=0.05, t_end=0.05),
              outdir=False, keep_fields=True)
    rho, u, v = rep.final_rho, rep.final_vel.u, rep.final_vel.v
    speed = max(np.max(np.abs(u)), np.max(np.abs(v)))
    errs = [np.max(np.abs(rho - rho[:, ::-1])) / np.max(rho),
            np.max(np.abs(u - u[:, ::-1])) / speed,
            np.max(np.abs(v + v[:, ::-1])) / speed]
    fx = max(abs(row.Fx) for row in rep.rows)
    errs += [max(abs(row.Fy) for row in rep.rows) / fx,
             max(abs(row.torque) for row in rep.rows) / fx]
    return _ok(max(errs) <= 1e-10,
               "rho, u, -v mirror; |Fy|, |torque| relative to |Fx|: "
               + ", ".join(f"{e:.1e}" for e in errs))


@check("energy_ledger_rectangular_cells")
def _c54():
    # the through-flow ledger on cells with dx != dy closes as well as on
    # square ones: a wall term with the spacing across the wall for its
    # face length reads about 12 times the square run's residual
    from .driver import run
    res = [run(default_config(r=0.06, t_end=0.05, dt=1e-3, **kw),
               outdir=False).aggregates["mean_abs_energy_residual"]
           for kw in (dict(nx=48, ny=40, Lx=1.2, Ly=0.9), dict(nx=48, ny=48))]
    return _ok(res[0] <= 2.0 * res[1],
               f"mean |energy residual| {res[0]:.2e} against {res[1]:.2e} "
               f"on square cells")


@check("mms_continuity_order", fast=False)
def _c48():
    from .mms import continuity_convergence
    res = continuity_convergence(nx_list=(32, 64, 128), t_end=0.05)
    return _ok(res["order"] >= 0.9, f"observed order {res['order']:.2f}")


@check("mms_momentum_order", fast=False)
def _c49():
    from .mms import momentum_convergence
    res = momentum_convergence(nx_list=(16, 32, 64), t_end=0.025)
    return _ok(res["order"] >= 0.9, f"observed order {res['order']:.2f}")


def run_verify(fast: bool = False, report_path=None):
    """Run the property battery; returns (exit_code, results)."""
    results = []
    for name, is_fast, fn in CHECKS:
        if fast and not is_fast:
            continue
        t0 = time.time()
        try:
            passed, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        results.append({"name": name, "passed": bool(passed),
                        "detail": detail,
                        "seconds": round(time.time() - t0, 3)})
    failures = [r for r in results if not r["passed"]]
    if report_path:
        with open(report_path, "w") as f:
            json.dump({"n_checks": len(results),
                       "n_failed": len(failures),
                       "failures": [r["name"] for r in failures],
                       "results": results}, f, indent=2)
            f.write("\n")
    return (1 if failures else 0), results
