"""Manufactured-solution convergence studies for the two solvers.

The exact fields (and the forcing that makes them solutions) are derived
symbolically, independent of every discrete operator they judge.
Manufactured velocities have zero normal trace, so boundary fluxes drop
out of the mass solver and the momentum solver sees pure Dirichlet data.
"""

from __future__ import annotations

import numpy as np
import sympy as sp

from .continuity import PenaltyParams, continuity_step
from .fields import WALL, StaggeredGrid, VectorField, integrate, wall_faces
from .geometry import BoundaryData, DomainSpec
from .momentum import Problem, ViscousState, momentum_step

X, Y, T = sp.symbols("x y t", real=True)


def _lamb(expr):
    return sp.lambdify((T, X, Y), expr, "numpy")


def _sample(fn, t, xs, ys):
    return np.asarray(fn(t, xs, ys), dtype=np.float64) \
        + np.zeros_like(xs, dtype=np.float64)


def continuity_manufactured(params: PenaltyParams):
    """rho* with zero normal-trace velocity; returns callables and the
    symbolic source of the regularized mass equation."""
    rho = 2 + sp.cos(2 * sp.pi * X) * sp.cos(2 * sp.pi * Y) * sp.exp(-T)
    u = sp.Rational(3, 10) * sp.sin(sp.pi * X) * sp.cos(sp.pi * Y)
    v = sp.Rational(1, 5) * sp.cos(sp.pi * X) * sp.sin(sp.pi * Y)
    source = (sp.diff(rho, T)
              - params.eps * (sp.diff(rho, X, 2) + sp.diff(rho, Y, 2))
              + sp.diff(rho * u, X) + sp.diff(rho * v, Y))
    return {"rho": _lamb(rho), "u": _lamb(u), "v": _lamb(v),
            "source": _lamb(sp.simplify(source))}


def momentum_manufactured(params: PenaltyParams):
    """Static rho*, decaying velocity; source closes the full momentum
    equation with constant physical viscosities (no body)."""
    rho = 1 + sp.Rational(1, 5) * sp.cos(sp.pi * X) * sp.cos(sp.pi * Y)
    amp = 1 + sp.Rational(1, 2) * sp.exp(-T)
    u = amp * sp.Rational(3, 10) * sp.sin(sp.pi * X) * sp.cos(sp.pi * Y)
    v = amp * sp.Rational(1, 5) * sp.cos(sp.pi * X) * sp.sin(sp.pi * Y)
    p = params.a * rho ** float(params.gamma) \
        + params.delta * rho ** float(params.beta)
    mu, lam = params.mu, params.lam
    div = sp.diff(u, X) + sp.diff(v, Y)
    # Div S with constant coefficients: mu Lap(u) + (mu + lam) grad(div)
    visc_x = mu * (sp.diff(u, X, 2) + sp.diff(u, Y, 2)) \
        + (mu + lam) * sp.diff(div, X)
    visc_y = mu * (sp.diff(v, X, 2) + sp.diff(v, Y, 2)) \
        + (mu + lam) * sp.diff(div, Y)
    eps_x = params.eps * (sp.diff(rho, X) * sp.diff(u, X)
                          + sp.diff(rho, Y) * sp.diff(u, Y))
    eps_y = params.eps * (sp.diff(rho, X) * sp.diff(v, X)
                          + sp.diff(rho, Y) * sp.diff(v, Y))
    src_x = (sp.diff(rho * u, T)
             + sp.diff(rho * u * u, X) + sp.diff(rho * u * v, Y)
             + sp.diff(p, X) - visc_x + eps_x)
    src_y = (sp.diff(rho * v, T)
             + sp.diff(rho * u * v, X) + sp.diff(rho * v * v, Y)
             + sp.diff(p, Y) - visc_y + eps_y)
    return {"rho": _lamb(rho), "u": _lamb(u), "v": _lamb(v),
            "src_x": _lamb(src_x), "src_y": _lamb(src_y)}


def _mms_boundary(grid, domain, man, t, rho_b=2.0):
    ub = {w: np.stack([_sample(man[c], t, *domain.wall_xy(grid, w))
                       for c in ("u", "v")], axis=1) for w in WALL}
    rho = {w: np.full(wall_faces(grid, w), rho_b) for w in WALL}
    bc = BoundaryData(grid=grid, domain=domain, ub=ub, rho=rho)
    bc.u_ext = VectorField.zeros(grid)
    return bc


def continuity_convergence(nx_list=(32, 64, 128, 256), t_end=0.1,
                           courant=0.25):
    """March the mass solver against the manufactured state; returns L1
    errors and the regression order."""
    params = PenaltyParams(bc_sharpness=1e9)
    man = continuity_manufactured(params)
    errors, hs = [], []
    for nx in nx_list:
        grid = StaggeredGrid(nx, nx, 1.0 / nx, 1.0 / nx)
        domain = DomainSpec(1.0, 1.0, 0.1)
        bc = _mms_boundary(grid, domain, man, 0.0)
        xc, yc = grid.cell_xy()
        xu, yu = grid.uface_xy()
        xv, yv = grid.vface_xy()
        vel = VectorField(grid, _sample(man["u"], 0.0, xu, yu),
                          _sample(man["v"], 0.0, xv, yv))
        rho = _sample(man["rho"], 0.0, xc, yc)
        dt = courant * grid.dx / 0.5
        nsteps = int(np.ceil(t_end / dt))
        dt = t_end / nsteps
        t = 0.0
        problem = Problem(grid, domain, params, bc)
        for _ in range(nsteps):
            src = _sample(man["source"], t + 0.5 * dt, xc, yc)
            rho, _info = continuity_step(problem, rho, vel, dt, source=src)
            t += dt
        exact = _sample(man["rho"], t_end, xc, yc)
        errors.append(integrate(grid, np.abs(rho - exact)))
        hs.append(grid.dx)
    order = _slope(np.log(hs), np.log(errors))
    return {"nx": list(nx_list), "h": hs, "l1_error": errors,
            "order": float(order)}


def momentum_convergence(nx_list=(16, 32, 64, 128), t_end=0.05,
                         courant=0.2):
    """March the momentum solver with frozen manufactured density."""
    params = PenaltyParams(n_solid=0.0)
    man = momentum_manufactured(params)
    errors, hs = [], []
    wave = 0.6 + 1.5  # velocity amplitude + sound-speed bound of rho*
    for nx in nx_list:
        grid = StaggeredGrid(nx, nx, 1.0 / nx, 1.0 / nx)
        domain = DomainSpec(1.0, 1.0, 0.1)
        xc, yc = grid.cell_xy()
        xu, yu = grid.uface_xy()
        xv, yv = grid.vface_xy()
        rho = _sample(man["rho"], 0.0, xc, yc)
        vel = VectorField(grid, _sample(man["u"], 0.0, xu, yu),
                          _sample(man["v"], 0.0, xv, yv))
        chi = np.full((nx, nx), -1.0)  # no body anywhere
        dt = courant * grid.dx / wave
        nsteps = int(np.ceil(t_end / dt))
        dt = t_end / nsteps
        t = 0.0
        for _ in range(nsteps):
            tm = t + 0.5 * dt
            src = (_sample(man["src_x"], tm, xu, yu),
                   _sample(man["src_y"], tm, xv, yv))
            bc = _mms_boundary(grid, domain, man, t + dt, rho_b=1.0)
            state = ViscousState(Problem(grid, domain, params, bc), chi)
            vel, _info = momentum_step(state, rho, rho, vel, dt, source=src)
            t += dt
        eu = vel.u - _sample(man["u"], t_end, xu, yu)
        ev = vel.v - _sample(man["v"], t_end, xv, yv)
        err2 = (np.sum(eu[1:-1, :] ** 2) + np.sum(ev[:, 1:-1] ** 2)) \
            * grid.cell_volume
        errors.append(float(np.sqrt(err2)))
        hs.append(grid.dx)
    order = _slope(np.log(hs), np.log(errors))
    return {"nx": list(nx_list), "h": hs, "l2_error": errors,
            "order": float(order)}


def _slope(xs, ys):
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    xm, ym = xs.mean(), ys.mean()
    return float(np.sum((xs - xm) * (ys - ym)) / np.sum((xs - xm) ** 2))
