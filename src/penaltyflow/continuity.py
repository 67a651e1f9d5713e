"""Mass transport: upwind advection with implicit mass diffusion and the
regularized inflow/outflow boundary closure, plus the renormalized-equation
diagnostic.

Boundary treatment: at every boundary face the advective flux uses the
adjacent interior cell (explicit), and the diffusive flux is closed by the
smoothed-negative-part Robin condition (implicit).  Where the prescribed
normal velocity saturates the smoothing the two combine to the exact
prescribed total flux: rho_B ub.n entering on inflow faces, rho ub.n
leaving on outflow faces.

The implicit step's matrix vol I + dt K, K the unit-dt diffusion and Robin
part, is a five-point stencil whose off-diagonals are two constants.
``DiffusionStep`` applies it by array slices, bit for bit as its CSR
matrix would; a run keeps only K's diagonal (``_unit_diagonal``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CflViolation, HistoryTooShort, LinearSolveDiverged
from .fields import (WALL, StaggeredGrid, VectorField, cell_gradient, cg,
                     divergence, faces_to_centers, integrate, jacobi,
                     wall_line, wall_spacing)
from .geometry import WALLS, BoundaryData

MASS_BUDGET_TOL = 1e-10  # a step's relative mass budget residual, at most
CG_RTOL = 1e-13          # tighter than MASS_BUDGET_TOL so the mass
CG_MAXITER_FACTOR = 10   # budget closes at it after the iterative solve


@dataclass(frozen=True)
class PenaltyParams:
    """Every approximation knob of the construction."""
    a: float = 1.0            # pressure coefficient
    gamma: float = 5.0 / 3.0  # adiabatic exponent, > 3/2
    delta: float = 1e-3       # artificial-pressure weight
    beta: float = 8.0         # artificial exponent (> 7 keeps the
                              # effective-flux diagnostics meaningful)
    eps: float = 1e-3         # mass-diffusion coefficient
    n_solid: float = 1e3      # solidification stiffness
    r_moll: float = 0.03      # mollification / erosion radius
    bc_sharpness: float = 64.0  # negative-part smoothing sharpness
    mu: float = 0.1           # shear viscosity
    lam: float = 0.1          # bulk viscosity
    h: float = 0.1            # wall collision margin

    def __post_init__(self):
        if not self.gamma > 1.5:
            raise ValueError("gamma must exceed 3/2")
        if not self.beta > max(4.5, self.gamma):
            raise ValueError("beta must exceed max(9/2, gamma)")
        if self.eps <= 0 or self.delta <= 0 or self.bc_sharpness <= 0:
            raise ValueError("eps, delta and bc_sharpness must be positive")
        if not self.delta < 1:
            # the density clamp [delta, 1/delta] is empty from delta = 1 on
            raise ValueError("delta must be below 1")
        # n_solid = 0 is allowed: it switches the solidification off
        # (the resting-data scenario uses it).
        if self.n_solid < 0 or self.r_moll <= 0 or self.h <= 0:
            raise ValueError("n_solid must be >= 0; r_moll, h positive")
        if self.mu <= 0 or self.mu + self.lam < 0:
            raise ValueError("need mu > 0 and mu + lam >= 0")


def smoothed_negative_part(v, sharpness):
    """C^1 under-approximation of min(v, 0).

    Equals v below -1/N, 0 above 1/N, and blends with the cubic Hermite
    matching value and slope at both ends, which collapses to
    -(1-s)^2/N on the blend interval.  Nondecreasing, <= min(v, 0).
    """
    v = np.asarray(v, dtype=np.float64)
    inv = 1.0 / sharpness
    s = np.clip((v + inv) * (sharpness / 2.0), 0.0, 1.0)
    blend = -(1.0 - s) ** 2 * inv
    return np.where(v <= -inv, v, np.where(v >= inv, 0.0, blend))


def check_cfl(grid: StaggeredGrid, vel: VectorField, bc: BoundaryData,
              dt: float):
    vmax = max(vel.max_speed(), bc.max_trace_speed())
    if vmax == 0.0:
        return
    limit = 0.5 * min(grid.dx, grid.dy) / vmax
    if dt > limit * (1 + 1e-12):
        raise CflViolation(f"dt = {dt} exceeds advective limit {limit}")


def _advected(grid, rho, vel, dt):
    """rho after dt of explicit upwind advection through the interior
    faces; the boundary faces' fluxes are implicit, in the diffusion
    solve."""
    fx, fy = _upwind_flux(rho, vel.u), _upwind_flux(rho.T, vel.v.T).T
    return rho - dt * ((fx[1:, :] - fx[:-1, :]) / grid.dx
                       + (fy[:, 1:] - fy[:, :-1]) / grid.dy)


def _upwind_flux(rho, u):
    """Advective mass flux through the interior faces whose normal is axis
    0 (u, the velocity on those faces), zero on the boundary faces.  The
    y faces' flux is this function of rho.T and v.T, transposed."""
    f = np.zeros_like(u)
    uu = u[1:-1]
    f[1:-1] = uu * np.where(uu > 0, rho[:-1], rho[1:])
    return f


@dataclass
class ContinuityStepInfo:
    iterations: int
    inflow_flux: float     # total outward flux through inflow faces
    outflow_flux: float    # total outward flux through outflow faces
    mass_residual: float   # relative budget defect
    clipped_mass: float
    source_total: float = 0.0


class DiffusionStep:
    """Continuity's step matrix vol I + dt K as a five-point slice kernel,
    applied to a flat cell vector as ``A @ p`` (all ``fields.cg`` asks).

    K is the unit-dt diffusion and Robin part: on cell (i, j), row
    i * ny + j, it couples (i-1, j), (i, j-1), (i, j), (i, j+1) and (i+1, j),
    less those outside the grid, with -kx, -ky, d, -ky and -kx.  Each row
    adds its terms to zero in that (increasing column) order, with the
    off-diagonals dt (-kx), dt (-ky) and the diagonal dt d + vol, so each
    product is bit for bit the CSR matrix's of the same entries."""

    def __init__(self, diagonal, off_x, off_y):
        self.diagonal, self.off_x, self.off_y = diagonal, off_x, off_y

    def __matmul__(self, p):
        p = p.reshape(self.diagonal.shape)
        out = np.zeros(p.shape)
        # one product per neighbour axis: the lower and the upper
        # neighbour's terms read the same off-diagonal times p
        tx, ty = self.off_x * p, self.off_y * p
        out[1:] += tx[:-1]
        out[:, 1:] += ty[:, :-1]
        out += self.diagonal * p
        out[:, :-1] += ty[:, 1:]
        out[:-1] += tx[1:]
        return out.ravel()


def _diffusion_step(grid, params, d, dt):
    """vol I + dt K (``DiffusionStep``) and its Jacobi preconditioner, from
    the unit-dt diagonal d of K (``_unit_diagonal``)."""
    kx, ky = _face_coefficients(grid, params)
    diagonal = dt * d + grid.cell_volume
    return (DiffusionStep(diagonal, dt * -kx, dt * -ky),
            jacobi(diagonal.ravel()))


def _face_coefficients(grid, params):
    """K's coupling across an interior x face and an interior y face."""
    return params.eps * grid.dy / grid.dx, params.eps * grid.dx / grid.dy


def _unit_diagonal(grid, params, robin):
    """The diagonal of K on the cells: each interior face's coupling added
    to both its cells, then each wall's implicit boundary flux."""
    kx, ky = _face_coefficients(grid, params)
    diag = np.zeros((grid.nx, grid.ny))
    # interior x faces couple (i-1, j) with (i, j)
    diag[:-1, :] += kx
    diag[1:, :] += kx
    diag[:, :-1] += ky
    diag[:, 1:] += ky
    # implicit boundary flux: advective trace plus the Robin closure;
    # [v]_N^- <= min(v,0) makes ub.n + |[ub.n]_N^-| >= 0, so the diagonal
    # only grows, and saturated inflow faces combine to exactly rho_B ub.n
    for w in WALL:
        line = wall_line(diag, w)
        line += wall_spacing(grid, w)[1] * (robin[w][1]
                                            + np.abs(robin[w][0]))
    return diag


def continuity_step(problem, rho: np.ndarray, vel: VectorField, dt: float,
                    source=None):
    """One conservative step of the regularized continuity equation on the
    run's ``momentum.Problem``, which keeps the Robin closure and the unit
    diagonal of the diffusion.

    Returns (rho_new, ContinuityStepInfo).  The global budget
    d(total mass) + dt * (boundary fluxes) = dt * (source) closes to the
    linear-solve residual.
    """
    grid, bc = problem.grid, problem.bc
    check_cfl(grid, vel, bc, dt)
    if np.min(rho) < 0:
        raise ValueError("continuity_step requires rho >= 0")
    nx, ny, vol = grid.nx, grid.ny, grid.cell_volume

    rho_star = _advected(grid, rho, vel, dt)

    # boundary fluxes are implicit: advective part with the interior-cell
    # trace, diffusive part via the smoothed-negative-part Robin closure
    robin = problem.robin
    A, M = problem.diffusion(dt)

    b = vol * rho_star
    flen = {w: wall_spacing(grid, w)[1] for w in WALL}
    for w in WALL:
        line = wall_line(b, w)
        line += dt * flen[w] * np.abs(robin[w][0]) * bc.rho[w]
    src_total = 0.0
    if source is not None:
        b += dt * vol * source
        src_total = integrate(grid, source)

    x, info, iters = cg(A, b.ravel(), rho_star.ravel(), M, CG_RTOL,
                        CG_MAXITER_FACTOR * nx * ny)
    if info != 0:
        raise LinearSolveDiverged(f"continuity diffusion CG: info={info}")
    rho_new = x.reshape(nx, ny)

    if not np.all(np.isfinite(rho_new)):
        raise LinearSolveDiverged("non-finite density after the solve")
    clipped = 0.0
    if np.min(rho_new) < 0:
        clipped = -np.sum(np.minimum(rho_new, 0.0)) * vol
        rho_new = np.maximum(rho_new, 0.0)

    # total outward boundary flux per face, both parts at the new state:
    # rho ub.n - (rho - rho_B) [ub.n]_N^-, which saturates to rho_B ub.n
    # on strong-inflow faces and rho ub.n on outflow faces
    tr = {w: wall_line(rho_new, w) for w in WALLS}
    total = {w: tr[w] * robin[w][1] - (tr[w] - bc.rho[w]) * robin[w][0]
             for w in WALLS}
    inflow = problem.inflow
    in_flux = np.sum(np.concatenate(
        [np.where(inflow[w], total[w], 0.0) * flen[w] for w in WALLS]))
    out_flux = np.sum(np.concatenate(
        [np.where(inflow[w], 0.0, total[w]) * flen[w] for w in WALLS]))

    mass_old = integrate(grid, rho)
    mass_new = integrate(grid, rho_new)
    defect = (mass_new - mass_old) + dt * (in_flux + out_flux) \
        - dt * src_total
    rel = abs(defect) / max(mass_old, 1e-300)

    return rho_new, ContinuityStepInfo(
        iterations=iters, inflow_flux=in_flux, outflow_flux=out_flux,
        mass_residual=rel, clipped_mass=clipped, source_total=src_total)


def regularize_initial_density(grid: StaggeredGrid, rho0: np.ndarray,
                               params: PenaltyParams,
                               bc: BoundaryData) -> np.ndarray:
    """Clamp the initial density into [delta, 1/delta] and set the boundary
    cells onto the discrete Robin compatibility condition.

    Each wall's target for a boundary cell is a weighted mean of the cell
    inside it and the boundary density; a corner cell takes the mean of its
    two walls' targets.  A non-corner edge cell's inside neighbour is an
    interior cell (the grid is at least 8x8), and a corner's are non-corner
    edge cells, so the edges first and then the corners give the fixed point
    of relaxing all boundary cells together."""
    if np.min(rho0) < 0 or integrate(grid, np.asarray(rho0)) <= 0:
        raise ValueError("initial density must be >= 0 with positive mass")
    lo, hi = params.delta, 1.0 / params.delta
    rho = np.clip(np.asarray(rho0, dtype=np.float64), lo, hi)

    k = {w: np.abs(smoothed_negative_part(bc.normal_trace(w),
                                          params.bc_sharpness))
         for w in WALLS}
    rb = {w: np.clip(bc.rho[w], lo, hi) for w in WALLS}
    c = {w: params.eps / wall_spacing(grid, w)[0] for w in WALLS}

    def target(w, at):
        # the wall's target for its boundary cells at, from the cells
        # inside them
        inner = wall_line(rho, w, 1)[at]
        return (c[w] * inner + k[w][at] * rb[w][at]) / (c[w] + k[w][at])

    mid = slice(1, -1)
    for w in WALL:
        wall_line(rho, w)[mid] = target(w, mid)
    # corners: the mean of both walls' targets, read from the new edges
    for wx in (w for w in WALL if WALL[w][0] == 0):
        for wy in (w for w in WALL if WALL[w][0] == 1):
            i, j = WALL[wx][1], WALL[wy][1]
            rho[i, j] = (target(wx, j) + target(wy, i)) / 2.0
    return np.clip(rho, lo, hi)


def initial_bc_residual(grid: StaggeredGrid, rho: np.ndarray,
                        params: PenaltyParams, bc: BoundaryData) -> float:
    """Max defect of the one-sided discrete Robin compatibility condition
    over non-corner boundary faces."""
    res = []
    for w in WALL:
        k = smoothed_negative_part(bc.normal_trace(w), params.bc_sharpness)
        edge = wall_line(rho, w)[1:-1]
        res.append(params.eps * (edge - wall_line(rho, w, 1)[1:-1])
                   / wall_spacing(grid, w)[0]
                   - (edge - bc.rho[w][1:-1]) * k[1:-1])
    return float(np.max(np.abs(np.concatenate(res))))


def renormalized_residual(grid: StaggeredGrid, bc: BoundaryData,
                          params: PenaltyParams, rho_hist, u_hist, dt,
                          b, bp, bpp, psi=None) -> float:
    """Discrete defect of the renormalized mass equation for a C^2
    renormalization b (bp, bpp its derivatives) and a static test field psi.

    Terms are centered the way the scheme applies them (advection at the
    old state, diffusion and the Robin closure at the new state), so with
    b = id and psi = 1 the defect collapses to the accumulated mass-budget
    residual.
    """
    if len(rho_hist) < 2:
        raise HistoryTooShort("need at least two stored states")
    if len(u_hist) != len(rho_hist):
        raise ValueError("velocity history must match density history")
    if psi is None:
        psi = np.ones((grid.nx, grid.ny))
    psi = np.asarray(psi, dtype=np.float64)
    gpx, gpy = cell_gradient(grid, psi)
    un = {w: bc.normal_trace(w) for w in WALLS}
    kk = {w: smoothed_negative_part(un[w], params.bc_sharpness) for w in WALLS}

    lhs = integrate(grid, b(rho_hist[-1]) * psi) \
        - integrate(grid, b(rho_hist[0]) * psi)
    rhs = 0.0

    for k in range(len(rho_hist) - 1):
        r0, r1 = rho_hist[k], rho_hist[k + 1]
        vel = u_hist[k]  # the step advecting r0 -> r1 saw this velocity
        # scheme-produced fields carry the prescribed traces on their
        # boundary faces; enforce that here so the discrete divergence
        # pairs exactly with the boundary terms
        uu = vel.u.copy()
        vv = vel.v.copy()
        for w, (axis, _) in WALL.items():
            wall_line((uu, vv)[axis], w)[:] = bc.ub[w][:, axis]
        uc, vc = faces_to_centers(grid, uu, vv)
        div = divergence(grid, uu, vv)
        grx, gry = cell_gradient(grid, r1)

        interior = integrate(
            grid,
            (b(r0) * uc - params.eps * bp(r1) * grx) * gpx
            + (b(r0) * vc - params.eps * bp(r1) * gry) * gpy
            - psi * (bp(r0) * r0 - b(r0)) * div
            - psi * params.eps * bpp(r1) * (grx ** 2 + gry ** 2))
        rhs += dt * interior

        bnd = 0.0
        for w in WALLS:
            # boundary fluxes are implicit in the scheme: new-state traces
            tr1 = wall_line(r1, w)
            flux = (b(tr1) * un[w]
                    + bp(tr1) * (tr1 - bc.rho[w]) * np.abs(kk[w]))
            bnd += np.sum(flux * wall_line(psi, w)) * wall_spacing(grid, w)[1]
        lhs += dt * bnd
    return lhs - rhs
