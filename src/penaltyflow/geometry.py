"""Domain, the walls' walk order and normals, cutoffs, primitive signed
distances, and the boundary-velocity extension field.

The extension construction: the balanced part of the boundary trace is
extended through a discrete streamfunction (cumulative boundary flux at
nodes, decayed inward), so its MAC divergence vanishes to round-off.  Any
net-outflow imbalance rides on a monotone normal decay whose discrete
divergence is sign-exact nonnegative; a net-inflow imbalance is carried by
a profile held constant through the inner collar (zero divergence there)
that releases in the outer shell, where the contract allows either sign.
Traces must vanish near the corners (the config wall profiles taper them);
that keeps the streamfunction single-valued across the corner diagonals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import (CollarTooWide, ErosionEmpty, ExtensionDivergenceNegative,
                     ExtensionTraceError, InvalidShape)
from .fields import (WALL, StaggeredGrid, VectorField, divergence,
                     wall_along, wall_faces, wall_line, wall_spacing)

# WALLS lists the walls of ``fields.WALL`` counter-clockwise from the
# bottom, the order of every sum over walls.  SENSE is the direction, +1 or
# -1, in which that walk runs along each wall's index: its tangent
# (-n_y, n_x), reversed on top and left.
WALLS = ("bottom", "right", "top", "left")
NORMALS = {w: tuple((1.0 if end else -1.0) if k == axis else 0.0
                    for k in (0, 1)) for w, (axis, end) in WALL.items()}
SENSE = {w: int((-n[1], n[0])[1 - WALL[w][0]]) for w, n in NORMALS.items()}


def smoothstep(s, degree: int = 5):
    """Polynomial step 0->1 on [0,1]; quintic default (C2), cubic allowed."""
    s = np.clip(s, 0.0, 1.0)
    if degree == 3:
        return s * s * (3.0 - 2.0 * s)
    if degree == 5:
        return s ** 3 * (10.0 + s * (-15.0 + 6.0 * s))
    raise ValueError("smoothstep degree must be 3 or 5")


@dataclass(frozen=True)
class DomainSpec:
    Lx: float
    Ly: float
    h: float  # wall safety distance; collars U_h and U_2h derive from it

    def __post_init__(self):
        if self.Lx <= 0 or self.Ly <= 0:
            raise ValueError("domain extents must be positive")
        if not (0 < 2 * self.h < min(self.Lx, self.Ly) / 2):
            raise CollarTooWide(
                f"2h = {2 * self.h} must lie in (0, min(Lx,Ly)/2)")

    def wall_distance(self, wall: str, x, y):
        """Distance of the points (x, y) from the wall."""
        axis, end = WALL[wall]
        c = (x, y)[axis]
        return c if end == 0 else (self.Lx, self.Ly)[axis] - c

    def boundary_distance(self, x, y):
        return reduce(np.minimum, (self.wall_distance(w, x, y) for w in WALL))

    def wall_xy(self, grid: StaggeredGrid, wall: str):
        """(x, y) of the wall's face centres."""
        axis, end = WALL[wall]
        along = wall_along(grid, wall)
        at = np.full_like(along, 0.0 if end == 0 else (self.Lx, self.Ly)[axis])
        return (at, along) if axis == 0 else (along, at)

    def collar_mask(self, grid: StaggeredGrid, width: float,
                    loc: str = "centers"):
        xy = {"centers": grid.cell_xy, "ufaces": grid.uface_xy,
              "vfaces": grid.vface_xy, "nodes": grid.node_xy}[loc]()
        return self.boundary_distance(*xy) < width


@dataclass(frozen=True)
class CutoffProfile:
    """C^1-or-better radial cutoff: 0 inside the inner collar, 1 outside
    the outer collar."""
    inner_radius: float
    outer_radius: float
    degree: int = 5

    def __post_init__(self):
        if not (0 <= self.inner_radius < self.outer_radius):
            raise ValueError("need 0 <= inner < outer cutoff radius")

    def value(self, d):
        s = (np.asarray(d, dtype=np.float64) - self.inner_radius) / (
            self.outer_radius - self.inner_radius)
        return smoothstep(s, self.degree)


def wall_cutoff(domain: DomainSpec) -> CutoffProfile:
    """The viscosity cutoff: zero on U_{h/2}, one outside U_h."""
    return CutoffProfile(domain.h / 2.0, domain.h)


# ---------------------------------------------------------------------------
# Primitive shapes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Disc:
    cx: float
    cy: float
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise InvalidShape("disc radius must be positive")


@dataclass(frozen=True)
class Rectangle:
    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        if self.x1 <= self.x0 or self.y1 <= self.y0:
            raise InvalidShape("rectangle sides must have positive length")


def signed_distance(shape, x, y):
    """Signed distance to the shape boundary, positive inside; exact for
    the primitives."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if isinstance(shape, Disc):
        return shape.radius - np.hypot(x - shape.cx, y - shape.cy)
    if isinstance(shape, Rectangle):
        qx = np.maximum(shape.x0 - x, x - shape.x1)
        qy = np.maximum(shape.y0 - y, y - shape.y1)
        inside = -np.maximum(qx, qy)
        outside = -np.hypot(np.maximum(qx, 0.0), np.maximum(qy, 0.0))
        return np.where(np.maximum(qx, qy) <= 0.0, inside, outside)
    raise InvalidShape(f"unsupported shape {type(shape).__name__}")


def erode(shape, r: float):
    """Open r-erosion of a primitive (set of points deeper than r)."""
    if r < 0:
        raise InvalidShape("erosion radius must be nonnegative")
    if isinstance(shape, Disc):
        if r >= shape.radius:
            raise ErosionEmpty(f"erosion by {r} empties disc of radius "
                               f"{shape.radius}")
        return Disc(shape.cx, shape.cy, shape.radius - r)
    if isinstance(shape, Rectangle):
        if 2 * r >= min(shape.x1 - shape.x0, shape.y1 - shape.y0):
            raise ErosionEmpty("erosion empties rectangle")
        return Rectangle(shape.x0 + r, shape.y0 + r,
                         shape.x1 - r, shape.y1 - r)
    raise InvalidShape(f"unsupported shape {type(shape).__name__}")


# ---------------------------------------------------------------------------
# Boundary data
# ---------------------------------------------------------------------------

@dataclass
class BoundaryData:
    """Velocity/density traces per wall and the interior extension field.

    Trace arrays are sampled at the wall's boundary-face centers in natural
    index order: left/right walls carry (ny, 2) vectors at the u-face rows,
    bottom/top walls (nx, 2) vectors at the v-face columns.  Densities are
    scalar arrays of matching length.
    """
    grid: StaggeredGrid
    domain: DomainSpec
    ub: dict           # wall -> (n_faces, 2) velocity trace
    rho: dict          # wall -> (n_faces,) density trace
    u_ext: VectorField = field(default=None)

    def __post_init__(self):
        self.ub = {w: np.asarray(a, dtype=np.float64)
                   for w, a in self.ub.items()}
        self.rho = {w: np.asarray(a, dtype=np.float64)
                    for w, a in self.rho.items()}
        for w in WALLS:
            n = wall_faces(self.grid, w)
            if self.ub[w].shape != (n, 2):
                raise ValueError(f"trace on wall {w} must have shape ({n}, 2)")
            if self.rho[w].shape != (n,):
                raise ValueError(f"density trace on wall {w} must be ({n},)")
            if np.any(self.rho[w] <= 0):
                raise ValueError("boundary density must be positive")

    def normal_trace(self, wall: str):
        nxw, nyw = NORMALS[wall]
        return self.ub[wall][:, 0] * nxw + self.ub[wall][:, 1] * nyw

    def max_trace_speed(self) -> float:
        return max(float(np.max(np.abs(self.ub[w]))) for w in WALLS)

    def tangential_traces(self):
        """Each wall's tangential velocity at its nodes, interpolated
        between its face centres and held past the end ones."""
        return {w: np.interp(wall_along(self.grid, w, nodes=True),
                             wall_along(self.grid, w), self.ub[w][:, 1 - axis])
                for w, (axis, _) in WALL.items()}


# ---------------------------------------------------------------------------
# Boundary-velocity extension
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtensionReport:
    max_speed: float
    w1inf: float
    trace_error: float
    div_min_inner_collar: float
    max_outside_outer_collar: float
    net_flux: float
    div_roundoff: float   # how far below 0 round-off can put the divergence


def build_extension(bc: BoundaryData, domain: DomainSpec, grid: StaggeredGrid):
    """Extend the boundary velocity trace into the domain.

    Returns (VectorField, ExtensionReport).  The field matches the normal
    trace at every boundary face to round-off, has nonnegative discrete
    divergence in the inner collar U_h, and vanishes identically outside
    U_2h (in fact outside U_{h/2} for balanced or net-outflow data, which
    keeps it clear of the solidification penalty).
    """
    if abs(grid.Lx - domain.Lx) > 1e-12 or abs(grid.Ly - domain.Ly) > 1e-12:
        raise ValueError("grid extents do not match the domain")
    dx, dy = grid.dx, grid.dy

    un = {w: bc.normal_trace(w) for w in WALLS}
    face_len = {w: wall_spacing(grid, w)[1] for w in WALLS}
    scale = 1.0 + max(float(np.max(np.abs(un[w]))) for w in WALLS)

    _require_corner_taper(bc, un, domain, grid, scale)

    # Split off any flux imbalance before building the streamfunction.
    q_net = np.sum(np.concatenate([un[w] * face_len[w] for w in WALLS]))
    un_bal = {w: un[w].copy() for w in WALLS}
    excess = {w: np.zeros_like(un[w]) for w in WALLS}
    thresh = 1e-13 * scale * (2 * (domain.Lx + domain.Ly))
    net_outflow = q_net > thresh
    net_inflow = q_net < -thresh
    if net_outflow or net_inflow:
        if net_outflow:
            part = {w: np.maximum(un[w], 0.0) for w in WALLS}
        else:
            part = {w: np.minimum(un[w], 0.0) for w in WALLS}
        q_part = np.sum(np.concatenate(
            [part[w] * face_len[w] for w in WALLS]))
        frac = q_net / q_part
        for w in WALLS:
            excess[w] = part[w] * frac
            un_bal[w] = un[w] - excess[w]

    psi = _streamfunction(bc, un_bal, domain, grid)
    u = (psi[:, 1:] - psi[:, :-1]) / dy
    v = -(psi[1:, :] - psi[:-1, :]) / dx

    if net_outflow or net_inflow:
        _add_excess(u, v, excess, domain, grid, net_inflow)

    u_ext = VectorField(grid, u, v).check_finite()
    report = _extension_report(u_ext, bc, domain, grid, q_net, scale)
    if report.div_min_inner_collar < -report.div_roundoff:
        raise ExtensionDivergenceNegative(
            f"extension divergence {report.div_min_inner_collar} in U_h")
    return u_ext, report


def _require_corner_taper(bc, un, domain, grid, scale):
    """Traces must vanish within h/2 of each corner; the streamfunction
    projection is single-valued only then."""
    window = 0.5 * domain.h
    tol = 1e-9 * scale
    for w in WALLS:
        axis = WALL[w][0]
        s = wall_along(grid, w)
        near = np.minimum(s, (domain.Ly, domain.Lx)[axis] - s) < window
        mag = np.abs(un[w]) + np.abs(bc.ub[w][:, 1 - axis])
        if np.any(near) and float(np.max(mag[near])) > tol:
            raise ExtensionTraceError(
                f"boundary trace on wall '{w}' does not vanish within "
                f"{window} of a corner; taper the wall profile")


def _spread(a, wall):
    """Values at a wall's nodes, held constant across the node mesh."""
    return a if WALL[wall][0] == 0 else a[:, None]


def _streamfunction(bc, un_bal, domain, grid):
    """The streamfunction at the nodes: the balanced normal flux walked
    counter-clockwise round the boundary, carried in from each node's
    nearest wall and decayed, plus each wall's tangential slab, which is
    zero on the wall so the normal traces stay exact."""
    # psi at each wall's nodes: the cumulative flux from the origin
    # corner, taken against the index where the walk runs backwards.  The
    # walk starts at -0.0, which adds as an exact zero.
    walk, end = {}, -0.0
    for w in WALLS:
        s = SENSE[w]
        flux = np.cumsum(un_bal[w][::s] * wall_spacing(grid, w)[1])
        psi_w = end + np.concatenate([[0.0], flux])
        end = psi_w[-1]
        walk[w] = psi_w[::s]

    xg, yg = grid.node_xy()
    dists = np.stack([domain.wall_distance(w, xg, yg) for w in WALLS])
    nearest = np.argmin(dists, axis=0)                 # deterministic ties
    d_sup = 0.45 * domain.h
    decay = 1.0 - smoothstep(np.min(dists, axis=0) / d_sup)
    psi = np.choose(nearest, [_spread(walk[w], w) for w in WALLS]) * decay

    # each wall's tangential trace shapes psi's normal derivative, in
    # the walk's direction
    ut = bc.tangential_traces()
    for w, d in zip(WALLS, dists):
        slab = np.where(d < d_sup, d * (1.0 - smoothstep(d / d_sup)), 0.0)
        psi += SENSE[w] * _spread(ut[w], w) * slab
    return psi


def _add_excess(u, v, excess, domain, grid, net_inflow):
    """Normal decay fields carrying the flux imbalance.

    Net outflow decays monotonically from the wall (discrete divergence
    sign-exact >= 0 everywhere).  Net inflow is held constant through
    d <= h + pad so every U_h cell sees zero divergence from it, and
    releases in the outer shell."""
    h = domain.h
    dx, dy = grid.dx, grid.dy
    if net_inflow:
        pad = max(2 * max(dx, dy), 0.05 * h)
        if h + pad >= 2 * h - pad:
            raise ExtensionTraceError(
                "net-inflow imbalance needs h >= ~4 grid spacings")

        def q(d):
            s = (np.asarray(d) - (h + pad)) / (2 * h - pad - (h + pad))
            return 1.0 - smoothstep(s)
    else:
        d_sup = 0.45 * h

        def q(d):
            return 1.0 - smoothstep(np.asarray(d) / d_sup)

    xf, yf = grid.xf(), grid.yf()
    for w, (axis, _) in WALL.items():
        # the wall's normal component, its normal axis first
        normal = (u, v.T)[axis]
        normal += NORMALS[w][axis] * excess[w] \
            * q(domain.wall_distance(w, xf, yf))[:, None]


def divergence_roundoff(grid: StaggeredGrid, speed: float) -> float:
    """Bound on the round-off in the discrete divergence of an extension
    field: a discrete curl (divergence-free in exact arithmetic) plus
    imbalance parts with nonnegative divergence.  ``speed`` bounds the
    face values of the curl, of the curl plus each part, and of the sum.

    A face value takes at most four roundings (difference, division, two
    added parts), each within u * speed, and the divergence stencil at
    most three more per term.  With u the unit round-off that gives
    |fl(div) - div| <= (8 + 6) u speed (1/dx + 1/dy).
    """
    u = 0.5 * np.finfo(np.float64).eps
    return 14.0 * u * speed * (1.0 / grid.dx + 1.0 / grid.dy)


def _extension_report(u_ext, bc, domain, grid, q_net, scale):
    u, v = u_ext.u, u_ext.v
    dx, dy = grid.dx, grid.dy

    terr = max(float(np.max(np.abs(wall_line((u, v)[axis], w)
                                   - bc.ub[w][:, axis])))
               for w, (axis, _) in WALL.items())

    div = divergence(grid, u, v)
    inner = domain.collar_mask(grid, domain.h, "centers")
    div_min = float(np.min(div[inner])) if np.any(inner) else 0.0

    far_u = ~domain.collar_mask(grid, 2 * domain.h, "ufaces")
    far_v = ~domain.collar_mask(grid, 2 * domain.h, "vfaces")
    outside = 0.0
    if np.any(far_u):
        outside = max(outside, float(np.max(np.abs(u[far_u]))))
    if np.any(far_v):
        outside = max(outside, float(np.max(np.abs(v[far_v]))))

    gmax = 0.0
    if grid.nx > 1:
        gmax = max(gmax, float(np.max(np.abs(np.diff(u, axis=0)))) / dx,
                   float(np.max(np.abs(np.diff(v, axis=0)))) / dx)
    if grid.ny > 1:
        gmax = max(gmax, float(np.max(np.abs(np.diff(u, axis=1)))) / dy,
                   float(np.max(np.abs(np.diff(v, axis=1)))) / dy)

    return ExtensionReport(
        max_speed=u_ext.max_speed(),
        w1inf=u_ext.max_speed() + gmax,
        trace_error=terr,
        div_min_inner_collar=div_min,
        max_outside_outer_collar=outside,
        net_flux=q_net,
        # the imbalance parts are at most max |u.n| < scale, so the curl
        # part is at most max_speed + scale
        div_roundoff=divergence_roundoff(grid, u_ext.max_speed() + scale),
    )


# ---------------------------------------------------------------------------
# Wall profile helpers used by run configs
# ---------------------------------------------------------------------------

def corner_tapered(domain: DomainSpec, s_along_wall, wall_length,
                   margin=None):
    """Amplitude profile that is 0 within `margin` of each wall end and 1
    between 2*margin marks; keeps traces continuous at corners and the
    streamfunction projection safe."""
    m = domain.h if margin is None else margin
    s = np.asarray(s_along_wall, dtype=np.float64)
    lo = smoothstep((s - m) / m)
    hi = smoothstep((wall_length - m - s) / m)
    return lo * hi


def throughflow_boundary(domain: DomainSpec, grid: StaggeredGrid,
                         speed: float, rho_b: float,
                         taper_margin=None) -> BoundaryData:
    """Uniform tapered inflow on the left wall, matching outflow on the
    right wall, resting top and bottom walls."""
    amp = corner_tapered(domain, grid.yc(), domain.Ly, taper_margin)
    ub = {w: np.zeros((wall_faces(grid, w), 2)) for w in WALLS}
    ub["left"][:, 0] = speed * amp
    ub["right"][:, 0] = speed * amp
    rho = {w: np.full(wall_faces(grid, w), rho_b) for w in WALLS}
    return BoundaryData(grid=grid, domain=domain, ub=ub, rho=rho)


def resting_boundary(domain: DomainSpec, grid: StaggeredGrid,
                     rho_b: float) -> BoundaryData:
    """Resting walls: the through-flow at speed 0."""
    return throughflow_boundary(domain, grid, 0.0, rho_b)
