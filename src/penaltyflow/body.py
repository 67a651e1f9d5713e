"""Rigid body state: marker transport by mollified velocity, rigid
projection, the solidification distance field, and the collision guard.

Markers are never free-deformed: each step transports them with the
mollified velocity and immediately projects back onto the nearest rigid
motion, storing only (X, theta).  The projection residual is the
"non-rigidity defect" diagnostic; marker isometry therefore holds to
round-off by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (DegenerateMarkers, InvalidMargin, InvalidShape,
                     MarkerEscaped)
from .fields import (MollifierKernel, StaggeredGrid, VectorField,
                     interp_uface, interp_vface, mollify)
from .geometry import Disc, DomainSpec, signed_distance


def rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


@dataclass(frozen=True)
class BodyState:
    """Configuration of the rigid disc body.

    ref_markers are material points in body coordinates (origin at the
    center): first n_boundary entries trace the eroded-core circle, the
    rest form a coarse interior lattice stabilizing the projection.
    """
    X: np.ndarray            # center of mass
    theta: float             # cumulative orientation angle
    V: np.ndarray            # translational velocity
    w: float                 # angular rate
    radius: float            # full body radius (R)
    erosion: float           # erosion depth (r); core radius = R - erosion
    rho_s: float
    ref_markers: np.ndarray
    n_boundary: int

    @property
    def core_radius(self) -> float:
        return self.radius - self.erosion

    def core(self) -> Disc:
        return Disc(self.X[0], self.X[1], self.core_radius)

    def markers(self) -> np.ndarray:
        return self.X[None, :] + self.ref_markers @ rotation(self.theta).T

    def boundary_markers(self) -> np.ndarray:
        return self.markers()[:self.n_boundary]


def make_disc_body(X0, radius: float, erosion: float, rho_s: float,
                   V0=(0.0, 0.0), w0: float = 0.0,
                   n_boundary: int = 64) -> BodyState:
    if erosion <= 0 or erosion >= radius:
        raise InvalidShape("need 0 < erosion < radius")
    core = radius - erosion
    ang = 2 * np.pi * np.arange(n_boundary) / n_boundary
    ring = core * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    interior = [np.zeros((1, 2))]
    for frac in (1.0 / 3.0, 2.0 / 3.0):
        a = 2 * np.pi * np.arange(12) / 12
        interior.append(frac * core
                        * np.stack([np.cos(a), np.sin(a)], axis=1))
    ref = np.vstack([ring] + interior)
    return BodyState(X=np.asarray(X0, dtype=np.float64), theta=0.0,
                     V=np.asarray(V0, dtype=np.float64), w=float(w0),
                     radius=radius, erosion=erosion, rho_s=rho_s,
                     ref_markers=ref, n_boundary=n_boundary)


def project_rigid(reference: np.ndarray, moved: np.ndarray):
    """Least-squares rotation + translation fitting moved ~ X + R(theta) ref.

    Returns (X, theta, defect) with defect the root square sum of the fit
    residuals.  Closed form via the planar cross/dot moment sums."""
    reference = np.asarray(reference, dtype=np.float64)
    moved = np.asarray(moved, dtype=np.float64)
    if reference.shape != moved.shape or reference.shape[0] < 3:
        raise DegenerateMarkers("need >= 3 matching markers")
    rc = reference - reference.mean(axis=0)
    area = np.abs(rc[:-1, 0] * rc[1:, 1] - rc[:-1, 1] * rc[1:, 0])
    if np.max(area) < 1e-12 * (1.0 + np.max(np.abs(rc)) ** 2):
        raise DegenerateMarkers("reference markers are collinear")
    mc = moved - moved.mean(axis=0)
    dot = float(np.sum(rc * mc))
    crs = float(np.sum(rc[:, 0] * mc[:, 1] - rc[:, 1] * mc[:, 0]))
    theta = float(np.arctan2(crs, dot))
    R = rotation(theta)
    X = moved.mean(axis=0) - R @ reference.mean(axis=0)
    fit = X[None, :] + reference @ R.T
    defect = float(np.sqrt(np.sum((moved - fit) ** 2)))
    return X, theta, defect


@dataclass
class BodyStepInfo:
    rigidity_defect: float
    mollified_max: float   # sup-norm bound of the mollified velocity
    max_marker_move: float


def body_step(grid: StaggeredGrid, domain: DomainSpec, body: BodyState,
              vel: VectorField, kernel: MollifierKernel, dt: float):
    """Transport the markers by the mollified velocity (explicit midpoint)
    and restore the rigid configuration by projection."""
    pts = body.markers()
    margin = domain.boundary_distance(pts[:, 0], pts[:, 1])
    if np.min(margin) <= kernel.radius:
        raise MarkerEscaped("marker within the mollification radius of the "
                            "wall; mollified reads would clip")
    mu = mollify(vel.u, kernel)
    mv = mollify(vel.v, kernel)
    m_max = float(np.hypot(np.max(np.abs(mu)), np.max(np.abs(mv))))

    def sample(p):
        return np.stack([interp_uface(grid, mu, p[:, 0], p[:, 1]),
                         interp_vface(grid, mv, p[:, 0], p[:, 1])], axis=1)

    k1 = sample(pts)
    mid = pts + 0.5 * dt * k1
    k2 = sample(mid)
    moved = pts + dt * k2

    margin2 = domain.boundary_distance(moved[:, 0], moved[:, 1])
    if np.min(margin2) <= kernel.radius:
        raise MarkerEscaped("marker moved within the mollification radius "
                            "of the wall")

    X_new, th_fit, defect = project_rigid(body.ref_markers, moved)
    # keep the cumulative angle continuous across the atan2 branch
    th_new = th_fit + 2 * np.pi * np.round((body.theta - th_fit)
                                           / (2 * np.pi))
    V = (X_new - body.X) / dt
    w = (th_new - body.theta) / dt
    new = replace(body, X=X_new, theta=float(th_new), V=V, w=float(w))
    info = BodyStepInfo(
        rigidity_defect=defect, mollified_max=m_max,
        max_marker_move=float(np.max(np.hypot(*(moved - pts).T))))
    return new, info


def rigid_velocity_field(grid: StaggeredGrid, X, V, w: float) -> VectorField:
    """Face samples of V + w x (x - X)."""
    xu, yu = grid.uface_xy()
    xv, yv = grid.vface_xy()
    u = V[0] - w * (yu - X[1])
    v = V[1] + w * (xv - X[0])
    return VectorField(grid, u, v)


def body_signed_distance(body: BodyState, grid: StaggeredGrid,
                         loc: str = "centers") -> np.ndarray:
    """Signed distance to the transported eroded core, positive inside."""
    xy = {"centers": grid.cell_xy, "ufaces": grid.uface_xy,
          "vfaces": grid.vface_xy, "nodes": grid.node_xy}[loc]()
    return signed_distance(body.core(), *xy)


@dataclass(frozen=True)
class GuardResult:
    ok: bool
    margin: float


def collision_guard(body: BodyState, domain: DomainSpec, h: float,
                    r: float) -> GuardResult:
    """Margin of the standing no-collision condition
    dist(core(t), walls) >= h + r."""
    d_core = float(domain.boundary_distance(body.X[0], body.X[1])
                   - body.core_radius)
    margin = d_core - (h + r)
    return GuardResult(ok=margin >= 0.0, margin=margin)


def t0_lower_bound(d: float, h: float, c_bound: float, horizon: float) -> float:
    """Guaranteed-existence time from the initial wall clearance d and a
    measured velocity-magnitude proxy."""
    if d <= h:
        raise InvalidMargin(f"initial clearance {d} must exceed h = {h}")
    if c_bound <= 0:
        raise ValueError("velocity proxy must be positive")
    return max(0.0, min(horizon, ((d - h) / c_bound) ** 2))
