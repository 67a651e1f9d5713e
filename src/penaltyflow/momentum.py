"""Momentum transport with the solidification viscosity, artificial
pressure, and the mass-diffusion coupling term.

The viscous stage is implicit (the stiff penalty viscosity forbids an
explicit treatment) and is assembled from the energy quadratic form

    E(w) = sum_cells vol * (2 mu_n (D11^2 + D22^2) + lam_n (div)^2)
         + sum_nodes vol_n * 4 mu_n D12^2

so the matrix is symmetric positive definite for every mu_n >= mu > 0,
mu_n + lam_n >= 0.  Convection, the pressure gradient, and the coupling
source are explicit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.sparse.linalg import splu

from .continuity import (PenaltyParams, _diffusion_matrix, _unit_diffusion,
                         check_cfl, smoothed_negative_part)
from .errors import LinearSolveDiverged, NegativeDensity, VacuumCell
from .fields import (WALL, StaggeredGrid, VectorField, _centered,
                     cell_gradient, cg, full_gradient, jacobi, stencil_csr,
                     wall_ends, wall_line, wall_spacing)
from .geometry import (WALLS, BoundaryData, CutoffProfile, DomainSpec,
                       wall_cutoff)

VACUUM_FLOOR = 1e-10


def penalty_ramp(z):
    """Smooth, convex, nonnegative ramp vanishing for z <= 0."""
    z = np.asarray(z, dtype=np.float64)
    return np.where(z > 0.0, z * z, 0.0)


@dataclass(frozen=True)
class ViscosityModel:
    mu: float
    lam: float
    stiffness: float          # solidification strength
    offset: float             # erosion radius added back inside the ramp
    cutoff: CutoffProfile     # wall cutoff keeping walls penalty-free

    @classmethod
    def from_params(cls, params: PenaltyParams, domain: DomainSpec):
        return cls(mu=params.mu, lam=params.lam, stiffness=params.n_solid,
                   offset=params.r_moll, cutoff=wall_cutoff(domain))


def viscosity_fields(chi: np.ndarray, model: ViscosityModel,
                     wall_distance: np.ndarray):
    """Pointwise solidification viscosities mu_n, lam_n on cells."""
    return _solidify(chi, model, model.cutoff.value(wall_distance))


def _solidify(chi, model, cutoff):
    """``viscosity_fields`` from the wall cutoff's values on the cells."""
    bump = model.stiffness * penalty_ramp(chi + model.offset) * cutoff
    return model.mu + bump, model.lam + bump


def pressure(rho, params: PenaltyParams):
    """Isentropic pressure with the artificial augmentation."""
    rho = _nonneg(rho)
    return params.a * rho ** params.gamma + params.delta * rho ** params.beta


def pressure_potential(rho, params: PenaltyParams):
    rho = _nonneg(rho)
    return (params.a * rho ** params.gamma / (params.gamma - 1.0)
            + params.delta * rho ** params.beta / (params.beta - 1.0))


def pressure_potential_d1(rho, params: PenaltyParams):
    rho = _nonneg(rho)
    return (params.a * params.gamma / (params.gamma - 1.0)
            * rho ** (params.gamma - 1.0)
            + params.delta * params.beta / (params.beta - 1.0)
            * rho ** (params.beta - 1.0))


def pressure_potential_d2(rho, params: PenaltyParams, floor: float = 1e-12):
    # gamma < 2 makes P'' singular at vacuum; the floor keeps ledger
    # entries finite.
    rho = np.maximum(_nonneg(rho), floor)
    return (params.a * params.gamma * rho ** (params.gamma - 2.0)
            + params.delta * params.beta * rho ** (params.beta - 2.0))


def sound_speed_max(rho, params: PenaltyParams) -> float:
    rmax = float(np.max(_nonneg(rho)))
    dp = params.a * params.gamma * rmax ** (params.gamma - 1.0) \
        + params.delta * params.beta * rmax ** (params.beta - 1.0)
    return float(np.sqrt(dp))


def _nonneg(rho):
    rho = np.asarray(rho, dtype=np.float64)
    if np.min(rho) < -1e-12:
        raise NegativeDensity(f"density minimum {np.min(rho)}")
    return np.maximum(rho, 0.0)


def stress(d11, d12, d22, mu_n, lam_n):
    """Viscous stress tensor 2 mu_n D + lam_n tr(D) I on cells."""
    tr = lam_n * (d11 + d22)
    return 2.0 * mu_n * d11 + tr, 2.0 * mu_n * d12, 2.0 * mu_n * d22 + tr


# ---------------------------------------------------------------------------
# Implicit viscous operator: the face layout, and the strain operators
# memoized per grid.
# ---------------------------------------------------------------------------

def _face_views(grid, x):
    """The u-face and v-face arrays of the face vector x, as views."""
    nu = (grid.nx + 1) * grid.ny
    return x[:nu].reshape(grid.nx + 1, grid.ny), \
        x[nu:].reshape(grid.nx, grid.ny + 1)


def _face_layout(grid: StaggeredGrid):
    """Face numbering and the geometry-only arrays of the viscous operator
    (no sparse matrices): what FreePattern and the multigrid hierarchy
    need.  u(i, j) is face i * ny + j, v(i, j) is nu + i * (ny + 1) + j."""
    nx, ny, dx, dy = grid.nx, grid.ny, grid.dx, grid.dy
    nu = (nx + 1) * ny
    nv = nx * (ny + 1)

    def uidx(i, j):
        return i * ny + j

    def vidx(i, j):
        return nu + i * (ny + 1) + j

    bnd = np.zeros(nu + nv, dtype=bool)
    views = _face_views(grid, bnd)
    for w, (axis, _) in WALL.items():
        wall_line(views[axis], w)[:] = True

    # node area factors: quarter of a cell per adjacent cell
    adj = np.full((nx + 1, ny + 1), 4.0)
    adj[0, :] = adj[-1, :] = 2.0
    adj[:, 0] = adj[:, -1] = 2.0
    adj[0, 0] = adj[0, -1] = adj[-1, 0] = adj[-1, -1] = 1.0
    node_vol = (adj / 4.0).ravel() * dx * dy

    return {"boundary": bnd, "interior": ~bnd, "node_vol": node_vol,
            "nu": nu, "nv": nv, "uidx": uidx, "vidx": vidx,
            "d12_slots": _d12_slots(grid)}


@lru_cache(maxsize=8)
def _grid_ops(grid: StaggeredGrid):
    """The face layout plus the sparse strain operators D11, D22, div and
    D12 (face vector -> cells / nodes), memoized per grid.  Each row's
    columns are a fixed stencil in increasing order: u faces, then v."""
    nx, ny, dx, dy = grid.nx, grid.ny, grid.dx, grid.dy
    layout = _face_layout(grid)
    uidx, vidx = layout["uidx"], layout["vidx"]
    ndof = layout["nu"] + layout["nv"]

    # D11 = du/dx and D22 = dv/dy on cells; div is both
    i, j = np.meshgrid(np.arange(nx, dtype=np.int32),
                       np.arange(ny, dtype=np.int32), indexing="ij")
    d11 = np.stack([uidx(i, j), uidx(i + 1, j)]).reshape(2, -1)
    d22 = np.stack([vidx(i, j), vidx(i, j + 1)]).reshape(2, -1)
    g_d11 = stencil_csr(d11, [[-1 / dx], [1 / dx]], True, ndof)
    g_d22 = stencil_csr(d22, [[-1 / dy], [1 / dy]], True, ndof)
    g_div = stencil_csr(np.concatenate([d11, d22]),
                        [[-1 / dx], [1 / dx], [-1 / dy], [1 / dy]], True,
                        ndof)

    # D12 at nodes: u below and above, v left and right (``_d12_slots``);
    # wall rows are one-sided, so the slot past the wall is left out
    i, j = np.meshgrid(np.arange(nx + 1, dtype=np.int32),
                       np.arange(ny + 1, dtype=np.int32), indexing="ij")
    u_up, u_dn, v_rt, v_lt = layout["d12_slots"]
    cols = np.stack([uidx(i, j - 1), uidx(i, j), vidx(i - 1, j),
                     vidx(i, j)]).reshape(4, -1)
    vals = np.stack([u_dn, u_up, v_lt, v_rt]).reshape(4, -1)
    has = np.stack([j > 0, j < ny, i > 0, i < nx]).reshape(4, -1)
    g_d12 = stencil_csr(cols, vals, has, ndof)

    return dict(layout, g_d11=g_d11, g_d22=g_d22, g_div=g_div, g_d12=g_d12)


def _d12_slots(grid):
    """Coefficients of each node's D12 row (= g_d12) on its four face slots:
    u(i, j) above node (i, j), u(i, j-1) below it, v(i, j) right of it and
    v(i-1, j) left of it.  Wall rows are one-sided (doubled coefficient,
    missing slot zero), so they have 3 entries and corner rows 2."""
    def after_before(shape, h):   # for u, normal to axis 0: along axis 1
        up = np.full(shape, 0.5 / h)
        up[:, 0], up[:, -1] = 1.0 / h, 0.0
        dn = np.full(shape, -0.5 / h)
        dn[:, 0], dn[:, -1] = 0.0, -1.0 / h
        return up, dn
    nx, ny = grid.nx, grid.ny
    v_rt, v_lt = after_before((ny + 1, nx + 1), grid.dx)
    return (*after_before((nx + 1, ny + 1), grid.dy), v_rt.T.copy(),
            v_lt.T.copy())


def _fill_rows(out, wc, wl, wn, up, dn, lt, rt, hn, ht, mass):
    """Write into out's nine arrays the u-row stencil values of
    ``FreePattern`` for the face component whose normal is axis 0: cell
    weights wc (D11 + div) and wl (div), node weights wn, D12 slots up, dn
    of the component and lt, rt of the other, spacings hn, ht along axes 0
    and 1, and its interior rows' face mass or None.  Face (i, j) sits
    between cells (i-1, j), (i, j) and nodes (i, j), (i, j+1).  The v rows
    are this function of the transposed views."""
    ih2, ihh = 1.0 / (hn * hn), 1.0 / (hn * ht)
    c0, c1, l0, l1 = wc[:-1], wc[1:], wl[:-1], wl[1:]
    a = (wn * up)[1:-1, :-1]
    b = (wn * dn)[1:-1, 1:]
    out[0][...] = -ih2 * c0
    out[1][...] = a * dn[1:-1, :-1]
    out[2][...] = ih2 * (c0 + c1) + a * up[1:-1, :-1] + b * dn[1:-1, 1:]
    if mass is not None:
        out[2] += mass
    out[3][...] = b * up[1:-1, 1:]
    out[4][...] = -ih2 * c1
    out[5][...] = a * lt[1:-1, :-1] - ihh * l0
    out[6][...] = b * lt[1:-1, 1:] + ihh * l0
    out[7][...] = a * rt[1:-1, :-1] + ihh * l1
    out[8][...] = b * rt[1:-1, 1:] - ihh * l1


class FreePattern:
    """The free-DOF block of the implicit viscous operator
    sum G^T diag(w) G + diag(mass), for one grid and one pinned set.

    Boundary faces are always pinned, so every free row is an interior
    face, and an interior face couples to at most 9 faces: itself, its 4
    same-component neighbours and the 4 other-component faces of its two
    cells (``_STENCIL``).  The CSR pattern and the int32 table placing each
    (row, stencil slot) value in CSR data follow from shifted slices of the
    free-face masks over that stencil; ``fill`` computes the stencil values
    from the weights and gathers them into the matrix's data, which it
    overwrites each call.  ``fills`` counts those calls, so that a caller
    can tell whether the data still hold its own fill; ``set_mass`` then
    changes only the diagonal.  ``layout`` is the grid's ``_face_layout``,
    built here when not given.
    """

    # The faces an interior face's row couples to, in increasing column
    # order, as (component, di, dj) from the row's own face: a u row's u
    # neighbours and then the v faces of its two cells; a v row's u faces
    # and then its v neighbours.  Slot 2 of a u row and slot 6 of a v row is
    # the face itself.
    _STENCIL = {"u": (("u", -1, 0), ("u", 0, -1), ("u", 0, 0), ("u", 0, 1),
                      ("u", 1, 0), ("v", -1, 0), ("v", -1, 1), ("v", 0, 0),
                      ("v", 0, 1)),
                "v": (("u", 0, -1), ("u", 0, 0), ("u", 1, -1), ("u", 1, 0),
                      ("v", -1, 0), ("v", 0, -1), ("v", 0, 0), ("v", 0, 1),
                      ("v", 1, 0))}
    _DIAG_SLOT = {"u": 2, "v": 6}

    def __init__(self, grid: StaggeredGrid, pinned: np.ndarray,
                 layout: dict = None):
        ops = _face_layout(grid) if layout is None else layout
        if np.any(ops["boundary"] & ~pinned):
            raise ValueError("boundary faces must be pinned")
        nx, ny = grid.nx, grid.ny
        self.grid, self.ops = grid, ops
        self.pinned = pinned.copy()
        free = ~pinned
        self.faces = np.flatnonzero(free).astype(np.int32)   # row -> face
        self.fills = 0
        rank = np.cumsum(free, dtype=np.int32) - 1   # free face -> row

        def padded(a):
            # one absent face past every side: each stencil neighbour of
            # the rows is then a shifted slice
            out = np.zeros((a.shape[0] + 2, a.shape[1] + 2), dtype=a.dtype)
            out[1:-1, 1:-1] = a
            return out

        (fu, fv), (ru, rv) = _face_views(grid, free), _face_views(grid, rank)
        faces = {"u": (padded(fu), padded(ru)), "v": (padded(fv), padded(rv))}
        # per component, slot-major: whether each (slot, row) entry is kept
        # (both faces free), its column, and the row's kept slots before
        # its diagonal slot
        has, cols, row_free, before = [], [], [], []
        for comp, i0, i1, j0, j1 in (("u", 1, nx, 0, ny),
                                     ("v", 0, nx, 1, ny)):
            h = np.empty((9, i1 - i0, j1 - j0), dtype=bool)
            c = np.empty(h.shape, dtype=np.int32)
            for s, (other, di, dj) in enumerate(self._STENCIL[comp]):
                f, r = faces[other]
                at = (slice(1 + i0 + di, 1 + i1 + di),
                      slice(1 + j0 + dj, 1 + j1 + dj))
                h[s], c[s] = f[at], r[at]
            d = self._DIAG_SLOT[comp]
            h &= h[d].copy()   # a pinned row keeps nothing
            has.append(h.reshape(9, -1))
            cols.append(c.reshape(9, -1))
            row_free.append(has[-1][d])
            before.append(has[-1][:d].sum(axis=0, dtype=np.int32))
        self.nru = has[0].shape[1]
        row_free = np.concatenate(row_free)
        self.matrix = stencil_csr(np.concatenate(cols, axis=1), 0.0,
                                  np.concatenate(has, axis=1),
                                  np.count_nonzero(row_free), rows=row_free)
        # CSR position of each row's diagonal
        self.diag = self.matrix.indptr[:-1] + np.concatenate(before)[row_free]

        # fill() writes the u rows' values slot-major into a buffer and
        # gathers them into their CSR data (positions below split), then
        # reuses the buffer for the v rows: half a full buffer's memory
        self.gather = np.concatenate([
            np.arange(h.size, dtype=np.int32).reshape(h.shape).T[h.T]
            for h in has])
        self.split = int(np.count_nonzero(has[0]))

    def fill(self, w_mu, w_lam, w_node, mass=None):
        """The free block for these weights (cell, cell, node, face);
        without mass, its viscous part alone."""
        nx, ny, dx, dy = self.grid.nx, self.grid.ny, self.grid.dx, \
            self.grid.dy
        u_up, u_dn, v_rt, v_lt = self.ops["d12_slots"]
        wc = (w_mu + w_lam).reshape(nx, ny)   # D11 + div on u, D22 + div on v
        wl = w_lam.reshape(nx, ny)            # div coupling of u with v
        wn = w_node.reshape(nx + 1, ny + 1)
        mu, mv = (None, None) if mass is None else _face_views(self.grid, mass)
        data, gather, split = self.matrix.data, self.gather, self.split
        vals = np.empty(9 * max(self.nru, nx * (ny - 1)))
        su = vals[:9 * self.nru].reshape(9, nx - 1, ny)
        _fill_rows(su, wc, wl, wn, u_up, u_dn, v_lt, v_rt, dx, dy,
                   None if mu is None else mu[1:-1])
        # every gather index is in range, so skip the bounds check
        np.take(vals, gather[:split], out=data[:split], mode="clip")

        # the v rows in the u rows' slot order, on transposed views
        sv = vals[:9 * nx * (ny - 1)].reshape(9, nx, ny - 1)
        _fill_rows([sv[k].T for k in (5, 4, 6, 8, 7, 0, 2, 1, 3)], wc.T,
                   wl.T, wn.T, v_rt.T, v_lt.T, u_dn.T, u_up.T, dy, dx,
                   None if mv is None else mv.T[1:-1])
        np.take(vals, gather[split:], out=data[split:], mode="clip")
        self.fills += 1
        return self.matrix

    def set_mass(self, viscous_diagonal, mass):
        """The matrix of a viscous-only ``fill`` whose diagonal was
        ``viscous_diagonal``, plus diag(mass): the same values as ``fill``
        with this mass."""
        self.matrix.data[self.diag] = viscous_diagonal + mass.take(self.faces)
        return self.matrix


# ---------------------------------------------------------------------------
# Geometric multigrid preconditioner for the free block
# ---------------------------------------------------------------------------

MG_COARSEST = 12        # fewest cells a side of a coarse grid
MG_SMOOTH_STEPS = 3     # Chebyshev-Jacobi steps before and after correction
MG_SMOOTH_RANGE = 30.0  # the smoother targets D^-1 A's spectrum in [l/30, l]
MG_MAXITER = 300        # a sound V-cycle needs O(10); fail fast otherwise
MG_MIN_LEVELS = 4       # fewest levels for the V-cycle: at 48^2 (3 levels)
                        # its fixed costs weigh 18-27 Jacobi-CG iterations
                        # and break-even is 75-150 of them, more than such
                        # runs need (about 77)


def _coarser(grid: StaggeredGrid):
    """The grid with both sides halved, or None when a side is odd or the
    halved grid would have fewer than MG_COARSEST cells a side."""
    if grid.nx % 2 or grid.ny % 2 or min(grid.nx, grid.ny) < 2 * MG_COARSEST:
        return None
    return StaggeredGrid(grid.nx // 2, grid.ny // 2, 2 * grid.dx,
                         2 * grid.dy)


def multigrid_levels(grid: StaggeredGrid) -> int:
    """Number of grids in the multigrid hierarchy on ``grid``."""
    n = 1
    while (grid := _coarser(grid)) is not None:
        n += 1
    return n


def _restrict_component(f, c):
    """One face component, normal along axis 0, from f on the fine grid
    into c: the transpose of the prolongation (``_transfer``)."""
    t = f[0::2].copy()
    half = 0.5 * f[1::2]
    t[:-1] += half
    t[1:] += half
    te, to = t[:, 0::2], t[:, 1::2]
    np.add(te, to, out=c)
    c *= 0.75
    c[:, :-1] += 0.25 * te[:, 1:]
    c[:, 0] += 0.25 * te[:, 0]
    c[:, 1:] += 0.25 * to[:, :-1]
    c[:, -1] += 0.25 * to[:, -1]


def _restrict(coarse: StaggeredGrid, x):
    """The transpose of the prolongation: fine faces to those of coarse."""
    nx, ny = coarse.nx, coarse.ny
    nu, nu_fine = (nx + 1) * ny, (2 * nx + 1) * 2 * ny
    out = np.empty(nu + nx * (ny + 1))
    _restrict_component(x[:nu_fine].reshape(2 * nx + 1, 2 * ny),
                        out[:nu].reshape(nx + 1, ny))
    _restrict_component(x[nu_fine:].reshape(2 * nx, 2 * ny + 1).T,
                        out[nu:].reshape(nx, ny + 1).T)
    return out


def _normal_factor(n):
    """Prolongation along a face's normal, n + 1 coarse faces to 2n + 1, as
    (columns, values, present) over two slots, slot-major: even fine faces
    copy a coarse face, odd ones average the two beside it."""
    f = np.arange(2 * n + 1)
    odd = f % 2 == 1
    cols = np.stack([f // 2, np.minimum(f // 2 + 1, n)])
    vals = np.where(odd, 0.5, [[1.0], [0.0]])
    return cols, vals, np.stack([np.ones_like(odd), odd])


def _tangent_factor(m):
    """Prolongation along a face's tangent, m coarse faces to 2m, as
    (columns, values, present) over two slots, slot-major: 3/4 of the
    nearer coarse face and 1/4 of the next one, which past a wall is the
    nearer face itself (one slot of weight 1)."""
    j = np.arange(m)
    # [slot, coarse face, even/odd fine face]
    cols = np.clip(j[:, None] + [[[-1, 0]], [[0, 1]]], 0, m - 1)
    vals = np.empty((2, m, 2))
    vals[0], vals[1] = [0.25, 0.75], [0.75, 0.25]
    has = np.ones((2, m, 2), dtype=bool)
    vals[1, 0, 0] = vals[0, -1, 1] = 1.0
    has[0, 0, 0] = has[1, -1, 1] = False
    return cols.reshape(2, 2 * m), vals.reshape(2, 2 * m), \
        has.reshape(2, 2 * m)


def _transfer(coarse: StaggeredGrid, fine_free, coarse_free):
    """The prolongation from ``coarse`` as a CSR matrix over free fine rows
    and free coarse columns.  u faces (normal x) and v faces (normal y) are
    Kronecker products of the 1-D factors: a fine face's four slots are the
    pairs (slot of the first factor, slot of the second), in increasing
    column order."""
    nx, ny = coarse.nx, coarse.ny
    nu = (2 * nx + 1) * 2 * ny
    cols = np.empty((4, fine_free.size), dtype=np.int32)
    vals = np.empty(cols.shape)
    has = np.empty(cols.shape, dtype=bool)
    for at, a, b, nb, first in (
            (slice(0, nu), _normal_factor(nx), _tangent_factor(ny), ny, 0),
            (slice(nu, None), _tangent_factor(nx), _normal_factor(ny), ny + 1,
             (nx + 1) * ny)):
        (ca, va, ha), (cb, vb, hb) = a, b

        def out(x):
            return x[:, at].reshape(2, 2, ca.shape[1], cb.shape[1])

        np.add((first + nb * ca)[:, None, :, None], cb[None, :, None, :],
               out=out(cols))
        np.multiply(va[:, None, :, None], vb[None, :, None, :],
                    out=out(vals))
        np.logical_and(ha[:, None, :, None], hb[None, :, None, :],
                       out=out(has))
    has &= coarse_free[cols]
    rank = np.cumsum(coarse_free, dtype=np.int32) - 1
    return stencil_csr(rank[cols], vals, has, np.count_nonzero(coarse_free),
                       rows=fine_free)


def _chebyshev(A, dinv, lam, x, r):
    """MG_SMOOTH_STEPS Chebyshev steps for A x = b, Jacobi-preconditioned,
    on [lam / MG_SMOOTH_RANGE, lam], from x with residual r = b - A x
    (Saad 2003, ch. 12).  Updates x and r in place; returns x."""
    theta = 0.5 * lam * (1.0 + 1.0 / MG_SMOOTH_RANGE)
    delta = 0.5 * lam * (1.0 - 1.0 / MG_SMOOTH_RANGE)
    sigma = theta / delta
    rho = 1.0 / sigma
    d = np.multiply(dinv, r)
    d /= theta
    x += d
    z = np.empty_like(d)
    for _ in range(MG_SMOOTH_STEPS - 1):
        r -= A @ d
        rho_next = 1.0 / (2.0 * sigma - rho)
        d *= rho_next * rho
        np.multiply(dinv, 2.0 * rho_next / delta, out=z)
        z *= r
        d += z
        x += d
        rho = rho_next
    return x


class Multigrid:
    """A symmetric V-cycle for one FreePattern's free block.

    Level 0 is the pattern itself; each further level halves the grid
    (``_coarser``) and is a FreePattern of its own.  A coarse face is pinned
    when it is a boundary face or when either of the two fine faces lying
    on it is pinned.  Each level's prolongation P (``_transfer``) is stored
    once per hierarchy, and restriction is its transpose view P.T.  Each
    step ``preconditioner`` rediscretizes the coarse operators from
    coarsened weights (cell weights summed over 2x2 blocks, node weights 4x
    the coincident fine node, mass restricted) and returns the V-cycle:
    Chebyshev-Jacobi smoothing around a coarse correction, and a sparse LU
    solve on the coarsest grid.
    """

    def __init__(self, fine: FreePattern):
        self.levels = [fine]
        self.transfers = []   # (P, P.T) into each level from the next
        coarse = _coarser(fine.grid)
        while coarse is not None:
            layout = _face_layout(coarse)
            pinned_fine = self.levels[-1].pinned
            pu, pv = _face_views(self.levels[-1].grid, pinned_fine)
            pinned = layout["boundary"] | np.concatenate([
                (pu[0::2, 0::2] | pu[0::2, 1::2]).ravel(),
                (pv[0::2, 0::2] | pv[1::2, 0::2]).ravel()])
            P = _transfer(coarse, ~pinned_fine, ~pinned)
            self.transfers.append((P, P.T))
            self.levels.append(FreePattern(coarse, pinned, layout))
            coarse = _coarser(coarse)

    def preconditioner(self, w_mu, w_lam, w_node, mass):
        """Fill the coarse levels from the fine weights and return the
        V-cycle as a callable z = M(r).  Level 0's matrix must already
        hold the fill of the same weights.  The callable owns this step's
        smoother data and coarsest factorization, freed with it."""
        for p in self.levels[1:]:
            nx, ny = p.grid.nx, p.grid.ny
            w_mu = w_mu.reshape(nx, 2, ny, 2).sum(axis=(1, 3)).ravel()
            w_lam = w_lam.reshape(nx, 2, ny, 2).sum(axis=(1, 3)).ravel()
            w_node = 4.0 * w_node.reshape(2 * nx + 1, 2 * ny + 1)[::2, ::2]
            mass = _restrict(p.grid, mass)
            p.fill(w_mu, w_lam, w_node.ravel(), mass)
        smooth = []
        for p in self.levels[:-1]:
            A = p.matrix
            dinv = 1.0 / A.data[p.diag]
            # Gershgorin bound on the spectrum of D^-1 A
            rows = np.add.reduceat(np.abs(A.data), A.indptr[:-1])
            smooth.append((A, dinv, float(np.max(rows * dinv))))
        # the minimum-degree ordering of A + A^T suits the symmetric matrix:
        # fewer L + U entries and a faster factorization than COLAMD
        lu = splu(self.levels[-1].matrix.tocsc(), permc_spec="MMD_AT_PLUS_A",
                  options={"SymmetricMode": True})
        return lambda b: self._vcycle(smooth, lu, b)

    def _vcycle(self, smooth, lu, b, k=0):
        if k == len(smooth):
            return lu.solve(b)
        A, dinv, lam = smooth[k]
        P, R = self.transfers[k]
        x = _chebyshev(A, dinv, lam, np.zeros_like(b), b.copy())
        x += P @ self._vcycle(smooth, lu, R @ (b - A @ x), k + 1)
        return _chebyshev(A, dinv, lam, x, b - A @ x)


# ---------------------------------------------------------------------------
# Choice of the viscous CG's preconditioner, step by step
# ---------------------------------------------------------------------------

# The cost model of the two CGs counts fine-level matvecs.  Level k of the
# hierarchy has r_k times the fine level's unknowns, and so about r_k times
# its nonzeros (at most 9 a row).  Each term is the median of 7 timings at
# 96^2 and 192^2, n = 1e5, with and without a hold mask, on a 2-core x86
# VM, with scipy's cg; the range is over those four cases.  fields.cg
# costs less per iteration, but new values would move held96's choices of
# preconditioner, and with them its outputs and seed-0 reference:
JACOBI_MATVECS = 2.0      # a Jacobi-CG iteration: its matvec, the diagonal
                          # scaling and CG's vector updates; 2.0-2.1
MG_LEVEL_MATVECS = 11.0   # a V-cycle's visit to one level, in that level's
                          # matvecs: 2 MG_SMOOTH_STEPS + 2 = 8 matvecs, the
                          # smoother's vector updates and both transfers;
                          # 10.6-11.0
MG_FILL_MATVECS = 42.0    # a step's set-up of one coarse level, in its
                          # matvecs: coarsened weights, fill, Gershgorin
                          # bound; 38-47
MG_LU_MATVECS = 340.0     # the coarsest level's LU factorization, in its
                          # matvecs; 318-365
MG_RATE = 1.3             # MG-PCG iterations per decade a step needs,
                          # for a run that has not used the V-cycle yet:
                          # run medians 1.20-1.52 over free, held and
                          # body-less runs at 96^2 and 192^2


def _multigrid_cost(grid: StaggeredGrid):
    """(F, c): an MG-PCG solve of k iterations on ``grid`` costs about
    F + c k Jacobi-CG iterations.  F is the step's set-up of the coarse
    levels and the coarsest LU; c is one CG iteration with a V-cycle in
    place of the diagonal scaling."""
    rows = []
    while grid is not None:
        rows.append((grid.nx - 1) * grid.ny + grid.nx * (grid.ny - 1))
        grid = _coarser(grid)
    r = np.array(rows) / rows[0]
    setup = MG_FILL_MATVECS * r[1:].sum() + MG_LU_MATVECS * r[-1]
    cycle = MG_LEVEL_MATVECS * r[:-1].sum()
    return setup / JACOBI_MATVECS, 1.0 + cycle / JACOBI_MATVECS


class PreconditionerRule:
    """Picks the viscous CG's preconditioner, "jacobi" or "multigrid", for
    each step of one run.

    Only a grid with at least MG_MIN_LEVELS levels may use the V-cycle.
    The first step uses it when the body is mobile (present and not held):
    Jacobi then has the free body's slow modes to resolve and needs 11-19
    times the V-cycle's iterations, against about 7 times when a hold mask
    pins the stiff core.  Every later step predicts each path's iterations
    as its last rate, in iterations per decade of residual reduction, times
    the decades this step needs, and takes the cheaper by
    ``_multigrid_cost``; so a run can go either way, and go back.  A path
    the run has not used has no rate of its own: the V-cycle's is MG_RATE,
    Jacobi's is unknown, so a run that starts on the V-cycle keeps it.
    """

    def __init__(self, grid: StaggeredGrid, mobile_body: bool):
        self.cost = (_multigrid_cost(grid)
                     if multigrid_levels(grid) >= MG_MIN_LEVELS else None)
        self.first = ("multigrid" if mobile_body and self.cost is not None
                      else "jacobi")
        self.rates = {"multigrid": MG_RATE}

    def choose(self, decades: float) -> str:
        """The preconditioner for a solve that must reduce its residual by
        ``decades`` powers of ten."""
        if self.cost is None:
            return "jacobi"
        if "jacobi" not in self.rates:
            return self.first
        F, c = self.cost
        multigrid = F + c * self.rates["multigrid"] * decades
        jacobi = self.rates["jacobi"] * decades
        return "multigrid" if multigrid < jacobi else "jacobi"

    def record(self, info: MomentumStepInfo):
        """Keep the rate of the solve that ``info`` describes."""
        if info.iterations > 0 and info.decades > 0.0:
            self.rates[info.preconditioner] = info.iterations / info.decades


# ---------------------------------------------------------------------------
# Initial guess of the viscous CG: projection onto recent solutions
# ---------------------------------------------------------------------------

PROJECTION_DEPTH = 5      # solutions a SolutionHistory spans
PROJECTION_DROP = 1e-10   # relative squared A-norm below which a vector
                          # of the history is dropped


class SolutionHistory:
    """The last PROJECTION_DEPTH free-row solutions of one run's viscous
    solves, for the projection initial guess of P. F. Fischer, "Projection
    techniques for iterative solution of Ax = b with successive right-hand
    sides", CMAME 163 (1998) 193-204.

    The solutions are kept as a backward-difference table: ``diffs[0]`` is
    the newest solution, ``diffs[1]`` its difference from the one before,
    ``diffs[2]`` the difference of those differences, and so on.  The table
    spans the same space as the solutions, but successive solutions are
    nearly parallel while their differences are not, so its Gram matrix
    keeps the directions that the raw solutions lose to round-off.  Sliding
    the window updates the table in place; no second copy of it is made.
    A change of the free set (a new ``FreePattern``) empties the table.
    """

    def __init__(self):
        self.pattern = None
        self.diffs = []

    def push(self, pattern: FreePattern, x: np.ndarray):
        """Record the solution x (free rows of ``pattern``); x is copied."""
        if pattern is not self.pattern:
            self.pattern, self.diffs = pattern, []
        # the highest difference of a full table drops out; its buffer,
        # and then each old difference's in turn, takes the new entry
        d = (self.diffs.pop() if len(self.diffs) == PROJECTION_DEPTH
             else np.empty_like(x))
        d[:] = x
        for i, old in enumerate(self.diffs):
            self.diffs[i], d = d, np.subtract(d, old, out=old)
        self.diffs.append(d)

    def guess(self, pattern: FreePattern, A, b: np.ndarray,
              x0: np.ndarray) -> np.ndarray:
        """x = V (V^T A V)^-1 V^T b over the table V: the A-norm-best
        approximation of A^-1 b in the span of the recent solutions.  While
        the table holds fewer than two vectors of this pattern, x0 itself:
        a one-vector projection, a multiple of x0, can slow CG down.

        The k x k system is solved by Gram-Schmidt in the A-inner product
        on the table's coefficients, newest first.  A vector whose A-norm
        after orthogonalization falls below sqrt(PROJECTION_DROP) of its
        own is left out, so near-dependent history (a repeated solution)
        never divides by round-off.  This works on k <= 5 numbers without
        LAPACK, whose first call would add about 0.6 MiB of library pages
        to the run's resident memory."""
        V = self.diffs
        if pattern is not self.pattern or len(V) < 2:
            return x0
        k = len(V)
        G = np.empty((k, k))
        for j, v in enumerate(V):
            w = A @ v
            G[:, j] = [u @ w for u in V]
        c = np.array([u @ b for u in V])
        live = np.flatnonzero(np.diag(G) > 0.0)   # a zero vector drops
        s = 1.0 / np.sqrt(np.diag(G)[live])
        G = G[np.ix_(live, live)] * np.outer(s, s)   # unit diagonal
        basis = []                                   # pairs (q, G q)
        for q in np.eye(live.size):
            for _ in range(2):                       # twice is enough
                for p, Gp in basis:
                    q -= (Gp @ q) * p
            Gq = G @ q
            norm2 = q @ Gq
            if norm2 > PROJECTION_DROP:
                basis.append((q / np.sqrt(norm2), Gq / np.sqrt(norm2)))
        if not basis:
            return x0
        cs = s * c[live]
        alpha = sum((q @ cs) * q for q, _ in basis)
        x = np.zeros_like(x0)
        for a, i in zip(s * alpha, live):
            x += a * V[i]
        return x


def _strains(ops, x, c12):
    """D11, D22, div on cells and D12 on nodes of the face vector x."""
    return (ops["g_d11"] @ x, ops["g_d22"] @ x, ops["g_div"] @ x,
            ops["g_d12"] @ x + c12)


def _pinned_coupling(ops, x_pin, w_mu, w_lam, w_node, c12):
    """sum G^T (w * (G x_pin + c)): what the pinned values x_pin (zero on
    free faces) and the D12 wall traces c12 put on every row."""
    r11, r22, rdv, r12 = _strains(ops, x_pin, c12)
    return (ops["g_d11"].T @ (w_mu * r11) + ops["g_d22"].T @ (w_mu * r22)
            + ops["g_div"].T @ (w_lam * rdv) + ops["g_d12"].T @ (w_node * r12))


def _node_average(grid, cells):
    """Cell field to nodes by adjacent-cell average."""
    nx, ny = grid.nx, grid.ny
    s = np.zeros((nx + 1, ny + 1))
    c = np.zeros((nx + 1, ny + 1))
    for di in (0, 1):
        for dj in (0, 1):
            s[di:nx + di, dj:ny + dj] += cells
            c[di:nx + di, dj:ny + dj] += 1.0
    return s / c


def _d12_affine(grid, traces):
    """Constant part of the node D12 rows coming from the tangential wall
    traces, keyed by wall (zero trace -> zero vector)."""
    c = np.zeros((grid.nx + 1, grid.ny + 1))
    # a wall's one-sided rows carry -+(2/h) times its tangential trace, h
    # the spacing across it
    for w, t in traces.items():
        line = wall_line(c, w)
        line += (2.0 if WALL[w][1] else -2.0) / wall_spacing(grid, w)[0] * t
    return 0.5 * c.ravel()


# ---------------------------------------------------------------------------
# What a run's steps share: the fixed arrays, the solver data of the current
# pinned set and dt, and the viscous data of one chi
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Problem:
    """One run's grid, domain, penalty parameters and boundary data, and
    what its steps compute from them.

    The viscosity model and the arrays that follow from these alone are
    computed on first use, so a Problem built for a single call costs only
    what that call reads.  Two slots follow the run as it steps: the free
    pattern of the current pinned set, with its multigrid hierarchy once a
    step takes the V-cycle (``free_pattern``, ``multigrid``), and
    continuity's step matrix of the last dt (``diffusion``).  A replaced
    slot is freed at once.  ``driver.run`` builds one per run, so runs
    share nothing but the strain operators of their grid (``_grid_ops``).
    """
    grid: StaggeredGrid
    domain: DomainSpec
    params: PenaltyParams
    bc: BoundaryData

    def __post_init__(self):
        self._pattern = self._multigrid = self._diffusion = None

    @cached_property
    def model(self):
        return ViscosityModel.from_params(self.params, self.domain)

    def free_pattern(self, pinned: np.ndarray) -> FreePattern:
        """The free pattern of this pinned set: the kept one while the set
        stays the same, else a new one, which drops the hierarchy."""
        p = self._pattern
        if p is None or not np.array_equal(p.pinned, pinned):
            p = self._pattern = FreePattern(self.grid, pinned, self.ops)
            self._multigrid = None
        return p

    def multigrid(self) -> Multigrid:
        """The hierarchy on the current free pattern, built on first use."""
        if self._multigrid is None:
            self._multigrid = Multigrid(self._pattern)
        return self._multigrid

    @cached_property
    def unit_diffusion(self):
        """Continuity's unit-dt diffusion and Robin matrix K and the CSR
        position of each row's diagonal (``continuity._unit_diffusion``)."""
        return _unit_diffusion(self.grid, self.params, self.robin)

    def diffusion(self, dt: float):
        """Continuity's step matrix vol I + dt K and its Jacobi
        preconditioner, kept while dt stays the same."""
        if self._diffusion is None or self._diffusion[0] != dt:
            self._diffusion = (dt, *_diffusion_matrix(
                *self.unit_diffusion, self.grid.cell_volume, dt))
        return self._diffusion[1:]

    @cached_property
    def ops(self):
        return _grid_ops(self.grid)

    def wall_distance(self):
        """Each cell's distance to the nearest wall."""
        return self.domain.boundary_distance(*self.grid.cell_xy())

    @cached_property
    def wall_cutoff(self):
        """The viscosity model's wall cutoff on the cells."""
        return self.model.cutoff.value(self.wall_distance())

    @cached_property
    def clear_of_walls(self):
        """Whether each cell lies farther than h from every wall."""
        return self.wall_distance() > self.params.h

    @cached_property
    def wall_traces(self):
        """Each wall's tangential velocity at its nodes."""
        return self.bc.tangential_traces()

    @cached_property
    def c12(self):
        return _d12_affine(self.grid, self.wall_traces)

    @cached_property
    def boundary_values(self):
        """(faces, values): the boundary faces and their Dirichlet values,
        wall by wall in ``WALL`` order."""
        ops = self.ops
        index = _face_views(self.grid, np.arange(ops["nu"] + ops["nv"]))
        return (np.concatenate([wall_line(index[axis], w)
                                for w, (axis, _) in WALL.items()]),
                np.concatenate([self.bc.ub[w][:, axis]
                                for w, (axis, _) in WALL.items()]))

    @cached_property
    def robin(self):
        """Continuity's Robin closure: each wall's smoothed negative part of
        ub.n, and ub.n itself."""
        return {w: (smoothed_negative_part(un, self.params.bc_sharpness), un)
                for w, un in self.normal_traces.items()}

    @cached_property
    def normal_traces(self):
        return {w: self.bc.normal_trace(w) for w in WALLS}

    @cached_property
    def inflow(self):
        """Each wall's inflow faces, where u_b . n < 0; the others, ties
        included, are outflow faces."""
        return {w: un < 0.0 for w, un in self.normal_traces.items()}

    @cached_property
    def ext_gradient(self):
        """The boundary extension's ``full_gradient``, for the energy
        ledger."""
        u_ext = self.bc.u_ext
        return full_gradient(self.grid, u_ext.u, u_ext.v, self.wall_traces)

    @cached_property
    def inflow_term(self):
        """The energy ledger's rate of the inflow walls' pressure
        potential, sign folded in."""
        bc, params, term = self.bc, self.params, 0.0
        for w in WALLS:
            pin = np.where(self.inflow[w], pressure_potential(
                bc.rho[w], params) * self.normal_traces[w], 0.0)
            term -= np.sum(pin) * wall_spacing(self.grid, w)[1]
        return term


class ViscousState:
    """The viscous data of one chi (body position) of one run.

    Built with chi: the solidification viscosities mu_n, lam_n on cells
    and the quadratic form's weights.  On first use: the face values that a
    held body (``hold``, u-face and v-face booleans) and vacuum faces are
    pinned at, taken from ``pin`` or else the boundary extension.  Per
    step, ``coupling`` and ``operator`` reuse the pinned coupling and the
    viscous part of the free block while the vacuum faces and the free
    pattern stay the same.  ``driver.run`` builds a new state whenever chi
    changes: every step for a free body, once per run for a held body or
    none.  ``momentum_step``, ``ledger_step`` and ``viscous_quadratic_form``
    take one, and read the run's Problem through it.
    """

    def __init__(self, problem: Problem, chi: np.ndarray,
                 pin: VectorField = None, hold=None):
        self.problem, self.chi, self.pin, self.hold = problem, chi, pin, hold
        grid, vol = problem.grid, problem.grid.cell_volume
        self.mu_n, self.lam_n = _solidify(chi, problem.model,
                                          problem.wall_cutoff)
        # weights of the quadratic form: 2 mu_n vol and lam_n vol on cells,
        # 4 mu_n vol_n on nodes
        self.w_mu = (2.0 * self.mu_n * vol).ravel()
        self.w_lam = (self.lam_n * vol).ravel()
        self.w_node = 4.0 * _node_average(grid, self.mu_n).ravel() \
            * problem.ops["node_vol"]
        self._vac = self._coupling = None
        self._filled, self._fills, self._diagonal = None, 0, None

    def pin_values(self):
        """Face vector of ``pin``, or of the boundary extension without
        one; None without either."""
        f = self.pin if self.pin is not None else self.problem.bc.u_ext
        return None if f is None else np.concatenate([f.u.ravel(),
                                                      f.v.ravel()])

    @cached_property
    def held(self):
        """(faces, values, pinned): the faces pinned before any vacuum face
        and their values (the boundary data, then the pin on held faces),
        and those faces as a mask."""
        ops = self.problem.ops
        faces, values = self.problem.boundary_values
        if self.hold is None:
            return faces, values, ops["boundary"]
        hm = np.concatenate([np.asarray(self.hold[0], bool).ravel(),
                             np.asarray(self.hold[1], bool).ravel()])
        hm &= ops["interior"]
        held = np.flatnonzero(hm)
        # held faces without a pin are held at rest
        pin = (np.zeros(held.size) if self.pin is None
               else self.pin_values()[held])
        return (np.concatenate([faces, held]),
                np.concatenate([values, pin]), ops["boundary"] | hm)

    def coupling(self, vac, x_full, pinned):
        """``_pinned_coupling`` of the pinned values of x_full.  Within one
        state the pinned faces and their values follow from the vacuum
        faces ``vac`` alone, so the result is kept while they stay the
        same."""
        if self._vac is None or not np.array_equal(vac, self._vac):
            p = self.problem
            self._coupling = _pinned_coupling(
                p.ops, np.where(pinned, x_full, 0.0), self.w_mu, self.w_lam,
                self.w_node, p.c12)
            self._vac = vac
        return self._coupling

    def operator(self, pattern: FreePattern, mass):
        """pattern's free block of this state's viscous form plus
        diag(mass).  The viscous part is filled again only when the pattern
        changed or another fill overwrote it since."""
        if self._filled is not pattern or self._fills != pattern.fills:
            pattern.fill(self.w_mu, self.w_lam, self.w_node)
            self._diagonal = pattern.matrix.data[pattern.diag]
            self._filled, self._fills = pattern, pattern.fills
        return pattern.set_mass(self._diagonal, mass)


@dataclass
class MomentumStepInfo:
    iterations: int           # CG iterations, with this preconditioner
    preconditioner: str       # "jacobi" or "multigrid"
    solve_residual: float
    visc_quadform: float
    pinned_vacuum_faces: int
    decades: float            # log10 of initial over final residual norm


def _face_density(grid, rho):
    """The face densities as one face vector: the mean of the two cells
    beside a face, the one cell's on a boundary face."""
    out = np.empty((grid.nx + 1) * grid.ny + grid.nx * (grid.ny + 1))
    u, v = _face_views(grid, out)
    for f, r in ((u, rho), (v.T, rho.T)):
        f[1:-1] = 0.5 * (r[:-1] + r[1:])
        f[0] = r[0]
        f[-1] = r[-1]
    return out


def _component_terms(out, un, ut, m, rb, rho, p, grad_t, lo, hi, hn, ht,
                     eps, vol):
    """Subtract from out, the right-hand side on one face component whose
    normal is axis 0, vol times its explicit terms on the interior faces:
    the conservative upwind divergence of m un (m = rb un, the old face
    momentum; ut the other component), the pressure gradient of p, and the
    coupling eps grad(rho) . grad(un).  grad_t is rho's cell gradient
    along axis 1; lo and hi are the tangential wall traces at the nodes
    of the walls at the ends of axis 1; hn, ht the spacings along axes 0
    and 1.  The v component is this function of the transposed views."""
    # convection: normal fluxes at cell centers, tangential ones at the
    # interior nodes, upwinded against the wall traces at the walls
    a = 0.5 * (un[:-1] + un[1:])
    fc = a * np.where(a > 0, m[:-1], m[1:])
    a = 0.5 * (ut[:-1] + ut[1:])
    fn = np.empty_like(m, shape=(m.shape[0] - 2, m.shape[1] + 1))
    fn[:, 1:-1] = a[:, 1:-1] * np.where(a[:, 1:-1] > 0, m[1:-1, :-1],
                                        m[1:-1, 1:])
    fn[:, 0] = a[:, 0] * np.where(a[:, 0] > 0, rb[1:-1, 0] * lo[1:-1],
                                  m[1:-1, 0])
    fn[:, -1] = a[:, -1] * np.where(a[:, -1] > 0, m[1:-1, -1],
                                    rb[1:-1, -1] * hi[1:-1])
    conv = (fc[1:] - fc[:-1]) / hn + (fn[:, 1:] - fn[:, :-1]) / ht
    del a, fc, fn
    gp = (p[1:] - p[:-1]) / hn
    # the coupling's normal and tangential parts
    cn = (rho[1:] - rho[:-1]) / hn * ((un[2:] - un[:-2]) / (2 * hn))
    ct = 0.5 * (grad_t[:-1] + grad_t[1:]) * _centered(un[1:-1].T, ht).T
    ec = eps * (cn + ct)
    out[1:-1] -= (conv + gp + ec) * vol


def _explicit_terms(grid, rho_old, rho_new, vel, params, dt, traces,
                    source):
    """Face vectors of the viscous solve: its right-hand side (old momentum
    less the explicit convection, pressure gradient and coupling source,
    plus ``source``), the new-density mass / dt, the new face densities and
    the old face momentum.  traces holds each wall's tangential velocity at
    its nodes, keyed by wall.  Each component's work arrays are freed once
    it is added in, which keeps the step's memory peak low."""
    dx, dy, vol = grid.dx, grid.dy, grid.cell_volume
    rb_old = _face_density(grid, rho_old)
    m_old = rb_old * np.concatenate([vel.u.ravel(), vel.v.ravel()])
    rhs = m_old * vol / dt
    p = pressure(rho_new, params)
    # coupling source eps * grad(rho) . grad(u), new density gradient
    grx, gry = cell_gradient(grid, rho_new)
    (ru, rv), (mu, mv), (bu, bv) = (_face_views(grid, x)
                                    for x in (rhs, m_old, rb_old))
    (ulo, uhi), (vlo, vhi) = ([traces[w] for w in wall_ends(axis)]
                              for axis in (1, 0))
    _component_terms(ru, vel.u, vel.v, mu, bu, rho_new, p, gry, ulo, uhi,
                     dx, dy, params.eps, vol)
    _component_terms(rv.T, vel.v.T, vel.u.T, mv.T, bv.T, rho_new.T, p.T,
                     grx.T, vlo, vhi, dy, dx, params.eps, vol)
    del rb_old, bu, bv, p, grx, gry

    if source is not None:
        src_u, src_v = source
        rhs += np.concatenate([(np.asarray(src_u) * vol).ravel(),
                               (np.asarray(src_v) * vol).ravel()])
    # new-density face mass, for the implicit mass term
    face_rho = _face_density(grid, rho_new)
    return rhs, face_rho * vol / dt, face_rho, m_old


def momentum_step(state: ViscousState, rho_old: np.ndarray,
                  rho_new: np.ndarray, vel: VectorField, dt: float,
                  source=None, rule: PreconditionerRule = None,
                  history: SolutionHistory = None):
    """Advance the face momentum one step; returns (VectorField, info).

    state is the run's ``ViscousState`` of this chi: its Problem, its pin
    and its hold mask, and what the next steps can reuse.  rho_new must
    come from the same step's continuity update (sequential splitting).
    Faces that fell below the vacuum floor are pinned at the state's pin
    (the boundary extension without one).
    rule, one run's ``PreconditionerRule``, picks the viscous CG's
    preconditioner (Jacobi or the V-cycle of ``Multigrid``) and records
    this step's solve; without it the CG is Jacobi-preconditioned.
    history, one run's ``SolutionHistory``, starts the viscous CG from the
    projection onto the run's recent solutions instead of from vel, and
    records this step's solution; without it CG starts from vel.
    """
    problem = state.problem
    grid, ops = problem.grid, problem.ops
    check_cfl(grid, vel, problem.bc, dt)
    nx, ny = grid.nx, grid.ny
    rhs, mass, face_rho, m_old = _explicit_terms(
        grid, rho_old, rho_new, vel, problem.params, dt, problem.wall_traces,
        source)

    # Dirichlet values on boundary and held faces; vacuum faces get pinned
    # too
    faces, values, pinned = state.held
    x_full = np.zeros(ops["nu"] + ops["nv"])
    x_full[faces] = values
    vac = ops["interior"] & (face_rho <= VACUUM_FLOOR)
    n_vac = int(np.count_nonzero(vac))
    if n_vac:
        if np.max(np.abs(m_old[vac])) > 1e-8:
            raise VacuumCell("vacuum face carries nonzero momentum")
        pin_values = state.pin_values()
        if pin_values is not None:
            x_full[vac] = pin_values[vac]
        pinned = pinned | vac

    free = ~pinned
    b_free = (rhs - state.coupling(vac, x_full, pinned))[free]
    # face vectors are freed once done with, to hold the step's memory
    # peak (the fill, the guess, the solve) where it was without a history
    del rhs, face_rho, m_old
    pattern = problem.free_pattern(pinned)
    Aff = state.operator(pattern, mass)

    x0 = np.concatenate([vel.u.ravel(), vel.v.ravel()])[free]
    if history is not None:
        # before the preconditioner, so that their work vectors never
        # coexist
        x0 = history.guess(pattern, Aff, b_free, x0)
    # the preconditioner rule weighs the decades this solve must gain
    r = b_free - Aff @ x0
    r0 = float(np.linalg.norm(r))
    rtol = 1e-10
    bnorm = float(np.linalg.norm(b_free))
    precond = "jacobi"
    if rule is not None:
        need = (float(np.log10(r0 / (rtol * bnorm)))
                if r0 > 0.0 and bnorm > 0.0 else 0.0)
        precond = rule.choose(max(need, 0.0))
    if precond == "multigrid":
        M = problem.multigrid().preconditioner(state.w_mu, state.w_lam,
                                               state.w_node, mass)
        maxiter = MG_MAXITER
    else:
        M = jacobi(Aff.data[pattern.diag])
        maxiter = 10 * nx * ny
    del mass
    sol, info, iters = cg(Aff, b_free, x0, M, rtol, maxiter, r)
    res = float(np.linalg.norm(b_free - Aff @ sol))
    rel = res / bnorm if bnorm > 0 else res
    if info != 0 and rel > 1e-8:
        raise LinearSolveDiverged(
            f"momentum viscous CG: info={info}, rel residual {rel}")
    if history is not None:
        history.push(pattern, sol)
    x_full[free] = sol

    out = VectorField(grid, *_face_views(grid, x_full)).check_finite()

    minfo = MomentumStepInfo(
        iterations=iters, preconditioner=precond, solve_residual=rel,
        visc_quadform=viscous_quadratic_form(state, out),
        pinned_vacuum_faces=n_vac,
        decades=(float(np.log10(r0 / res)) if r0 > 0.0 and res > 0.0
                 else 0.0))
    if rule is not None:
        rule.record(minfo)
    return out, minfo


def viscous_quadratic_form(state: ViscousState, vel: VectorField) -> float:
    """E(u) of the assembled implicit operator of this state's chi, with
    its Problem's wall traces; nonnegative for any admissible
    viscosities."""
    x = np.concatenate([vel.u.ravel(), vel.v.ravel()])
    r11, r22, rdv, r12 = _strains(state.problem.ops, x, state.problem.c12)
    return np.sum(state.w_mu * (r11 ** 2 + r22 ** 2)) \
        + np.sum(state.w_lam * rdv ** 2) \
        + np.sum(state.w_node * r12 ** 2)
