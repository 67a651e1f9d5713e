"""The straightforward constructions of the solver's set-up arrays: sparse
sums, COO -> CSR conversions, Kronecker products, boolean slicing and the
60-sweep relaxation.  The solver builds the same arrays by index
arithmetic; ``test_momentum.py`` and ``test_continuity.py`` compare the two
bit for bit.  Also the direct convolution that ``fields.mollify`` computes
by FFT; ``test_fields.py`` compares the two to round-off.  And the
matrix-free prolongation that the stored multigrid transfers are checked
against.
"""

import numpy as np
from scipy import ndimage, sparse

from penaltyflow.continuity import smoothed_negative_part
from penaltyflow.fields import integrate
from penaltyflow.geometry import WALLS
from penaltyflow.momentum import _face_layout


def assert_bitwise(got, want):
    """Same dtype, shape and bits; floats are compared as int64 words."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    if got.dtype == np.float64:
        got, want = got.view(np.int64), want.view(np.int64)
    assert np.array_equal(got, want)


def assert_same_csr(got, want):
    """Two CSR matrices with the same shape and bitwise equal arrays."""
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        assert_bitwise(getattr(got, name), getattr(want, name))


def mollify_direct(values, kernel):
    """Convolution with the kernel's stencil, zero outside the array."""
    return ndimage.convolve(np.asarray(values, dtype=np.float64),
                            kernel.weights, mode="constant", cval=0.0)


def regularize_by_sweeps(grid, rho0, params, bc, sweeps=60):
    """Relax every boundary cell together onto its walls' targets, corners
    onto the mean of two, ``sweeps`` times."""
    if np.min(rho0) < 0 or integrate(grid, np.asarray(rho0)) <= 0:
        raise ValueError("initial density must be >= 0 with positive mass")
    lo, hi = params.delta, 1.0 / params.delta
    rho = np.clip(np.asarray(rho0, dtype=np.float64), lo, hi)

    k = {w: smoothed_negative_part(bc.normal_trace(w), params.bc_sharpness)
         for w in WALLS}
    rb = {w: np.clip(bc.rho[w], lo, hi) for w in WALLS}
    cx = params.eps / grid.dx
    cy = params.eps / grid.dy

    for _ in range(sweeps):
        tgt_sum = np.zeros_like(rho)
        tgt_cnt = np.zeros_like(rho)

        def accend(sl, inner, c, kk, rbw):
            t = (c * inner + np.abs(kk) * rbw) / (c + np.abs(kk))
            tgt_sum[sl] += t
            tgt_cnt[sl] += 1.0

        accend((0, slice(None)), rho[1, :], cx, k["left"], rb["left"])
        accend((-1, slice(None)), rho[-2, :], cx, k["right"], rb["right"])
        accend((slice(None), 0), rho[:, 1], cy, k["bottom"], rb["bottom"])
        accend((slice(None), -1), rho[:, -2], cy, k["top"], rb["top"])

        edge = tgt_cnt > 0
        rho[edge] = tgt_sum[edge] / tgt_cnt[edge]
    return np.clip(rho, lo, hi)


def unit_diffusion(grid, params, robin):
    """(K, diagonal CSR positions) from COO triplets."""
    nx, ny, dx, dy = grid.nx, grid.ny, grid.dx, grid.dy
    n = nx * ny
    idx = np.arange(n).reshape(nx, ny)
    rows, cols, vals = [], [], []

    def add(r, c, v):
        rows.append(r.ravel())
        cols.append(c.ravel())
        vals.append(np.broadcast_to(v, r.shape).ravel().astype(np.float64))

    diag = np.zeros((nx, ny))
    kx = params.eps * dy / dx
    ky = params.eps * dx / dy
    diag[:-1, :] += kx
    diag[1:, :] += kx
    add(idx[:-1, :], idx[1:, :], -kx)
    add(idx[1:, :], idx[:-1, :], -kx)
    diag[:, :-1] += ky
    diag[:, 1:] += ky
    add(idx[:, :-1], idx[:, 1:], -ky)
    add(idx[:, 1:], idx[:, :-1], -ky)
    diag[0, :] += dy * (robin["left"][1] + np.abs(robin["left"][0]))
    diag[-1, :] += dy * (robin["right"][1] + np.abs(robin["right"][0]))
    diag[:, 0] += dx * (robin["bottom"][1] + np.abs(robin["bottom"][0]))
    diag[:, -1] += dx * (robin["top"][1] + np.abs(robin["top"][0]))
    add(idx, idx, diag)

    K = sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n))
    rows = np.repeat(np.arange(K.shape[0]), np.diff(K.indptr))
    return K, np.flatnonzero(K.indices == rows)


def strain_operators(grid):
    """D11, D22, div and D12 (face vector -> cells / nodes) from COO
    triplets and sparse sums: the matrices whose products, and those of
    their transposes, the solver's slice kernels compute."""
    nx, ny, dx, dy = grid.nx, grid.ny, grid.dx, grid.dy
    layout = _face_layout(grid)
    uidx, vidx = layout["uidx"], layout["vidx"]
    ndof = layout["nu"] + layout["nv"]

    ic, jc = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    inn, jnn = np.meshgrid(np.arange(nx + 1), np.arange(ny + 1),
                           indexing="ij")
    ncell = nx * ny
    nnode = (nx + 1) * (ny + 1)
    cidx = (ic * ny + jc).ravel()
    nidx = (inn * (ny + 1) + jnn).ravel()

    def mat(rows, cols, vals, nrows):
        return sparse.csr_matrix(
            (np.concatenate([np.asarray(v, dtype=np.float64).ravel()
                             for v in vals]),
             (np.concatenate([np.asarray(r).ravel() for r in rows]),
              np.concatenate([np.asarray(c).ravel() for c in cols]))),
            shape=(nrows, ndof))

    g_d11 = mat([cidx, cidx],
                [uidx(ic + 1, jc), uidx(ic, jc)],
                [np.full(ncell, 1 / dx), np.full(ncell, -1 / dx)], ncell)
    g_d22 = mat([cidx, cidx],
                [vidx(ic, jc + 1), vidx(ic, jc)],
                [np.full(ncell, 1 / dy), np.full(ncell, -1 / dy)], ncell)
    g_div = g_d11 + g_d22

    rows, cols, vals = [], [], []
    interior = (jnn >= 1) & (jnn <= ny - 1)
    r = nidx[interior.ravel()]
    ii = inn[interior]
    jj = jnn[interior]
    rows += [r, r]
    cols += [uidx(ii, jj), uidx(ii, jj - 1)]
    vals += [np.full(r.size, 1 / dy), np.full(r.size, -1 / dy)]
    bot = nidx[(jnn == 0).ravel()]
    rows += [bot]
    cols += [uidx(np.arange(nx + 1), 0)]
    vals += [np.full(nx + 1, 2 / dy)]
    top = nidx[(jnn == ny).ravel()]
    rows += [top]
    cols += [uidx(np.arange(nx + 1), ny - 1)]
    vals += [np.full(nx + 1, -2 / dy)]
    g_dudy = mat(rows, cols, vals, nnode)

    rows, cols, vals = [], [], []
    interior = (inn >= 1) & (inn <= nx - 1)
    r = nidx[interior.ravel()]
    ii = inn[interior]
    jj = jnn[interior]
    rows += [r, r]
    cols += [vidx(ii, jj), vidx(ii - 1, jj)]
    vals += [np.full(r.size, 1 / dx), np.full(r.size, -1 / dx)]
    lef = nidx[(inn == 0).ravel()]
    rows += [lef]
    cols += [vidx(0, np.arange(ny + 1))]
    vals += [np.full(ny + 1, 2 / dx)]
    rig = nidx[(inn == nx).ravel()]
    rows += [rig]
    cols += [vidx(nx - 1, np.arange(ny + 1))]
    vals += [np.full(ny + 1, -2 / dx)]
    g_dvdx = mat(rows, cols, vals, nnode)

    return {"g_d11": g_d11, "g_d22": g_d22, "g_div": g_div,
            "g_d12": 0.5 * (g_dudy + g_dvdx)}


def free_pattern_arrays(grid, pinned):
    """A FreePattern's (indptr, indices, gather, split, diag) from the flat
    list of kept stencil entries."""
    ops = _face_layout(grid)
    nx, ny = grid.nx, grid.ny
    uidx, vidx = ops["uidx"], ops["vidx"]
    free = ~pinned

    def absent(cond, idx):
        return np.where(cond, idx, -1)

    def arange(lo, hi):
        return np.arange(lo, hi, dtype=np.int32)

    i, j = np.meshgrid(arange(1, nx), arange(0, ny), indexing="ij")
    rows_u = uidx(i, j)
    cols_u = [uidx(i - 1, j), absent(j > 0, uidx(i, j - 1)), rows_u,
              absent(j < ny - 1, uidx(i, j + 1)), uidx(i + 1, j),
              vidx(i - 1, j), vidx(i - 1, j + 1), vidx(i, j),
              vidx(i, j + 1)]
    i, j = np.meshgrid(arange(0, nx), arange(1, ny), indexing="ij")
    rows_v = vidx(i, j)
    cols_v = [uidx(i, j - 1), uidx(i, j), uidx(i + 1, j - 1),
              uidx(i + 1, j), absent(i > 0, vidx(i - 1, j)),
              vidx(i, j - 1), rows_v, vidx(i, j + 1),
              absent(i < nx - 1, vidx(i + 1, j))]
    nru, nrv = rows_u.size, rows_v.size
    rows = np.concatenate([rows_u.ravel(), rows_v.ravel()])
    cols = np.concatenate([np.stack(cols_u, axis=-1).reshape(-1, 9),
                           np.stack(cols_v, axis=-1).reshape(-1, 9)])
    row_free = free[rows]
    keep = np.flatnonzero((cols >= 0) & free[cols] & row_free[:, None])

    slot = arange(0, 9)
    at = np.concatenate([slot * nru + arange(0, nru)[:, None],
                         slot * nrv + arange(0, nrv)[:, None]])
    gather = at.ravel()[keep]
    split = int(np.searchsorted(keep, 9 * nru))
    indices = (np.cumsum(free, dtype=np.int32) - 1)[cols.ravel()[keep]]
    counts = np.bincount(keep // 9, minlength=rows.size)[row_free]
    indptr = np.zeros(counts.size + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    slot = np.full(rows.size, 6)
    slot[:nru] = 2
    diag = np.searchsorted(
        keep, (9 * np.arange(rows.size) + slot)[row_free]).astype(np.int32)
    return indptr, indices, gather, split, diag


def _normal_factor(n):
    """Prolongation along a face's normal, n + 1 coarse faces to 2n + 1."""
    i = np.arange(n + 1)
    rows = np.concatenate([2 * i, 2 * i[:-1] + 1, 2 * i[1:] - 1])
    cols = np.concatenate([i, i[:-1], i[1:]])
    vals = np.concatenate([np.ones(n + 1), np.full(2 * n, 0.5)])
    return sparse.csr_matrix((vals, (rows, cols)), shape=(2 * n + 1, n + 1))


def _tangent_factor(m):
    """Prolongation along a face's tangent, m coarse faces to 2m, with the
    wall clamp (duplicates at the walls are summed)."""
    j = np.arange(m)
    rows = np.concatenate([2 * j, 2 * j + 1, 2 * j, 2 * j + 1])
    cols = np.concatenate([j, j, np.maximum(j - 1, 0),
                           np.minimum(j + 1, m - 1)])
    vals = np.repeat([0.75, 0.25], 2 * m)
    return sparse.csr_matrix((vals, (rows, cols)), shape=(2 * m, m))


def transfer(coarse, fine_free, coarse_free):
    """The stored prolongation from Kronecker products, ``block_diag`` and
    boolean row and column slicing."""
    nx, ny = coarse.nx, coarse.ny
    P = sparse.block_diag(
        [sparse.kron(_normal_factor(nx), _tangent_factor(ny)),
         sparse.kron(_tangent_factor(nx), _normal_factor(ny))], format="csr")
    return P[fine_free][:, coarse_free]


def _prolong_component(c, f):
    """One face component from a coarse grid into f on the fine one, with
    the face normal along axis 0: linear along the normal, 3/4-1/4 along
    the tangent.  Past a wall the tangent neighbour is the face itself, so
    constants are kept."""
    even, odd = f[0::2, 0::2], f[0::2, 1::2]
    np.multiply(c, 0.75, out=even)
    even[:, 1:] += 0.25 * c[:, :-1]
    even[:, 0] += 0.25 * c[:, 0]
    np.multiply(c, 0.75, out=odd)
    odd[:, :-1] += 0.25 * c[:, 1:]
    odd[:, -1] += 0.25 * c[:, -1]
    mid = f[1::2]
    np.add(f[0:-2:2], f[2::2], out=mid)
    mid *= 0.5


def prolong(coarse, x):
    """Every face of ``coarse`` to every face of the grid twice as fine,
    matrix-free: the operator that ``momentum._transfer`` stores over the
    free faces, and whose transpose ``momentum._restrict`` applies."""
    nx, ny = coarse.nx, coarse.ny
    nu, nu_fine = (nx + 1) * ny, (2 * nx + 1) * 2 * ny
    out = np.empty(nu_fine + 2 * nx * (2 * ny + 1))
    _prolong_component(x[:nu].reshape(nx + 1, ny),
                       out[:nu_fine].reshape(2 * nx + 1, 2 * ny))
    _prolong_component(x[nu:].reshape(nx, ny + 1).T,
                       out[nu_fine:].reshape(2 * nx, 2 * ny + 1).T)
    return out
