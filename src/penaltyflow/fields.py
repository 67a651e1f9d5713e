"""Staggered-grid containers and discrete operators.

Layout (MAC): scalars (density, pressure, distance fields) live at cell
centers, velocity components on faces.  Arrays are indexed ``[i, j]`` with
``i`` along x and ``j`` along y:

    centers  (nx, ny)      at ((i+1/2)dx, (j+1/2)dy)
    u-faces  (nx+1, ny)    at (i dx, (j+1/2)dy)      x-velocity
    v-faces  (nx, ny+1)    at ((i+1/2)dx, j dy)      y-velocity
    nodes    (nx+1, ny+1)  at (i dx, j dy)

Exposed tensor fields (symmetric gradient, stress) are stored at cell
centers; the off-diagonal entry is evaluated at nodes and averaged back.
That single convention is used everywhere a tensor leaves this module.

Reductions are ``np.sum`` over whole arrays.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .errors import KernelUnresolved


@dataclass(frozen=True)
class StaggeredGrid:
    nx: int
    ny: int
    dx: float
    dy: float

    def __post_init__(self):
        if self.nx < 8 or self.ny < 8:
            raise ValueError("grid must be at least 8x8")
        if self.dx <= 0 or self.dy <= 0:
            raise ValueError("grid spacing must be positive")

    @property
    def Lx(self) -> float:
        return self.nx * self.dx

    @property
    def Ly(self) -> float:
        return self.ny * self.dy

    @property
    def cell_volume(self) -> float:
        return self.dx * self.dy

    # 1-d coordinate arrays
    def xc(self):
        return (np.arange(self.nx) + 0.5) * self.dx

    def yc(self):
        return (np.arange(self.ny) + 0.5) * self.dy

    def xf(self):
        return np.arange(self.nx + 1) * self.dx

    def yf(self):
        return np.arange(self.ny + 1) * self.dy

    # 2-d coordinate meshes, indexing 'ij' so arr[i, j] follows (x, y)
    def cell_xy(self):
        return np.meshgrid(self.xc(), self.yc(), indexing="ij")

    def uface_xy(self):
        return np.meshgrid(self.xf(), self.yc(), indexing="ij")

    def vface_xy(self):
        return np.meshgrid(self.xc(), self.yf(), indexing="ij")

    def node_xy(self):
        return np.meshgrid(self.xf(), self.yf(), indexing="ij")

    def shape(self, loc: str):
        return {
            "centers": (self.nx, self.ny),
            "ufaces": (self.nx + 1, self.ny),
            "vfaces": (self.nx, self.ny + 1),
            "nodes": (self.nx + 1, self.ny + 1),
        }[loc]


# The walls: the axis each closes and its end of it (0 low, -1 high), in
# the order two walls add into one corner cell.
WALL = {"left": (0, 0), "right": (0, -1), "bottom": (1, 0), "top": (1, -1)}


def wall_ends(axis: int):
    """The walls at the low and the high end of axis."""
    return tuple(w for end in (0, -1) for w in WALL if WALL[w] == (axis, end))


def wall_line(a, wall: str, depth: int = 0):
    """The wall's line of a cell, face or node array, ``depth`` lines in,
    as a view; of the face component normal to it, its boundary faces."""
    axis, end = WALL[wall]
    k = depth if end == 0 else -1 - depth
    return a[k] if axis == 0 else a[:, k]


def wall_spacing(grid: StaggeredGrid, wall: str):
    """(across, along): the spacings across the wall and along it, the
    length of its faces."""
    return (grid.dx, grid.dy) if WALL[wall][0] == 0 else (grid.dy, grid.dx)


def wall_along(grid: StaggeredGrid, wall: str, nodes: bool = False):
    """The coordinates along the wall of its face centres, or of its
    nodes."""
    if WALL[wall][0] == 0:
        return grid.yf() if nodes else grid.yc()
    return grid.xf() if nodes else grid.xc()


def wall_faces(grid: StaggeredGrid, wall: str) -> int:
    """The number of the wall's boundary faces."""
    return grid.ny if WALL[wall][0] == 0 else grid.nx


@dataclass
class VectorField:
    grid: StaggeredGrid
    u: np.ndarray  # (nx+1, ny)
    v: np.ndarray  # (nx, ny+1)

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=np.float64)
        self.v = np.asarray(self.v, dtype=np.float64)
        if self.u.shape != self.grid.shape("ufaces"):
            raise ValueError("u array does not match u-face layout")
        if self.v.shape != self.grid.shape("vfaces"):
            raise ValueError("v array does not match v-face layout")

    @classmethod
    def zeros(cls, grid: StaggeredGrid):
        return cls(grid, np.zeros(grid.shape("ufaces")),
                   np.zeros(grid.shape("vfaces")))

    def check_finite(self):
        if not (np.all(np.isfinite(self.u)) and np.all(np.isfinite(self.v))):
            raise FloatingPointError("non-finite entries in vector field")
        return self

    def copy(self):
        return VectorField(self.grid, self.u.copy(), self.v.copy())

    def max_speed(self) -> float:
        mu = float(np.max(np.abs(self.u))) if self.u.size else 0.0
        mv = float(np.max(np.abs(self.v))) if self.v.size else 0.0
        return max(mu, mv)


def divergence(grid: StaggeredGrid, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Conservative cell-centered divergence of a face velocity field."""
    return (u[1:, :] - u[:-1, :]) / grid.dx + (v[:, 1:] - v[:, :-1]) / grid.dy


def cell_gradient(grid: StaggeredGrid, f: np.ndarray):
    """Centered gradient of a cell field at cell centers (one-sided at
    the first/last cells)."""
    return _centered(f, grid.dx), _centered(f.T, grid.dy).T


def _centered(f, h):
    """Centered difference of f along axis 0 over spacing h, one-sided at
    the first and last rows.  Like every kernel written for axis 0, it
    serves axis 1 on transposed views: the result takes f's memory layout,
    so a transposed call walks memory as a call on the other axis would."""
    g = np.empty_like(f)
    g[1:-1] = (f[2:] - f[:-2]) / (2 * h)
    g[0] = (f[1] - f[0]) / h
    g[-1] = (f[-1] - f[-2]) / h
    return g


def _node_difference(f, h, lo=None, hi=None):
    """Difference along axis 1 over spacing h of a face component whose
    normal is axis 0 (u: du/dy), at the nodes; one-sided at the two wall
    rows.  With the wall traces lo, hi the wall difference spans the
    half cell to the wall, so affine fields stay exact.  dv/dx is this
    function of v.T and dx, transposed."""
    d = np.empty_like(f, shape=(f.shape[0], f.shape[1] + 1))
    d[:, 1:-1] = (f[:, 1:] - f[:, :-1]) / h
    if lo is None:
        d[:, 0] = (f[:, 1] - f[:, 0]) / h
    else:
        d[:, 0] = (f[:, 0] - lo) / (0.5 * h)
    if hi is None:
        d[:, -1] = (f[:, -1] - f[:, -2]) / h
    else:
        d[:, -1] = (hi - f[:, -1]) / (0.5 * h)
    return d


def sym_gradient(grid: StaggeredGrid, u: np.ndarray, v: np.ndarray,
                 wall_tangential=None):
    """Symmetric velocity gradient as cell tensors (D11, D12, D22).

    The off-diagonal part is formed at nodes (one-sided at walls, using
    tangential wall traces when provided) and averaged to cells; exact for
    affine fields, so rigid fields land in the kernel to round-off.

    wall_tangential: optional dict, wall -> the tangential velocity at the
    wall's nodes (``geometry.BoundaryData.tangential_traces``).
    """
    d11 = (u[1:, :] - u[:-1, :]) / grid.dx
    d22 = (v[:, 1:] - v[:, :-1]) / grid.dy
    dyn, dxn = _node_differences(grid, u, v, wall_tangential)
    return d11, _to_cells(0.5 * (dyn + dxn)), d22


def full_gradient(grid: StaggeredGrid, u: np.ndarray, v: np.ndarray,
                  wall_tangential=None):
    """Velocity gradient (dudx, dudy, dvdx, dvdy) at cell centers, and the
    off-diagonal entry D12 of ``sym_gradient``.  The symmetric gradient's
    D11 and D22 are dudx and dvdy, and the divergence is dudx + dvdy, bit
    for bit."""
    dudx = (u[1:, :] - u[:-1, :]) / grid.dx
    dvdy = (v[:, 1:] - v[:, :-1]) / grid.dy
    dyn, dxn = _node_differences(grid, u, v, wall_tangential)
    return (dudx, _to_cells(dyn), _to_cells(dxn), dvdy,
            _to_cells(0.5 * (dyn + dxn)))


def _node_differences(grid, u, v, wall_tangential):
    """du/dy and dv/dx at nodes (``_node_difference``), each against the
    tangential traces of the walls at the ends of its difference axis."""
    t = wall_tangential or {}
    (ulo, uhi), (vlo, vhi) = ([t.get(w) for w in wall_ends(axis)]
                              for axis in (1, 0))
    return (_node_difference(u, grid.dy, ulo, uhi),
            _node_difference(v.T, grid.dx, vlo, vhi).T)


def _to_cells(nodes):
    """Node field to cells: the mean of each cell's four corners."""
    return 0.25 * (nodes[:-1, :-1] + nodes[1:, :-1]
                   + nodes[:-1, 1:] + nodes[1:, 1:])


def integrate(grid: StaggeredGrid, values: np.ndarray, mask=None) -> float:
    """Mask-weighted cell integral."""
    if mask is not None:
        vals = np.where(mask, values, 0.0)
    else:
        vals = values
    return float(np.sum(vals)) * grid.cell_volume


def stencil_csr(cols, vals, has, ncols, rows=None):
    """The CSR matrix of a fixed stencil, given slot-major: row r holds
    column cols[s, r] with value vals[s, r] for each slot s where
    has[s, r] (vals and has broadcast against cols).  A mask ``rows``
    keeps only those rows.  The slots of each row must be in increasing
    column order, so nothing needs sorting: the transposed tables list
    the entries in CSR order."""
    vals = np.broadcast_to(vals, cols.shape)
    has = np.broadcast_to(has, cols.shape)
    if rows is not None:
        has = has & rows
    ends = np.cumsum(has.sum(axis=0, dtype=np.int32), dtype=np.int32)
    indptr = np.zeros(1 + (ends.size if rows is None
                           else np.count_nonzero(rows)), dtype=np.int32)
    indptr[1:] = ends if rows is None else ends[rows]
    return sparse.csr_matrix((vals.T[has.T], cols.T[has.T], indptr),
                             shape=(indptr.size - 1, ncols))


def cg(A, b, x0, M, rtol, maxiter, r=None):
    """``scipy.sparse.linalg.cg`` with atol = 0, operation for operation and
    so bit for bit, without its operator wrappers: A is used as ``A @ p``,
    M is a callable z = M(r), and ``r``, if given, is b - A x0 and is
    overwritten.  Returns (x, info, iterations); info is 0 on convergence
    and maxiter when the iterations run out."""
    bnorm = np.linalg.norm(b)
    if bnorm == 0:
        return b.copy(), 0, 0
    atol = rtol * float(bnorm)
    x = x0.copy()
    if r is None:
        r = b - A @ x if x.any() else b.copy()
    w = np.empty_like(x)      # alpha p, then alpha q
    for it in range(maxiter):
        if np.linalg.norm(r) < atol:
            return x, 0, it
        z = M(r)
        rho = np.dot(r, z)
        if it:
            p *= rho / rho_prev
            p += z
        else:
            p = z.copy()
        q = A @ p
        alpha = rho / np.dot(p, q)
        x += np.multiply(alpha, p, out=w)
        r -= np.multiply(alpha, q, out=w)
        rho_prev = rho
    return x, maxiter, maxiter


def jacobi(diagonal):
    """The Jacobi preconditioner for ``cg``.  Not a bound ``dinv.__mul__``:
    numpy may write a product into an operand that one reference holds."""
    dinv = 1.0 / diagonal
    return lambda r: dinv * r


@dataclass(frozen=True)
class MollifierKernel:
    """Compact, radially symmetric, unit-mass smoothing stencil.

    ``spectra`` holds the stencil's real FFT for each padded shape that
    ``mollify`` has used; a run builds one kernel and fills it once per
    field shape."""

    radius: float
    dx: float
    dy: float
    weights: np.ndarray = field(repr=False, default=None)
    spectra: dict = field(default_factory=dict, compare=False, repr=False)

    @classmethod
    def build(cls, radius: float, dx: float, dy: float) -> "MollifierKernel":
        if radius < 2 * max(dx, dy):
            raise KernelUnresolved(
                f"mollifier radius {radius} under-resolved: needs >= 2*max(dx,dy)"
                f" = {2 * max(dx, dy)}")
        mx = int(np.floor(radius / dx))
        my = int(np.floor(radius / dy))
        ii, jj = np.meshgrid(np.arange(-mx, mx + 1), np.arange(-my, my + 1),
                             indexing="ij")
        q = np.hypot(ii * dx, jj * dy) / radius
        # Wendland-type C2 bump; sampled then renormalized to unit sum.
        w = np.where(q < 1.0, (1.0 - q) ** 4 * (1.0 + 4.0 * q), 0.0)
        w /= np.sum(w)
        return cls(radius=radius, dx=dx, dy=dy, weights=w)


def _fft_length(n: int) -> int:
    """The smallest length >= n whose only prime factors are 2, 3 and 5."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def mollify(values: np.ndarray, kernel: MollifierKernel) -> np.ndarray:
    """Discrete convolution with zero extension outside the domain.

    Computed as a product of real FFTs over the field zero-padded to at
    least ``shape + 2m`` on each axis (m the stencil's half-width, so the
    linear convolution does not wrap around), rounded up to a length with
    no prime factor above 5; the result is cropped at the stencil centre.
    It matches the direct convolution to round-off (a few ulps of
    ``max|values|``)."""
    f = np.asarray(values, dtype=np.float64)
    w = kernel.weights
    pad = tuple(_fft_length(n + k - 1) for n, k in zip(f.shape, w.shape))
    spectrum = kernel.spectra.get(pad)
    if spectrum is None:
        spectrum = kernel.spectra[pad] = np.fft.rfft2(w, pad)
    full = np.fft.irfft2(np.fft.rfft2(f, pad) * spectrum, pad)
    mx, my = w.shape[0] // 2, w.shape[1] // 2
    return full[mx:mx + f.shape[0], my:my + f.shape[1]]


def interp_uface(grid: StaggeredGrid, u: np.ndarray, x, y):
    """Bilinear sample of a u-face array at points (x, y)."""
    return _bilinear(u, np.asarray(x) / grid.dx,
                     np.asarray(y) / grid.dy - 0.5)


def interp_vface(grid: StaggeredGrid, v: np.ndarray, x, y):
    return _bilinear(v, np.asarray(x) / grid.dx - 0.5,
                     np.asarray(y) / grid.dy)


def interp_cell(grid: StaggeredGrid, f: np.ndarray, x, y):
    return _bilinear(f, np.asarray(x) / grid.dx - 0.5,
                     np.asarray(y) / grid.dy - 0.5)


def _bilinear(a: np.ndarray, fi, fj):
    ni, nj = a.shape
    i0 = np.clip(np.floor(fi).astype(int), 0, ni - 2)
    j0 = np.clip(np.floor(fj).astype(int), 0, nj - 2)
    ti = np.clip(fi - i0, 0.0, 1.0)
    tj = np.clip(fj - j0, 0.0, 1.0)
    return ((1 - ti) * (1 - tj) * a[i0, j0] + ti * (1 - tj) * a[i0 + 1, j0]
            + (1 - ti) * tj * a[i0, j0 + 1] + ti * tj * a[i0 + 1, j0 + 1])


def faces_to_centers(grid: StaggeredGrid, u: np.ndarray, v: np.ndarray):
    uc = 0.5 * (u[:-1, :] + u[1:, :])
    vc = 0.5 * (v[:, :-1] + v[:, 1:])
    return uc, vc


# ---------------------------------------------------------------------------
# Snapshot I/O: a text header plus raw float64, and VTK image data in base64.
# ---------------------------------------------------------------------------

FIELD_HEADER = b"penaltyflow-field 2"


def write_field(path, grid: StaggeredGrid, values: np.ndarray, loc: str):
    """Header lines ``penaltyflow-field 2``, ``nx ny``, ``dx dy`` (repr)
    and ``loc``, then the values as C-order ``<f8`` bytes."""
    header = f"{grid.nx} {grid.ny}\n{grid.dx!r} {grid.dy!r}\n{loc}\n"
    with open(path, "wb") as f:
        f.write(FIELD_HEADER + b"\n" + header.encode())
        f.write(np.asarray(values, dtype="<f8").tobytes())


def read_field(path):
    """(grid, values, loc) of a ``write_field`` file; values is writable.
    ValueError on a foreign or other-version file or a short/long payload."""
    with open(path, "rb") as f:
        if f.readline().split() != FIELD_HEADER.split():
            raise ValueError(f"{path}: not a {FIELD_HEADER.decode()} file")
        nx, ny = (int(t) for t in f.readline().split())
        dx, dy = (float(t) for t in f.readline().split())
        loc = f.readline().decode().strip()
        payload = bytearray(f.read())
    grid = StaggeredGrid(nx, ny, dx, dy)
    shape = grid.shape(loc)
    if len(payload) != 8 * shape[0] * shape[1]:
        raise ValueError(f"{path}: {len(payload)} bytes of {loc} data for "
                         f"a {shape} array")
    return grid, np.frombuffer(payload, dtype="<f8").reshape(shape), loc


def write_vti(path, grid: StaggeredGrid, cell_fields: dict):
    """VTK ImageData with one binary CellData array per entry."""
    nx, ny = grid.nx, grid.ny
    lines = [
        '<?xml version="1.0"?>',
        '<VTKFile type="ImageData" version="0.1" byte_order="LittleEndian">',
        f'  <ImageData WholeExtent="0 {nx} 0 {ny} 0 0" Origin="0 0 0" '
        f'Spacing="{grid.dx!r} {grid.dy!r} 1">',
        f'    <Piece Extent="0 {nx} 0 {ny} 0 0">',
        '      <CellData>',
    ]
    for name, arr in cell_fields.items():
        # VTK cell ordering is x-fastest; an inline binary array is the
        # base64 of its UInt32 byte count followed by the data
        data = np.asarray(arr, dtype="<f8").T.tobytes()
        blob = base64.b64encode(np.array(len(data), "<u4").tobytes() + data)
        lines.append(f'        <DataArray type="Float64" Name="{name}" '
                     f'format="binary">{blob.decode()}</DataArray>')
    lines += ['      </CellData>', '    </Piece>', '  </ImageData>',
              '</VTKFile>', '']
    with open(path, "w") as f:
        f.write("\n".join(lines))
