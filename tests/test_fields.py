import base64
import re
import struct
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import reference_builders as ref
from penaltyflow.body import rigid_velocity_field
from penaltyflow.errors import KernelUnresolved
from penaltyflow.fields import (MollifierKernel, ScalarField, StaggeredGrid,
                                VectorField, divergence, face_gradient,
                                full_gradient, integrate, interp_cell,
                                mollify, read_field, sym_gradient,
                                write_field, write_vti)


def test_grid_invariants():
    with pytest.raises(ValueError):
        StaggeredGrid(4, 24, 0.1, 0.1)
    g = StaggeredGrid(24, 32, 1 / 24, 1 / 32)
    assert g.Lx == pytest.approx(1.0)
    assert g.shape("centers") == (24, 32)
    assert g.shape("ufaces") == (25, 32)
    assert g.shape("vfaces") == (24, 33)


def test_field_containers_validate(grid24):
    with pytest.raises(ValueError):
        ScalarField(grid24, np.zeros((3, 3)))
    f = ScalarField(grid24, np.ones(grid24.shape("centers")))
    f.check_finite()
    f.values[0, 0] = np.inf
    with pytest.raises(FloatingPointError):
        f.check_finite()
    v = VectorField.zeros(grid24)
    assert v.max_speed() == 0.0


def test_divergence_linear_exact(grid24):
    xu, yu = grid24.uface_xy()
    xv, yv = grid24.vface_xy()
    assert np.max(np.abs(divergence(grid24, xu, -yv))) < 1e-12
    assert np.max(np.abs(divergence(grid24, xu, yv) - 2.0)) < 1e-12


def test_divergence_trig_second_order():
    errs = []
    for n in (32, 64, 128):
        g = StaggeredGrid(n, n, 1 / n, 1 / n)
        xu, _ = g.uface_xy()
        xc, _ = g.cell_xy()
        d = divergence(g, np.sin(xu), np.zeros(g.shape("vfaces")))
        errs.append(np.max(np.abs(d - np.cos(xc))))
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(rates > 1.9)


def test_div_of_gradient_is_laplacian(grid24, rng):
    f = rng.normal(size=grid24.shape("centers"))
    gx, gy = face_gradient(grid24, f)
    lap = divergence(grid24, gx, gy)
    ref = (f[2:, 1:-1] - 2 * f[1:-1, 1:-1] + f[:-2, 1:-1]) / grid24.dx ** 2 \
        + (f[1:-1, 2:] - 2 * f[1:-1, 1:-1] + f[1:-1, :-2]) / grid24.dy ** 2
    assert np.max(np.abs(lap[1:-1, 1:-1] - ref)) < 1e-11


def test_sym_gradient_rigid_kernel(grid24, rng):
    worst = 0.0
    for _ in range(100):
        vel = rigid_velocity_field(grid24, rng.uniform(0, 1, 2),
                                   rng.normal(size=2), rng.normal())
        for d in sym_gradient(grid24, vel.u, vel.v):
            worst = max(worst, float(np.max(np.abs(d))))
    assert worst <= 1e-12


def test_sym_gradient_affine_cases(grid24):
    xu, yu = grid24.uface_xy()
    xv, yv = grid24.vface_xy()
    d11, d12, d22 = sym_gradient(grid24, xu, yv)
    assert np.allclose(d11, 1.0, atol=1e-13)
    assert np.allclose(d22, 1.0, atol=1e-13)
    assert np.allclose(d12, 0.0, atol=1e-13)
    e11, e12, e22 = sym_gradient(grid24, yu, np.zeros_like(xv))
    assert np.allclose(e12, 0.5, atol=1e-13)
    assert np.allclose(e11, 0.0, atol=1e-13)
    assert np.allclose(e22, 0.0, atol=1e-13)


@pytest.mark.parametrize("traces", [False, True])
def test_full_gradient_holds_the_strain_bit_for_bit(grid24, rng, traces):
    # the energy ledger reads D11, D22, D12 and div off one full_gradient
    u = rng.normal(size=grid24.shape("ufaces"))
    v = rng.normal(size=grid24.shape("vfaces"))
    wt = None
    if traces:
        wt = tuple(rng.normal(size=n) for n in (25, 25, 25, 25))
    dudx, _, _, dvdy, d12 = full_gradient(grid24, u, v, wt)
    want = sym_gradient(grid24, u, v, wt)
    for got, ref in zip((dudx, d12, dvdy), want):
        assert np.array_equal(got, ref)
    assert np.array_equal(dudx + dvdy, divergence(grid24, u, v))


def test_mollifier_kernel_invariants(grid64):
    k = MollifierKernel.build(0.05, grid64.dx, grid64.dy)
    w = k.weights
    assert np.all(w >= 0)
    assert abs(np.sum(w) - 1.0) < 1e-12
    assert np.allclose(w, w[::-1, :]) and np.allclose(w, w[:, ::-1])
    mx = (w.shape[0] - 1) // 2
    my = (w.shape[1] - 1) // 2
    ii, jj = np.meshgrid(np.arange(-mx, mx + 1), np.arange(-my, my + 1),
                         indexing="ij")
    rr = np.hypot(ii * grid64.dx, jj * grid64.dy)
    order = np.argsort(rr.ravel(), kind="stable")
    assert np.all(np.diff(w.ravel()[order]) <= 1e-15)
    assert np.all(w.ravel()[rr.ravel() > k.radius] == 0.0)


def test_mollifier_under_resolved(grid24):
    with pytest.raises(KernelUnresolved):
        MollifierKernel.build(1.5 * grid24.dx, grid24.dx, grid24.dy)


def test_mollify_constant_affine_monotone(grid64, rng):
    k = MollifierKernel.build(0.06, grid64.dx, grid64.dy)
    xc, yc = grid64.cell_xy()
    interior = (np.minimum(np.minimum(xc, 1 - xc),
                           np.minimum(yc, 1 - yc)) > 0.08)
    const = mollify(np.full(grid64.shape("centers"), 2.5), k)
    assert np.max(np.abs(const[interior] - 2.5)) < 1e-12
    aff = 1.0 + 2.0 * xc - 0.5 * yc
    assert np.max(np.abs((mollify(aff, k) - aff)[interior])) < 1e-10
    f = np.abs(rng.normal(size=grid64.shape("centers")))
    assert np.min(mollify(f, k)) >= 0.0


@pytest.mark.parametrize("nx, ny, r", [
    (48, 48, 0.05),     # sweep48: 5x5 stencil
    (96, 96, 0.03),     # free96 and held96: 5x5
    (192, 192, 0.03),   # stiff192: 11x11
    (40, 24, 0.1),      # dx != dy: 9x5
])
def test_mollify_matches_direct_convolution(nx, ny, r, rng):
    g = StaggeredGrid(nx, ny, 1 / nx, 1 / ny)
    k = MollifierKernel.build(r, g.dx, g.dy)
    for loc in ("ufaces", "vfaces"):
        f = rng.normal(size=g.shape(loc))
        got = mollify(f, k)
        assert got.shape == f.shape
        err = np.max(np.abs(got - ref.mollify_direct(f, k)))
        assert err <= 1e-14 * np.max(np.abs(f))


def test_integrate_values(grid24):
    ones = np.ones(grid24.shape("centers"))
    assert integrate(grid24, ones) == pytest.approx(1.0, abs=1e-12)
    assert integrate(grid24, 0 * ones) == 0.0
    xc, _ = grid24.cell_xy()
    assert integrate(grid24, xc) == pytest.approx(0.5, abs=grid24.dx ** 2)


def test_integrate_mask_additivity(grid24, rng):
    # additive over disjoint masks to reduction round-off (float addition
    # is not associative, so bitwise equality is unattainable for any
    # fixed summation order; determinism run-to-run is bitwise, below)
    f = rng.normal(size=grid24.shape("centers"))
    m = rng.normal(size=grid24.shape("centers")) > 0
    total = integrate(grid24, f)
    split = integrate(grid24, f, m) + integrate(grid24, f, ~m)
    scale = integrate(grid24, np.abs(f))
    assert abs(split - total) <= 8 * np.finfo(float).eps * scale
    assert integrate(grid24, f) == integrate(grid24, f)


def test_interp_cell_affine(grid24, rng):
    xc, yc = grid24.cell_xy()
    f = 2.0 + 3.0 * xc - 1.5 * yc
    pts = rng.uniform(0.2, 0.8, size=(40, 2))
    vals = interp_cell(grid24, f, pts[:, 0], pts[:, 1])
    assert np.allclose(vals, 2.0 + 3.0 * pts[:, 0] - 1.5 * pts[:, 1],
                       atol=1e-12)


def test_snapshot_roundtrip(tmp_path, grid24, rng):
    vals = rng.normal(size=grid24.shape("centers"))
    path = tmp_path / "field.dat"
    write_field(path, grid24, vals, "centers")
    g2, vals2, loc = read_field(path)
    assert loc == "centers"
    assert g2 == grid24
    assert np.array_equal(vals, vals2)


# edge values a text format would be tempted to round or respell
EDGE_VALUES = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, np.inf, -np.inf,
               1.7e308, -1.7e308, 1 / 3]


def test_snapshot_roundtrip_bitwise_every_layout(tmp_path, rng):
    grid = StaggeredGrid(10, 8, 0.1, 1 / 7)
    for loc in ("centers", "ufaces", "vfaces"):
        vals = rng.normal(size=grid.shape(loc))
        vals.flat[:len(EDGE_VALUES)] = EDGE_VALUES
        path = tmp_path / f"{loc}.dat"
        write_field(path, grid, vals, loc)
        g2, vals2, loc2 = read_field(path)
        assert (g2, loc2) == (grid, loc)
        assert vals2.shape == vals.shape
        assert np.array_equal(vals2.view(np.uint64), vals.view(np.uint64))
        vals2[0, 0] = 1.0  # a writable array, not a view of the file bytes


def test_read_field_rejects_foreign_old_and_truncated(tmp_path, grid24):
    path = tmp_path / "f.dat"
    write_field(path, grid24, np.ones(grid24.shape("centers")), "centers")
    good = path.read_bytes()
    bad = {
        "magic": good.replace(b"penaltyflow-field", b"penaltyflow-fjeld", 1),
        "version 1": b"penaltyflow-field 1\n24 24\n"
                     b"0.041666666666666664 0.041666666666666664\n"
                     b"centers\n" + b"1.0 " * 23 + b"1.0\n",
        "truncated": good[:-8],
        "overlong": good + b"\0" * 8,
    }
    for case, data in bad.items():
        path.write_bytes(data)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            read_field(path)


def test_write_vti_binary_arrays(tmp_path, rng):
    grid = StaggeredGrid(10, 8, 0.1, 1 / 7)
    fields = {"rho": rng.normal(size=(10, 8)),
              "chi": np.arange(80.0).reshape(10, 8)}
    fields["rho"].flat[:len(EDGE_VALUES)] = EDGE_VALUES
    path = tmp_path / "f.vti"
    write_vti(path, grid, fields)
    image = ET.parse(path).getroot().find("ImageData")
    assert image.get("WholeExtent") == "0 10 0 8 0 0"
    assert image.get("Spacing") == f"0.1 {1 / 7!r} 1"
    arrays = image.find("Piece").find("CellData").findall("DataArray")
    assert [a.get("Name") for a in arrays] == list(fields)
    for a in arrays:
        assert (a.get("type"), a.get("format")) == ("Float64", "binary")
        raw = base64.b64decode(a.text.strip(), validate=True)
        (nbytes,) = struct.unpack("<I", raw[:4])
        assert nbytes == len(raw) - 4 == 8 * 80
        data = np.frombuffer(raw[4:], dtype="<f8")
        want = fields[a.get("Name")].T.ravel()  # x-fastest cell order
        assert np.array_equal(data.view(np.uint64), want.view(np.uint64))
