import numpy as np
import pytest

from penaltyflow.errors import (CollarTooWide, ErosionEmpty,
                                ExtensionTraceError, InvalidShape)
from penaltyflow.fields import StaggeredGrid, divergence
from penaltyflow.geometry import (Disc, DomainSpec, Rectangle,
                                  build_extension, classify_boundary,
                                  corner_tapered, divergence_roundoff,
                                  erode, resting_boundary,
                                  signed_distance, throughflow_boundary,
                                  wall_cutoff)


def test_domain_rejects_wide_collar():
    with pytest.raises(CollarTooWide):
        DomainSpec(1.0, 1.0, 0.3)


def test_classify_boundary_signs(grid64, domain):
    bc = resting_boundary(domain, grid64, 1.0)
    # left wall, u_B = (+0.2, 0), n = (-1, 0): entering -> inflow
    bc.ub["left"][:, 0] = 0.2
    # right wall, same vector, n = (+1, 0): leaving -> outflow
    bc.ub["right"][:, 0] = 0.2
    im, om = classify_boundary(bc.ub)
    assert np.all(im["left"])
    assert np.all(om["right"])
    # resting wall: u_B . n = 0 goes to the outflow side
    assert np.all(om["top"]) and np.all(om["bottom"])


def test_classify_boundary_partition(grid24, domain, rng):
    bc = resting_boundary(domain, grid24, 1.0)
    for w in bc.ub:
        bc.ub[w][:] = rng.normal(size=bc.ub[w].shape)
    im, om = classify_boundary(bc.ub)
    for w in im:
        assert np.all(im[w] ^ om[w]), "every face in exactly one mask"


def test_signed_distance_disc():
    d = Disc(0.3, 0.4, 0.15)
    assert signed_distance(d, 0.3, 0.4) == pytest.approx(0.15, abs=1e-15)
    assert signed_distance(d, 0.45, 0.4) == pytest.approx(0.0, abs=1e-15)
    assert signed_distance(d, 0.55, 0.4) == pytest.approx(-0.1, abs=1e-15)


def test_signed_distance_rectangle():
    r = Rectangle(0.0, 0.0, 1.0, 2.0)
    assert signed_distance(r, 0.5, 1.0) == pytest.approx(0.5)
    assert signed_distance(r, 0.0, 1.0) == pytest.approx(0.0)
    assert signed_distance(r, -0.3, 1.0) == pytest.approx(-0.3)
    # outside near a corner: true euclidean distance
    assert signed_distance(r, -0.3, -0.4) == pytest.approx(-0.5)


def test_erode_disc_and_errors():
    d = Disc(0.5, 0.5, 0.15)
    assert erode(d, 0.03).radius == pytest.approx(0.12, abs=1e-15)
    assert erode(d, 0.0) == d
    with pytest.raises(ErosionEmpty):
        erode(d, 0.15)
    with pytest.raises(InvalidShape):
        Disc(0.5, 0.5, 0.0)


def test_erode_composition_identity(rng):
    d = Disc(0.5, 0.5, 0.15)
    e = erode(d, 0.04)
    pts = rng.uniform(0, 1, size=(100, 2))
    assert np.allclose(signed_distance(e, pts[:, 0], pts[:, 1]),
                       signed_distance(d, pts[:, 0], pts[:, 1]) - 0.04,
                       atol=1e-14)


def test_cutoff_profile(domain):
    xi = wall_cutoff(domain)
    d = np.linspace(0, 0.25, 501)
    v = xi.value(d)
    assert np.all(v[d <= 0.05] == 0.0)
    assert np.all(v[d >= 0.1] == 1.0)
    assert np.all((v >= 0) & (v <= 1))
    # C1: difference quotients of the quintic stay bounded and match at
    # the junctions
    dv = np.diff(v) / np.diff(d)
    assert abs(dv[np.searchsorted(d, 0.05)] ) < 0.2
    assert abs(dv[-1]) == 0.0


def test_extension_zero_trace(grid64, domain):
    bc = resting_boundary(domain, grid64, 1.0)
    u_ext, rep = build_extension(bc, domain, grid64)
    assert u_ext.max_speed() == 0.0
    assert rep.trace_error == 0.0


def test_extension_throughflow_all_clauses(grid64, domain):
    bc = throughflow_boundary(domain, grid64, 0.2, 1.0)
    u_ext, rep = build_extension(bc, domain, grid64)
    # trace match at boundary faces
    assert rep.trace_error <= 1e-10
    assert np.allclose(u_ext.u[0, :], bc.ub["left"][:, 0], atol=1e-12)
    assert np.allclose(u_ext.u[-1, :], bc.ub["right"][:, 0], atol=1e-12)
    # nonnegative discrete divergence in the inner collar
    div = divergence(grid64, u_ext.u, u_ext.v)
    inner = domain.collar_mask(grid64, domain.h, "centers")
    assert float(np.min(div[inner])) >= -1e-12
    # identically zero outside the outer collar
    far_u = ~domain.collar_mask(grid64, 2 * domain.h, "ufaces")
    far_v = ~domain.collar_mask(grid64, 2 * domain.h, "vfaces")
    assert np.all(u_ext.u[far_u] == 0.0)
    assert np.all(u_ext.v[far_v] == 0.0)


def test_extension_point_beyond_outer_collar(grid64, domain):
    bc = throughflow_boundary(domain, grid64, 0.35, 1.0)
    u_ext, _ = build_extension(bc, domain, grid64)
    xu, yu = grid64.uface_xy()
    deep = domain.boundary_distance(xu, yu) > 2 * domain.h
    assert np.all(u_ext.u[deep] == 0.0)


@pytest.mark.parametrize("scale,label", [(1.7, "net outflow"),
                                         (0.4, "net inflow")])
def test_extension_unbalanced_clauses(grid64, domain, scale, label):
    bc = throughflow_boundary(domain, grid64, 0.2, 1.0)
    bc.ub["right"][:, 0] *= scale
    bc.in_mask, bc.out_mask = classify_boundary(bc.ub)
    u_ext, rep = build_extension(bc, domain, grid64)
    assert rep.trace_error <= 1e-10, label
    assert rep.div_min_inner_collar >= -1e-12, label
    assert rep.max_outside_outer_collar == 0.0, label


@pytest.mark.parametrize("n,speed", [(48, 1.0), (48, 10.0), (96, 1.0),
                                     (96, 2.0), (96, 5.0), (192, 1.0),
                                     (192, 2.0)])
def test_extension_divergence_guard_scales_with_data(domain, n, speed):
    # the divergence round-off grows with the field and with 1/dx; an
    # absolute -1e-12 guard rejected valid data at 48^2 speed 10, 96^2
    # speed 2 and 192^2 speed 1
    grid = StaggeredGrid(n, n, 1.0 / n, 1.0 / n)
    bc = throughflow_boundary(domain, grid, speed, 1.0)
    u_ext, rep = build_extension(bc, domain, grid)
    assert rep.div_roundoff == divergence_roundoff(
        grid, rep.max_speed + 1.0 + speed)
    # balanced data are a pure discrete curl: the bound holds everywhere
    div = divergence(grid, u_ext.u, u_ext.v)
    assert np.max(np.abs(div)) <= rep.div_roundoff
    assert rep.div_min_inner_collar >= -rep.div_roundoff
    assert rep.div_roundoff < 1e-9


def test_extension_divfree_part_is_exact(grid64, domain):
    # balanced data ride on the streamfunction: divergence vanishes
    # everywhere, not only in the collar
    bc = throughflow_boundary(domain, grid64, 0.2, 1.0)
    u_ext, _ = build_extension(bc, domain, grid64)
    div = divergence(grid64, u_ext.u, u_ext.v)
    assert np.max(np.abs(div)) < 1e-12


def test_extension_support_clears_penalty_cutoff(grid64, domain):
    # balanced or net-outflow extensions live inside U_{h/2}, where the
    # viscosity cutoff vanishes
    bc = throughflow_boundary(domain, grid64, 0.2, 1.0)
    u_ext, _ = build_extension(bc, domain, grid64)
    xi = wall_cutoff(domain)
    xu, yu = grid64.uface_xy()
    xv, yv = grid64.vface_xy()
    assert np.all(u_ext.u[xi.value(domain.boundary_distance(xu, yu)) > 0]
                  == 0.0)
    assert np.all(u_ext.v[xi.value(domain.boundary_distance(xv, yv)) > 0]
                  == 0.0)


def test_extension_rejects_untapered_corner_trace(grid64, domain):
    bc = resting_boundary(domain, grid64, 1.0)
    bc.ub["left"][:, 0] = 0.2  # no corner taper at all
    bc.in_mask, bc.out_mask = classify_boundary(bc.ub)
    with pytest.raises(ExtensionTraceError):
        build_extension(bc, domain, grid64)


def test_extension_tangential_trace_keeps_all_clauses(grid64, domain):
    bc = resting_boundary(domain, grid64, 1.0)
    amp = corner_tapered(domain, grid64.xc(), domain.Lx)
    bc.ub["top"][:, 0] = 0.3 * amp  # tapered sliding lid
    bc.in_mask, bc.out_mask = classify_boundary(bc.ub)
    u_ext, rep = build_extension(bc, domain, grid64)
    assert rep.trace_error <= 1e-10
    assert rep.div_min_inner_collar >= -1e-12
    assert rep.max_outside_outer_collar == 0.0
    # the tangential part is represented near the wall (approximately)
    j = grid64.ny - 1
    mid = grid64.nx // 2
    assert u_ext.u[mid, j] == pytest.approx(0.3, rel=0.35)


def test_rectangle_gradient_norm_away_from_kinks():
    g = StaggeredGrid(64, 64, 1 / 64, 1 / 64)
    x0, y0, x1, y1 = 0.2, 0.25, 0.8, 0.85
    r = Rectangle(x0, y0, x1, y1)
    xc, yc = g.cell_xy()
    f = signed_distance(r, xc, yc)
    gx = (f[2:, 1:-1] - f[:-2, 1:-1]) / (2 * g.dx)
    gy = (f[1:-1, 2:] - f[1:-1, :-2]) / (2 * g.dy)
    xi, yi = xc[1:-1, 1:-1], yc[1:-1, 1:-1]
    m = 2 * g.dx
    corner_fan = ((np.minimum(np.abs(xi - x0), np.abs(xi - x1)) < m)
                  | (xi < x0) | (xi > x1)) \
        & ((np.minimum(np.abs(yi - y0), np.abs(yi - y1)) < m)
           | (yi < y0) | (yi > y1))
    keep = (np.abs(f[1:-1, 1:-1]) > m) & ~corner_fan \
        & (np.abs((xi - x0) - (x1 - xi)) > m) \
        & (np.abs((xi - x0) - (yi - y0)) > m) \
        & (np.abs((xi - x0) - (y1 - yi)) > m) \
        & (np.abs((x1 - xi) - (yi - y0)) > m) \
        & (np.abs((x1 - xi) - (y1 - yi)) > m) \
        & (np.abs((yi - y0) - (y1 - yi)) > m)
    assert np.max(np.abs(np.hypot(gx, gy)[keep] - 1.0)) <= 5e-2 * g.dx


def test_disc_gradient_norm_away_from_center():
    # the disc's distance is curved, so the centered-difference error is
    # O(dx^2 / rho^2); exclude the curvature-limited neighborhood of the
    # medial point instead of a bare 2 dx
    g = StaggeredGrid(128, 128, 1 / 128, 1 / 128)
    d = Disc(0.5, 0.5, 0.4)
    xc, yc = g.cell_xy()
    f = signed_distance(d, xc, yc)
    gx = (f[2:, 1:-1] - f[:-2, 1:-1]) / (2 * g.dx)
    gy = (f[1:-1, 2:] - f[1:-1, :-2]) / (2 * g.dy)
    rho = np.hypot(xc - 0.5, yc - 0.5)[1:-1, 1:-1]
    keep = (rho > np.sqrt(15 * g.dx)) & (np.abs(f[1:-1, 1:-1]) > 2 * g.dx)
    assert np.max(np.abs(np.hypot(gx, gy)[keep] - 1.0)) <= 5e-2 * g.dx
