import numpy as np
import pytest

from penaltyflow.errors import CollarTooWide, ExtensionTraceError
from penaltyflow.fields import (WALL, StaggeredGrid, divergence, wall_along,
                               wall_line)
from penaltyflow.geometry import (Disc, DomainSpec, build_extension,
                                  corner_tapered, divergence_roundoff,
                                  resting_boundary, signed_distance,
                                  throughflow_boundary, wall_cutoff)
from test_checks import check_test

# properties kept once, as checks in penaltyflow.checks
test_classify_boundary_signs = check_test("boundary_classification_signs")
test_classify_boundary_partition = check_test("boundary_classification_signs")
test_signed_distance_disc = check_test("signed_distance_disc_exact")
test_signed_distance_rectangle = check_test(
    "signed_distance_rect_gradient_norm")
test_erode_disc_and_errors = check_test("erode_composition_identity")
test_erode_composition_identity = check_test("erode_composition_identity")
test_cutoff_profile = check_test("cutoff_profile_shape")
test_extension_zero_trace = check_test("extension_zero_trace")
test_extension_throughflow_all_clauses = check_test(
    "extension_throughflow_clauses")
test_rectangle_gradient_norm_away_from_kinks = check_test(
    "signed_distance_rect_gradient_norm")


def test_domain_rejects_wide_collar():
    with pytest.raises(CollarTooWide):
        DomainSpec(1.0, 1.0, 0.3)


def test_extension_point_beyond_outer_collar(grid64, domain):
    bc = throughflow_boundary(domain, grid64, 0.35, 1.0)
    u_ext, _ = build_extension(bc, domain, grid64)
    xu, yu = grid64.uface_xy()
    deep = domain.boundary_distance(xu, yu) > 2 * domain.h
    assert np.all(u_ext.u[deep] == 0.0)


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
    with pytest.raises(ExtensionTraceError):
        build_extension(bc, domain, grid64)


@pytest.mark.parametrize("wall", ["bottom", "right", "top", "left"])
def test_extension_tangential_trace_keeps_all_clauses(grid64, domain, wall):
    # a tapered sliding lid on one wall; the x <-> y mirror check cannot
    # see two walls that swap under it flip their slab signs together
    bc = resting_boundary(domain, grid64, 1.0)
    axis = WALL[wall][0]
    bc.ub[wall][:, 1 - axis] = 0.3 * corner_tapered(
        domain, wall_along(grid64, wall), 1.0)
    u_ext, rep = build_extension(bc, domain, grid64)
    assert rep.trace_error <= 1e-10
    assert rep.div_min_inner_collar >= -1e-12
    assert rep.max_outside_outer_collar == 0.0
    # the tangential part is represented near the wall (approximately):
    # the tangential component on the first line in, mid-wall, has the
    # trace's sign and about its size
    line = wall_line((u_ext.u, u_ext.v)[1 - axis], wall)
    assert line[line.size // 2] == pytest.approx(0.3, rel=0.35)


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
