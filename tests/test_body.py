import numpy as np
import pytest

from penaltyflow.body import (body_step, collision_guard, make_disc_body,
                              project_rigid, rigid_velocity_field)
from penaltyflow.errors import DegenerateMarkers, MarkerEscaped
from penaltyflow.fields import MollifierKernel, StaggeredGrid, VectorField
from penaltyflow.geometry import DomainSpec, signed_distance
from test_checks import check_test

# properties kept once, as checks in penaltyflow.checks
test_project_rigid_identity_and_exact_motion = check_test(
    "procrustes_recovery_and_noise")
test_project_rigid_noise_defect_and_oracle = check_test(
    "procrustes_recovery_and_noise")
test_body_step_uniform_translation_exact = check_test("body_translation_exact")
test_body_step_rigid_rotation_matches_midpoint_map = check_test(
    "body_rotation_second_order")
test_isometry_drift_thousand_steps = check_test("body_isometry_drift_march")
test_chi_field_disc_values = check_test("chi_sign_and_equivariance")
test_collision_guard_margins = check_test("collision_guard_arithmetic")
test_t0_lower_bound_formula = check_test("t0_bound_formula")


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def test_markers_consistent_with_pose():
    body = make_disc_body((0.4, 0.6), 0.15, 0.03, 2.0)
    m = body.markers()
    assert np.allclose(m.mean(axis=0), [0.4, 0.6], atol=1e-12)
    ring = body.boundary_markers()
    assert np.allclose(np.hypot(*(ring - body.X).T), 0.12, atol=1e-14)


def test_project_rigid_degenerate():
    line = np.stack([np.linspace(0, 1, 5), np.zeros(5)], axis=1)
    with pytest.raises(DegenerateMarkers):
        project_rigid(line, line)
    with pytest.raises(DegenerateMarkers):
        project_rigid(line[:2], line[:2])


@pytest.fixture
def transport_setup():
    g = StaggeredGrid(64, 64, 1 / 64, 1 / 64)
    dom = DomainSpec(1, 1, 0.1)
    k = MollifierKernel.build(0.05, g.dx, g.dy)
    return g, dom, k


def test_body_step_zero_velocity(transport_setup):
    g, dom, k = transport_setup
    body = make_disc_body((0.5, 0.5), 0.15, 0.05, 2.0)
    b1, info = body_step(g, dom, body, VectorField.zeros(g), k, 0.01)
    # the projection reconstructs the pose to round-off
    assert np.allclose(b1.X, body.X, atol=1e-15)
    assert abs(b1.theta - body.theta) <= 1e-14
    assert info.rigidity_defect <= 1e-13


def test_body_step_marker_escape(transport_setup):
    g, dom, k = transport_setup
    body = make_disc_body((0.08, 0.5), 0.05, 0.01, 2.0)
    with pytest.raises(MarkerEscaped):
        body_step(g, dom, body, VectorField.zeros(g), k, 0.01)


def test_chi_rigid_motion_equivariance(transport_setup):
    g, dom, k = transport_setup
    body = make_disc_body((0.5, 0.5), 0.15, 0.05, 2.0)
    rig = rigid_velocity_field(g, body.X, np.array([0.2, 0.1]), 1.2)
    dt = 0.01
    b1, _ = body_step(g, dom, body, rig, k, dt)
    # evaluate chi at points carried by the same rigid map: values agree
    pts = body.X[None, :] + np.array([[0.05, 0.0], [0.0, -0.08],
                                      [0.1, 0.1]])
    chi0 = signed_distance(body.core(), pts[:, 0], pts[:, 1])
    shift = rotation(b1.theta - body.theta)
    moved_pts = b1.X[None, :] + (pts - body.X[None, :]) @ shift.T
    chi1 = signed_distance(b1.core(), moved_pts[:, 0], moved_pts[:, 1])
    assert np.allclose(chi0, chi1, atol=1e-12)


def test_guard_change_bounded_by_speed(transport_setup):
    g, dom, k = transport_setup
    body = make_disc_body((0.5, 0.5), 0.12, 0.05, 2.0)
    vel = VectorField(g, np.full(g.shape("ufaces"), 0.3),
                      np.zeros(g.shape("vfaces")))
    dt = 0.01
    m0 = collision_guard(body, dom, 0.1, 0.05).margin
    b1, _ = body_step(g, dom, body, vel, k, dt)
    m1 = collision_guard(b1, dom, 0.1, 0.05).margin
    assert abs(m1 - m0) <= 0.3 * dt + 1e-12


