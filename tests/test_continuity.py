import numpy as np
import pytest

import reference_builders as ref
from penaltyflow.continuity import (PenaltyParams, _diffusion_step,
                                    _unit_diagonal, continuity_step,
                                    regularize_initial_density,
                                    renormalized_residual,
                                    smoothed_negative_part)
from penaltyflow.errors import CflViolation, HistoryTooShort
from penaltyflow.fields import StaggeredGrid, VectorField
from penaltyflow.geometry import (WALLS, DomainSpec, resting_boundary,
                                  throughflow_boundary)
from penaltyflow.momentum import Problem
from test_checks import check_test

# properties kept once, as checks in penaltyflow.checks
test_negative_part_paper_values = check_test("negative_part_properties_1e4")
test_negative_part_properties_bulk = check_test("negative_part_properties_1e4")
test_negative_part_limit_is_negative_part = check_test(
    "negative_part_sharpness_limit")
test_regularize_initial_density = check_test(
    "regularize_initial_density_band_and_bc")
test_pure_diffusion_conserves_mass = check_test(
    "continuity_neumann_conservation")
test_constant_state_is_steady = check_test("continuity_constant_state_steady")
test_positivity_under_cfl = check_test("continuity_positivity_random")
test_renormalized_b_identity_matches_budget = check_test(
    "renormalized_defect_cases")
test_renormalized_b_constant_is_exact = check_test("renormalized_defect_cases")
test_renormalized_b_square_constant_state = check_test(
    "renormalized_defect_cases")


def test_params_invariants():
    with pytest.raises(ValueError):
        PenaltyParams(gamma=1.4)
    with pytest.raises(ValueError):
        PenaltyParams(beta=4.0)
    with pytest.raises(ValueError):
        PenaltyParams(mu=0.1, lam=-0.2)
    PenaltyParams(n_solid=0.0)  # penalty off is legal (resting scenario)


def test_regularize_constant_state_untouched(grid24, domain, params):
    # resting walls with matching boundary density: the compatibility
    # condition collapses to a homogeneous Neumann condition that the
    # constant already satisfies
    bc = resting_boundary(domain, grid24, 1.0)
    rho = regularize_initial_density(grid24, np.ones(grid24.shape("centers")),
                                     params, bc)
    assert np.array_equal(rho, np.ones(grid24.shape("centers")))


# grids (nx, ny, Lx, Ly) and boundary data for the bitwise comparisons
_GRIDS = {"8x8": (8, 8, 1.0, 1.0), "24x9": (24, 9, 1.0, 0.6),
          "20x13": (20, 13, 1.3, 0.9), "96": (96, 96, 1.0, 1.0)}


def _grid_and_data(size, data):
    nx, ny, lx, ly = _GRIDS[size]
    grid = StaggeredGrid(nx, ny, lx / nx, ly / ny)
    domain = DomainSpec(lx, ly, 0.1)
    if data == "throughflow":
        return grid, throughflow_boundary(domain, grid, 0.4, 1.0)
    return grid, resting_boundary(domain, grid, 1.3)


@pytest.mark.parametrize("data", ["throughflow", "resting"])
@pytest.mark.parametrize("size", ["8x8", "24x9", "20x13", "96"])
def test_regularization_is_the_fixed_point_of_the_sweeps(size, data, params,
                                                         rng):
    grid, bc = _grid_and_data(size, data)
    shape = grid.shape("centers")
    pocket = rng.uniform(0.0, 3.0, shape)
    pocket[2:4, 2:4] = 0.0                         # a vacuum pocket
    pocket[-3, -3] = 1.0 / params.delta + 2.0      # above the cap
    for rho0 in (np.full(shape, 0.8), rng.uniform(0.2, 3.0, shape), pocket):
        ref.assert_bitwise(regularize_initial_density(grid, rho0, params, bc),
                           ref.regularize_by_sweeps(grid, rho0, params, bc))


@pytest.mark.parametrize("data", ["throughflow", "resting"])
@pytest.mark.parametrize("size", ["20x13", "96"])
def test_unit_diffusion_bitwise_equal_to_reference(size, data, params, rng):
    grid, bc = _grid_and_data(size, data)
    un = {w: bc.normal_trace(w) for w in WALLS}
    robin = {w: (smoothed_negative_part(un[w], params.bc_sharpness), un[w])
             for w in WALLS}
    d = _unit_diagonal(grid, params, robin)
    n = grid.nx * grid.ny
    for dt in (1e-3, 0.0137):
        A, M = _diffusion_step(grid, params, d, dt)
        A_ref = ref.diffusion_step_matrix(grid, params, robin, dt)
        if n < 1000:
            # entry by entry: the kernel's product with each unit vector is
            # the reference's column, structural zeros included
            columns = np.stack([A @ e for e in np.eye(n)], axis=1)
            ref.assert_bitwise(columns, A_ref.toarray())
        for x in rng.standard_normal((3, n)):
            ref.assert_bitwise(A @ x, A_ref @ x)
        ref.assert_bitwise(M(np.ones(n)), 1.0 / A_ref.diagonal())


def test_continuity_cfl_guard(grid24, domain, params):
    bc = throughflow_boundary(domain, grid24, 0.2, 1.0)
    vel = VectorField(grid24, np.full(grid24.shape("ufaces"), 1.0),
                      np.zeros(grid24.shape("vfaces")))
    with pytest.raises(CflViolation):
        continuity_step(Problem(grid24, domain, params, bc),
                        np.ones(grid24.shape("centers")), vel,
                        0.2 * grid24.dx / 0.2)


def test_budget_closes_for_any_boundary_data(grid24, domain, params, rng):
    bc = throughflow_boundary(domain, grid24, 0.3, 1.2)
    rho = np.abs(rng.normal(1.0, 0.5, size=grid24.shape("centers")))
    u = rng.normal(0, 0.2, size=grid24.shape("ufaces"))
    v = rng.normal(0, 0.2, size=grid24.shape("vfaces"))
    vel = VectorField(grid24, u, v)
    dt = 0.4 * grid24.dx / max(vel.max_speed(), 0.3)
    # a changing dt (CFL steps) must rescale the reused diffusion operator
    problem = Problem(grid24, domain, params, bc)
    for factor in (1.0, 0.5, 0.5, 1.0):
        _, info = continuity_step(problem, rho, vel, factor * dt)
        assert info.mass_residual <= 1e-10


def test_inflow_brings_in_boundary_density(grid24, domain, params):
    from penaltyflow.continuity import smoothed_negative_part
    bc = throughflow_boundary(domain, grid24, 0.2, 2.0)
    rho = np.ones(grid24.shape("centers"))
    vel = VectorField.zeros(grid24)
    rho1, info = continuity_step(Problem(grid24, domain, params, bc), rho,
                                 vel, 2e-3)
    assert info.inflow_flux < 0.0  # mass enters
    # on saturated inflow faces the total flux is exactly rho_B ub.n,
    # independent of the interior state
    un = bc.normal_trace("left")
    k = smoothed_negative_part(un, params.bc_sharpness)
    flux = rho1[0, :] * un - (rho1[0, :] - 2.0) * k
    sat = un <= -1.0 / params.bc_sharpness
    assert np.allclose(flux[sat], 2.0 * un[sat], atol=1e-13)


def test_renormalized_needs_history(grid24, domain, params):
    bc = resting_boundary(domain, grid24, 1.0)
    with pytest.raises(HistoryTooShort):
        renormalized_residual(grid24, bc, params,
                              [np.ones(grid24.shape("centers"))],
                              [VectorField.zeros(grid24)], 1e-3,
                              lambda z: z, lambda z: 1.0, lambda z: 0.0)


