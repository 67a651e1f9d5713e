import gc
import tracemalloc

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import cg, spsolve

import reference_builders as ref
from penaltyflow import driver, momentum
from penaltyflow.body import (body_signed_distance, make_disc_body,
                              rigid_velocity_field)
from penaltyflow.config import default_config
from penaltyflow.continuity import PenaltyParams, continuity_step
from penaltyflow.diagnostics import ledger_step
from penaltyflow.errors import VacuumCell
from penaltyflow.fields import StaggeredGrid, VectorField
from penaltyflow.geometry import (DomainSpec, build_extension,
                                  resting_boundary, throughflow_boundary)
from penaltyflow.momentum import (MG_MIN_LEVELS, MG_RATE, PROJECTION_DEPTH,
                                  FreePattern, MomentumStepInfo, Multigrid,
                                  PreconditionerRule, Problem,
                                  SolutionHistory, ViscosityModel,
                                  ViscousState, _coarser, _d12_affine,
                                  _face_layout, _pinned_coupling, _restrict,
                                  _strains, _strains_adjoint, momentum_step,
                                  multigrid_levels, viscosity_fields)
from test_checks import check_test

# properties kept once, as checks in penaltyflow.checks
test_penalty_ramp_values = check_test("penalty_ramp_properties")
test_viscosity_fields_formula_and_floor = check_test(
    "viscosity_fields_invariants")
test_pressure_laws = check_test("pressure_laws_and_convexity_1e4")
test_pressure_potential_convexity_bulk = check_test(
    "pressure_laws_and_convexity_1e4")
test_stress_cases = check_test("stress_formula_cases")
test_viscous_quadform_nonnegative = check_test("viscous_quadform_psd_100")
test_rigid_field_in_viscous_kernel = check_test(
    "rigid_steady_state_of_viscous_operator")
test_static_equilibrium_single_step = check_test(
    "momentum_static_equilibrium_exact")
test_uniform_translation_steady = check_test(
    "momentum_uniform_translation_steady")
test_stiffness_increase_still_converges = check_test(
    "momentum_stiffness_10x_still_converges")


def test_penalty_mu_equals_mu_on_extension_support(grid64, domain, params):
    # the standing hypothesis behind the energy bounds, asserted on the
    # grid: wherever the extension is nonzero the viscosities are physical
    bc = throughflow_boundary(domain, grid64, 0.2, 1.0)
    bc.u_ext, _ = build_extension(bc, domain, grid64)
    model = ViscosityModel.from_params(params, domain)
    body = make_disc_body((0.5, 0.5), 0.15, params.r_moll, 2.0)
    chi = body_signed_distance(body, grid64)
    xc, yc = grid64.cell_xy()
    mu_n, lam_n = viscosity_fields(chi, model,
                                   domain.boundary_distance(xc, yc))
    uc = 0.5 * (np.abs(bc.u_ext.u[:-1, :]) + np.abs(bc.u_ext.u[1:, :]))
    vc = 0.5 * (np.abs(bc.u_ext.v[:, :-1]) + np.abs(bc.u_ext.v[:, 1:]))
    supp = (uc + vc) > 0
    assert np.all(mu_n[supp] == params.mu)
    assert np.all(lam_n[supp] == params.lam)


def test_vacuum_faces_pinned_or_rejected(grid24, domain, params):
    bc = resting_boundary(domain, grid24, 1.0)
    pin = VectorField.zeros(grid24)
    bc.u_ext = pin
    chi = np.full(grid24.shape("centers"), -1.0)
    rho_new = np.ones(grid24.shape("centers"))
    rho_new[10:12, 10:12] = 0.0  # post-transport vacuum pocket
    vel = VectorField.zeros(grid24)
    state = ViscousState(Problem(grid24, domain, params, bc), chi)
    vel1, info = momentum_step(state, np.ones_like(rho_new), rho_new, vel,
                               1e-3)
    assert info.pinned_vacuum_faces > 0
    vel1.check_finite()
    # vacuum faces carry the pinned replacement exactly; neighbors may
    # accelerate into the pocket, which is the physical response
    rbu = 0.5 * (rho_new[:-1, :] + rho_new[1:, :])  # interior u faces
    assert np.any(rbu <= 1e-10)
    assert np.all(vel1.u[1:-1, :][rbu <= 1e-10] == 0.0)
    # nonzero momentum on a vacuum face is an error, not a silent answer
    vel_bad = VectorField(grid24, np.full(grid24.shape("ufaces"), 0.5),
                          np.zeros(grid24.shape("vfaces")))
    with pytest.raises(VacuumCell):
        momentum_step(state, np.ones_like(rho_new), rho_new, vel_bad, 1e-3)


def test_held_body_hold_mask(grid24, domain, params):
    # tethered mode: pinned faces keep the prescribed rigid motion exactly
    bc = throughflow_boundary(domain, grid24, 0.2, 1.0)
    bc.u_ext, _ = build_extension(bc, domain, grid24)
    body = make_disc_body((0.5, 0.5), 0.2, 0.09, 2.0)
    chi = body_signed_distance(body, grid24)
    m = 2 * grid24.dx
    hold = (body_signed_distance(body, grid24, "ufaces") >= m,
            body_signed_distance(body, grid24, "vfaces") >= m)
    pin = rigid_velocity_field(grid24, body.X, np.array([0.0, 0.0]), 0.0)
    vel = bc.u_ext.copy()
    rho = np.ones(grid24.shape("centers"))
    p2 = PenaltyParams(n_solid=1e3, r_moll=0.09)
    state = ViscousState(Problem(grid24, domain, p2, bc), chi, lambda: pin,
                         hold)
    vel1, _ = momentum_step(state, rho, rho, vel, 2e-3)
    assert np.all(vel1.u[hold[0]] == 0.0)
    assert np.all(vel1.v[hold[1]] == 0.0)


# ---------------------------------------------------------------------------
# Fixed-pattern assembly of the free block against the triple-product oracle
# ---------------------------------------------------------------------------

def _ops(grid):
    """The face layout and the reference strain matrices."""
    return dict(_face_layout(grid), **ref.strain_operators(grid))


def _oracle_operator(ops, w_mu, w_lam, w_node, mass):
    """sum G^T diag(w) G + diag(mass) from sparse triple products."""
    return (ops["g_d11"].T @ sparse.diags(w_mu) @ ops["g_d11"]
            + ops["g_d22"].T @ sparse.diags(w_mu) @ ops["g_d22"]
            + ops["g_div"].T @ sparse.diags(w_lam) @ ops["g_div"]
            + ops["g_d12"].T @ sparse.diags(w_node) @ ops["g_d12"]
            + sparse.diags(mass)).tocsr()


def _random_weights(ops, grid, rng):
    ncell = grid.nx * grid.ny
    nnode = (grid.nx + 1) * (grid.ny + 1)
    ndof = ops["nu"] + ops["nv"]
    return (rng.uniform(0.5, 2.0, ncell), rng.uniform(0.1, 1.5, ncell),
            rng.uniform(0.5, 2.0, nnode), rng.uniform(10.0, 20.0, ndof))


def _pinned_sets(ops, grid):
    """Boundary only, boundary + a hold mask, boundary + vacuum faces."""
    bnd = ops["boundary"]
    hold = bnd.copy()
    body = make_disc_body((0.45, 0.3), 0.12, 0.03, 2.0)
    hold |= np.concatenate([
        (body_signed_distance(body, grid, "ufaces") >= 0.05).ravel(),
        (body_signed_distance(body, grid, "vfaces") >= 0.05).ravel()])
    vac = bnd.copy()
    # a pocket touching the bottom wall and one touching a corner
    u_vac = np.zeros(grid.shape("ufaces"), bool)
    v_vac = np.zeros(grid.shape("vfaces"), bool)
    u_vac[5:9, 0:3] = True
    v_vac[0:2, 1:4] = True
    v_vac[-3:, -4:-1] = True
    vac |= np.concatenate([u_vac.ravel(), v_vac.ravel()])
    return {"boundary": bnd, "hold": hold, "vacuum": vac}


@pytest.mark.parametrize("which", ["boundary", "hold", "vacuum"])
def test_fixed_pattern_matches_triple_product(which, rng):
    grid = StaggeredGrid(20, 13, 1.3 / 20, 0.9 / 13)
    ops = _ops(grid)
    # wall and corner nodes are one-sided: 3 and 2 entries in their rows
    per_row = np.diff(ops["g_d12"].indptr)
    assert set(per_row) == {2, 3, 4}
    w_mu, w_lam, w_node, mass = _random_weights(ops, grid, rng)
    pinned = _pinned_sets(ops, grid)[which]
    free = ~pinned
    A = _oracle_operator(ops, w_mu, w_lam, w_node, mass)
    Aff = FreePattern(grid, pinned).fill(w_mu, w_lam, w_node, mass)
    want = A[free][:, free]
    assert Aff.shape == want.shape
    scale = np.max(np.abs(A.data))
    assert np.max(np.abs((Aff - want).toarray())) <= 1e-12 * scale
    # same sparsity, columns sorted in each row: no stray slot entries
    assert Aff.nnz == want.nnz and Aff.has_sorted_indices

    # pinned coupling in the right-hand side, with wall traces in D12
    bc = throughflow_boundary(DomainSpec(1.3, 0.9, 0.1), grid, 0.4, 1.0)
    for w in ("bottom", "top"):
        bc.ub[w][:, 0] = rng.uniform(-1, 1, grid.nx)
    for w in ("left", "right"):
        bc.ub[w][:, 1] = rng.uniform(-1, 1, grid.ny)
    x = rng.normal(size=pinned.size)
    rhs = rng.normal(size=pinned.size)
    c12 = _d12_affine(grid, bc.tangential_traces())
    want_b = (rhs - ops["g_d12"].T @ (w_node * c12))[free] \
        - A[free][:, pinned] @ x[pinned]
    got_b = (rhs - _pinned_coupling(grid, np.where(pinned, x, 0.0), w_mu,
                                    w_lam, w_node, c12))[free]
    assert np.max(np.abs(got_b - want_b)) <= 1e-12 * np.max(np.abs(want_b))


@pytest.mark.parametrize("which", ["boundary", "hold", "vacuum"])
def test_fixed_pattern_diagonal_positions(which, rng):
    grid = StaggeredGrid(20, 13, 1.3 / 20, 0.9 / 13)
    ops = _face_layout(grid)
    pattern = FreePattern(grid, _pinned_sets(ops, grid)[which])
    A = pattern.fill(*_random_weights(ops, grid, rng))
    assert np.array_equal(A.data[pattern.diag], A.diagonal())


def test_fixed_pattern_rebuilds_when_pinned_set_changes(rng):
    grid = StaggeredGrid(20, 13, 1.3 / 20, 0.9 / 13)
    domain = DomainSpec(1.3, 0.9, 0.1)
    problem = Problem(grid, domain, PenaltyParams(),
                      resting_boundary(domain, grid, 1.0))
    ops = _ops(grid)
    sets = _pinned_sets(ops, grid)
    w = _random_weights(ops, grid, rng)
    first = problem.free_pattern(sets["boundary"])
    assert problem.free_pattern(sets["boundary"].copy()) is first
    hierarchy = problem.multigrid()
    assert problem.multigrid() is hierarchy
    assert hierarchy.levels[0] is first
    held = problem.free_pattern(sets["hold"])
    assert held is not first
    # the hierarchy goes with the pattern it was built on
    assert problem.multigrid() is not hierarchy
    assert problem.multigrid().levels[0] is held
    assert held.matrix.shape[0] == np.count_nonzero(~sets["hold"])
    A = _oracle_operator(ops, *w)
    free = ~sets["hold"]
    diff = held.fill(*w) - A[free][:, free]
    assert np.max(np.abs(diff.toarray())) <= 1e-12 * np.max(np.abs(A.data))
    assert problem.free_pattern(sets["boundary"]) is not held


def test_fixed_pattern_memory_within_free_block(grid64, rng):
    ops = _ops(grid64)
    w_mu, w_lam, w_node, mass = _random_weights(ops, grid64, rng)
    free = ops["interior"]
    want = _oracle_operator(ops, w_mu, w_lam, w_node, mass)[free][:, free]
    csr_bytes = want.data.nbytes + want.indices.nbytes + want.indptr.nbytes
    pattern = FreePattern(grid64, ops["boundary"])
    arrays = (pattern.gather, pattern.matrix.indices, pattern.matrix.indptr,
              pattern.pinned, *ops["d12_slots"])
    assert sum(a.nbytes for a in arrays) <= csr_bytes


# ---------------------------------------------------------------------------
# Set-up builders against their straightforward constructions, bit for bit
# ---------------------------------------------------------------------------

_GRIDS = {"20x13": (20, 13, 1.3 / 20, 0.9 / 13),
          "48": (48, 48, 1 / 48, 1 / 48), "96": (96, 96, 1 / 96, 1 / 96)}


@pytest.mark.parametrize("size", ["20x13", "48", "96"])
def test_strain_operators_bitwise_equal_to_reference(size, rng):
    grid = StaggeredGrid(*_GRIDS[size])
    names = ("g_d11", "g_d22", "g_div", "g_d12")
    G = [ref.strain_operators(grid)[name] for name in names]
    c12 = rng.normal(size=G[3].shape[0])
    for _ in range(2):
        x = rng.normal(size=G[0].shape[1])
        want = [g @ x for g in G]
        want[3] = want[3] + c12
        for got, w in zip(_strains(grid, x, c12), want):
            ref.assert_bitwise(got, w)
        p = [rng.normal(size=g.shape[0]) for g in G]
        ref.assert_bitwise(_strains_adjoint(grid, *p),
                           G[0].T @ p[0] + G[1].T @ p[1] + G[2].T @ p[2]
                           + G[3].T @ p[3])
        # each adjoint alone, the others fed zeros
        for k, g in enumerate(G):
            alone = [np.zeros_like(q) for q in p]
            alone[k] = p[k]
            ref.assert_bitwise(_strains_adjoint(grid, *alone), g.T @ p[k])


def _assert_pattern_is_reference(pattern):
    indptr, indices, gather, split, diag = ref.free_pattern_arrays(
        pattern.grid, pattern.pinned)
    ref.assert_bitwise(pattern.matrix.indptr, indptr)
    ref.assert_bitwise(pattern.matrix.indices, indices)
    ref.assert_bitwise(pattern.gather, gather)
    ref.assert_bitwise(pattern.diag, diag)
    assert pattern.split == split


@pytest.mark.parametrize("which", ["boundary", "hold", "vacuum", "random"])
@pytest.mark.parametrize("size", ["20x13", "48", "96"])
def test_fixed_pattern_bitwise_equal_to_reference(size, which, rng):
    grid = StaggeredGrid(*_GRIDS[size])
    ops = _face_layout(grid)
    sets = _pinned_sets(ops, grid)
    sets["random"] = ops["boundary"] | (rng.random(ops["boundary"].size)
                                        < 0.1)
    _assert_pattern_is_reference(FreePattern(grid, sets[which], ops))


@pytest.mark.parametrize("n", [96, 192])
def test_hierarchy_bitwise_equal_to_reference(n):
    grid = StaggeredGrid(n, n, 1 / n, 1 / n)
    hold = np.concatenate([h.ravel() for h in _hold96(
        grid, default_config().make_body())])
    mg = Multigrid(FreePattern(grid, _face_layout(grid)["boundary"] | hold))
    assert len(mg.transfers) == multigrid_levels(grid) - 1
    for k, (P, _) in enumerate(mg.transfers):
        fine, coarse = mg.levels[k], mg.levels[k + 1]
        ref.assert_same_csr(P, ref.transfer(coarse.grid, ~fine.pinned,
                                            ~coarse.pinned))
        _assert_pattern_is_reference(coarse)


# ---------------------------------------------------------------------------
# Multigrid preconditioner
# ---------------------------------------------------------------------------

def _embed(free, x):
    """x on the free faces, zero on the pinned ones."""
    full = np.zeros(free.size)
    full[free] = x
    return full


def test_restriction_is_transpose_of_prolongation(rng):
    grid = StaggeredGrid(48, 24, 1.3 / 48, 0.9 / 24)
    bnd = _face_layout(grid)["boundary"]
    for share in (0.0, 0.1, 0.4):
        mg = Multigrid(FreePattern(grid, bnd | (rng.random(bnd.size)
                                                < share)))
        assert len(mg.levels) == 2
        fine, coarse = (~p.pinned for p in mg.levels)
        P, R = mg.transfers[0]
        want_p = np.column_stack([
            ref.prolong(mg.levels[1].grid, _embed(coarse, e))[fine]
            for e in np.eye(np.count_nonzero(coarse))])
        want_r = np.column_stack([
            _restrict(mg.levels[1].grid, _embed(fine, e))[coarse]
            for e in np.eye(np.count_nonzero(fine))])
        assert np.max(np.abs(P.toarray() - want_p)) <= 1e-15
        assert np.max(np.abs(R.toarray() - want_r)) <= 1e-15
        assert np.max(np.abs(want_p.T - want_r)) <= 1e-15


def test_stored_transfers_match_matrix_free_on_every_level(rng):
    grid, _, _, _, body, _, _ = _state96()
    hold = np.concatenate([h.ravel() for h in _hold96(grid, body)])
    mg = Multigrid(FreePattern(grid, _face_layout(grid)["boundary"] | hold))
    assert len(mg.levels) == 4
    for k, (P, R) in enumerate(mg.transfers):
        fine, coarse = ~mg.levels[k].pinned, ~mg.levels[k + 1].pinned
        assert P.shape == (np.count_nonzero(fine), np.count_nonzero(coarse))
        for _ in range(3):
            x = rng.random(P.shape[1])
            want = ref.prolong(mg.levels[k + 1].grid,
                               _embed(coarse, x))[fine]
            assert np.max(np.abs(P @ x - want)) <= 1e-15 * np.max(want)
            y = rng.random(P.shape[0])
            want = _restrict(mg.levels[k + 1].grid, _embed(fine, y))[coarse]
            assert np.max(np.abs(R @ y - want)) <= 1e-15 * np.max(want)


def test_prolongation_keeps_constants():
    coarse = _coarser(StaggeredGrid(48, 24, 1.3 / 48, 0.9 / 24))
    nu = (coarse.nx + 1) * coarse.ny
    nv = coarse.nx * (coarse.ny + 1)
    x = np.concatenate([np.full(nu, 0.7), np.full(nv, -1.9)])
    fine = ref.prolong(coarse, x)
    nu_fine = (2 * coarse.nx + 1) * 2 * coarse.ny
    assert np.max(np.abs(fine[:nu_fine] - 0.7)) <= 1e-15
    assert np.max(np.abs(fine[nu_fine:] + 1.9)) <= 1e-15


def _stiff_disc_weights(grid, rng, stiffness=1e5):
    """Weights with a disc whose viscosity is `stiffness` times the rest."""
    xc, yc = grid.cell_xy()
    bump = 1.0 + stiffness * ((xc - 0.5) ** 2 + (yc - 0.5) ** 2 < 0.04)
    mu = rng.uniform(0.5, 1.5, bump.shape) * bump
    vol = grid.cell_volume
    nodes = np.zeros((grid.nx + 1, grid.ny + 1))
    nodes[1:-1, 1:-1] = 0.25 * (mu[:-1, :-1] + mu[1:, :-1] + mu[:-1, 1:]
                                + mu[1:, 1:])
    nodes[nodes == 0] = 1.0
    layout = _face_layout(grid)
    mass = rng.uniform(50.0, 100.0, layout["boundary"].size) * vol
    return ((2 * mu * vol).ravel(), (0.5 * mu * vol).ravel(),
            4 * nodes.ravel() * layout["node_vol"], mass)


def test_vcycle_symmetric_and_positive(rng):
    grid = StaggeredGrid(48, 48, 1 / 48, 1 / 48)
    pattern = FreePattern(grid, _face_layout(grid)["boundary"])
    w = _stiff_disc_weights(grid, rng)
    pattern.fill(*w)
    mg = Multigrid(pattern)
    assert len(mg.levels) == 3
    M = mg.preconditioner(*w)
    for _ in range(5):
        x, y = rng.normal(size=(2, pattern.matrix.shape[0]))
        mx, my = M(x), M(y)
        scale = np.linalg.norm(mx) * np.linalg.norm(y)
        assert abs(mx @ y - x @ my) <= 1e-12 * scale
        assert mx @ x > 0


def _state96():
    """Step-1 data of the default scene at 96^2 with n = 1e5."""
    cfg = default_config(n=1e5)
    domain, grid, params = cfg.make_domain(), cfg.make_grid(), \
        cfg.make_params()
    bc, _ = cfg.make_boundary(domain, grid)
    body = cfg.make_body()
    vel = cfg.initial_velocity(grid, bc, body)
    chi = body_signed_distance(body, grid)
    return grid, domain, params, bc, body, vel, chi


def _hold96(grid, body):
    """u-face and v-face hold masks: the body's core, 2 cells inside."""
    m = 2.0 * grid.dx
    return (body_signed_distance(body, grid, "ufaces") >= m,
            body_signed_distance(body, grid, "vfaces") >= m)


@pytest.mark.parametrize("which", ["boundary", "hold", "vacuum"])
def test_multigrid_pcg_matches_jacobi_at_96(which):
    grid, domain, params, bc, body, vel, chi = _state96()
    rho_old = np.ones(grid.shape("centers"))
    rho_new = rho_old.copy()
    hold = None
    if which == "hold":
        hold = _hold96(grid, body)
    elif which == "vacuum":
        # a still pocket beside the body, emptied by the mass step
        rho_new[12:18, 40:46] = 0.0
        vel.u[11:20, 38:48] = 0.0
        vel.v[10:20, 38:49] = 0.0
    out = {}
    for mg in (False, True):
        # a fresh rule for a mobile body takes the V-cycle at its first
        # step; without a rule the CG is Jacobi-preconditioned
        rule = PreconditionerRule(grid, mobile_body=True) if mg else None
        state = ViscousState(Problem(grid, domain, params, bc), chi,
                             hold=hold)
        v, info = momentum_step(state, rho_old, rho_new, vel, 2e-3,
                                rule=rule)
        out[info.preconditioner] = (np.concatenate([v.u.ravel(),
                                                    v.v.ravel()]), info)
    (xj, ij), (xm, im) = out["jacobi"], out["multigrid"]
    assert (which == "vacuum") == (im.pinned_vacuum_faces > 0)
    assert im.iterations <= 18 < ij.iterations
    # from the previous velocity both solves gain 8-14 decades; the
    # V-cycle's larger steps overshoot the target by up to one
    assert 8.0 < ij.decades < im.decades < ij.decades + 1.0
    assert np.linalg.norm(xm - xj) <= 1e-8 * np.linalg.norm(xj)


def _recording(monkeypatch):
    """Record the preconditioner of every driver momentum step."""
    used = []
    step = driver.momentum_step

    def record(*args, **kwargs):
        out = step(*args, **kwargs)
        used.append(out[1].preconditioner)
        return out
    monkeypatch.setattr(driver, "momentum_step", record)
    return used


def _info(preconditioner, iterations, decades):
    return MomentumStepInfo(iterations=iterations,
                            preconditioner=preconditioner,
                            solve_residual=0.0,
                            pinned_vacuum_faces=0, decades=decades)


def test_rule_weighs_rate_times_decades_both_ways():
    grid = StaggeredGrid(96, 96, 1 / 96, 1 / 96)
    F, c = PreconditionerRule(grid, mobile_body=False).cost
    # the model's break-even at 96^2, against the measured 75 Jacobi-CG
    # iterations for 9 MG-PCG iterations
    assert F + 9 * c == pytest.approx(75, rel=0.2)

    rule = PreconditionerRule(grid, mobile_body=False)
    assert rule.choose(10.0) == "jacobi"        # held or body-less: Jacobi
    rate = 3.0 * c * MG_RATE
    rule.record(_info("jacobi", round(10 * rate), 10.0))
    # MG pays F once per solve, so only a solve that needs enough decades
    # is cheaper on it; rates alone would say MG for any demand
    even = F / (rate - c * MG_RATE)
    assert rule.choose(2.0 * even) == "multigrid"
    assert rule.choose(0.5 * even) == "jacobi"
    # the V-cycle's own rate replaces MG_RATE, and a small demand goes back
    rule.record(_info("multigrid", 10, 10.0))
    assert rule.choose(10.0) == "multigrid"
    assert rule.choose(0.5 * F / (rate - c)) == "jacobi"
    # solves that reduced nothing measurable leave the rates as they were
    rates = dict(rule.rates)
    for it, dec in ((0, 3.0), (5, 0.0)):
        rule.record(_info("jacobi", it, dec))
    assert rule.rates == rates

    # a mobile body starts on the V-cycle and, with no Jacobi rate, keeps it
    rule = PreconditionerRule(grid, mobile_body=True)
    for decades in (10.0, 1e-3):
        assert rule.choose(decades) == "multigrid"
        rule.record(_info("multigrid", 40, 1.0))


def test_grids_that_cannot_coarsen_three_times_never_switch(monkeypatch):
    for nx, ny, levels in ((20, 13, 1), (48, 48, 3), (98, 98, 2),
                           (96, 96, 4), (192, 192, 5)):
        grid = StaggeredGrid(nx, ny, 1 / nx, 1 / ny)
        assert multigrid_levels(grid) == levels
        assert (levels >= MG_MIN_LEVELS) == (nx in (96, 192))
        # even for a mobile body, after a Jacobi solve of any cost
        rule = PreconditionerRule(grid, mobile_body=True)
        rule.record(_info("jacobi", 10 ** 6, 1.0))
        assert rule.choose(10.0) == ("multigrid" if levels >= MG_MIN_LEVELS
                                     else "jacobi")
    # a free stiff body at 48^2: Jacobi needs about 100 iterations a step
    used = _recording(monkeypatch)
    driver.run(default_config(nx=48, ny=48, r=0.05, n=1e5, t_end=0.02),
               outdir=False)
    assert len(used) > 2 and set(used) == {"jacobi"}


def test_free_body_on_multigrid_from_the_first_step(monkeypatch):
    used = _recording(monkeypatch)
    driver.run(default_config(t_end=0.01), outdir=False)
    assert len(used) >= 3 and set(used) == {"multigrid"}


@pytest.mark.parametrize("where", [
    {}, {"x0": 0.48537456976449606, "y0": 0.5138973494774893},
    {"body_present": False}], ids=["held", "held-off-centre", "body-less"])
def test_held_and_body_less_runs_at_96_stay_on_jacobi(monkeypatch, where):
    # a held body's first steps take 95-101 Jacobi iterations, close to
    # the cost of the V-cycle's 11-12, and fewer afterwards
    used = _recording(monkeypatch)
    driver.run(default_config(body_mobile=False, t_end=0.03, **where),
               outdir=False)
    assert len(used) >= 10 and set(used) == {"jacobi"}


def test_switch_state_belongs_to_the_run(tmp_path, monkeypatch):
    used = _recording(monkeypatch)
    # held at 192^2, n = 1e5: Jacobi at step 1 (157 iterations), then the
    # V-cycle once its predicted cost is lower
    cfg = default_config(nx=192, ny=192, n=1e5, body_mobile=False,
                         t_end=0.004)
    text = []
    for k in range(2):
        driver.run(cfg, outdir=str(tmp_path / f"run{k}"))
        text.append((tmp_path / f"run{k}" / "diagnostics.csv").read_bytes())
    steps = len(used) // 2
    assert steps >= 3 and used[:steps] == used[steps:]
    assert used[0] == "jacobi" and "multigrid" in used[:3]
    assert text[0] == text[1]


# ---------------------------------------------------------------------------
# Projection initial guess from the run's recent solutions
# ---------------------------------------------------------------------------

def _system_sequence(n, rng):
    """n slowly varying free blocks, right-hand sides and exact solutions on
    a 20x13 grid (dx != dy) with a hold mask."""
    grid = StaggeredGrid(20, 13, 1.3 / 20, 0.9 / 13)
    ops = _face_layout(grid)
    pattern = FreePattern(grid, _pinned_sets(ops, grid)["hold"], ops)
    w = _random_weights(ops, grid, rng)
    dw = [rng.uniform(-1.0, 1.0, a.size) for a in w]
    b0, b1, b2 = rng.normal(size=(3, pattern.matrix.shape[0]))
    out = []
    for t in np.linspace(0.0, 0.05, n):
        A = pattern.fill(*[a * (1.0 + t * d) for a, d in zip(w, dw)]).copy()
        b = b0 + t * b1 + t * t * b2
        out.append((A, b, spsolve(A.tocsc(), b)))
    return pattern, out


def test_projection_no_worse_than_previous_solution(rng):
    pattern, systems = _system_sequence(8, rng)
    history = SolutionHistory()
    prev = np.zeros_like(systems[0][1])
    for k, (A, b, x) in enumerate(systems):
        x0 = history.guess(pattern, A, b, prev)
        if k < 2:
            # fewer than two solutions: CG starts from the previous one
            assert x0 is prev
        else:
            def err(y):
                return np.sqrt((y - x) @ (A @ (y - x)))
            assert err(x0) <= 0.1 * err(prev)
        history.push(pattern, x)
        prev = x
    assert len(history.diffs) == PROJECTION_DEPTH


def test_history_is_a_sliding_difference_table(rng):
    pattern, systems = _system_sequence(2, rng)
    xs = rng.normal(size=(PROJECTION_DEPTH + 2, systems[0][1].size))
    history = SolutionHistory()
    for x in xs:
        history.push(pattern, x)
    # backward differences of the last PROJECTION_DEPTH solutions
    newest = xs[-PROJECTION_DEPTH:][::-1]
    for order, d in enumerate(history.diffs):
        expect = np.diff(newest[:order + 1][::-1], n=order, axis=0)[0]
        assert np.allclose(d, expect, rtol=0, atol=1e-12 * 2 ** order)
    assert len(history.diffs) == PROJECTION_DEPTH
    # a new free set starts the table afresh
    other = FreePattern(pattern.grid, pattern.ops["boundary"], pattern.ops)
    history.push(other, xs[0][:other.matrix.shape[0]])
    assert history.pattern is other and len(history.diffs) == 1


def test_projection_is_exact_on_the_history_span(rng):
    pattern, systems = _system_sequence(4, rng)
    history = SolutionHistory()
    for _, _, x in systems[:3]:
        history.push(pattern, x)
    A = systems[3][0]
    b = A @ systems[0][2]       # the oldest solution solves this system
    x0 = history.guess(pattern, A, b, systems[2][2])
    assert np.linalg.norm(b - A @ x0) <= 1e-10 * np.linalg.norm(b)
    iters = []
    cg(A, b, x0=x0, M=sparse.diags(1.0 / A.diagonal()), rtol=1e-10,
       atol=0.0, callback=iters.append)
    assert len(iters) <= 1


def test_projection_with_a_repeated_solution_is_finite(rng):
    pattern, systems = _system_sequence(2, rng)
    x = systems[0][2]
    A, b, _ = systems[1]
    history = SolutionHistory()
    for n in range(1, PROJECTION_DEPTH + 2):
        history.push(pattern, x)
        x0 = history.guess(pattern, A, b, x)
        if n == 1:
            continue
        # the span is x's alone: the one-vector A-projection
        assert np.all(np.isfinite(x0))
        expect = (x @ b) / (x @ (A @ x)) * x
        assert np.max(np.abs(x0 - expect)) <= 1e-12 * np.max(np.abs(x))


def test_history_keeps_the_first_two_steps(grid24, domain, params):
    bc = throughflow_boundary(domain, grid24, 0.2, 1.0)
    bc.u_ext, _ = build_extension(bc, domain, grid24)
    body = make_disc_body((0.5, 0.5), 0.2, 0.09, 2.0)
    chi = body_signed_distance(body, grid24)
    rho = np.ones(grid24.shape("centers"))
    state = ViscousState(Problem(grid24, domain, params, bc), chi)
    history = SolutionHistory()
    vel = bc.u_ext.copy()
    for step in range(3):
        with_h, info_h = momentum_step(state, rho, rho, vel, 2e-3,
                                       history=history)
        without, info = momentum_step(state, rho, rho, vel, 2e-3)
        if step < 2:
            # x0 = vel until the history holds two solutions
            assert info_h.iterations == info.iterations
            assert np.array_equal(with_h.u, without.u)
            assert np.array_equal(with_h.v, without.v)
        else:
            # projected x0, the same solution to the CG tolerance
            assert np.allclose(with_h.u, without.u, rtol=0, atol=1e-8)
            assert np.allclose(with_h.v, without.v, rtol=0, atol=1e-8)
        vel = with_h
    assert len(history.diffs) == 3


# ---------------------------------------------------------------------------
# A run's Problem and the viscous state of one chi
# ---------------------------------------------------------------------------

def _held_scene(n, r, **body):
    """Set-up of a held body on an n^2 grid with mollifier radius r and
    the ``body`` config keys: problem, chi, hold mask, rigid pin, initial
    density and velocity."""
    cfg = default_config(nx=n, ny=n, r=r, body_mobile=False, **body)
    domain, grid, params = cfg.make_domain(), cfg.make_grid(), \
        cfg.make_params()
    bc, _ = cfg.make_boundary(domain, grid)
    body = cfg.make_body()
    pin = rigid_velocity_field(grid, body.X, body.V, body.w)
    return (Problem(grid, domain, params, bc), body_signed_distance(
        body, grid), _hold96(grid, body), pin,
        cfg.initial_density(grid), cfg.initial_velocity(grid, bc, body))


def test_viscous_state_reused_equals_rebuilt_for_a_held_body(monkeypatch):
    fills = []
    fill = FreePattern.fill

    def counted(self, *args):
        fills.append(self)
        return fill(self, *args)
    monkeypatch.setattr(FreePattern, "fill", counted)
    problem, chi, hold, pin, rho0, vel0 = _held_scene(32, 0.07)
    reused = ViscousState(problem, chi, lambda: pin, hold)
    runs = []
    for reuse in (True, False):
        rho, vel, history, rows = rho0, vel0, SolutionHistory(), []
        for step in range(6):
            dt = 2e-3
            state = (reused if reuse
                     else ViscousState(problem, chi, lambda: pin, hold))
            rho1, _ = continuity_step(problem, rho, vel, dt)
            vel1, info = momentum_step(state, rho, rho1, vel, dt,
                                       history=history)
            row = ledger_step(state, rho, vel, rho1, vel1, dt,
                              (step + 1) * dt)
            rows.append((rho1, vel1.u, vel1.v, row.as_dict()))
            rho, vel = rho1, vel1
        runs.append(rows)
        # the reused state fills the free block once, at its first step
        assert len(fills) == (1 if reuse else 6)
        fills.clear()
    for got, want in zip(*runs):
        for a, b in zip(got[:3], want[:3]):
            assert np.array_equal(a, b)
        assert got[3] == want[3]


def test_viscous_state_refills_when_a_vacuum_face_appears():
    # held at a rigid motion, so that a vacuum face is pinned at a nonzero
    # value
    problem, chi, hold, pin, rho, vel = _held_scene(48, 0.05, v0x=0.05,
                                                    w0=1.0)
    # a still pocket beside the body, emptied by the mass step
    pocket = rho.copy()
    pocket[6:9, 20:23] = 0.0
    vel.u[5:10, 19:24] = 0.0
    vel.v[5:10, 19:25] = 0.0
    state = ViscousState(problem, chi, lambda: pin, hold)
    _, info = momentum_step(state, rho, rho, vel, 2e-3)
    assert info.pinned_vacuum_faces == 0
    # chi is unchanged, the pinned set and values are not
    got, info = momentum_step(state, rho, pocket, vel, 2e-3)
    want, _ = momentum_step(ViscousState(problem, chi, lambda: pin, hold),
                            rho, pocket, vel, 2e-3)
    assert info.pinned_vacuum_faces > 0
    assert np.array_equal(got.u, want.u) and np.array_equal(got.v, want.v)


def test_free_body_run_computes_the_pinned_coupling_once(monkeypatch):
    calls = []
    adjoint = momentum._strains_adjoint

    def counted(*args):
        calls.append(args)
        return adjoint(*args)
    monkeypatch.setattr(momentum, "_strains_adjoint", counted)
    rep = driver.run(default_config(nx=48, ny=48, r=0.05, t_end=0.03),
                     outdir=False)
    # the body moves every step; the weights by the walls never change
    assert rep.steps >= 5 and len(calls) == 1


def test_pinned_coupling_recomputed_when_its_band_or_pinned_set_changes(
        rng):
    grid = StaggeredGrid(20, 13, 1.3 / 20, 0.9 / 13)
    domain = DomainSpec(1.3, 0.9, 0.1)
    bc = throughflow_boundary(domain, grid, 0.4, 1.0)
    for w in ("bottom", "top"):
        bc.ub[w][:, 0] = rng.uniform(-1, 1, grid.nx)
    for w in ("left", "right"):
        bc.ub[w][:, 1] = rng.uniform(-1, 1, grid.ny)
    problem = Problem(grid, domain, PenaltyParams(), bc)
    sets = _pinned_sets(problem.ops, grid)
    weights = _random_weights(problem.ops, grid, rng)[:3]
    x = rng.normal(size=sets["boundary"].size)

    def fresh(pinned, w):
        return _pinned_coupling(grid, np.where(pinned, x, 0.0), *w,
                                problem.c12)

    def scaled(w, k, at):   # the weights with w[k][at] tripled
        w = [a.copy() for a in w]
        w[k][at] *= 3.0
        return w

    kept = problem.pinned_coupling(sets["boundary"], x)
    first = kept(*weights)
    ref.assert_bitwise(first, fresh(sets["boundary"], weights))
    # an interior cell's and node's weights are off the band: kept
    cell, node = 10 * grid.ny + 6, 10 * (grid.ny + 1) + 6
    assert cell not in kept.cells and node not in kept.nodes
    w = scaled(scaled(weights, 0, cell), 2, node)
    assert problem.pinned_coupling(sets["boundary"].copy(), x) is kept
    assert kept(*w) is first
    ref.assert_bitwise(first, fresh(sets["boundary"], w))
    # a wall-adjacent cell's or a wall node's weight: computed again
    for k, at in ((0, 5), (1, 5), (2, 7)):
        w = scaled(weights, k, at)
        got = kept(*w)
        assert got is not first
        ref.assert_bitwise(got, fresh(sets["boundary"], w))
    # vacuum faces, or new values on the pinned faces: a new coupling
    vac = problem.pinned_coupling(sets["vacuum"], x)
    assert vac is not kept
    ref.assert_bitwise(vac(*weights), fresh(sets["vacuum"], weights))
    x = x + 1.0
    assert problem.pinned_coupling(sets["vacuum"], x) is not vac
    ref.assert_bitwise(problem.pinned_coupling(sets["vacuum"], x)(*weights),
                       fresh(sets["vacuum"], weights))


def test_free_body_stepper_holds_only_what_the_run_keeps():
    cfg = default_config(nx=48, ny=48, r=0.05, t_end=1.0)
    warm, _ = driver.start(cfg)   # imports and module state, untraced
    warm.step(driver._timestep(cfg, warm))
    del warm
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        s, _ = driver.start(cfg)
        for _ in range(3):
            s.step(driver._timestep(cfg, s))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()

    def nbytes(*arrays):
        return sum(a.nbytes for a in arrays)

    def csr(m):
        return nbytes(m.data, m.indices, m.indptr)

    p, pattern, c = s.problem, s.problem._pattern, s.problem._coupling
    assert p._multigrid is None   # 48^2 takes Jacobi: no transfers
    keep = {
        "free block and gather table": csr(pattern.matrix) + nbytes(
            pattern.gather, pattern.diag, pattern.faces, pattern.pinned),
        "history": nbytes(*s.history.diffs),
        "continuity's unit diagonal": nbytes(p.unit_diagonal),
        "pinned coupling": nbytes(c.vector, c.pinned, c.values, c.cells,
                                  c.nodes, *c.strains, *c.weights),
        # the state, and the per-run fields: boundary extension and its
        # gradient, D12 wall traces, face masks, node volumes, wall cutoff
        # and clearance, mollifier spectrum
        "fields": nbytes(s.rho, s.vel.u, s.vel.v, s.chi, p.bc.u_ext.u,
                         p.bc.u_ext.v, *p.ext_gradient, p.c12,
                         p.ops["boundary"], p.ops["interior"],
                         p.ops["node_vol"], p.wall_cutoff, p.clear_of_walls,
                         *s.kernel.spectra.values()),
    }
    # 1.17 MB at 48^2: free block and gather table 0.70 MB, history 0.11,
    # continuity 0.02, pinned coupling 0.05, fields 0.30; Python objects
    # and wall-sized arrays add about 40 kB
    assert held <= sum(keep.values()) + 64 * 1024, (held, keep)
    # no strain matrix (face vector -> cells or nodes) and no continuity
    # matrix (cells -> cells) is held anywhere
    g = p.grid
    shapes = {(g.nx * g.ny, pattern.pinned.size),
              ((g.nx + 1) * (g.ny + 1), pattern.pinned.size),
              (g.nx * g.ny, g.nx * g.ny)}
    assert not [o for o in gc.get_objects()
                if sparse.issparse(o) and o.shape in shapes]


_DT = 2.0 ** -9   # exact in binary: six steps end at t_end exactly


def _step(stepper, dt):
    """One step: its diagnostics.csv and body.csv lines, which hold every
    bit of the row, and its momentum iterations."""
    rec = stepper.step(dt)
    return (driver._csv_line(rec.row.csv_values()),
            driver._csv_line(stepper.body_values(rec)),
            rec.momentum.iterations)


def test_interleaved_runs_step_as_they_do_alone():
    # a held body and a free one on one grid with different boundary
    # speeds: their pinned sets, free patterns and Robin closures differ
    cfgs = [default_config(nx=32, ny=32, r=0.07, dt=_DT, t_end=6 * _DT, **kw)
            for kw in ({"body_mobile": False}, {"speed": 0.35})]
    reports = [driver.run(c, outdir=False, keep_fields=True) for c in cfgs]
    alone = [[_step(s, _DT) for _ in range(6)]
             for s in (driver.start(c)[0] for c in cfgs)]
    steppers = [driver.start(c)[0] for c in cfgs]
    together = [[], []]
    for _ in range(6):
        for steps, s in zip(together, steppers):
            steps.append(_step(s, _DT))
    for rep, solo, paired, s in zip(reports, alone, together, steppers):
        # alone, a stepper takes run's steps, guard and probes included
        assert [driver._csv_line(r.csv_values()) for r in rep.rows] == [
            row for row, _, _ in solo]
        assert [driver._csv_line(b) for b in rep.body_rows] == [
            body for _, body, _ in solo]
        # side by side, each steps as it does alone
        assert paired == solo
        assert (s.t, s.steps) == (rep.final_t, rep.steps) == (6 * _DT, 6)
        assert np.array_equal(s.rho, rep.final_rho)
        assert np.array_equal(s.vel.u, rep.final_vel.u)
        assert np.array_equal(s.vel.v, rep.final_vel.v)
