"""Whole-run invariances of the solver."""

import numpy as np
import pytest

from penaltyflow.config import default_config
from penaltyflow.driver import run

# a body-only run (resting walls, the body's rigid motion as the initial
# velocity) on a grid with nx != ny and dx != dy, off-centre, translating
# and turning
BODY_ONLY = dict(profile="zero", u0="rigid", nx=48, ny=40, Lx=1.2, Ly=0.9,
                 r=0.06, x0=0.55, y0=0.42, v0x=0.15, v0y=-0.05, w0=0.8,
                 t_end=0.05)


def transposed(kw):
    """The same run mirrored in the diagonal x = y: x and y swap, and so
    the sense of rotation flips."""
    swap = {"nx": "ny", "Lx": "Ly", "x0": "y0", "v0x": "v0y"}
    swap.update({b: a for a, b in swap.items()})
    out = {swap.get(k, k): v for k, v in kw.items()}
    out["w0"] = -kw["w0"]
    return out


def assert_close(a, b, rtol=1e-9):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    assert np.max(np.abs(a - b)) <= rtol * np.max(np.abs(a))


def test_transposition_x_y_whole_run():
    rep, rept = (run(default_config(**kw), outdir=False, keep_fields=True)
                 for kw in (BODY_ONLY, transposed(BODY_ONLY)))
    assert rep.steps == rept.steps > 5
    assert not rep.stopped_early and not rept.stopped_early
    assert_close(rep.final_rho, rept.final_rho.T)
    assert_close(rep.final_vel.u, rept.final_vel.v.T)
    assert_close(rep.final_vel.v, rept.final_vel.u.T)
    # body.csv: t, X, theta, V, w, rigidity defect, margin
    mirror = [0, 2, 1, 3, 5, 4, 6, 7, 8]
    sign = np.array([1, 1, 1, -1, 1, 1, -1, 1, 1])
    body, bodyt = np.array(rep.body_rows), np.array(rept.body_rows)
    for k in range(body.shape[1]):
        assert_close(body[:, k], sign[k] * bodyt[:, mirror[k]])
    # the ledger's scalars are the same; the force mirrors, the torque flips
    for row, rowt in zip(rep.rows, rept.rows):
        d, dt = row.as_dict(), rowt.as_dict()
        dt["Fx"], dt["Fy"], dt["torque"] = dt["Fy"], dt["Fx"], -dt["torque"]
        assert d.keys() == dt.keys()
        for key in d:
            assert d[key] == pytest.approx(dt[key], rel=1e-9, abs=1e-13), key


# through-flow past an off-centre free body on the same grid
THROUGHFLOW = dict(nx=48, ny=40, Lx=1.2, Ly=0.9, r=0.06, x0=0.55, y0=0.42,
                   t_end=0.05)


@pytest.fixture(scope="module")
def throughflow():
    return run(default_config(**THROUGHFLOW), outdir=False, keep_fields=True)


def assert_scaled_run(base, cfg, s):
    """cfg's run is base's with its velocity times s: the same steps, the
    same density, and s times the velocity."""
    rep = run(cfg, outdir=False, keep_fields=True)
    assert rep.steps == base.steps > 5
    assert_close(base.final_rho, rep.final_rho)
    assert_close(s * base.final_vel.u, rep.final_vel.u)
    assert_close(s * base.final_vel.v, rep.final_vel.v)


@pytest.mark.parametrize("s", [1e-4, 1e-2, 1e2, 1e4])
def test_length_scaling_whole_run(throughflow, s):
    # x -> s x: every length, and the viscosities and eps (density times
    # speed times length), times s; n / s, so that n (chi + r)^2 scales as
    # a viscosity
    cfg = default_config(**THROUGHFLOW)
    lengths = ("Lx", "Ly", "h", "r", "radius", "x0", "y0", "mu", "lam",
               "eps", "t_end")
    cfg = cfg.with_updates(n=cfg.n / s,
                           **{k: getattr(cfg, k) * s for k in lengths})
    assert_scaled_run(throughflow, cfg, 1.0)


@pytest.mark.parametrize("s", [0.5, 2.0, 10.0])
def test_velocity_scaling_whole_run(throughflow, s):
    # u -> s u, t -> t / s: the viscosities, eps and n times s, the
    # pressure coefficients a and delta times s^2, the blend sharpness N
    # (an inverse speed) over s
    cfg = default_config(**THROUGHFLOW)
    cfg = cfg.with_updates(
        speed=cfg.speed * s, mu=cfg.mu * s, lam=cfg.lam * s, eps=cfg.eps * s,
        n=cfg.n * s, a=cfg.a * s * s, delta=cfg.delta * s * s, N=cfg.N / s,
        t_end=cfg.t_end / s)
    assert_scaled_run(throughflow, cfg, s)
