"""Config fuzz: every valid small run either finishes with finite ledgers
or raises a typed PenaltyflowError, leaving its rows and an error report."""

import json
import math
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from penaltyflow.config import RunConfig
from penaltyflow.driver import run
from penaltyflow.errors import ConfigError, PenaltyflowError


@st.composite
def small_configs(draw):
    h = draw(st.floats(0.05, 0.15))
    radius = draw(st.floats(0.13, 0.2))
    r = draw(st.floats(0.065, 0.12))
    # mostly grids that resolve the mollifier (2 max(dx, dy) <= r), and
    # now and then one cell too coarse
    n_min = max(8, math.ceil(2.0 / r) - 1)
    # the body starts inside the margin validate() demands
    lo, hi = h + radius + 0.01, 1.0 - h - radius - 0.01
    profile = draw(st.sampled_from(("throughflow", "zero")))
    body_present = draw(st.booleans())
    u0 = draw(st.sampled_from(
        ("extension", "zero")
        + (("stream",) if profile == "throughflow" else ())
        + (("rigid",) if body_present else ())))
    return RunConfig(
        nx=draw(st.integers(n_min, 32)), ny=draw(st.integers(n_min, 32)),
        h=h, r=r, n=draw(st.sampled_from((0.0, 1e2, 1e3, 1e5))),
        delta=draw(st.sampled_from((1e-4, 1e-3, 1e-2))),
        eps=draw(st.sampled_from((1e-4, 1e-3, 1e-2))),
        gamma=draw(st.floats(1.55, 2.0)),
        mu=draw(st.floats(0.01, 1.0)), lam=draw(st.floats(0.0, 1.0)),
        profile=profile, speed=draw(st.floats(0.0, 0.5)),
        rho_b=draw(st.floats(0.5, 2.0)),
        taper=draw(st.sampled_from((0.0, 0.1))),
        rho0=draw(st.floats(0.5, 2.0)), u0=u0,
        body_present=body_present, body_mobile=draw(st.booleans()),
        x0=draw(st.floats(lo, hi)), y0=draw(st.floats(lo, hi)),
        radius=radius, rho_s=draw(st.floats(0.5, 4.0)),
        markers=draw(st.integers(16, 64)),
        v0x=draw(st.floats(-0.2, 0.2)), v0y=draw(st.floats(-0.2, 0.2)),
        w0=draw(st.floats(-1.0, 1.0)),
        t_end=draw(st.floats(0.005, 0.05)),
        cfl=draw(st.floats(0.1, 1.0)),
        dt=draw(st.sampled_from((0.0, 1e-3, 5e-3))),
        snapshots=draw(st.booleans()), vtk=True, cadence=2,
    )


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(small_configs())
def test_valid_configs_finish_or_raise_typed(cfg):
    try:
        cfg.validate()
    except ConfigError:
        # decided by the initial grid and body (an unresolved mollifier, an
        # erosion of the whole body, a probe ring in the wall collar): the
        # config never reaches a run
        return
    with tempfile.TemporaryDirectory() as outdir:
        try:
            rep = run(cfg, outdir=outdir)
        except PenaltyflowError as exc:
            with open(os.path.join(outdir, "report.json")) as f:
                report = json.load(f)
            assert report["error"]["type"] == type(exc).__name__
            with open(os.path.join(outdir, "diagnostics.csv")) as f:
                assert sum(1 for _ in f) == report["steps"] + 1
            return
        assert rep.rows
        for row in rep.rows:
            assert all(math.isfinite(v) for v in row.as_dict().values())
        assert rep.aggregates["max_mass_residual"] <= 1e-10
