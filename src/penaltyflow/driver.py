"""The time loop (mass transport -> momentum -> body -> ledgers), the
parameter sweeps, and run/sweep reports."""

from __future__ import annotations

import contextlib
import functools
import json
import os
import platform
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy

from .body import (BodyStepInfo, body_signed_distance, body_step,
                   collision_guard, rigid_velocity_field, t0_lower_bound)
from .config import RunConfig
from .continuity import (MASS_BUDGET_TOL, ContinuityStepInfo,
                         continuity_step)
from .diagnostics import (CSV_SCHEMA, EnergyLedgerRow, fluid_mask,
                          interior_pressure_norm, ledger_step, probe_ring,
                          rigidity_measure, surface_force_torque)
from .errors import (ConfigError, MassBudgetError, PenaltyflowError,
                     ProbeOutside)
from .fields import (MollifierKernel, VectorField, sym_gradient,
                     write_field, write_vti)
from .momentum import (MomentumStepInfo, PreconditionerRule, Problem,
                       SolutionHistory, ViscousState, momentum_step,
                       sound_speed_max)

BODY_CSV_SCHEMA = ("t", "Xx", "Xy", "theta", "Vx", "Vy", "w",
                   "rigidity_defect", "margin")


@dataclass
class RunReport:
    """A run's outcome.  report.json holds the fields up to ``extension``,
    and ``stopped_by`` when the run stopped early: the check that rejected
    its last step, "collision guard" or "probe ring"."""
    final_t: float
    t_max: float
    steps: int
    stopped_early: bool
    violation_t: float | None
    violation_margin: float | None
    c_run: float
    t0_bound: float | None
    initial_clearance: float | None
    aggregates: dict
    extension: dict
    stopped_by: str | None = None
    outdir: str | None = None
    rows: list = field(default=None, repr=False)
    body_rows: list = field(default=None, repr=False)
    final_rho: np.ndarray = field(default=None, repr=False)
    final_vel: VectorField = field(default=None, repr=False)


def _timestep(cfg, s):
    """The stepper's next dt: the fixed one, or the CFL one, cut at t_end."""
    remaining, p = cfg.t_end - s.t, s.problem
    if cfg.dt > 0:
        return min(cfg.dt, remaining)
    vmax = max(s.vel.max_speed(), p.bc.max_trace_speed())
    # explicit pressure forces an acoustic-aware step; the advective
    # precondition of the steps then holds a fortiori
    wave = vmax + sound_speed_max(s.rho, p.params)
    return min(cfg.cfl * min(p.grid.dx, p.grid.dy) / wave, remaining)


class _Outputs:
    """A run's accepted rows.  With an output directory they also stream to
    diagnostics.csv and body.csv, each row written as its step is
    accepted, and report.json is written when the run ends, with the
    run's ``versions`` block whether it completed or failed."""

    def __init__(self, outdir, versions):
        self.outdir = outdir or None
        self.versions = versions
        self.rows, self.body_rows = [], []
        self._files = []
        if self.outdir:
            os.makedirs(self.outdir, exist_ok=True)
            self._diag = self._open_csv("diagnostics.csv", CSV_SCHEMA)
            self._body = self._open_csv("body.csv", BODY_CSV_SCHEMA)

    def _open_csv(self, name, schema):
        f = open(os.path.join(self.outdir, name), "w")
        self._files.append(f)
        f.write(",".join(schema) + "\n")
        return f

    def add_row(self, row):
        self.rows.append(row)
        if self.outdir:
            self._diag.write(_csv_line(row.csv_values()))

    def add_body_row(self, values):
        self.body_rows.append(values)
        if self.outdir:
            self._body.write(_csv_line(values))

    def add_snapshot(self, stepper, vtk):
        """The stepper's fields as snap_<step>_*.dat (and .vti, with chi)."""
        s, grid = stepper, stepper.problem.grid
        path = functools.partial(os.path.join, self.outdir)
        tag = f"{s.steps:06d}"
        write_field(path(f"snap_{tag}_rho.dat"), grid, s.rho, "centers")
        write_field(path(f"snap_{tag}_u.dat"), grid, s.vel.u, "ufaces")
        write_field(path(f"snap_{tag}_v.dat"), grid, s.vel.v, "vfaces")
        if vtk:
            from .fields import faces_to_centers
            uc, vc = faces_to_centers(grid, s.vel.u, s.vel.v)
            write_vti(path(f"snap_{tag}.vti"), grid,
                      {"rho": s.rho, "u": uc, "v": vc, "chi": s.chi})

    def close(self):
        for f in self._files:
            f.close()

    def write_report(self, data):
        if self.outdir:
            with open(os.path.join(self.outdir, "report.json"), "w") as f:
                json.dump(dict(data, versions=self.versions), f, indent=2,
                          sort_keys=True)
                f.write("\n")

    def write_failure(self, exc):
        """report.json of the steps accepted before ``exc`` ended the run;
        ``error.step`` numbers the failing step (1 also for a failure while
        setting up) and ``error.t`` is its start time."""
        t = self.rows[-1].t if self.rows else 0.0
        self.write_report({
            "steps": len(self.rows), "final_t": t,
            "aggregates": _aggregate(self.rows),
            "error": {"type": type(exc).__name__, "message": str(exc),
                      "step": len(self.rows) + 1, "t": t}})


def _csv_line(values):
    return ",".join(repr(float(v)) for v in values) + "\n"


# numpy's and scipy's bundled OpenBLAS copies, by the package that ships
# each and the suffix of its symbols (numpy's is the ILP64 build)
_OPENBLAS = ((np, "64_"), (scipy, ""))


@functools.cache
def _openblas_libraries():
    """(path, get, set) of each bundled OpenBLAS this process has mapped,
    looked up once per process; empty where the packages bundle none."""
    import ctypes
    import glob
    found = []
    for package, suffix in _OPENBLAS:
        libs = os.path.join(os.path.dirname(package.__path__[0]),
                            package.__name__ + ".libs", "libscipy_openblas*")
        for path in sorted(glob.glob(libs)):
            try:
                # NOLOAD: only a copy that is already mapped, never a new one
                lib = ctypes.CDLL(path, mode=getattr(os, "RTLD_NOLOAD", 0))
                get = getattr(lib, "scipy_openblas_get_num_threads" + suffix)
                put = getattr(lib, "scipy_openblas_set_num_threads" + suffix)
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = (), ctypes.c_int
            put.argtypes, put.restype = (ctypes.c_int,), None
            found.append((os.path.realpath(path), get, put))
    return tuple(found)


@contextlib.contextmanager
def _one_blas_thread():
    """Set every bundled OpenBLAS to one thread for the block and restore
    the caller's counts after it; yields each library's path and count."""
    libs = _openblas_libraries()
    saved = [get() for _, get, _ in libs]
    try:
        for _, _, put in libs:
            put(1)
        yield [{"library": path, "threads": get()} for path, get, _ in libs]
    finally:
        for (_, _, put), count in zip(libs, saved):
            put(count)


@dataclass
class StepRecord:
    """What one ``Stepper.step`` computed.  ``row`` is the step's ledger
    row with its probes, or None when a check rejected the step, which
    ``rejected_by`` names; ``t`` is the step's end time, ``margin`` its
    guard margin (nan without a body) and ``body`` None unless a free body
    moved."""
    t: float
    row: EnergyLedgerRow | None
    continuity: ContinuityStepInfo
    momentum: MomentumStepInfo
    body: BodyStepInfo | None
    margin: float
    rejected_by: str | None = None

    @property
    def accepted(self) -> bool:
        return self.row is not None


class Stepper:
    """One run's state and its split step: mass transport, momentum, the
    rigid body and its collision guard, then the ledger and the probes.

    The viscous CG starts from the projection onto this run's recent
    solutions (``history``), preconditioned as this run's ``rule`` picks;
    both are the stepper's, so steppers stepped side by side stay
    independent.  The moved body must pass two checks: the collision guard,
    and then the traction probe ring, which must keep clear of the wall
    collar.  A step that either rejects leaves t, rho, u, the body, chi,
    E_prev, the step count and ``c2_sum`` (c_run) as they were.
    Each stage is called through this module's names, which the
    benchmark's tracer wraps."""

    def __init__(self, problem: Problem, body, rho, vel: VectorField,
                 mobile: bool = True):
        grid = problem.grid
        self.problem, self.body, self.rho, self.vel = problem, body, rho, vel
        self.mobile = mobile
        self.t, self.steps, self.c2_sum = 0.0, 0, 0.0
        self.E_prev = None   # the last row's E: the next step's E0
        self.kernel = self.hold = None
        if body is not None and mobile:
            self.kernel = MollifierKernel.build(problem.params.r_moll,
                                                grid.dx, grid.dy)
        self.chi = self._chi(body)
        if body is not None and not mobile:
            # tethered diagnostic mode: the solid core is an internal
            # Dirichlet region held at the prescribed rigid velocity; a
            # tethered body never moves, so the mask is fixed for the run
            m = 2.0 * max(grid.dx, grid.dy)
            self.hold = (body_signed_distance(body, grid, "ufaces") >= m,
                         body_signed_distance(body, grid, "vfaces") >= m)
        self.history = SolutionHistory()
        self.rule = PreconditionerRule(grid, mobile_body=body is not None
                                       and mobile)
        self.viscous = None  # chi's viscous data, dropped when chi changes

    def _chi(self, body):
        grid = self.problem.grid
        if body is None:
            return np.full((grid.nx, grid.ny), -1e3)
        return body_signed_distance(body, grid)

    def step(self, dt: float) -> StepRecord:
        problem, body, rho, vel, t = (self.problem, self.body, self.rho,
                                      self.vel, self.t)
        grid, domain, params = problem.grid, problem.domain, problem.params
        rho_new, cinfo = continuity_step(problem, rho, vel, dt)
        if not cinfo.mass_residual <= MASS_BUDGET_TOL:
            raise MassBudgetError(
                f"relative mass budget residual {cinfo.mass_residual:.3e} "
                f"exceeds {MASS_BUDGET_TOL:g} in the step from t = {t!r}")
        if self.viscous is None:
            # only held and vacuum faces read the rigid pin
            pin = None if body is None else (
                lambda: rigid_velocity_field(grid, body.X, body.V, body.w))
            self.viscous = ViscousState(problem, self.chi, pin, self.hold)
        vel_new, minfo = momentum_step(self.viscous, rho, rho_new, vel, dt,
                                       rule=self.rule, history=self.history)
        margin, binfo, body_new = float("nan"), None, body
        if body is not None:
            if self.mobile:
                body_new, binfo = body_step(grid, domain, body, vel_new,
                                            self.kernel, dt)
            guard = collision_guard(body_new, domain, params.h,
                                    params.r_moll)
            margin = guard.margin
            rejected_by = None if guard.ok else "collision guard"
            if guard.ok:
                try:
                    probe_ring(grid, domain, body_new)
                except ProbeOutside:
                    rejected_by = "probe ring"
            if rejected_by is not None:
                return StepRecord(t + dt, None, cinfo, minfo, binfo, margin,
                                  rejected_by)
            if binfo is not None:
                self.c2_sum += binfo.mollified_max ** 2 * dt

        chi_new = self.chi if body_new is body else self._chi(body_new)
        row = ledger_step(self.viscous, rho, vel, rho_new, vel_new, dt,
                          t + dt, E0=self.E_prev)
        row.mass_residual = cinfo.mass_residual
        if body_new is not None:
            strain = sym_gradient(grid, vel_new.u, vel_new.v)
            row.rigidity = rigidity_measure(grid, vel_new, chi_new,
                                            strain=strain)
            kmask = fluid_mask(problem, chi_new)
            row.pnorm_gamma, row.pnorm_beta = interior_pressure_norm(
                grid, rho_new, kmask, params)
            force, torque = surface_force_torque(grid, domain, rho_new,
                                                 vel_new, body_new, params,
                                                 strain=strain)
            row.Fx, row.Fy, row.torque = float(force[0]), float(force[1]), \
                torque
            row.margin = margin
        if chi_new is not self.chi:
            # a body that moved: a new chi and a new rigid pin.  A held
            # body or none keeps both, and so its state, for the run
            self.viscous = None
        self.rho, self.vel, self.body, self.chi = (rho_new, vel_new, body_new,
                                                   chi_new)
        self.t, self.steps, self.E_prev = t + dt, self.steps + 1, row.E
        return StepRecord(t + dt, row, cinfo, minfo, binfo, margin)

    def body_values(self, rec: StepRecord) -> tuple:
        """body.csv's row after the accepted step ``rec``."""
        b = self.body
        defect = 0.0 if rec.body is None else rec.body.rigidity_defect
        return (rec.t, b.X[0], b.X[1], b.theta, b.V[0], b.V[1], b.w, defect,
                rec.margin)


def start(cfg: RunConfig):
    """``cfg``'s Stepper at t = 0, and the run's extension report."""
    domain, grid, params = cfg.make_domain(), cfg.make_grid(), \
        cfg.make_params()
    bc, ext_report = cfg.make_boundary(domain, grid)
    body = cfg.make_body()
    # looked up when called, so that a wrapper set on the continuity
    # module (the benchmark's tracer) sees the call
    from .continuity import regularize_initial_density
    rho = regularize_initial_density(grid, cfg.initial_density(grid), params,
                                     bc)
    vel = cfg.initial_velocity(grid, bc, body)
    return (Stepper(Problem(grid, domain, params, bc), body, rho, vel,
                    cfg.body_mobile), ext_report)


def run(cfg: RunConfig, outdir=None, keep_fields: bool = False) -> RunReport:
    """Execute one configured run; writes diagnostics.csv, body.csv and
    report.json under the output directory (unless outdir is False).

    The CSV rows are written as the steps are accepted, so a run that
    raises keeps them; a PenaltyflowError is recorded under ``error`` in
    report.json and then re-raised.  The run computes with one BLAS thread,
    so its outputs do not depend on the caller's thread count, which is
    restored on exit."""
    cfg.validate()
    if outdir is None:
        outdir = os.environ.get("PENALTYFLOW_OUTDIR", cfg.outdir)
    with _one_blas_thread() as blas:
        out = _Outputs(outdir, {
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas})
        try:
            s, ext_report = start(cfg)
            p, body = s.problem, s.body
            clearance = None if body is None else float(
                p.domain.boundary_distance(body.X[0], body.X[1]) - body.radius)
            rec = None
            while s.t < cfg.t_end * (1.0 - 1e-12):
                rec = s.step(_timestep(cfg, s))
                if not rec.accepted:
                    # the run's reach is the last accepted time; the margin
                    # belongs to the rejected step, below zero when the
                    # guard rejected it
                    break
                out.add_row(rec.row)
                if s.body is not None:
                    out.add_body_row(s.body_values(rec))
                if out.outdir and cfg.snapshots and s.steps % cfg.cadence == 0:
                    out.add_snapshot(s, cfg.vtk)

            c_run = float(np.sqrt(s.c2_sum))
            t0 = None
            if body is not None:
                # nothing moved: the bound saturates the horizon
                t0 = (t0_lower_bound(clearance, p.params.h, c_run, cfg.t_end)
                      if c_run > 0 else cfg.t_end)
            stopped = rec is not None and not rec.accepted
            summary = dict(
                final_t=s.t, t_max=s.t, steps=s.steps, stopped_early=stopped,
                violation_t=rec.t if stopped else None,
                violation_margin=rec.margin if stopped else None,
                c_run=c_run, t0_bound=t0, initial_clearance=clearance,
                aggregates=_aggregate(out.rows),
                extension={k: v for k, v in asdict(ext_report).items()
                           if k != "div_roundoff"})
            if stopped:
                summary["stopped_by"] = rec.rejected_by
        except PenaltyflowError as exc:
            out.write_failure(exc)
            raise
        finally:
            out.close()
        out.write_report(summary)
    return RunReport(**summary, outdir=out.outdir, rows=out.rows,
                     body_rows=out.body_rows,
                     final_rho=s.rho.copy() if keep_fields else None,
                     final_vel=s.vel.copy() if keep_fields else None)


def _aggregate(rows):
    if not rows:
        return {}

    def arr(name):
        return np.array([getattr(r, name) for r in rows])

    return {
        "E_first": float(rows[0].E),
        "E_final": float(rows[-1].E),
        "max_mass_residual": float(np.max(arr("mass_residual"))),
        "mean_abs_energy_residual": float(
            np.mean(np.abs(arr("energy_residual")))),
        "max_abs_energy_residual": float(
            np.max(np.abs(arr("energy_residual")))),
        "min_dissipation": float(np.min(arr("dissipation"))),
        "min_eps_term": float(np.min(arr("eps_term"))),
        "min_outflow_term": float(np.min(arr("outflow_term"))),
        "min_convexity_term": float(np.min(arr("convexity_term"))),
        "min_convexity_slack": float(np.min(arr("convexity_slack_min"))),
        "rigidity_mean": float(np.mean(arr("rigidity"))),
        "rigidity_final": float(rows[-1].rigidity),
        "pnorm_gamma_max": float(np.max(arr("pnorm_gamma"))),
        "pnorm_beta_max": float(np.max(arr("pnorm_beta"))),
    }


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------

SWEEP_PARAMS = ("n", "eps", "delta", "N", "dx", "dt")


@dataclass
class SweepReport:
    param: str
    values: list
    run_summaries: list
    trend: dict

    def to_json_dict(self):
        return {"param": self.param, "values": list(self.values),
                "runs": self.run_summaries, "trend": self.trend}


def _config_for(cfg: RunConfig, param: str, value) -> RunConfig:
    if param == "dx":
        nx = int(round(cfg.Lx / float(value)))
        ny = int(round(cfg.Ly / float(value)))
        return cfg.with_updates(nx=nx, ny=ny)
    if param in SWEEP_PARAMS:
        return cfg.with_updates(**{param: float(value)})
    raise ConfigError(f"sweep parameter must be one of {SWEEP_PARAMS}")


def _sweep_worker(args):
    cfg, param = args
    rep = run(cfg, outdir=False, keep_fields=True)
    out = {"final_t": rep.final_t, "steps": rep.steps,
           "aggregates": rep.aggregates, "stopped_early": rep.stopped_early}
    return {"summary": out, "final_rho": rep.final_rho,
            "energy_series": [(r.t, r.E) for r in rep.rows]}


def sweep(cfg: RunConfig, param: str, values, jobs: int = 1) -> SweepReport:
    """Independent runs over monotone parameter values; identical seeds
    and initial data, shared fixed time step for comparability."""
    if param not in SWEEP_PARAMS:
        raise ConfigError(f"sweep parameter must be one of {SWEEP_PARAMS}")
    values = list(values)
    diffs = np.diff(np.asarray(values, dtype=np.float64))
    if not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise ConfigError("sweep values must be strictly monotone")

    configs = [_config_for(cfg, param, v) for v in values]
    if param != "dt" and cfg.dt == 0:
        # pin one conservative step so trajectories stay comparable
        dt = min(_initial_dt(c) for c in configs)
        configs = [c.with_updates(dt=dt) for c in configs]

    tasks = [(c, param) for c in configs]
    if jobs > 1:
        # imported here so that a serial run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            payloads = list(pool.map(_sweep_worker, tasks))
    else:
        payloads = [_sweep_worker(t) for t in tasks]

    trend = _trend(param, values, payloads)
    return SweepReport(param=param, values=values,
                       run_summaries=[p["summary"] for p in payloads],
                       trend=trend)


def _initial_dt(cfg: RunConfig) -> float:
    grid = cfg.make_grid()
    params = cfg.make_params()
    rho_scale = np.array([max(cfg.rho0, cfg.rho_b)])
    wave = cfg.speed + sound_speed_max(rho_scale, params)
    return cfg.cfl * min(grid.dx, grid.dy) / wave


def _trend(param, values, payloads):
    trend = {}
    if param == "n":
        rig = [p["summary"]["aggregates"].get("rigidity_mean", 0.0)
               for p in payloads]
        trend["rigidity_mean"] = rig
        trend["strictly_decreasing"] = all(
            a > b for a, b in zip(rig[:-1], rig[1:]))
        trend["decade_ratios"] = [a / b if b > 0 else float("inf")
                                  for a, b in zip(rig[:-1], rig[1:])]
    elif param == "dt":
        res = [p["summary"]["aggregates"].get("mean_abs_energy_residual",
                                              0.0) for p in payloads]
        trend["mean_abs_energy_residual"] = res
        trend["halving_ratios"] = [a / b if b > 0 else float("inf")
                                   for a, b in zip(res[:-1], res[1:])]
    elif param == "N":
        rhos = [p["final_rho"] for p in payloads]
        cau = [float(np.mean(np.abs(a - b)))
               for a, b in zip(rhos[:-1], rhos[1:])]
        trend["cauchy_l1"] = cau  # mean |drho|; same grid, so L1 up to |O|
        trend["decreasing"] = all(a > b for a, b in zip(cau[:-1], cau[1:]))
    elif param == "eps":
        trend["pnorm_gamma_max"] = [
            p["summary"]["aggregates"].get("pnorm_gamma_max", 0.0)
            for p in payloads]
        trend["pnorm_beta_max"] = [
            p["summary"]["aggregates"].get("pnorm_beta_max", 0.0)
            for p in payloads]
    elif param == "delta":
        series = [p["energy_series"] for p in payloads]
        trend["final_E"] = [s[-1][1] if s else 0.0 for s in series]
        if len(series) >= 2 and series[-1] and series[-2]:
            n = min(len(series[-1]), len(series[-2]))
            a = np.array([e for _, e in series[-2][:n]])
            b = np.array([e for _, e in series[-1][:n]])
            denom = np.maximum(np.abs(b), 1e-300)
            trend["last_pair_max_rel_diff"] = float(
                np.max(np.abs(a - b) / denom))
    return trend


def write_sweep_report(path, report: SweepReport):
    with open(path, "w") as f:
        json.dump(report.to_json_dict(), f, indent=2, sort_keys=True,
                  default=float)
        f.write("\n")
