"""One repetition of one workload, in a fresh interpreter.

    python3 bench/worker.py WORKLOAD SEED MODE OUTDIR [--tiny]

Builds the workload's config from the seed, hooks the solver's module
boundaries (only the step boundary unless MODE is "traced"), calls
``penaltyflow.driver.run`` or ``sweep``, checks the outputs and prints one
JSON line with the timings, the checks and (when traced) the layer metrics.
The spans go to OUTDIR/spans.json.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import sys
import time
import traceback
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("free96", "stiff192", "held96", "sweep48")
MODES = ("untraced", "traced", "setup")
SWEEP_VALUES = (1e2, 1e3, 1e4, 1e5)
MASS_TOL = 1e-10       # acceptance criterion 3
SIGN_TOL = -1e-12      # acceptance criterion 2
REF_RTOL = 1e-8        # aggregates against the seed-0 reference
REF_ATOL = 1e-13       # floor for aggregates at round-off level
SIGN_TERMS = ("dissipation", "eps_term", "outflow_term", "convexity_term",
              "convexity_slack_min")


def workload_config(name, seed, tiny=False):
    """Keyword overrides of ``default_config`` for a workload.

    Seed 0 is the fixed reference scenario; any other seed moves the body's
    start by up to 0.02 in each direction.  ``tiny`` shrinks the grid and
    the horizon for the smoke test.
    """
    kw = {
        "free96": dict(t_end=0.3),
        "stiff192": dict(nx=192, ny=192, n=1e5, t_end=0.03),
        "held96": dict(body_mobile=False, t_end=0.3, snapshots=True,
                       vtk=True, cadence=5),
        "sweep48": dict(nx=48, ny=48, r=0.05, t_end=0.5),
    }[name]
    if seed:
        rng = random.Random(seed)
        kw["x0"] = 0.5 + rng.uniform(-0.02, 0.02)
        kw["y0"] = 0.5 + rng.uniform(-0.02, 0.02)
    if tiny:
        kw.update(nx=32, ny=32, r=0.07, t_end=0.06, cadence=2)
    return kw


def planned_runs(name):
    """How many solver runs one repetition of the workload makes."""
    return len(SWEEP_VALUES) if name == "sweep48" else 1


def targets(trace):
    """(module, attribute, span name) of every hooked boundary."""
    from penaltyflow import config, continuity, driver, momentum
    base = [(driver, "run", "driver.run"),
            (driver, "continuity_step", "driver.continuity_step")]
    if not trace:
        return base
    on_driver = ("momentum_step", "body_step", "body_signed_distance",
                 "rigid_velocity_field", "collision_guard", "ledger_step",
                 "rigidity_measure", "fluid_mask", "interior_pressure_norm",
                 "surface_force_torque", "write_field", "write_vti",
                 "_aggregate")
    return base + [(driver, a, "driver." + a) for a in on_driver] + [
        (config, "build_extension", "config.build_extension"),
        (continuity, "regularize_initial_density",
         "continuity.regularize_initial_density"),
        (continuity, "cg", "continuity.cg"),
        (momentum, "cg", "momentum.cg"),
    ]


def check_report(rep, outdir):
    """Failures of one ``run``'s outputs, as short strings."""
    if not rep.rows:
        return ["no ledger rows"]
    bad = []
    for k, row in enumerate(rep.rows):
        if not all(math.isfinite(v) for v in row.as_dict().values()):
            bad.append(f"row {k}: non-finite ledger entry")
            break
    if rep.aggregates["max_mass_residual"] > MASS_TOL:
        bad.append(f"max_mass_residual {rep.aggregates['max_mass_residual']}")
    worst = min(getattr(r, t) for r in rep.rows for t in SIGN_TERMS)
    if worst < SIGN_TOL:
        bad.append(f"sign-definite ledger term {worst}")
    if outdir:
        with open(os.path.join(outdir, "report.json")) as f:
            written = json.load(f)
        if written["steps"] != rep.steps:
            bad.append("report.json disagrees with the returned report")
        with open(os.path.join(outdir, "diagnostics.csv")) as f:
            if sum(1 for _ in f) != rep.steps + 1:
                bad.append("diagnostics.csv row count != steps")
    return bad


def compare_reference(got, want):
    """Failures of one run against its committed seed-0 reference: steps
    exactly, aggregates to REF_RTOL relative with the REF_ATOL floor."""
    bad = []
    if got["steps"] != want["steps"]:
        bad.append(f"steps {got['steps']} != reference {want['steps']}")
    for key, w in want["aggregates"].items():
        g = got["aggregates"].get(key)
        if g is None or not abs(g - w) <= REF_RTOL * abs(w) + REF_ATOL:
            bad.append(f"{key} {g!r} != reference {w!r}")
    return bad


class _SetupDone(Exception):
    """Raised at the second step's entry to end a set-up-only run."""


def stop_after_setup(driver):
    """Make every ``driver.run`` end at its second ``continuity_step`` entry
    and return a stub report; returns the function that undoes this."""
    step, run = driver.continuity_step, driver.run
    calls = [0]

    def continuity_step(*args, **kwargs):
        calls[0] += 1
        if calls[0] == 2:
            raise _SetupDone
        return step(*args, **kwargs)

    def run_setup(*args, **kwargs):
        calls[0] = 0
        try:
            return run(*args, **kwargs)
        except _SetupDone:
            return SimpleNamespace(final_t=0.0, steps=0, aggregates={},
                                   stopped_early=False, final_rho=None,
                                   energy_series=[], rows=[])

    driver.continuity_step, driver.run = continuity_step, run_setup

    def undo():
        driver.continuity_step, driver.run = step, run
    return undo


def run_workload(name, seed, mode, outdir, tiny=False, reference=None):
    """Run one repetition in this process; returns the result dict.

    ``mode`` is one of MODES: "untraced" hooks only the step boundary,
    "traced" every layer boundary, and "setup" ends each run at its second
    step, to sample set-up time alone.  ``reference`` is the workload's list
    of seed-0 run summaries, or None to skip that comparison.  The hooks
    are removed before this returns, also when the run raises.
    """
    from penaltyflow import driver
    from penaltyflow.config import default_config
    from tracing import Tracer, layer_metrics, run_timing

    cfg = default_config(**workload_config(name, seed, tiny))
    os.makedirs(outdir, exist_ok=True)
    runs_dir = os.path.join(outdir, "run") if name != "sweep48" else False
    undo = stop_after_setup(driver) if mode == "setup" else (lambda: None)
    tracer = Tracer()
    tracer.install(targets(mode == "traced"))
    error = None
    try:
        t0 = time.perf_counter()
        if name == "sweep48":
            result = driver.sweep(cfg, "n", SWEEP_VALUES, jobs=1)
        else:
            result = driver.run(cfg, outdir=runs_dir)
        wall = time.perf_counter() - t0
    except Exception:  # a failing run is a result, not a crash
        error = traceback.format_exc(limit=-3)
    finally:
        tracer.restore()
        undo()

    planned = planned_runs(name)
    out = {"workload": name, "seed": seed, "mode": mode,
           "peak_rss_mb": resource.getrusage(
               resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "attempted": planned, "failed": 0, "failures": []}
    if error is not None:
        out.update(failed=planned, failures=[error])
        return out

    timing = run_timing(tracer.spans)
    out["setup_s"] = sum(s for s, _ in timing)
    if mode == "setup":
        return out
    out.update(wall_s=wall, step_ms=[ms for _, step in timing for ms in step])
    summaries = [{"steps": r.steps, "aggregates": r.aggregates}
                 for r in tracer.reports]
    for k, rep in enumerate(tracer.reports):
        bad = check_report(rep, runs_dir)
        if reference is not None:
            bad += compare_reference(summaries[k], reference[k])
        if name == "sweep48" and not result.trend["strictly_decreasing"]:
            bad.append("rigidity trend over n not strictly decreasing")
        out["failures"] += [f"run {k}: {b}" for b in bad]
        out["failed"] += bool(bad)
    out["summaries"] = summaries
    if mode == "traced":
        out["layers"] = layer_metrics(tracer.spans, tracer.missing)
        out["missing"] = tracer.missing
        with open(os.path.join(outdir, "spans.json"), "w") as f:
            json.dump(tracer.dump(), f)
    return out


def context():
    """The software and machine the repetition ran on."""
    import ctypes
    import glob
    import platform

    import numpy
    import scipy
    threads = None
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                        "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"nproc": os.cpu_count(), "blas_threads": threads,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main(argv):
    name, seed, mode, outdir = argv[:4]
    if name not in WORKLOADS or mode not in MODES:
        raise SystemExit(f"unknown workload {name!r} or mode {mode!r}")
    sys.path.insert(0, SRC)
    import penaltyflow
    if not os.path.abspath(penaltyflow.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"penaltyflow not imported from {SRC}")
    tiny = "--tiny" in argv[4:]
    reference = None
    if int(seed) == 0 and not tiny:
        with open(os.path.join(HERE, "reference.json")) as f:
            reference = json.load(f)[name]
    out = run_workload(name, int(seed), mode, outdir, tiny, reference)
    out["context"] = context()
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
