"""Benchmark of the penaltyflow solver: four workloads, end-to-end times
and per-layer timings taken from outside the package.

    python3 bench/run.py --workload free96 --seed 0 --seconds 30 --trace 0

Each repetition runs in a fresh interpreter (``bench/worker.py``), so it
pays the solver's cold module caches as ``penaltyflow run`` does.  The
repetitions run one after another until the next would end past
``--seconds``.  ``--trace 0`` reports the end-to-end metrics as medians
over the repetitions, and takes set-up time also from extra repetitions
that stop each run at its second step.  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics
(medians over the traced ones) and the tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it gives the
machine context.  Full results and spans go to ``.bench_out/``.  The exit
code is nonzero when any run fails or any output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from worker import WORKLOADS, planned_runs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
DEADLINE_S = 170.0  # the whole run ends within this, whatever --seconds says
MIN_SETUP = 3       # set-up-only repetitions per untraced run; their median
                    # drops a first-solve stall that hits 1 process in ~6
SETUP_REP_S = 1.0   # rough length of one set-up-only repetition

END_TO_END = {"wall_s": "s", "setup_s": "s", "step_ms_p50": "ms",
              "step_ms_p90": "ms", "peak_rss_mb": "MiB"}
PER_LAYER = {
    "momentum.solve_ms_per_step": "ms",
    "momentum.assembly_ms_per_step": "ms",
    "momentum.cg_iters_per_step": "count",
    "momentum.cg_iters_max": "count",
    "continuity.ms_per_step": "ms",
    "continuity.solve_ms_per_step": "ms",
    "continuity.cg_iters_per_step": "count",
    "body.ms_per_step": "ms",
    "diagnostics.ledger_ms_per_step": "ms",
    "diagnostics.probes_ms_per_step": "ms",
    "driver.other_ms_per_step": "ms",
    "diagnostics.write_s": "s",
    "fields.snapshot_ms_per_write": "ms",
    "geometry.extension_s": "s",
    "continuity.regularize_s": "s",
    "momentum.first_step_s": "s",
    "driver.steps": "count",
    "trace_overhead_frac": "frac",
}


def git_commit():
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def repetition(workload, seed, mode, workdir, tiny, timeout):
    """Run one repetition in a fresh interpreter; returns its result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload,
           str(seed), mode, workdir] + (["--tiny"] if tiny else [])
    planned = planned_runs(workload)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"mode": mode, "attempted": planned, "failed": planned,
                "failures": [f"timed out after {timeout:.0f} s"]}
    if proc.returncode != 0:
        return {"mode": mode, "attempted": planned, "failed": planned,
                "failures": [f"worker exited {proc.returncode}: "
                             + proc.stderr.strip()[-2000:]]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload, seed, seconds, trace, tiny=False):
    """Run the repetitions of one benchmark run; returns their results.

    Untraced: whole repetitions while the next one, plus room for
    MIN_SETUP set-up-only ones, still ends within ``seconds`` (at least
    one), then set-up-only repetitions while time is left (at least
    MIN_SETUP of them).  Traced: rounds of one untraced and
    one traced repetition while the next round ends within ``seconds``.
    """
    workdir = os.path.join(OUT, workload)
    os.makedirs(workdir, exist_ok=True)
    rep_dir = os.path.join(workdir, "rep")
    reps = []
    start = time.perf_counter()

    def run(mode):
        t0 = time.perf_counter()
        shutil.rmtree(rep_dir, ignore_errors=True)
        r = repetition(workload, seed, mode, rep_dir, tiny,
                       timeout=max(DEADLINE_S - (t0 - start), 1.0))
        r["seconds"] = time.perf_counter() - t0
        spans = os.path.join(rep_dir, "spans.json")
        if os.path.exists(spans):
            os.replace(spans, os.path.join(
                workdir, f"spans-seed{seed}-rep{len(reps)}.json"))
        shutil.rmtree(rep_dir, ignore_errors=True)
        reps.append(r)
        return r["seconds"] if not r["failed"] else None

    def left():
        return seconds - (time.perf_counter() - start)

    if trace:
        while True:
            a, b = run("untraced"), run("traced")
            if a is None or b is None or left() < a + b:
                return reps
    full = []
    while not full or left() >= statistics.mean(full) + MIN_SETUP * SETUP_REP_S:
        full.append(run("untraced"))
        if full[-1] is None:
            return reps
    setup = []
    while len(setup) < MIN_SETUP or left() >= statistics.mean(setup):
        setup.append(run("setup"))
        if setup[-1] is None or time.perf_counter() - start > 0.8 * DEADLINE_S:
            return reps
    return reps


def _percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(reps):
    full = [r for r in reps if r["mode"] == "untraced"]
    steps = [ms for r in full for ms in r["step_ms"]]
    return {
        "wall_s": statistics.median(r["wall_s"] for r in full),
        "setup_s": statistics.median(r["setup_s"] for r in reps
                                     if r["mode"] != "traced"),
        "step_ms_p50": statistics.median(steps),
        "step_ms_p90": _percentile(steps, 90),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in full),
    }


def per_layer(reps):
    traced = [r for r in reps if r["mode"] == "traced"]
    out = {}
    for key in PER_LAYER:
        vals = [r["layers"].get(key) for r in traced]
        out[key] = None if None in vals or not vals else \
            statistics.median(vals)
    wall = end_to_end(reps)["wall_s"]
    out["trace_overhead_frac"] = \
        statistics.median(r["wall_s"] for r in traced) / wall - 1.0
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small grids and short runs, for the smoke test")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "penaltyflow",
                                       "__init__.py")):
        print(f"no penaltyflow sources under {ROOT}/src", file=sys.stderr)
        return 2

    reps = measure(args.workload, args.seed, args.seconds, args.trace,
                   args.tiny)
    failures = [f for r in reps for f in r["failures"]]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    if not failed:
        values = per_layer(reps) if args.trace else end_to_end(reps)
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    ctx = dict(reps[0].get("context", {}), commit=git_commit())
    result = {"correct": not failures, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    with open(os.path.join(OUT, args.workload,
                           f"result-seed{args.seed}-trace{args.trace}.json"),
              "w") as f:
        json.dump(dict(result, context=ctx, repetitions=[
            {k: v for k, v in r.items() if k != "step_ms"} for r in reps]),
            f, indent=1)
    for line in failures:
        print(f"check failed: {line}", file=sys.stderr)
    print("context " + json.dumps(ctx))
    print(json.dumps(result))
    return 0 if result["correct"] and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
