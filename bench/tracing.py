"""Spans recorded at the solver's module boundaries, from outside the package.

A ``Tracer`` replaces chosen module attributes (``driver.momentum_step``,
``momentum.cg``, ...) by wrappers that record one span per call: name,
start, end, parent span and run id.  The solver looks these names up in its
own module namespaces at call time, so the wrappers see every call without
any change to the package.  ``restore`` puts every original back.

Spans stay in memory until the repetition ends; ``layer_metrics`` derives
the per-layer numbers (inclusive and self times, iteration counts) from them.
"""

from __future__ import annotations

import functools
import statistics
import time


class Tracer:
    def __init__(self):
        # each span: [name, start, end, parent index or None, run id, iters]
        self.spans = []
        self.missing = []
        self.reports = []  # what each call of ``driver.run`` returned
        self._stack = []
        self._saved = []
        self._run_id = -1

    def wrap(self, module, attr, name):
        """Record a span per call of ``module.attr``; remember a missing
        attribute instead of failing, so a renamed layer reads as missing."""
        orig = getattr(module, attr, None)
        if orig is None:
            self.missing.append(name)
            return
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        is_run = name == "driver.run"

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if is_run:
                self._run_id += 1
            span = [name, clock(), None,
                    stack[-1] if stack else None, self._run_id, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = orig(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if isinstance(result, tuple) and len(result) == 2:
                span[5] = getattr(result[1], "iterations", None)
            if is_run:
                self.reports.append(result)
            return result

        setattr(module, attr, wrapper)
        self._saved.append((module, attr, orig))

    def install(self, targets):
        """``targets``: (module, attribute, span name) triples."""
        for module, attr, name in targets:
            self.wrap(module, attr, name)

    def restore(self):
        for module, attr, orig in reversed(self._saved):
            setattr(module, attr, orig)
        self._saved.clear()

    def dump(self):
        return [dict(zip(("name", "start", "end", "parent", "run", "iters"),
                         s)) for s in self.spans]


def _runs(spans):
    """Group span indices by run id, in order."""
    runs = {}
    for i, s in enumerate(spans):
        runs.setdefault(s[4], []).append(i)
    return [runs[k] for k in sorted(runs) if k >= 0]


def _step_starts(spans, idx):
    """Entry times of the steps of the run whose spans are ``idx``."""
    return [spans[i][1] for i in idx
            if spans[i][0] == "driver.continuity_step"
            and spans[i][3] == idx[0]]


def run_timing(spans):
    """Per run: (setup seconds, step intervals in ms).

    Set-up is entry into ``run`` to entry into the second step's
    ``continuity_step``; a step interval is the time between two
    consecutive ``continuity_step`` entries of one run.
    """
    out = []
    for idx in _runs(spans):
        starts = _step_starts(spans, idx)
        run = spans[idx[0]]
        setup = (starts[1] if len(starts) > 1 else run[2]) - run[1]
        ms = [1e3 * (b - a) for a, b in zip(starts[:-1], starts[1:])]
        out.append((setup, ms))
    return out


BODY = ("driver.body_step", "driver.body_signed_distance",
        "driver.rigid_velocity_field", "driver.collision_guard")
PROBES = ("driver.rigidity_measure", "driver.fluid_mask",
          "driver.interior_pressure_norm", "driver.surface_force_torque")
WRITES = ("driver.write_field", "driver.write_vti")
STEP_LAYERS = {
    "continuity.ms_per_step": ("driver.continuity_step",),
    "momentum.ms_per_step": ("driver.momentum_step",),
    "body.ms_per_step": BODY,
    "diagnostics.ledger_ms_per_step": ("driver.ledger_step",),
    "diagnostics.probes_ms_per_step": PROBES,
}


def layer_metrics(spans, missing=()):
    """Per-layer numbers of one repetition (all runs of it pooled).

    Per-step times are means over steady steps: from the second step's
    ``continuity_step`` entry to the last step's, so the one-time work of
    step 1 is left to the set-up metrics.  A metric whose wrapped name was
    missing is returned as None.
    """
    total = {k: 0.0 for k in STEP_LAYERS}
    solve = {"momentum": 0.0, "continuity": 0.0}
    other = 0.0
    n_steady = 0
    iters = {"driver.momentum_step": [], "driver.continuity_step": []}
    snap_ms = []
    extension = regularize = first_step = write = 0.0
    steps = 0

    for idx in _runs(spans):
        run = spans[idx[0]]
        starts = _step_starts(spans, idx)
        steps += len(starts)
        first_momentum = True
        snaps = {}
        for i in idx:
            name, t0, t1, parent, _, it = spans[i]
            if name in iters and it is not None:
                iters[name].append(it)
            if name == "config.build_extension":
                extension += t1 - t0
            elif name == "continuity.regularize_initial_density":
                regularize += t1 - t0
            elif name == "driver._aggregate":
                write += run[2] - t1
            elif name == "driver.momentum_step" and first_momentum:
                first_step += t1 - t0
                first_momentum = False
            if name in WRITES:
                k = sum(1 for s in starts if s <= t0)
                lo, hi = snaps.get(k, (t0, t1))
                snaps[k] = (min(lo, t0), max(hi, t1))
        snap_ms += [1e3 * (hi - lo) for lo, hi in snaps.values()]
        if len(starts) < 3:
            continue
        lo, hi = starts[1], starts[-1]
        n_steady += len(starts) - 2
        windows = [w for w in snaps.values() if lo <= w[0] < hi]
        busy = sum(b - a for a, b in windows)
        for i in idx:
            name, t0, t1, parent, _, _ = spans[i]
            if not lo <= t0 < hi:
                continue
            if parent == idx[0]:
                if any(a <= t0 < b for a, b in windows):
                    continue  # work done for a snapshot counts as fields I/O
                busy += t1 - t0
                for key, names in STEP_LAYERS.items():
                    if name in names:
                        total[key] += t1 - t0
            elif name in ("momentum.cg", "continuity.cg"):
                solve[name.split(".")[0]] += t1 - t0
        other += (hi - lo) - busy

    per = 1e3 / n_steady if n_steady else float("nan")
    mom_iters = iters["driver.momentum_step"]
    con_iters = iters["driver.continuity_step"]
    out = {
        "momentum.solve_ms_per_step": solve["momentum"] * per,
        "momentum.assembly_ms_per_step":
            (total["momentum.ms_per_step"] - solve["momentum"]) * per,
        "momentum.cg_iters_per_step":
            statistics.fmean(mom_iters) if mom_iters else None,
        "momentum.cg_iters_max": max(mom_iters) if mom_iters else None,
        "continuity.ms_per_step": total["continuity.ms_per_step"] * per,
        "continuity.solve_ms_per_step": solve["continuity"] * per,
        "continuity.cg_iters_per_step":
            statistics.fmean(con_iters) if con_iters else None,
        "body.ms_per_step": total["body.ms_per_step"] * per,
        "diagnostics.ledger_ms_per_step":
            total["diagnostics.ledger_ms_per_step"] * per,
        "diagnostics.probes_ms_per_step":
            total["diagnostics.probes_ms_per_step"] * per,
        "driver.other_ms_per_step": other * per,
        "diagnostics.write_s": write,
        # zero where the workload writes no snapshots
        "fields.snapshot_ms_per_write":
            statistics.fmean(snap_ms) if snap_ms else 0.0,
        "geometry.extension_s": extension,
        "continuity.regularize_s": regularize,
        "momentum.first_step_s": first_step,
        "driver.steps": steps,
    }
    for key, needs in NEEDS.items():
        if any(n in missing for n in needs):
            out[key] = None
    return out


# the wrapped names each layer metric is derived from
NEEDS = {
    "momentum.solve_ms_per_step": ("momentum.cg", "driver.momentum_step"),
    "momentum.assembly_ms_per_step": ("momentum.cg", "driver.momentum_step"),
    "momentum.cg_iters_per_step": ("driver.momentum_step",),
    "momentum.cg_iters_max": ("driver.momentum_step",),
    "momentum.first_step_s": ("driver.momentum_step",),
    "continuity.ms_per_step": ("driver.continuity_step",),
    "continuity.solve_ms_per_step": ("continuity.cg",),
    "continuity.cg_iters_per_step": ("driver.continuity_step",),
    "body.ms_per_step": BODY,
    "diagnostics.ledger_ms_per_step": ("driver.ledger_step",),
    "diagnostics.probes_ms_per_step": PROBES,
    "diagnostics.write_s": ("driver._aggregate",),
    "fields.snapshot_ms_per_write": WRITES,
    "geometry.extension_s": ("config.build_extension",),
    "continuity.regularize_s": ("continuity.regularize_initial_density",),
}
