"""Command line entry points: run, sweep, verify, mms."""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import load_config, write_example_config
from .driver import SWEEP_PARAMS, run, sweep, write_sweep_report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="penaltyflow",
        description="Penalty/fictitious-domain solver for a rigid body in "
                    "compressible isentropic flow with inflow-outflow "
                    "boundaries")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one configured run")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--outdir", default=None,
                       help="output directory (default: config value, "
                            "overridden by PENALTYFLOW_OUTDIR)")

    p_sweep = sub.add_parser("sweep", help="independent runs over one knob")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated monotone values")
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.add_argument("--outdir", default=None)

    p_verify = sub.add_parser("verify", help="run the property battery")
    p_verify.add_argument("--fast", action="store_true")
    p_verify.add_argument("--report", default=None,
                          help="write the machine-readable result list here")

    p_mms = sub.add_parser("mms", help="manufactured-solution convergence")
    p_mms.add_argument("--which", required=True,
                       choices=("continuity", "momentum"))

    p_ex = sub.add_parser("example-config",
                          help="write a fully commented default config")
    p_ex.add_argument("path")

    args = parser.parse_args(argv)

    if args.command == "run":
        rep = run(load_config(args.config), outdir=args.outdir)
        print(f"run finished: t = {rep.final_t:.6g} after {rep.steps} steps"
              + (" (stopped at the collision guard)" if rep.stopped_early
                 else ""))
        print(f"outputs in {rep.outdir}")
        return 0

    if args.command == "sweep":
        cfg = load_config(args.config)
        values = [float(tok) for tok in args.values.split(",")]
        report = sweep(cfg, args.param, values, jobs=args.jobs)
        outdir = args.outdir or os.environ.get("PENALTYFLOW_OUTDIR",
                                               cfg.outdir)
        os.makedirs(outdir, exist_ok=True)
        path = os.path.join(outdir, f"sweep_{args.param}.json")
        write_sweep_report(path, report)
        print(f"sweep over {args.param}: {values}")
        for key, val in report.trend.items():
            print(f"  {key}: {val}")
        print(f"report written to {path}")
        return 0

    if args.command == "verify":
        from .checks import run_verify
        code, results = run_verify(fast=args.fast, report_path=args.report)
        for r in results:
            mark = "PASS" if r["passed"] else "FAIL"
            print(f"[{mark}] {r['name']} ({r['seconds']}s) {r['detail']}")
        n_fail = sum(1 for r in results if not r["passed"])
        print(f"{len(results) - n_fail}/{len(results)} checks passed")
        return code

    if args.command == "mms":
        if args.which == "continuity":
            from .mms import continuity_convergence
            res = continuity_convergence()
        else:
            from .mms import momentum_convergence
            res = momentum_convergence()
        print(json.dumps(res, indent=2))
        ok = res["order"] >= 0.9
        print(f"observed order {res['order']:.3f} "
              + ("(>= 0.9, pass)" if ok else "(< 0.9, FAIL)"))
        return 0 if ok else 1

    if args.command == "example-config":
        write_example_config(args.path)
        print(f"wrote {args.path}")
        return 0

    return 2


if __name__ == "__main__":
    sys.exit(main())
