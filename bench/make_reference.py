"""Regenerate bench/reference.json: steps and report aggregates of every
workload's runs at seed 0, which the benchmark's output checks compare
against.  Run it only when a change is meant to alter the solver's results:

    python3 bench/make_reference.py
"""

import json
import os
import sys
import tempfile

import worker


def main():
    sys.path.insert(0, worker.SRC)
    ref = {}
    for name in worker.WORKLOADS:
        with tempfile.TemporaryDirectory(dir=worker.ROOT) as tmp:
            out = worker.run_workload(name, 0, "untraced", tmp)
        if out["failures"]:
            raise SystemExit(f"{name}: {out['failures']}")
        ref[name] = out["summaries"]
        print(name, [s["steps"] for s in out["summaries"]])
    with open(os.path.join(worker.HERE, "reference.json"), "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
