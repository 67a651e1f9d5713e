"""Smoke test of the benchmark on tiny grids.

    python3 -m pytest bench/test_smoke.py -q

Checks that every metric named in BENCHMARK.json is printed with its unit
and a finite value, for every workload, and that a traced repetition puts
back every function it wrapped, also when the run raises.
"""

import json
import math
import os
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import worker  # noqa: E402
from tracing import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", worker.WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert math.isfinite(got["value"]), m["name"]


@pytest.mark.parametrize("mode", worker.MODES)
def test_wrapped_functions_restored(mode, tmp_path):
    sys.path.insert(0, worker.SRC)
    before = [(mod, attr, getattr(mod, attr))
              for mod, attr, _ in worker.targets(mode == "traced")]
    out = worker.run_workload("sweep48", 0, mode, str(tmp_path), tiny=True)
    assert not out["failures"]
    for mod, attr, orig in before:
        assert getattr(mod, attr) is orig, f"{mod.__name__}.{attr}"


def test_restored_when_the_run_raises():
    def boom():
        raise RuntimeError("inside the wrapped call")

    mod = types.SimpleNamespace(boom=boom)
    tracer = Tracer()
    tracer.install([(mod, "boom", "m.boom"), (mod, "gone", "m.gone")])
    with pytest.raises(RuntimeError):
        mod.boom()
    tracer.restore()
    assert mod.boom is boom
    assert tracer.missing == ["m.gone"]
    assert tracer.spans[0][0] == "m.boom" and tracer.spans[0][2] is not None
