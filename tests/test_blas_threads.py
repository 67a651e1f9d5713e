"""A run computes with one BLAS thread whatever the caller's count, and
gives the caller's count back when it ends, also when it raises."""

import json

import pytest

from penaltyflow import driver
from penaltyflow.config import default_config
from penaltyflow.errors import LinearSolveDiverged

LIBS = driver._openblas_libraries()
pytestmark = pytest.mark.skipif(not LIBS, reason="no bundled OpenBLAS")


def threads():
    return [get() for _, get, _ in LIBS]


@pytest.fixture
def caller_threads():
    """Sets the caller's count of every bundled OpenBLAS; the counts from
    before the test are restored after it."""
    saved = threads()

    def set_all(count):
        for _, _, put in LIBS:
            put(count)
        assert threads() == [count] * len(LIBS)
    yield set_all
    for (_, _, put), count in zip(LIBS, saved):
        put(count)


@pytest.mark.parametrize("mobile", [True, False], ids=["free", "held"])
def test_outputs_do_not_depend_on_the_callers_blas_threads(
        tmp_path, caller_threads, mobile):
    cfg = default_config(t_end=0.01, body_mobile=mobile)
    for count in (2, 1):
        caller_threads(count)
        rep = driver.run(cfg, outdir=str(tmp_path / str(count)))
        assert threads() == [count] * len(LIBS)
    assert rep.steps == 4
    for name in ("diagnostics.csv", "body.csv"):
        assert ((tmp_path / "2" / name).read_bytes()
                == (tmp_path / "1" / name).read_bytes()), name
    report = json.loads((tmp_path / "2" / "report.json").read_text())
    assert report["versions"]["blas"] == [
        {"library": path, "threads": 1} for path, _, _ in LIBS]


@pytest.mark.parametrize("error", [LinearSolveDiverged, RuntimeError])
def test_run_restores_the_callers_threads_when_it_raises(
        tmp_path, caller_threads, monkeypatch, error):
    cfg = default_config(t_end=0.01, nx=32, ny=32, r=0.07, dt=2e-3)
    caller_threads(2)
    step, seen = driver.momentum_step, []

    def fail_third(*args, **kwargs):
        seen.append(threads())
        if len(seen) == 3:
            raise error("planted on the third solve")
        return step(*args, **kwargs)
    monkeypatch.setattr(driver, "momentum_step", fail_third)
    with pytest.raises(error, match="planted"):
        driver.run(cfg, outdir=str(tmp_path))
    assert seen == [[1] * len(LIBS)] * 3
    assert threads() == [2] * len(LIBS)
