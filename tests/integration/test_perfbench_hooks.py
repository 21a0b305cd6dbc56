"""The repository benchmark's traced run (``perfbench/spans.py``) wraps
program entry points by name: entering and leaving its instrumentation
must find every one of them and put each original back."""

import importlib
from pathlib import Path

import pytest

from repro.core.lp_incremental import IncrementalBenchmarkLP
from repro.core.lp_packing import LPPacking
from repro.model.delta import Delta
from repro.service.engine import TickEngine
from tests.util import tiny_instance

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"


def test_traced_run_finds_every_name_it_wraps(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    wrapped = (
        (LPPacking, "solve"),
        (LPPacking, "observe_delta"),
        (IncrementalBenchmarkLP, "solve"),
        (TickEngine, "apply_churn"),
    )
    before = [getattr(owner, attr) for owner, attr in wrapped]
    with spans.instrument(spans.Tracer()):
        assert LPPacking.observe_delta is not before[1]
    assert [getattr(owner, attr) for owner, attr in wrapped] == before


def test_the_retired_names_do_nothing():
    with pytest.raises(TypeError, match="retired"):
        IncrementalBenchmarkLP(tiny_instance())
    resolver = LPPacking(cache_lp=False)
    instance = tiny_instance()
    assert resolver.observe_delta(Delta(), instance) is None
    assert resolver.solve(instance, seed=0).details["lp_backend"] == "scipy-highs"
