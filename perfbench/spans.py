"""In-memory span tracing for the benchmark's traced run.

The program has no tracing of its own, so the traced run wraps the public
calls into each layer from here, for that run only (:func:`instrument`),
and restores every original when it ends.  Each span records a name, a
start, an end, its parent span and the closed-loop unit (tick, batch or
request) it belongs to; counts are recorded at the same boundaries.  Spans
stay in memory until the run writes them out.

:func:`layer_metrics` turns one traced pass into the per-layer metrics
listed in ``BENCHMARK.json``.  A layer's self time is its spans' duration
minus the part covered by their children.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.core.lp_incremental import IncrementalBenchmarkLP
from repro.core.lp_packing import LPPacking
from repro.model.arrangement import Arrangement
from repro.service.engine import TickEngine

# Modules whose globals are the call sites wrapped below.  Imported by
# name because packages re-export functions under the same names (e.g.
# ``repro.core.repair`` is also the function).
lp_incremental = importlib.import_module("repro.core.lp_incremental")
lp_packing = importlib.import_module("repro.core.lp_packing")
core_repair = importlib.import_module("repro.core.repair")
experiments_replay = importlib.import_module("repro.experiments.replay")
service_engine = importlib.import_module("repro.service.engine")
service_loop = importlib.import_module("repro.service.loop")


@dataclass
class Span:
    name: str
    start: float
    parent: int
    unit: object
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """A span stack plus the list of finished and open spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.unit: object = None

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), parent, self.unit)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        index = self._stack.pop()
        if self.spans[index] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    def begin_unit(self, unit: object, name: str) -> Span:
        """Open the root span of one closed-loop unit."""
        if self._stack:
            raise RuntimeError("a unit span opened inside another span")
        self.unit = unit
        return self.open(name)

    def end_unit(self) -> None:
        """Close the open unit's root span, and any span an exception left
        open inside it."""
        now = time.perf_counter()
        while self._stack:
            self.spans[self._stack.pop()].end = now
        self.unit = None

    def write(self, path) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "unit": span.unit,
                            "counts": span.counts,
                        }
                    )
                    + "\n"
                )


def _traced(tracer: Tracer, name: str, fn, count=None):
    """Wrap ``fn`` in a span; ``count(counts, result, *args, **kwargs)``
    records counts on the span from the call's result."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
            if count is not None:
                count(span.counts, result, *args, **kwargs)
            return result
        finally:
            tracer.close(span)

    return wrapper


def _traced_steps(tracer: Tracer, name: str, generator_fn):
    """Wrap a generator function so that each step is its own span."""

    @functools.wraps(generator_fn)
    def wrapper(*args, **kwargs):
        steps = generator_fn(*args, **kwargs)
        while True:
            span = tracer.open(name)
            try:
                item = next(steps)
            except StopIteration:
                return
            finally:
                tracer.close(span)
            yield item

    return wrapper


class Patches:
    """Attribute replacements that :meth:`restore` undoes in reverse."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, bool, object]] = []

    def wrap(self, owner, attr: str, make) -> None:
        own = vars(owner)
        had, old = attr in own, own.get(attr)
        setattr(owner, attr, make(getattr(owner, attr)))
        self._undo.append((owner, attr, had, old))

    def restore(self) -> None:
        while self._undo:
            owner, attr, had, old = self._undo.pop()
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)


# ----------------------------------------------------------------------
# Counts recorded at the wrapped boundaries
# ----------------------------------------------------------------------
_MOVE_KEYS = ("adds", "refills", "upgrades", "evictions")


def _count_moves(counts, result, *args, **kwargs):
    counts["moves"] = sum(result.get(key, 0) for key in _MOVE_KEYS)
    counts["passes"] = result.get("passes", 0)


def _count_apply(counts, result, instance, delta, *args, **kwargs):
    counts["ops"] = sum(delta.summary().values())
    counts["dropped_pairs"] = len(result.dropped_pairs)


def _count_serve(counts, result, *args, **kwargs):
    counts["accepted"] = int(bool(result))


def _count_decide(counts, result, *args, **kwargs):
    counts["requeued"] = len(result.requeue)


def _count_adopt(counts, result, engine, delta_result, tick, moves, *args, **kwargs):
    counts["adopted"] = int(bool(moves.get("lp_adopted")))


def _count_lp_solve(counts, result, *args, **kwargs):
    details = result.details
    counts["variables"] = details.get("num_variables", 0)
    counts["backend"] = details.get("lp_backend")
    diagnostics = details.get("lp_diagnostics")
    if diagnostics is not None and details.get("lp_backend") != "cache":
        counts["mode"] = diagnostics.get("mode")
        counts["primal_pivots"] = diagnostics.get("primal_pivots", 0)
        counts["dual_pivots"] = diagnostics.get("dual_pivots", 0)
        counts["refactorizations"] = diagnostics.get("refactorizations", 0)
        counts["phase1"] = int(bool(diagnostics.get("phase1")))


@contextmanager
def instrument(tracer: Tracer, admission=None):
    """Wrap each layer's entry points in spans until the block exits.

    ``admission`` is the serving loop's policy object, whose ``decide`` is
    wrapped on the instance (policies are plain objects the caller owns).
    """
    patches = Patches()

    def wrap(owner, attr, name, count=None):
        patches.wrap(owner, attr, lambda fn: _traced(tracer, name, fn, count))

    try:
        # TickEngine stages; each defrag pass is its own span.
        wrap(TickEngine, "bootstrap", "engine.bootstrap")
        wrap(TickEngine, "apply_churn", "engine.apply_churn")
        wrap(TickEngine, "serve_arrivals", "engine.serve_arrivals")
        wrap(TickEngine, "serve_one", "core.online.serve", _count_serve)
        wrap(TickEngine, "repair", "engine.repair")
        wrap(TickEngine, "defragment", "engine.defragment")
        patches.wrap(
            TickEngine,
            "iter_defrag_passes",
            lambda fn: _traced_steps(tracer, "engine.defrag_pass", fn),
        )
        wrap(TickEngine, "adopt_lp", "engine.adopt_lp", _count_adopt)
        wrap(TickEngine, "oracle_solve", "engine.oracle_solve")
        wrap(TickEngine, "audit", "engine.audit")
        # The LP-packing resolver and the solver behind it.
        wrap(LPPacking, "solve", "core.lp_packing.solve", _count_lp_solve)
        wrap(LPPacking, "observe_delta", "core.lp_packing.observe_delta")
        wrap(LPPacking, "sample_sets", "core.lp_packing.sample")
        wrap(LPPacking, "repair", "core.lp_packing.sample")
        wrap(IncrementalBenchmarkLP, "solve", "solver.incremental_solve")
        wrap(lp_packing, "build_benchmark_lp", "core.lp_packing.build")
        wrap(lp_incremental, "build_benchmark_lp", "core.lp_packing.build")
        wrap(lp_packing, "solve_lp", "solver.solve_lp")
        # Module globals at the call sites of the churn, repair and
        # local-search layers.
        wrap(service_engine, "apply_delta", "model.delta.apply", _count_apply)
        wrap(experiments_replay, "apply_delta", "model.delta.apply", _count_apply)
        wrap(service_engine, "targeted_repair", "core.repair", _count_moves)
        wrap(experiments_replay, "repair", "core.repair", _count_moves)
        wrap(core_repair, "improve", "core.local_search.improve")
        wrap(service_engine, "improve", "core.local_search.defrag", _count_moves)
        wrap(service_loop, "coalesce_deltas", "model.delta.coalesce")
        wrap(Arrangement, "is_feasible", "model.arrangement.is_feasible")
        if admission is not None:
            wrap(admission, "decide", "service.admission.decide", _count_decide)
        yield tracer
    finally:
        patches.restore()


# ----------------------------------------------------------------------
# Per-layer metrics of one traced pass
# ----------------------------------------------------------------------
#: Name, unit and better-direction of every per-layer metric, in report
#: order.  A layer a workload bypasses reads 0.
PER_LAYER = (
    ("service.loop.self_ms", "ms", "lower"),
    ("service.admission.decide_ms", "ms", "lower"),
    ("service.loop.blocking_ms", "ms", "lower"),
    ("service.loop.requeues", "count", "lower"),
    ("service.loop.superseded", "count", "lower"),
    ("model.delta.apply_ms", "ms", "lower"),
    ("model.delta.apply_calls", "count", "lower"),
    ("model.delta.ops", "count", "higher"),
    ("model.delta.ops_per_ms", "1/ms", "higher"),
    ("model.delta.dropped_pairs", "count", "lower"),
    ("model.delta.coalesce_ms", "ms", "lower"),
    ("core.online.serve_calls", "count", "higher"),
    ("core.online.serve_us_p50", "us", "lower"),
    ("core.online.accept_ratio", "ratio", "higher"),
    ("core.repair.ms", "ms", "lower"),
    ("core.repair.moves", "count", "higher"),
    ("core.repair.moves_per_pass", "count", "higher"),
    ("core.local_search.defrag_ms", "ms", "lower"),
    ("core.local_search.defrag_passes", "count", "lower"),
    ("core.local_search.defrag_moves", "count", "higher"),
    ("core.lp_packing.solve_ms", "ms", "lower"),
    ("core.lp_packing.solves", "count", "higher"),
    ("core.lp_packing.adopt_ratio", "ratio", "higher"),
    ("core.lp_packing.build_ms", "ms", "lower"),
    ("core.lp_packing.patch_ms", "ms", "lower"),
    ("core.lp_packing.sample_ms", "ms", "lower"),
    ("core.lp_packing.variables", "count", "lower"),
    ("solver.backend_ms", "ms", "lower"),
    ("solver.primal_pivots", "count", "lower"),
    ("solver.dual_pivots", "count", "lower"),
    ("solver.refactorizations", "count", "lower"),
    ("solver.phase1_runs", "count", "lower"),
    ("solver.rhs_dual_share", "ratio", "higher"),
    ("solver.us_per_pivot", "us", "lower"),
    ("service.engine.oracle_ms", "ms", "lower"),
    ("service.engine.oracle_calls", "count", "lower"),
    ("service.engine.audit_ms", "ms", "lower"),
    ("service.engine.bootstrap_ms", "ms", "lower"),
    ("datagen.generate_ms", "ms", "lower"),
    ("model.index.build_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.coverage_pct", "%", "higher"),
)

#: TickEngine stages the serving loop runs in the background, i.e. inside
#: a later ``submit``.
_BACKGROUND = (
    "engine.repair",
    "engine.defrag_pass",
    "engine.adopt_lp",
    "engine.oracle_solve",
    "engine.audit",
)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its children cover."""
    own = [span.duration for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.duration
    return own


def layer_metrics(
    spans: list[Span],
    *,
    traced_wall_s: float,
    untraced_wall_s: float,
    superseded: int,
    requeues: int,
    setup: dict,
) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, plus each span name's self
    time in ms (for the report's layer table).

    Spans outside any closed-loop unit (the bootstrap or initial solve
    before the first unit) count only towards ``bootstrap_ms``.
    """
    own = self_times(spans)
    total = defaultdict(float)
    calls = defaultdict(int)
    sums = defaultdict(float)
    self_ms = defaultdict(float)
    durations = defaultdict(list)
    roots: dict[int, str] = {}
    root_of: list[int] = []
    diagnostics = 0
    rhs_dual = 0
    variables = []
    for position, span in enumerate(spans):
        root = position if span.parent < 0 else root_of[span.parent]
        root_of.append(root)
        if span.parent < 0:
            roots[position] = span.name
        if span.unit is None:
            if span.name == "engine.bootstrap":
                total[span.name] += span.duration
            continue
        total[span.name] += span.duration
        calls[span.name] += 1
        self_ms[span.name] += own[position] * 1e3
        durations[span.name].append(span.duration)
        for key, value in span.counts.items():
            if isinstance(value, (int, float)):
                sums[(span.name, key)] += value
        if span.name == "core.lp_packing.solve":
            variables.append(span.counts.get("variables", 0))
            if "mode" in span.counts:
                diagnostics += 1
                rhs_dual += span.counts["mode"] == "rhs_dual"
        if span.name == "model.arrangement.is_feasible" and (
            span.parent < 0 or spans[span.parent].name != "engine.audit"
        ):
            total["audit.outside_engine"] += span.duration
        if (
            span.name in _BACKGROUND
            and roots.get(root) == "service.submit"
        ):
            total["blocking"] += span.duration

    def ms(name: str) -> float:
        return total[name] * 1e3

    loop_self = self_ms["service.submit"] + self_ms["service.drain"]
    apply_ms = ms("model.delta.apply")
    ops = sums[("model.delta.apply", "ops")]
    serve_calls = calls["core.online.serve"]
    repair_moves = sums[("core.repair", "moves")]
    repair_passes = sums[("core.repair", "passes")]
    solves = calls["core.lp_packing.solve"]
    backend_ms = ms("solver.solve_lp") + ms("solver.incremental_solve")
    pivots = sums[("core.lp_packing.solve", "primal_pivots")] + sums[
        ("core.lp_packing.solve", "dual_pivots")
    ]
    covered = sum(
        own[position] for position, span in enumerate(spans) if span.unit is not None
    )
    metrics = {
        "service.loop.self_ms": loop_self,
        "service.admission.decide_ms": ms("service.admission.decide"),
        "service.loop.blocking_ms": total["blocking"] * 1e3,
        "service.loop.requeues": requeues,
        "service.loop.superseded": superseded,
        "model.delta.apply_ms": apply_ms,
        "model.delta.apply_calls": calls["model.delta.apply"],
        "model.delta.ops": ops,
        "model.delta.ops_per_ms": ops / apply_ms if apply_ms else 0.0,
        "model.delta.dropped_pairs": sums[("model.delta.apply", "dropped_pairs")],
        "model.delta.coalesce_ms": ms("model.delta.coalesce"),
        "core.online.serve_calls": serve_calls,
        "core.online.serve_us_p50": (
            float(np.median(durations["core.online.serve"])) * 1e6
            if serve_calls
            else 0.0
        ),
        "core.online.accept_ratio": (
            sums[("core.online.serve", "accepted")] / serve_calls
            if serve_calls
            else 0.0
        ),
        "core.repair.ms": ms("core.repair"),
        "core.repair.moves": repair_moves,
        "core.repair.moves_per_pass": (
            repair_moves / repair_passes if repair_passes else 0.0
        ),
        "core.local_search.defrag_ms": ms("core.local_search.defrag"),
        "core.local_search.defrag_passes": sums[
            ("core.local_search.defrag", "passes")
        ],
        "core.local_search.defrag_moves": sums[("core.local_search.defrag", "moves")],
        "core.lp_packing.solve_ms": ms("core.lp_packing.solve"),
        "core.lp_packing.solves": solves,
        "core.lp_packing.adopt_ratio": (
            sums[("engine.adopt_lp", "adopted")] / solves if solves else 0.0
        ),
        "core.lp_packing.build_ms": ms("core.lp_packing.build"),
        "core.lp_packing.patch_ms": ms("core.lp_packing.observe_delta"),
        "core.lp_packing.sample_ms": ms("core.lp_packing.sample"),
        "core.lp_packing.variables": float(np.mean(variables)) if variables else 0.0,
        "solver.backend_ms": backend_ms,
        "solver.primal_pivots": sums[("core.lp_packing.solve", "primal_pivots")],
        "solver.dual_pivots": sums[("core.lp_packing.solve", "dual_pivots")],
        "solver.refactorizations": sums[("core.lp_packing.solve", "refactorizations")],
        "solver.phase1_runs": sums[("core.lp_packing.solve", "phase1")],
        "solver.rhs_dual_share": rhs_dual / diagnostics if diagnostics else 0.0,
        "solver.us_per_pivot": (
            ms("solver.incremental_solve") * 1e3 / pivots if pivots else 0.0
        ),
        "service.engine.oracle_ms": ms("engine.oracle_solve"),
        "service.engine.oracle_calls": calls["engine.oracle_solve"],
        "service.engine.audit_ms": ms("engine.audit") + ms("audit.outside_engine"),
        "service.engine.bootstrap_ms": ms("engine.bootstrap"),
        "datagen.generate_ms": setup["generate_ms"],
        "model.index.build_ms": setup["index_ms"],
        "trace.overhead_pct": (traced_wall_s - untraced_wall_s) / untraced_wall_s * 100,
        "trace.coverage_pct": covered / traced_wall_s * 100,
    }
    return metrics, dict(self_ms)
