"""The benchmark's workloads: inputs, closed-loop drivers and checks.

Every workload is a closed loop with one client: the driver hands the
program its next request or churn batch only after the previous call
returned.  Decisions run on the trace's virtual clock, so every pass over
one seed's inputs does identical work and only the wall time varies.

* ``serve-bursty`` submits a timestamped request trace, one request at a
  time, to :class:`~repro.service.ArrangementService` and times each
  arrival from its ``submit`` to the return of the call that answered it.
* ``churn-wide`` and ``tick-lp`` hand :func:`~repro.experiments.replay.
  replay_trace` and :func:`~repro.experiments.simulate.simulate` a delta
  sequence (:class:`Handover`) that stamps the time whenever the driver
  asks for its next batch, so each batch or tick is timed from outside
  without touching the program.

In the gaps between operations a timed pass samples the host's speed with
a :class:`~reference.HostProbe`, and its outside times run on the probe's
clock, which stops while a sample runs.

The program only ever sees inputs made here with :mod:`repro.datagen`
from the ``--seed`` argument.
"""

from __future__ import annotations

import asyncio
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy.optimize  # noqa: F401  (the LP backend's import is set-up cost)
import scipy.sparse  # noqa: F401

from repro.core.lp_formulation import build_benchmark_lp
from repro.core.lp_packing import LPPacking, LPPackingError
from repro.core.online import OnlineGreedy
from repro.datagen import (
    ChurnConfig,
    SyntheticConfig,
    generate_churn_trace,
    generate_synthetic,
    generate_synthetic_stream,
)
from repro.datagen.churn import ChurnTrace, generate_request_trace
from repro.experiments.replay import ReplayInfeasibleError, replay_trace
from repro.experiments.simulate import SimulationInfeasibleError, simulate
from repro.model.delta import DeltaError
from repro.service import (
    ArrangementService,
    ArrivalRequest,
    DeadlineQueue,
    PeriodicDefrag,
    ServiceConfig,
    TickEngine,
    VirtualClock,
)
from repro.solver.api import solve_lp

from reference import HostProbe
from spans import Patches, Tracer, instrument

#: Exceptions a workload may raise; each is counted through ``failed``
#: instead of aborting the run.
FAILURES = (LPPackingError, SimulationInfeasibleError, ReplayInfeasibleError, DeltaError)

#: Tolerance of the patched-LP objective against a HiGHS solve.
LP_OBJECTIVE_TOLERANCE = 1e-6

#: Outcomes that answer an arrival successfully.
ANSWERED = ("accepted", "empty", "degraded")


@dataclass
class PassResult:
    """One pass over one platform.

    ``op_ms`` holds the outside time of every completed operation (an
    answered arrival, a batch or a tick); ``gap_ms`` how much longer each
    took from outside than by the program's own timer, and ``contained``
    whether none was shorter.  ``fingerprint`` is the decision-derived
    projection of the program's report, equal across all passes of one
    platform.  ``host_ms`` holds the host probe's samples (empty when it
    did not sample).
    """

    wall_s: float
    op_ms: list[float]
    attempted: int
    failed: int
    fingerprint: list
    mean_utility: float | None
    feasible: bool
    parity: bool | None
    gap_ms: list[float]
    contained: bool
    counts: dict
    error: str | None = None
    report: dict | None = None
    superseded: int = 0
    requeues: int = 0
    host_ms: list[float] = field(default_factory=list)


@dataclass
class Inputs:
    """One platform: the initial instance, its trace and the seed every
    decision of a pass over it derives from."""

    seed: int
    instance: object
    trace: object
    counts: dict = field(default_factory=dict)


class Handover:
    """The closed-loop client of the batch drivers.

    Iterating yields the next delta only when the driver asks for it, i.e.
    after it finished the previous one, and stamps that moment on the
    probe's clock, after the probe had its chance to sample; with a tracer,
    each handover also opens the next unit's root span.
    """

    def __init__(
        self, deltas, probe: HostProbe, tracer: Tracer | None = None, unit_name: str = ""
    ):
        self.deltas = list(deltas)
        self.probe = probe
        self.tracer = tracer
        self.unit_name = unit_name
        self.stamps: list[float] = []
        self.end = 0.0

    def __len__(self) -> int:
        return len(self.deltas)

    def __iter__(self):
        for position, delta in enumerate(self.deltas):
            self.probe.gap()
            if self.tracer is not None:
                self.tracer.end_unit()
                self.tracer.begin_unit(position, self.unit_name)
            self.stamps.append(self.probe.now())
            yield delta

    def finish(self) -> None:
        """Stamp the driver's return; closes the last unit."""
        self.end = self.probe.now()
        if self.tracer is not None:
            self.tracer.end_unit()

    def unit_ms(self, completed: int) -> list[float]:
        """Outside time of each of the first ``completed`` units."""
        edges = self.stamps[: completed + 1]
        if len(edges) == completed:
            edges = edges + [self.end]
        return [(b - a) * 1e3 for a, b in zip(edges, edges[1:])]

    @property
    def wall_s(self) -> float:
        return self.end - self.stamps[0] if self.stamps else 0.0


def _churn_config(num_users: int, num_batches: int, **overrides) -> ChurnConfig:
    """~1% user churn, 2% rebids, 1% drift and capacity shocks per batch,
    with a burst every fourth batch unless overridden."""
    knobs = dict(
        num_batches=num_batches,
        user_arrival_rate=num_users / 100,
        user_departure_rate=num_users / 100,
        rebid_rate=num_users / 50,
        event_open_rate=2.0,
        event_close_rate=2.0,
        conflict_toggle_rate=2.0,
        drift_rate=num_users / 100,
        capacity_shock_rate=2.0,
        burst_every=4,
    )
    knobs.update(overrides)
    return ChurnConfig(**knobs)


@contextmanager
def lp_probe(check_objective: bool, every: int = 2):
    """Record the backend of each defrag LP solve; with
    ``check_objective``, compare every ``every``-th solve's LP objective
    against a HiGHS solve of a from-scratch build of the same instance."""
    probe = {"backends": set(), "calls": 0, "checked": 0, "max_diff": 0.0, "ok": True}
    patches = Patches()

    def make(solve):
        def checked(self, instance, seed=None):
            result = solve(self, instance, seed)
            probe["backends"].add(result.details.get("lp_backend"))
            probe["calls"] += 1
            if check_objective and (probe["calls"] - 1) % every == 0:
                benchmark = build_benchmark_lp(
                    instance, max_sets_per_user=self.max_sets_per_user
                )
                reference = solve_lp(benchmark.lp, backend="scipy")
                diff = abs(reference.objective_value - result.details["lp_objective"])
                probe["checked"] += 1
                probe["max_diff"] = max(probe["max_diff"], diff)
                probe["ok"] &= reference.is_optimal and diff <= LP_OBJECTIVE_TOLERANCE
            return result

        return checked

    patches.wrap(LPPacking, "solve", make)
    try:
        yield probe
    finally:
        patches.restore()


class Workload:
    """Shared shape of the three workloads.

    Every pass of a run goes over its own platform made from the seed (see
    :func:`platform_seed`), so that the run's figures average over several
    draws of the inputs; ``pass_seconds`` is the nominal length of one pass
    on a two-core x86 machine.  ``tail_percentile`` is the percentile a run
    reports as the tail of its operation times.
    """

    name = ""
    unit_name = ""
    #: Index class the platform must land on (dense vs sharded side).
    index_class = ""
    pass_seconds = 10.0
    tail_percentile = 75.0

    def generate(self, seed: int) -> Inputs:
        raise NotImplementedError

    def bootstrap(self, inputs: Inputs) -> None:
        """The rest of set-up after the index: the initial solve."""
        raise NotImplementedError

    def run_pass(
        self,
        inputs: Inputs,
        *,
        check_parity: bool = False,
        tracer: Tracer | None = None,
        verify: bool = False,
        probe: HostProbe | None = None,
    ) -> PassResult:
        """One closed-loop pass; ``probe`` samples the host's speed (none
        for the traced and verification passes)."""
        raise NotImplementedError


class ServeBursty(Workload):
    """``ArrangementService`` over bursty arrivals at Table I |U|=2000."""

    name = "serve-bursty"
    unit_name = "service.submit"
    index_class = "InstanceIndex"
    num_users = 2000
    batches = 8
    pass_seconds = 5.0
    # Not p99: answers come in batches that one call answers, so the ~44
    # answers beyond p99 in a run come from a handful of calls, and p99
    # moved by up to a sixth between seeds where p95 (~220 answers beyond
    # it) moved by under a tenth.
    tail_percentile = 95.0

    def generate(self, seed: int) -> Inputs:
        instance = generate_synthetic(SyntheticConfig(num_users=self.num_users), seed=seed)
        churn = generate_churn_trace(
            instance,
            _churn_config(self.num_users, self.batches, burst_user_multiplier=8.0),
            seed=seed + 1,
        )
        trace = generate_request_trace(churn, batch_seconds=1.0, seed=seed + 2)
        arrivals = sum(isinstance(r, ArrivalRequest) for r in trace.requests)
        return Inputs(
            seed,
            instance,
            trace,
            {
                "requests": len(trace.requests),
                "batches": self.batches,
                "arrivals": arrivals,
            },
        )

    def _service(self, inputs: Inputs, check_parity: bool) -> ArrangementService:
        engine = TickEngine(
            inputs.instance,
            OnlineGreedy(),
            seed=inputs.seed,
            defrag=PeriodicDefrag(4),
            oracle_every=4,
            check_parity=check_parity,
            clock=VirtualClock(),
        )
        config = ServiceConfig(
            max_batch=64, max_wait=0.5, admission=DeadlineQueue(48, deadline=2.0)
        )
        return ArrangementService(engine, config)

    def bootstrap(self, inputs: Inputs) -> None:
        self._service(inputs, False).bootstrap()

    def run_pass(
        self, inputs, *, check_parity=False, tracer=None, verify=False, probe=None
    ):
        requests = inputs.trace.requests
        service = self._service(inputs, check_parity)
        probe = probe or HostProbe(enabled=False)
        # Stamps are (probe clock, monotonic timer): the first times the
        # answer, the second checks it against the service's own latency,
        # which runs through the probe's samples.
        ingress: dict[int, tuple[float, float]] = {}
        answers: dict[int, list] = {}
        calls: list[tuple[float, float, set]] = []

        async def call(position, name, coroutine_fn):
            if tracer is not None:
                tracer.begin_unit(position, name)
            started = probe.now()
            try:
                responses = await coroutine_fn()
            finally:
                finished = (probe.now(), time.perf_counter())
                if tracer is not None:
                    tracer.end_unit()
            calls.append((started, finished[0], {r.tick for r in responses}))
            users = service.engine.instance.user_by_id
            for response in responses:
                # A queued arrival whose user churn removed before the
                # answer is answered "expired" correctly: the user left.
                gone = response.user_id not in users
                answers.setdefault(response.user_id, []).append(
                    (finished, response, gone)
                )

        async def drive():
            for position, request in enumerate(requests):
                probe.gap()
                if isinstance(request, ArrivalRequest):
                    ingress[request.user.user_id] = (probe.now(), time.perf_counter())
                await call(position, "service.submit", lambda: service.submit(request))
            await call(len(requests), "service.drain", service.drain)

        error = None
        instrumented = (
            instrument(tracer, admission=service.admission)
            if tracer is not None
            else nullcontext()
        )
        with instrumented:
            service.bootstrap()
            try:
                asyncio.run(drive())
            except FAILURES as exc:
                error = f"{type(exc).__name__}: {exc}"
        report = service.report
        wall = calls[-1][1] - calls[0][0] if calls else 0.0

        arrivals = [r for r in requests if isinstance(r, ArrivalRequest)]
        failed = 0
        departed = 0
        op_ms: list[float] = []
        gap_ms: list[float] = []
        contained = True
        for request in arrivals:
            user_id = request.user.user_id
            got = answers.get(user_id, [])
            if len(got) == 1 and got[0][1].outcome == "expired" and got[0][2]:
                departed += 1
            elif len(got) != 1 or got[0][1].outcome not in ANSWERED:
                failed += 1
            for finished, response, _gone in got:
                op_ms.append((finished[0] - ingress[user_id][0]) * 1e3)
                outside = (finished[1] - ingress[user_id][1]) * 1e3
                own = response.latency_seconds * 1e3
                gap_ms.append(outside - own)
                contained &= outside >= own
        tick_seconds = {record.tick: record.seconds for record in report.records}
        for started, finished, ticks in calls:
            for tick in ticks:
                contained &= tick_seconds.get(tick, 0.0) <= finished - started
        return PassResult(
            wall_s=wall,
            op_ms=op_ms,
            attempted=len(arrivals),
            failed=failed,
            fingerprint=[report.determinism_fingerprint()],
            mean_utility=(
                float(np.mean([record.utility for record in report.records]))
                if report.records
                else None
            ),
            feasible=report.all_feasible,
            parity=report.all_parity if check_parity else None,
            gap_ms=gap_ms,
            contained=contained,
            counts={
                "ticks": len(report.records),
                "answered": len(op_ms),
                "departed_while_queued": departed,
                **report.outcome_counts(),
            },
            error=error,
            report=report.to_dict() if error else None,
            superseded=report.superseded_defrags,
            requeues=report.total_requeues,
            host_ms=probe.samples,
        )


class _BatchWorkload(Workload):
    """Shared driver of the two batch workloads.

    ``own_field`` and ``utility_field`` name the program's own timer and
    the utility on the driver's per-batch (or per-tick) records.
    """

    units = 0
    verify_units = 0
    count_key = ""
    own_field = ""
    utility_field = ""
    #: Record fields that are measurements, not decisions.
    TIMING_FIELDS = ("seconds", "incremental_seconds", "full_seconds", "parity_mismatches")

    def _call(self, trace: ChurnTrace, seed: int, check_parity: bool):
        raise NotImplementedError

    def bootstrap(self, inputs):
        self._call(
            ChurnTrace(initial=inputs.instance, deltas=[], config=inputs.trace.config),
            inputs.seed,
            False,
        )

    def run_pass(
        self, inputs, *, check_parity=False, tracer=None, verify=False, probe=None
    ):
        deltas = inputs.trace.deltas
        if verify:
            deltas = deltas[: self.verify_units]
        probe = probe or HostProbe(enabled=False)
        handover = Handover(deltas, probe, tracer, self.unit_name)
        trace = ChurnTrace(
            initial=inputs.instance,
            deltas=handover,
            config=inputs.trace.config,
            seed=inputs.trace.seed,
        )
        error = None
        report = None
        with instrument(tracer) if tracer is not None else nullcontext():
            try:
                report = self._call(trace, inputs.seed, check_parity)
            except FAILURES as exc:
                error = f"{type(exc).__name__}: {exc}"
                report = getattr(exc, "report", None)
            finally:
                handover.finish()
        records = report.records if report is not None else []
        op_ms = handover.unit_ms(len(records))
        gap_ms = [
            outside - getattr(record, self.own_field) * 1e3
            for outside, record in zip(op_ms, records)
        ]
        ok = sum(1 for record in records if record.feasible)
        return PassResult(
            wall_s=handover.wall_s,
            op_ms=op_ms,
            attempted=len(deltas),
            failed=len(deltas) - ok,
            fingerprint=[
                {
                    key: value
                    for key, value in asdict(record).items()
                    if key not in self.TIMING_FIELDS
                }
                for record in records
            ],
            mean_utility=(
                float(np.mean([getattr(r, self.utility_field) for r in records]))
                if records
                else None
            ),
            feasible=ok == len(records) and error is None,
            parity=report.all_parity if (check_parity and report is not None) else None,
            gap_ms=gap_ms,
            contained=all(gap >= 0.0 for gap in gap_ms),
            counts={self.count_key: len(records)},
            error=error,
            report=report.to_dict() if (error and report is not None) else None,
            host_ms=probe.samples,
        )


class ChurnWide(_BatchWorkload):
    """``replay_trace`` over bulk churn on a platform past the dense cap."""

    name = "churn-wide"
    unit_name = "experiments.replay.batch"
    index_class = "ShardedInstanceIndex"
    count_key = "batches"
    own_field = "incremental_seconds"
    utility_field = "incremental_utility"
    num_users = 12000
    num_events = 1000
    units = 6
    verify_units = 4
    pass_seconds = 10.0

    def generate(self, seed: int) -> Inputs:
        instance = generate_synthetic_stream(
            SyntheticConfig(num_users=self.num_users, num_events=self.num_events),
            seed=seed,
        )
        trace = generate_churn_trace(
            instance,
            _churn_config(self.num_users, self.units, burst_user_multiplier=4.0),
            seed=seed + 1,
        )
        return Inputs(
            seed,
            instance,
            trace,
            {
                "batches": len(trace.deltas),
                "arrivals": sum(len(d.add_users) for d in trace.deltas),
            },
        )

    def _call(self, trace, seed, check_parity):
        return replay_trace(trace, seed=seed, compare_full=False, check_parity=check_parity)


class TickLP(_BatchWorkload):
    """``simulate`` with a delta-patched defrag LP re-solved every tick."""

    name = "tick-lp"
    unit_name = "experiments.simulate.tick"
    index_class = "InstanceIndex"
    count_key = "ticks"
    own_field = "seconds"
    utility_field = "utility"
    num_users = 1000
    units = 10
    verify_units = 5
    pass_seconds = 5.0
    # Ten ticks beyond it in a run of ten passes: about the heaviest tick
    # of each platform (its cold first tick or a burst).
    tail_percentile = 90.0

    def generate(self, seed: int) -> Inputs:
        instance = generate_synthetic(SyntheticConfig(num_users=self.num_users), seed=seed)
        trace = generate_churn_trace(
            instance,
            # A burst every third tick: with the cold first tick, 4 of 10
            # ticks are heavy, so the p75 tail sits inside the heavy ticks
            # rather than on the edge between heavy and quiet ones.
            _churn_config(
                self.num_users,
                self.units,
                burst_every=3,
                burst_capacity_shrink_fraction=0.2,
            ),
            seed=seed + 1,
        )
        return Inputs(
            seed,
            instance,
            trace,
            {
                "ticks": len(trace.deltas),
                "arrivals": sum(len(d.add_users) for d in trace.deltas),
            },
        )

    def _call(self, trace, seed, check_parity):
        return simulate(
            trace,
            OnlineGreedy(),
            seed=seed,
            defrag=PeriodicDefrag(1),
            oracle_every=5,
            defrag_lp_incremental=True,
            check_parity=check_parity,
        )


def platform_seed(seed: int, platform: int) -> int:
    """Seed of one of a run's platforms; its instance, churn and request
    generators take this seed plus 0, 1 and 2."""
    return 1000 * seed + 10 * platform


WORKLOADS = {w.name: w for w in (ServeBursty(), ChurnWide(), TickLP())}
