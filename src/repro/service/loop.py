"""The asyncio serving loop: every arrival answered, pipeline in the back.

:class:`ArrangementService` is the front of the arrangement-as-a-service
stack.  Requests (:class:`~repro.service.requests.ArrivalRequest` /
:class:`~repro.service.requests.ChurnRequest`) land via :meth:`submit`; the
micro-batcher cuts them into ticks; each tick

1. **settles** the previous tick's background pipeline — if the new batch
   arrived inside the defragmentation *grace window*, a running sweep
   defrag is superseded (a cooperative flag it honors at the next pass
   boundary; every pass is feasibility-preserving, so cutting it short can
   never strand an infeasible arrangement).  An LP-first defrag (see
   :meth:`~repro.service.engine.TickEngine.optimize_steps`) is one step
   with no pass boundary and always runs to the end;
2. **coalesces** the batch's churn deltas and arrival registrations into
   one delta (:func:`~repro.model.delta.coalesce_deltas`) and applies it —
   every arrival is *registered* regardless of its admission outcome, so
   later churn referencing the user stays valid;
3. runs **admission control** over queued-then-new arrivals and answers
   each one — full serve, degraded greedy walk, rejection, or expiry —
   with a per-request monotonic latency sample.  Requeued arrivals are the
   only ones not answered this tick; they re-enter admission ahead of
   newer arrivals next tick;
4. hands targeted **repair** and scheduled **defragmentation**, in the
   order :meth:`~repro.service.engine.TickEngine.optimize_steps` decides
   (with switching-cost accounting for re-seated served users), the
   **oracle** bound (the benchmark-LP optimum LP*) and the end-of-tick
   **audits** to a background task that overlaps the next batch's ingress
   instead of blocking admission.

Admission never waits on optimization: the serve stage touches only the
live arrangement, and the background pipeline is settled *before* the next
batch's delta applies, so stages never interleave within a tick.

Determinism: every decision reads the engine clock's ``now()`` (virtual
under replay) and the engine RNG; :func:`serve_requests` replaying a fixed
trace through a :class:`~repro.service.clock.VirtualClock` is
bit-reproducible on the report's
:meth:`~repro.service.report.ServeReport.determinism_fingerprint`.
"""

from __future__ import annotations

import asyncio
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.core.online import serve_greedy_walk
from repro.model.delta import coalesce_deltas
from repro.service.admission import AdmissionDecision, AdmissionPolicy, AdmitAll
from repro.service.batcher import MicroBatcher, Request
from repro.service.engine import TickEngine
from repro.service.report import ArrivalRecord, ServeReport, ServeTickRecord
from repro.service.requests import ArrivalRequest, ChurnRequest, ServeResponse


@dataclass(frozen=True)
class ServiceConfig:
    """Service-level knobs (the engine owns the pipeline's).

    Attributes:
        max_batch: micro-batch size cap (flush with the triggering request).
        max_wait: decision-time seconds the oldest pending request may wait
            before the batch flushes without the next request.
        admission: admission-control policy answering under burst.
        defrag_grace: if the next batch flushes within this many
            decision-time seconds of the previous tick, that tick's sweep
            defragmentation is superseded at its next pass boundary instead
            of running to convergence (None: use ``max_wait``).  Only a
            sweep has pass boundaries: the repair-first defrag of a
            schedule that reads utility or of an engine without the LP
            step, and the fallback after an LP-first defrag that was not
            adopted.  An adopted LP-first defrag always completes.
    """

    max_batch: int = 64
    max_wait: float = 1.0
    admission: AdmissionPolicy = field(default_factory=AdmitAll)
    defrag_grace: float | None = None

    @property
    def grace(self) -> float:
        return self.defrag_grace if self.defrag_grace is not None else self.max_wait


class ArrangementService:
    """Serve arrivals against a live arrangement, one micro-batch at a time.

    The service owns the ingress surface (batcher, admission, requeue
    queue, latency stamps) and drives a :class:`~repro.service.engine.
    TickEngine` for everything arrangement-shaped.  Time comes from the
    engine's clock: ``now()`` for decisions, ``perf()`` for measurements.
    """

    def __init__(self, engine: TickEngine, config: ServiceConfig | None = None):
        self.engine = engine
        self.config = config if config is not None else ServiceConfig()
        self.admission = self.config.admission
        self.batcher = MicroBatcher(
            max_batch=self.config.max_batch, max_wait=self.config.max_wait
        )
        self.report: ServeReport | None = None
        self._tick = 0
        self._queued: list[ArrivalRequest] = []
        self._requeues: dict[int, int] = {}
        self._ingress_perf: dict[int, float] = {}
        self._served_users: set[int] = set()
        self._background: asyncio.Task | None = None
        self._background_started = float("-inf")
        self._supersede = False
        self._run_started_perf = 0.0

    @property
    def clock(self):
        return self.engine.clock

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def bootstrap(self) -> tuple[float, float]:
        """Solve the pre-trace arrangement and open the report."""
        self._run_started_perf = self.clock.perf()
        utility, seconds = self.engine.bootstrap()
        self.report = ServeReport(
            online_algorithm=self.engine.online.name,
            admission_policy=self.admission.name,
            defrag_schedule=self.engine.defrag.name,
            switching_penalty=self.engine.switching_penalty,
            initial_utility=utility,
            initial_seconds=seconds,
        )
        return utility, seconds

    async def submit(self, request: Request) -> list[ServeResponse]:
        """Ingress one request; return every answer it unblocked.

        Advances decision time to the request's timestamp (virtual clocks
        only move forward).  A batch that aged past ``max_wait`` before
        this request flushes first, at its own due time, *without* the
        request — exactly the tick boundaries a live timer would have cut.
        """
        if self.report is None:
            self.bootstrap()
        responses: list[ServeResponse] = []
        due_at = self.batcher.due_at()
        if due_at is not None and request.timestamp >= due_at:
            self._advance(due_at)
            responses.extend(await self._run_tick(self.batcher.flush()))
        self._advance(request.timestamp)
        if isinstance(request, ArrivalRequest):
            self._ingress_perf[request.user.user_id] = self.clock.perf()
        for batch in self.batcher.offer(request):
            responses.extend(await self._run_tick(batch))
        return responses

    async def flush(self) -> list[ServeResponse]:
        """Force the pending batch through a tick now (live idle timer)."""
        if not len(self.batcher) and not self._queued:
            return []
        return await self._run_tick(self.batcher.flush())

    async def drain(self) -> list[ServeResponse]:
        """Shutdown: answer *everything* still in flight.

        Runs one final tick with admission bypassed (queued and pending
        arrivals are all served — never dropped), forces the oracle when a
        cadence is configured, then settles the background pipeline so the
        report is complete.
        """
        if self.report is None:
            self.bootstrap()
        responses: list[ServeResponse] = []
        batch = self.batcher.flush()
        if batch or self._queued:
            responses.extend(await self._run_tick(batch, final=True))
        await self._settle_background(supersede=False)
        self.report.wall_seconds = self.clock.perf() - self._run_started_perf
        return responses

    # ------------------------------------------------------------------
    # The tick
    # ------------------------------------------------------------------
    def _advance(self, timestamp: float) -> None:
        advance_to = getattr(self.clock, "advance_to", None)
        if advance_to is not None:
            advance_to(timestamp)

    async def _run_tick(
        self, batch: list[Request], *, final: bool = False
    ) -> list[ServeResponse]:
        now = self.clock.now()
        tick = self._tick
        self._tick += 1

        # Settle the previous tick's background pipeline before the new
        # delta touches the instance.  A batch landing inside the grace
        # window supersedes a still-running defrag sweep at its pass
        # boundary.
        await self._settle_background(
            supersede=(now - self._background_started) < self.config.grace
        )

        tick_started = self.clock.perf()
        delta = coalesce_deltas(
            [
                request.delta
                if isinstance(request, ChurnRequest)
                else request.registration()
                for request in batch
            ]
        )
        result = self.engine.apply_churn(delta)

        arrivals = [r for r in batch if isinstance(r, ArrivalRequest)]
        candidates = self._queued + arrivals
        self._queued = []
        if final:
            decision = AdmissionDecision(serve=list(candidates))
        else:
            decision = self.admission.decide(candidates, now)

        responses: list[ServeResponse] = []

        def answer(
            request: ArrivalRequest, outcome: str, events: Iterable[int]
        ) -> None:
            user_id = request.user.user_id
            latency = self.clock.perf() - self._ingress_perf.pop(
                user_id, tick_started
            )
            response = ServeResponse(
                user_id=user_id,
                outcome=outcome,
                events=tuple(events),
                latency_seconds=latency,
                tick=tick,
                timestamp=now,
                requeues=self._requeues.pop(user_id, 0),
            )
            responses.append(response)
            self.report.arrivals.append(
                ArrivalRecord(
                    user_id=user_id,
                    tick=tick,
                    outcome=outcome,
                    events=response.events,
                    latency_seconds=latency,
                    timestamp=request.timestamp,
                    requeues=response.requeues,
                )
            )

        for request in decision.reject:
            answer(request, "rejected", ())
        for request in decision.expire:
            answer(request, "expired", ())
        empty = 0
        live = self.engine.instance.user_by_id
        self.engine.prepare_arrivals(
            [r.user.user_id for r in decision.serve if r.user.user_id in live]
        )
        for request in decision.serve:
            user_id = request.user.user_id
            if user_id not in self.engine.instance.user_by_id:
                # Churned off the platform while queued: nothing to serve.
                answer(request, "expired", ())
                continue
            seated = sorted(self.engine.arrangement.events_of(user_id))
            if seated:
                # A queued arrival that event-side repair/defrag already
                # seated keeps that assignment as its answer.
                self._served_users.add(user_id)
                answer(request, "accepted", seated)
                continue
            events = self.engine.serve_one(user_id)
            if events:
                self._served_users.add(user_id)
            else:
                empty += 1
            answer(request, "accepted" if events else "empty", events)
        for request in decision.degrade:
            user_id = request.user.user_id
            if user_id not in self.engine.instance.user_by_id:
                answer(request, "expired", ())
                continue
            seated = sorted(self.engine.arrangement.events_of(user_id))
            if seated:
                self._served_users.add(user_id)
                answer(request, "accepted", seated)
                continue
            events = serve_greedy_walk(
                self.engine.instance, self.engine.arrangement, user_id
            )
            if events:
                self._served_users.add(user_id)
            answer(request, "degraded", events)
        for request in decision.requeue:
            user_id = request.user.user_id
            self._requeues[user_id] = self._requeues.get(user_id, 0) + 1
            self._queued.append(request)

        # Arrivals keep their at-arrival assignment through repair's
        # user-side scan (requeued ones are untouched until served).
        self.engine.exclude_from_repair(
            result, (request.user.user_id for request in candidates)
        )

        counts = {"accepted": 0, "degraded": 0, "rejected": 0, "expired": 0}
        for response in responses:
            if response.outcome in counts:
                counts[response.outcome] += 1
        partial = {
            "decision_time": now,
            "batch_size": len(batch),
            "operations": delta.summary(),
            "arrivals": len(responses),
            "accepted": counts["accepted"],
            "degraded": counts["degraded"],
            "rejected": counts["rejected"],
            "expired": counts["expired"],
            "empty": empty,
            "requeued": len(decision.requeue),
            "seconds": self.clock.perf() - tick_started,
        }

        self._background_started = now
        self._supersede = False
        self._background = asyncio.get_running_loop().create_task(
            self._pipeline(result, tick, partial, final)
        )
        if final:
            await self._settle_background(supersede=False)
        return responses

    async def _settle_background(self, *, supersede: bool) -> None:
        task = self._background
        if task is None:
            return
        if supersede and not task.done():
            self._supersede = True
        await task
        self._background = None
        self._supersede = False

    async def _pipeline(self, result, tick: int, partial: dict, final: bool) -> None:
        """Repair and defrag (a sweep is cooperatively cancellable; see
        :meth:`TickEngine.optimize_steps`) → oracle → audits."""
        engine = self.engine
        steps = engine.optimize_steps(result, tick, served_users=self._served_users)
        stop = None
        while True:
            try:
                steps.send(stop)
            except StopIteration as done:
                repair_moves, defrag_moves, utility = done.value
                break
            await asyncio.sleep(0)  # cancellation point between sweep passes
            stop = self._supersede
        if defrag_moves is not None:
            defrag_moves["superseded"] = bool(stop)
        oracle_utility = None
        if engine.should_run_oracle(tick, tick if final else -1):
            oracle_utility = engine.oracle_solve(tick)
        feasible, parity = engine.audit(result)
        self.report.records.append(
            ServeTickRecord(
                tick=tick,
                decision_time=partial["decision_time"],
                batch_size=partial["batch_size"],
                operations=partial["operations"],
                arrivals=partial["arrivals"],
                accepted=partial["accepted"],
                degraded=partial["degraded"],
                rejected=partial["rejected"],
                expired=partial["expired"],
                empty=partial["empty"],
                requeued=partial["requeued"],
                num_users=result.instance.num_users,
                num_events=result.instance.num_events,
                num_pairs=len(engine.arrangement),
                repair_moves=repair_moves,
                defrag=defrag_moves is not None,
                defrag_moves=defrag_moves,
                switching_pairs=(defrag_moves or {}).get("switching_pairs", 0),
                switching_spend=(defrag_moves or {}).get("switching_spend", 0.0),
                utility=utility,
                oracle_utility=oracle_utility,
                seconds=partial["seconds"],
                feasible=feasible,
                parity_mismatches=parity,
            )
        )


def serve_requests(
    engine: TickEngine,
    requests: Iterable[Request],
    *,
    config: ServiceConfig | None = None,
) -> tuple[ServeReport, list[ServeResponse]]:
    """Replay a request stream through the service, synchronously.

    Bootstraps, submits every request in order, drains, and returns the
    finished report plus every answer in answer order.  With the engine on
    a :class:`~repro.service.clock.VirtualClock` this is the deterministic
    replay front end used by ``igepa serve`` and ``bench_serve``.
    """
    service = ArrangementService(engine, config=config)

    async def _run() -> list[ServeResponse]:
        responses: list[ServeResponse] = []
        service.bootstrap()
        for request in requests:
            responses.extend(await service.submit(request))
        responses.extend(await service.drain())
        return responses

    responses = asyncio.run(_run())
    return service.report, responses
