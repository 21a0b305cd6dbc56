"""Arrangement-as-a-service: the long-lived serving layer.

PR 5's dynamic simulator runs the platform as a *clocked batch* loop; this
package turns the same five-stage tick pipeline into a serving subsystem:

* :mod:`repro.service.clock` — the decision/measurement time split: virtual
  decision time keeps fixed-seed runs bit-reproducible, monotonic
  measurement time feeds latency reports (the only module whitelisted for
  monotonic reads outside the experiment drivers).
* :mod:`repro.service.defrag` — when the platform pays for a full-scope
  defragmentation pass (moved here from ``experiments.simulate``).
* :mod:`repro.service.engine` — :class:`TickEngine`, the five stages
  (churn, arrivals, repair, defrag, oracle) as reusable steps.  Churn
  replay (:func:`repro.experiments.replay.replay_trace`), the synchronous
  :func:`repro.experiments.simulate.simulate` driver and the asyncio loop
  below share it.
* :mod:`repro.service.requests` / :mod:`~repro.service.batcher` /
  :mod:`~repro.service.admission` — the ingress surface: timestamped
  arrival/churn requests, the micro-batcher that groups them into ticks,
  and the admission-control policies that answer under burst.
* :mod:`repro.service.loop` — :class:`ArrangementService`, the asyncio
  event loop: every arrival is answered with a measured latency while
  targeted repair and defragmentation run as background tasks that are
  cancelled/superseded — never blocking admission.
* :mod:`repro.service.report` — :class:`ServeReport`: p50/p99 serve
  latency, arrivals/sec throughput, admission outcome counts and
  switching-cost spend.
"""

from repro.service.admission import (
    AdmissionPolicy,
    AdmitAll,
    DegradeOnOverload,
    DeadlineQueue,
    RejectOnOverload,
)
from repro.service.batcher import MicroBatcher
from repro.service.clock import Clock, MonotonicClock, VirtualClock
from repro.service.defrag import DefragSchedule, PeriodicDefrag, RetentionDefrag
from repro.service.engine import LPBoundError, TickEngine
from repro.service.loop import ArrangementService, ServiceConfig, serve_requests
from repro.service.report import ArrivalRecord, ServeReport, ServeTickRecord
from repro.service.requests import ArrivalRequest, ChurnRequest, ServeResponse

__all__ = [
    "AdmissionPolicy",
    "AdmitAll",
    "ArrivalRecord",
    "ArrivalRequest",
    "ArrangementService",
    "ChurnRequest",
    "Clock",
    "DeadlineQueue",
    "DefragSchedule",
    "DegradeOnOverload",
    "LPBoundError",
    "MicroBatcher",
    "MonotonicClock",
    "PeriodicDefrag",
    "RejectOnOverload",
    "RetentionDefrag",
    "ServeReport",
    "ServeResponse",
    "ServeTickRecord",
    "ServiceConfig",
    "TickEngine",
    "VirtualClock",
    "serve_requests",
]
