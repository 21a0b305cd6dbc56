"""The asyncio serving loop end to end: answers, determinism, audits.

Every test replays a fixed request trace through
:func:`repro.service.serve_requests` on a :class:`VirtualClock`, so the
decision-derived side of the report is bit-reproducible and assertable.
"""

import json

import pytest

from repro.datagen.churn import (
    ChurnConfig,
    generate_churn_trace,
    generate_request_trace,
)
from repro.datagen.synthetic import SyntheticConfig, generate_synthetic
from repro.service import (
    AdmitAll,
    DeadlineQueue,
    DegradeOnOverload,
    PeriodicDefrag,
    RejectOnOverload,
    ServiceConfig,
    TickEngine,
    VirtualClock,
    serve_requests,
)
from repro.service.requests import ArrivalRequest, OUTCOMES

CONFIG = ChurnConfig(
    num_batches=8,
    user_arrival_rate=6,
    user_departure_rate=4,
    rebid_rate=8,
    event_open_rate=1,
    event_close_rate=1,
    conflict_toggle_rate=2,
    drift_rate=3,
    capacity_shock_rate=1,
    burst_every=4,
    burst_user_multiplier=5.0,
)


def make_trace(seed=11):
    instance = generate_synthetic(
        SyntheticConfig(num_users=60, num_events=15), seed=seed
    )
    churn = generate_churn_trace(instance, CONFIG, seed=seed + 1)
    return generate_request_trace(churn, batch_seconds=1.0, seed=seed + 2)


def run(trace, *, config=None, **engine_kwargs):
    engine_kwargs.setdefault("clock", VirtualClock())
    engine_kwargs.setdefault("check_parity", True)
    engine = TickEngine(trace.initial, seed=0, **engine_kwargs)
    return serve_requests(engine, trace.requests, config=config)


def num_arrivals(trace):
    return sum(1 for r in trace.requests if isinstance(r, ArrivalRequest))


class TestEveryArrivalAnswered:
    @pytest.mark.parametrize(
        "admission",
        [
            AdmitAll(),
            RejectOnOverload(2),
            DegradeOnOverload(2),
            DeadlineQueue(2, deadline=1.5),
        ],
        ids=lambda policy: policy.name,
    )
    def test_one_terminal_answer_per_arrival(self, admission):
        trace = make_trace()
        report, responses = run(
            trace,
            config=ServiceConfig(max_batch=8, max_wait=1.0, admission=admission),
        )
        expected = num_arrivals(trace)
        assert len(responses) == expected
        assert len(report.arrivals) == expected
        assert report.all_answered
        answered = [response.user_id for response in responses]
        assert len(set(answered)) == expected  # exactly once each
        assert all(response.outcome in OUTCOMES for response in responses)

    def test_drain_answers_queued_leftovers(self):
        # A tight deadline-queue under burst leaves arrivals queued when
        # the stream ends; drain's final tick must answer them anyway.
        trace = make_trace()
        report, responses = run(
            trace,
            config=ServiceConfig(
                max_batch=64,
                max_wait=10.0,  # everything lands in few, huge ticks
                admission=DeadlineQueue(1, deadline=100.0),
            ),
        )
        assert len(responses) == num_arrivals(trace)
        assert report.total_requeues > 0


class TestAudits:
    def test_feasible_and_parity_every_tick(self):
        report, _ = run(
            make_trace(),
            config=ServiceConfig(max_batch=8, max_wait=1.0),
            defrag=PeriodicDefrag(2),
            oracle_every=3,
        )
        assert report.records, "no ticks ran"
        assert report.all_feasible
        assert report.all_parity
        for record in report.records:
            assert record.parity_mismatches == []

    def test_accepted_arrivals_carry_events(self):
        report, responses = run(
            make_trace(), config=ServiceConfig(max_batch=8, max_wait=1.0)
        )
        for response in responses:
            if response.outcome == "accepted":
                assert response.events
                assert list(response.events) == sorted(response.events)
            elif response.outcome in ("rejected", "expired", "empty"):
                assert response.events == ()
            assert response.latency_seconds >= 0.0


class TestDeterminism:
    def test_fixed_seed_fingerprint_is_bit_stable(self):
        fingerprints = []
        for _ in range(2):
            trace = make_trace()
            report, _ = run(
                trace,
                config=ServiceConfig(
                    max_batch=8,
                    max_wait=1.0,
                    admission=DeadlineQueue(3, deadline=2.0),
                ),
                defrag=PeriodicDefrag(2),
                oracle_every=3,
            )
            fingerprints.append(report.determinism_fingerprint())
        assert fingerprints[0] == fingerprints[1]

    def test_different_seed_changes_decisions(self):
        reports = []
        for seed in (11, 12):
            report, _ = run(
                make_trace(seed),
                config=ServiceConfig(max_batch=8, max_wait=1.0),
            )
            reports.append(report.determinism_fingerprint())
        assert reports[0] != reports[1]


class TestDefragWarmStart:
    """Every defrag LP starts warm from the live arrangement, and the
    start changes no decision: the same trace served by a resolver that
    got no start gives the same report and the same final arrangement."""

    def _serve(self, monkeypatch, *, warm):
        from repro.core.lp_packing import LPPacking

        starts = []
        solve = LPPacking.solve

        def recording(self, instance, seed=None):
            result = solve(self, instance, seed)
            starts.append(result.details["lp_start"])
            return result

        with monkeypatch.context() as patch:
            patch.setattr(LPPacking, "solve", recording)
            if not warm:
                patch.setattr(LPPacking, "start_from", lambda self, arrangement: None)
            engine = TickEngine(
                make_trace().initial,
                seed=0,
                defrag=PeriodicDefrag(2),
                oracle_every=3,
                clock=VirtualClock(),
            )
            report, responses = serve_requests(
                engine,
                make_trace().requests,
                config=ServiceConfig(max_batch=8, max_wait=1.0),
            )
        return starts, report, responses, sorted(engine.arrangement.pairs)

    def test_every_defrag_lp_is_warm_and_decides_as_cold(self, monkeypatch):
        starts, report, responses, pairs = self._serve(monkeypatch, warm=True)
        cold_starts, cold_report, cold_responses, cold_pairs = self._serve(
            monkeypatch, warm=False
        )
        assert starts and set(starts) == {"warm"}
        assert set(cold_starts) == {"cold"}
        fingerprint = report.determinism_fingerprint()
        assert fingerprint == cold_report.determinism_fingerprint()
        assert "lp_start" not in json.dumps(fingerprint)
        answers = [(r.user_id, r.outcome, r.events, r.tick) for r in responses]
        assert answers == [
            (r.user_id, r.outcome, r.events, r.tick) for r in cold_responses
        ]
        assert pairs == cold_pairs


class TestSupersession:
    def test_churn_racing_defrag_supersedes_at_pass_boundary(self):
        # With an unbounded grace window every follow-up batch lands
        # "inside" the previous tick's defrag; any sweep defrag that needs
        # more than one improvement pass must be cut short cooperatively —
        # and the arrangement it leaves behind must still pass every audit.
        # Without the LP step every periodic defrag is a sweep (an LP-first
        # defrag has no pass boundary to stop at).
        trace = make_trace()
        report, responses = run(
            trace,
            config=ServiceConfig(
                max_batch=4, max_wait=0.5, defrag_grace=float("inf")
            ),
            defrag=PeriodicDefrag(1),
            defrag_lp=False,
        )
        assert report.defrag_count > 0
        superseded = [
            record
            for record in report.records
            if record.defrag_moves is not None
            and record.defrag_moves.get("superseded")
        ]
        assert report.superseded_defrags == len(superseded)
        assert superseded, "no defrag was ever cut short under inf grace"
        for record in superseded:
            # Cut short before the LP step: no adoption bookkeeping.
            assert "lp_adopted" not in record.defrag_moves
        assert report.all_feasible
        assert report.all_parity
        assert len(responses) == num_arrivals(trace)

    def test_zero_grace_lets_defrag_converge(self):
        report, _ = run(
            make_trace(),
            config=ServiceConfig(max_batch=4, max_wait=0.5, defrag_grace=0.0),
            defrag=PeriodicDefrag(1),
        )
        assert report.defrag_count > 0
        assert report.superseded_defrags == 0


class TestLPFirstDefrag:
    def test_adopted_lp_records_no_repair(self):
        from repro.experiments.reporting import format_serve_table

        report, _ = run(
            make_trace(),
            config=ServiceConfig(max_batch=8, max_wait=1.0),
            defrag=PeriodicDefrag(2),
            oracle_every=3,
        )
        adopted = [
            r for r in report.records if r.defrag and r.defrag_moves["lp_adopted"]
        ]
        assert adopted and all(r.repair_moves is None for r in adopted)
        assert all(r.repair_moves is not None for r in report.records if not r.defrag)
        payload = json.loads(json.dumps(report.to_dict()))
        assert [tick["repair_moves"] is None for tick in payload["ticks"]] == [
            r.repair_moves is None for r in report.records
        ]
        table = format_serve_table(report)
        assert len(table.splitlines()) == len(report.records) + 7

    def test_failed_defrag_lp_keeps_every_tick_feasible(self, monkeypatch):
        from repro.core.lp_packing import LPPacking, LPPackingError

        def failing(self, instance, seed=None):
            raise LPPackingError("injected")

        monkeypatch.setattr(LPPacking, "solve", failing)
        trace = make_trace()
        report, responses = run(
            trace,
            config=ServiceConfig(max_batch=8, max_wait=1.0),
            defrag=PeriodicDefrag(1),
            oracle_every=3,
        )
        assert report.all_feasible and report.all_parity
        assert report.defrag_count == len(report.records)
        for record in report.records:
            assert record.defrag_moves["lp_failed"]
            assert not record.defrag_moves["lp_adopted"]
            assert record.repair_moves is not None
        answered = [response.user_id for response in responses]
        arrivals = [
            r.user.user_id for r in trace.requests if isinstance(r, ArrivalRequest)
        ]
        assert sorted(answered) == sorted(arrivals)


class TestSwitchingCosts:
    def test_penalty_accounted_when_defrag_reseats(self):
        trace = make_trace()
        free, _ = run(
            trace,
            config=ServiceConfig(max_batch=8, max_wait=1.0),
            defrag=PeriodicDefrag(2),
            switching_penalty=0.0,
        )
        trace = make_trace()
        charged, _ = run(
            trace,
            config=ServiceConfig(max_batch=8, max_wait=1.0),
            defrag=PeriodicDefrag(2),
            switching_penalty=0.05,
        )
        assert free.switching_spend_total == 0.0
        assert charged.switching_spend_total == pytest.approx(
            0.05 * charged.switching_pairs_total
        )

    def test_negative_penalty_rejected(self):
        trace = make_trace()
        with pytest.raises(ValueError):
            TickEngine(trace.initial, switching_penalty=-1.0)


class TestReportEnvelope:
    def test_to_dict_is_json_ready_and_enveloped(self):
        report, _ = run(
            make_trace(),
            config=ServiceConfig(max_batch=8, max_wait=1.0),
            defrag=PeriodicDefrag(2),
            oracle_every=3,
        )
        payload = json.loads(json.dumps(report.to_dict()))
        from repro.experiments.persistence import ENVELOPE_VERSION

        assert payload["format_version"] == ENVELOPE_VERSION
        assert payload["kind"] == "serve"
        assert payload["outcome_counts"]["accepted"] >= 0
        assert len(payload["ticks"]) == len(report.records)
        assert len(payload["arrivals"]) == len(report.arrivals)

    def test_latency_aggregates(self):
        report, _ = run(
            make_trace(), config=ServiceConfig(max_batch=8, max_wait=1.0)
        )
        assert report.p50_latency is not None
        assert report.p99_latency >= report.p50_latency >= 0.0
        assert report.arrivals_per_second > 0.0
