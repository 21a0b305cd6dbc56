"""Command-line interface: ``python -m repro`` or the ``igepa`` script.

Subcommands:

* ``list`` — show every registered experiment (id, description, expectation).
* ``experiment ID`` — regenerate a paper figure/table and print the report.
* ``generate {synthetic,meetup}`` — write a dataset to JSON.
* ``solve INSTANCE.json`` — run one algorithm on a saved instance.
* ``replay`` — churn a synthetic instance and compare incremental repair
  against full recompute, batch by batch.
* ``simulate`` — the dynamic platform: online arrivals under event churn,
  capacity/interest deltas and a defragmentation schedule, tick by tick.
* ``serve`` — arrangement as a service: the same pipeline as an asyncio
  serving loop with micro-batching, admission control and latency SLOs;
  replays a generated request trace, or JSON-lines requests from stdin.
* ``lint`` — the AST-based invariant checker guarding the array/columnar
  contracts (codes IGP001-IGP010; see ``repro.analysis_tools``).
* ``metrics`` — the perf-trajectory pipeline: ingest report artifacts
  into the cross-run JSONL history, render trend reports, and gate CI on
  regression rules (see ``repro.metrics``).

``replay``, ``simulate`` and ``serve`` share their flags through parent
parsers: the platform and churn flags are declared once for all three, the
engine and dynamics flags once for ``simulate`` and ``serve``.  One helper
builds the platform and its churn trace (:func:`_churn_trace`), and one
builds the :class:`~repro.service.engine.TickEngine`
(:func:`_build_engine`).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.core.baselines import GGGreedy, RandomU, RandomV
from repro.core.exact import ExactILP
from repro.core.local_search import LocalSearch
from repro.core.lp_packing import LPPacking
from repro.core.online import OnlineGreedy, OnlineRandom
from repro.datagen.churn import ChurnConfig, ChurnTrace, generate_churn_trace
from repro.datagen.meetup import MeetupConfig, generate_meetup
from repro.datagen.synthetic import SyntheticConfig, generate_synthetic
from repro.experiments.persistence import save_report
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.experiments.replay import format_replay_table, replay_trace
from repro.experiments.simulate import (
    DefragSchedule,
    PeriodicDefrag,
    RetentionDefrag,
    format_simulation_table,
    simulate_engine,
)
from repro.metrics.cli import add_metrics_parser
from repro.model.instance import IGEPAInstance
from repro.service.engine import TickEngine

ALGORITHMS = {
    "lp-packing": lambda args: LPPacking(alpha=args.alpha),
    "gg": lambda args: GGGreedy(),
    "random-u": lambda args: RandomU(),
    "random-v": lambda args: RandomV(),
    "exact": lambda args: ExactILP(),
}

REPLAY_ALGORITHMS = {
    "gg": lambda: GGGreedy(),
    "gg+ls": lambda: LocalSearch(GGGreedy()),
    "random-u": lambda: RandomU(),
    "random-u+ls": lambda: LocalSearch(RandomU()),
    # LP-packing as the full re-solve baseline.
    "lp-packing": lambda: LPPacking(alpha=1.0),
}

ONLINE_ALGORITHMS = {
    "online-greedy": lambda: OnlineGreedy(),
    "online-random": lambda: OnlineRandom(),
}

ADMISSION_POLICIES = ["admit-all", "reject", "degrade", "queue"]

#: Churn flag destination -> :class:`ChurnConfig` field.  A subcommand that
#: does not declare a flag keeps the config's default for that field.
_CHURN_FLAGS = {
    "batches": "num_batches",
    "arrival_rate": "user_arrival_rate",
    "departure_rate": "user_departure_rate",
    "rebid_rate": "rebid_rate",
    "drift_rate": "drift_rate",
    "capacity_shock_rate": "capacity_shock_rate",
    "user_capacity_shock_rate": "user_capacity_shock_rate",
    "burst_every": "burst_every",
    "burst_shrink": "burst_capacity_shrink_fraction",
}


def _cmd_list(_args: argparse.Namespace) -> int:
    width = max(len(e) for e in EXPERIMENTS)
    for experiment_id in sorted(EXPERIMENTS):
        experiment = EXPERIMENTS[experiment_id]
        print(f"{experiment_id:<{width}}  {experiment.description}")
        print(f"{'':<{width}}  paper: {experiment.paper_expectation}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    report = run_experiment(args.id, repetitions=args.reps, seed=args.seed)
    print(report.text)
    print(f"\nranking: {report.ranking}")
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report.text + "\n")
        print(f"report written to {args.out}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.dataset == "synthetic":
        config = SyntheticConfig(
            num_events=args.events,
            num_users=args.users,
            conflict_probability=args.pcf,
            friend_probability=args.pdeg,
        )
        instance = generate_synthetic(config, seed=args.seed)
    else:
        config = MeetupConfig(num_events=args.events, num_users=args.users)
        instance = generate_meetup(config, seed=args.seed)
    instance.save(args.out)
    stats = instance.statistics()
    print(f"wrote {args.out}: {stats}")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = IGEPAInstance.load(args.instance)
    algorithm = ALGORITHMS[args.algorithm](args)
    result = algorithm.solve(instance, seed=args.seed)
    print(f"algorithm : {result.algorithm}")
    print(f"utility   : {result.utility:.4f}")
    print(f"pairs     : {result.num_pairs}")
    print(f"runtime   : {result.runtime_seconds * 1e3:.1f} ms")
    for key, value in sorted(result.details.items()):
        print(f"  {key}: {value}")
    return 0


def _churn_trace(args: argparse.Namespace) -> ChurnTrace:
    """The synthetic platform and churn trace the flags describe."""
    synthetic = SyntheticConfig(
        num_events=args.events,
        num_users=args.users,
        conflict_probability=args.pcf,
    )
    instance = generate_synthetic(synthetic, seed=args.seed)
    config = ChurnConfig(
        event_open_rate=args.event_rate,
        event_close_rate=args.event_rate,
        # Churned entities (new events' conflicts, new users' bid shapes)
        # sample from the same config as the initial instance.
        base=synthetic,
        **{
            field: getattr(args, dest)
            for dest, field in _CHURN_FLAGS.items()
            if hasattr(args, dest)
        },
    )
    return generate_churn_trace(instance, config, seed=args.seed + 1)


def _build_defrag(args: argparse.Namespace) -> DefragSchedule:
    if args.defrag == "periodic":
        return PeriodicDefrag(args.defrag_period)
    if args.defrag == "retention":
        return RetentionDefrag(args.defrag_threshold)
    return DefragSchedule()


def _build_engine(
    args: argparse.Namespace, initial: IGEPAInstance, **options
) -> TickEngine:
    """The simulate/serve ``TickEngine`` the flags describe; a value the
    engine or its defrag schedule rejects becomes a usage error."""
    try:
        return TickEngine(
            initial,
            online=ONLINE_ALGORITHMS[args.algorithm](),
            seed=args.seed,
            defrag=_build_defrag(args),
            oracle_every=args.oracle_every,
            defrag_lp=not args.no_defrag_lp,
            defrag_lp_incremental=args.defrag_lp_incremental,
            check_parity=args.check_parity,
            **options,
        )
    except ValueError as exc:
        raise argparse.ArgumentError(None, str(exc)) from exc


def _finish(args: argparse.Namespace, report) -> int:
    """Print the parity verdict, write ``--out``; the parity exit code."""
    if args.check_parity:
        print(f"index parity (bit-identical): {report.all_parity}")
    if args.out:
        save_report(report, args.out)
        print(f"report written to {args.out}")
    # A failed parity check must fail the command, not just print False.
    return 0 if (not args.check_parity or report.all_parity) else 1


def _cmd_replay(args: argparse.Namespace) -> int:
    report = replay_trace(
        _churn_trace(args),
        algorithm=REPLAY_ALGORITHMS[args.algorithm](),
        seed=args.seed,
        compare_full=not args.no_full,
        check_parity=args.check_parity,
    )
    print(format_replay_table(report))
    return _finish(args, report)


def _cmd_simulate(args: argparse.Namespace) -> int:
    trace = _churn_trace(args)
    report = simulate_engine(_build_engine(args, trace.initial), trace)
    print(format_simulation_table(report))
    return _finish(args, report)


def _build_admission(args: argparse.Namespace):
    from repro.service import (
        AdmitAll,
        DeadlineQueue,
        DegradeOnOverload,
        RejectOnOverload,
    )

    if args.admission == "reject":
        return RejectOnOverload(args.max_serve)
    if args.admission == "degrade":
        return DegradeOnOverload(args.max_serve)
    if args.admission == "queue":
        return DeadlineQueue(args.max_serve, args.deadline)
    return AdmitAll()


def _cmd_serve(args: argparse.Namespace) -> int:
    # Lazy: the service stack (asyncio loop, wire format) is only needed
    # here.
    from repro.datagen.churn import generate_request_trace
    from repro.experiments.reporting import format_serve_table
    from repro.service import ServiceConfig, VirtualClock, serve_requests
    from repro.service.wire import request_from_dict, response_to_dict

    config = ServiceConfig(
        max_batch=args.max_batch,
        max_wait=args.max_wait,
        admission=_build_admission(args),
        defrag_grace=args.defrag_grace,
    )

    def build_engine(initial: IGEPAInstance) -> TickEngine:
        return _build_engine(
            args,
            initial,
            clock=VirtualClock(),
            switching_penalty=args.switching_penalty,
        )

    if args.stdin:
        if not args.instance:
            print("--stdin requires --instance INSTANCE.json", file=sys.stderr)
            return 2
        instance = IGEPAInstance.load(args.instance)
        requests = (
            request_from_dict(json.loads(line))
            for line in sys.stdin
            if line.strip()
        )
        report, responses = serve_requests(
            build_engine(instance), requests, config=config
        )
        for response in responses:
            print(json.dumps(response_to_dict(response)))
        print(format_serve_table(report), file=sys.stderr)
    else:
        request_trace = generate_request_trace(
            _churn_trace(args), batch_seconds=args.batch_seconds, seed=args.seed + 2
        )
        report, _responses = serve_requests(
            build_engine(request_trace.initial),
            request_trace.requests,
            config=config,
        )
        print(format_serve_table(report))
    code = _finish(args, report)
    return code if report.all_feasible else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    # Lazy import: the lint engine is pure stdlib but there is no reason to
    # parse rule tables for every `igepa solve`.
    from repro.analysis_tools.engine import main as lint_main

    forwarded: list[str] = list(args.paths)
    if args.list_rules:
        forwarded.append("--list-rules")
    if args.format != "text":
        forwarded.extend(["--format", args.format])
    if args.select:
        forwarded.extend(["--select", args.select])
    if args.out:
        forwarded.extend(["--out", args.out])
    return lint_main(forwarded)


def _platform_flags() -> argparse.ArgumentParser:
    """The synthetic platform and its churn: replay, simulate and serve."""
    group = argparse.ArgumentParser(add_help=False)
    group.add_argument("--users", type=int, default=2000, help="initial |U|")
    group.add_argument("--events", type=int, default=200, help="initial |V|")
    group.add_argument("--seed", type=int, default=0)
    group.add_argument("--pcf", type=float, default=0.3, help="conflict probability")
    group.add_argument(
        "--arrival-rate", type=float, default=20.0, help="user arrivals/batch"
    )
    group.add_argument(
        "--departure-rate", type=float, default=20.0, help="user departures/batch"
    )
    group.add_argument("--rebid-rate", type=float, default=40.0, help="re-bids/batch")
    group.add_argument(
        "--event-rate", type=float, default=1.0, help="event opens and closes/batch"
    )
    group.add_argument(
        "--burst-every",
        type=int,
        default=0,
        help="every k-th batch is an adversarial burst (0: never)",
    )
    group.add_argument(
        "--check-parity",
        action="store_true",
        help="verify the patched index equals a from-scratch build per batch",
    )
    group.add_argument("--out", help="also write the report as JSON")
    return group


def _engine_flags() -> argparse.ArgumentParser:
    """The tick engine and the platform dynamics: simulate and serve."""
    group = argparse.ArgumentParser(add_help=False)
    group.add_argument(
        "--batches", type=int, default=20, help="churn batches (simulation ticks)"
    )
    group.add_argument(
        "--algorithm",
        choices=sorted(ONLINE_ALGORITHMS),
        default="online-greedy",
        help="online policy serving each tick's arrivals",
    )
    group.add_argument(
        "--oracle-every",
        type=int,
        default=5,
        help="compute the LP optimum LP* every k-th tick (0: never)",
    )
    group.add_argument(
        "--defrag",
        choices=["none", "periodic", "retention"],
        default="none",
        help="defragmentation schedule",
    )
    group.add_argument(
        "--defrag-period",
        type=int,
        default=10,
        help="ticks between periodic defrags",
    )
    group.add_argument(
        "--defrag-threshold",
        type=float,
        default=0.95,
        help="retention fraction that trips the retention schedule",
    )
    group.add_argument(
        "--no-defrag-lp",
        action="store_true",
        help="skip the LP-packing re-solve during defrag passes",
    )
    group.add_argument(
        "--defrag-lp-incremental",
        action="store_true",
        help=(
            "maintain the defrag LP as one delta-patched program instead of "
            "rebuilding it per defrag (HiGHS solves it either way)"
        ),
    )
    group.add_argument(
        "--drift-rate",
        type=float,
        default=20.0,
        help="existing bid pairs re-sampling their SI value per batch",
    )
    group.add_argument(
        "--capacity-shock-rate",
        type=float,
        default=2.0,
        help="events re-sampling their capacity per batch",
    )
    return group


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="igepa",
        description=(
            "Reproduction of 'Interaction-Aware Arrangement for Event-Based "
            "Social Networks' (ICDE 2019)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    # Parent parsers: each flag on them is declared once and shared by the
    # subcommands built with them.
    platform = _platform_flags()
    engine = _engine_flags()

    sub = subparsers.add_parser("list", help="list registered experiments")
    sub.set_defaults(func=_cmd_list)

    sub = subparsers.add_parser("experiment", help="run a paper figure/table")
    sub.add_argument("id", choices=sorted(EXPERIMENTS), help="experiment id")
    sub.add_argument("--reps", type=int, default=3, help="repetitions (paper: 50)")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", help="also write the report to this file")
    sub.set_defaults(func=_cmd_experiment)

    sub = subparsers.add_parser("generate", help="write a dataset to JSON")
    sub.add_argument("dataset", choices=["synthetic", "meetup"])
    sub.add_argument("--out", required=True, help="output JSON path")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--events", type=int, default=None)
    sub.add_argument("--users", type=int, default=None)
    sub.add_argument("--pcf", type=float, default=0.3, help="conflict probability")
    sub.add_argument("--pdeg", type=float, default=0.5, help="friend probability")
    sub.set_defaults(func=_cmd_generate)

    sub = subparsers.add_parser("solve", help="run one algorithm on a saved instance")
    sub.add_argument("instance", help="instance JSON written by 'generate'")
    sub.add_argument(
        "--algorithm", choices=sorted(ALGORITHMS), default="lp-packing"
    )
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--alpha", type=float, default=1.0, help="LP-packing alpha")
    sub.set_defaults(func=_cmd_solve)

    sub = subparsers.add_parser(
        "replay",
        parents=[platform],
        help="churn a synthetic instance: incremental repair vs full recompute",
    )
    sub.add_argument("--batches", type=int, default=10, help="churn batches")
    sub.add_argument(
        "--algorithm",
        choices=sorted(REPLAY_ALGORITHMS),
        default="gg+ls",
        help="base solver (initial arrangement + full-recompute side)",
    )
    sub.add_argument(
        "--no-full",
        action="store_true",
        help="skip the full-recompute comparison side",
    )
    sub.set_defaults(func=_cmd_replay)

    sub = subparsers.add_parser(
        "simulate",
        parents=[platform, engine],
        help=(
            "dynamic platform: online arrivals under churn, capacity/interest "
            "deltas and a defragmentation schedule"
        ),
    )
    sub.add_argument(
        "--user-capacity-shock-rate",
        type=float,
        default=0.0,
        help="users re-sampling their capacity per tick",
    )
    sub.add_argument(
        "--burst-shrink",
        type=float,
        default=0.2,
        help="fraction of events a burst halves the capacity of",
    )
    sub.set_defaults(func=_cmd_simulate)

    sub = subparsers.add_parser(
        "serve",
        parents=[platform, engine],
        help=(
            "arrangement as a service: asyncio loop with micro-batching, "
            "admission control and latency SLOs"
        ),
    )
    sub.add_argument(
        "--max-batch",
        type=int,
        default=64,
        help="micro-batch size cap (flush on reaching it)",
    )
    sub.add_argument(
        "--max-wait",
        type=float,
        default=1.0,
        help="decision-time seconds before a pending batch flushes",
    )
    sub.add_argument(
        "--admission",
        choices=ADMISSION_POLICIES,
        default="admit-all",
        help="admission-control policy under burst",
    )
    sub.add_argument(
        "--max-serve",
        type=int,
        default=32,
        help="arrivals served in full per tick (overload policies)",
    )
    sub.add_argument(
        "--deadline",
        type=float,
        default=2.0,
        help="queue deadline in decision-time seconds (queue policy)",
    )
    sub.add_argument(
        "--switching-penalty",
        type=float,
        default=0.0,
        help="utility cost per re-seated (user, event) pair during defrag",
    )
    sub.add_argument(
        "--defrag-grace",
        type=float,
        default=None,
        help=(
            "supersede a running defrag when the next batch lands within "
            "this many seconds (default: --max-wait)"
        ),
    )
    sub.add_argument(
        "--batch-seconds",
        type=float,
        default=1.0,
        help="decision-time window of one generated churn batch",
    )
    sub.add_argument(
        "--stdin",
        action="store_true",
        help=(
            "read JSON-lines requests from stdin instead of generating a "
            "trace (answers stream to stdout; table to stderr)"
        ),
    )
    sub.add_argument(
        "--instance",
        help="instance JSON written by 'generate' (required with --stdin)",
    )
    sub.set_defaults(func=_cmd_serve)

    sub = subparsers.add_parser(
        "lint",
        help=(
            "check the source tree against the array/columnar contracts "
            "(IGP001-IGP010)"
        ),
    )
    sub.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    sub.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="output format (json is machine-readable for CI annotation)",
    )
    sub.add_argument(
        "--select", help="comma-separated list of codes to enable"
    )
    sub.add_argument("--out", help="also write the report to this file")
    sub.add_argument(
        "--list-rules", action="store_true", help="list rules and exit"
    )
    sub.set_defaults(func=_cmd_lint)

    add_metrics_parser(subparsers)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "generate":
        defaults = {"synthetic": (200, 2000), "meetup": (190, 2811)}
        default_events, default_users = defaults[args.dataset]
        if args.events is None:
            args.events = default_events
        if args.users is None:
            args.users = default_users
    try:
        return args.func(args)
    except argparse.ArgumentError as exc:
        parser.error(f"{args.command}: {exc}")
    except BrokenPipeError:
        # Downstream pager/head closed the pipe (igepa list | head): normal.
        return 0


if __name__ == "__main__":
    sys.exit(main())
