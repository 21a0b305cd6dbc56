"""Unit tests for the command-line interface."""

import json
import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.core.baselines import GGGreedy
from repro.core.local_search import LocalSearch
from repro.core.online import OnlineGreedy
from repro.datagen import (
    ChurnConfig,
    SyntheticConfig,
    generate_churn_trace,
    generate_synthetic,
)
from repro.datagen.churn import generate_request_trace
from repro.experiments.replay import replay_trace
from repro.experiments.simulate import PeriodicDefrag, simulate
from repro.service import (
    AdmitAll,
    ServiceConfig,
    TickEngine,
    VirtualClock,
    serve_requests,
)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_experiment_rejected_at_parse_time(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig7x"])

    def test_generate_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "synthetic"])


# Every flag and default of the churn subcommands, pinned.  replay keeps
# its own batch count and base solver; serve has no --burst-shrink or
# --user-capacity-shock-rate (its bursts never shrink capacities:
# ChurnConfig's 0.0).
PLATFORM_DEFAULTS = {
    "users": 2000,
    "events": 200,
    "seed": 0,
    "pcf": 0.3,
    "arrival_rate": 20.0,
    "departure_rate": 20.0,
    "rebid_rate": 40.0,
    "event_rate": 1.0,
    "burst_every": 0,
    "check_parity": False,
    "out": None,
}
ENGINE_DEFAULTS = {
    "batches": 20,
    "algorithm": "online-greedy",
    "oracle_every": 5,
    "defrag": "none",
    "defrag_period": 10,
    "defrag_threshold": 0.95,
    "no_defrag_lp": False,
    "defrag_lp_incremental": False,
    "drift_rate": 20.0,
    "capacity_shock_rate": 2.0,
}
PARSED_DEFAULTS = {
    "replay": {
        **PLATFORM_DEFAULTS,
        "command": "replay",
        "batches": 10,
        "algorithm": "gg+ls",
        "no_full": False,
    },
    "simulate": {
        **PLATFORM_DEFAULTS,
        **ENGINE_DEFAULTS,
        "command": "simulate",
        "user_capacity_shock_rate": 0.0,
        "burst_shrink": 0.2,
    },
    "serve": {
        **PLATFORM_DEFAULTS,
        **ENGINE_DEFAULTS,
        "command": "serve",
        "max_batch": 64,
        "max_wait": 1.0,
        "admission": "admit-all",
        "max_serve": 32,
        "deadline": 2.0,
        "switching_penalty": 0.0,
        "defrag_grace": None,
        "batch_seconds": 1.0,
        "stdin": False,
        "instance": None,
    },
}


@pytest.mark.parametrize("command", sorted(PARSED_DEFAULTS))
def test_churn_subcommand_flags_and_defaults(command):
    parsed = vars(build_parser().parse_args([command]))
    parsed.pop("func")
    assert parsed == PARSED_DEFAULTS[command]


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--oracle-every", "-1"],
        ["simulate", "--defrag", "periodic", "--defrag-period", "0"],
        ["simulate", "--defrag", "retention", "--defrag-threshold", "1.5"],
        ["serve", "--oracle-every", "-1"],
        ["serve", "--defrag", "periodic", "--defrag-period", "0"],
        ["serve", "--switching-penalty", "-1"],
    ],
)
def test_out_of_range_engine_flags_are_usage_errors(argv, capsys):
    """A value the engine or a defrag schedule rejects exits 2 with an
    argparse error, not a traceback (and a negative cadence no longer runs
    the oracle every tick)."""
    small = ["--users", "20", "--events", "5", "--batches", "1"]
    with pytest.raises(SystemExit) as exit_info:
        main(argv + small)
    assert exit_info.value.code == 2
    error = capsys.readouterr().err
    assert f"igepa: error: {argv[0]}: " in error
    assert "must be" in error


NIGHTLY = Path(__file__).resolve().parents[2] / ".github/workflows/nightly.yml"


def test_nightly_command_lines_parse():
    """The soak jobs' igepa command lines (continuations joined) parse."""
    text = NIGHTLY.read_text().replace("\\\n", " ")
    commands = [
        shlex.split(line)
        for line in re.findall(r"igepa (?:simulate|serve) [^\n]+", text)
    ]
    assert sorted(argv[1] for argv in commands) == ["serve", "simulate"]
    for argv in commands:
        build_parser().parse_args(argv[1:])


class TestListCommand:
    def test_lists_all_experiments(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for experiment_id in ("fig1a", "fig1f", "table2"):
            assert experiment_id in output
        assert "paper:" in output

    def test_broken_pipe_exits_cleanly(self, monkeypatch):
        """`igepa list | head` must not traceback when the pager closes."""
        import builtins

        real_print = builtins.print
        calls = {"count": 0}

        def exploding_print(*args, **kwargs):
            calls["count"] += 1
            if calls["count"] > 1:
                raise BrokenPipeError
            real_print(*args, **kwargs)

        monkeypatch.setattr(builtins, "print", exploding_print)
        assert main(["list"]) == 0


class TestGenerateAndSolve:
    def test_generate_synthetic_writes_loadable_json(self, tmp_path, capsys):
        out = tmp_path / "instance.json"
        code = main(
            [
                "generate", "synthetic",
                "--out", str(out),
                "--seed", "3",
                "--events", "10",
                "--users", "25",
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["events"]) == 10
        assert len(payload["users"]) == 25
        assert "wrote" in capsys.readouterr().out

    def test_generate_meetup(self, tmp_path):
        out = tmp_path / "meetup.json"
        code = main(
            [
                "generate", "meetup",
                "--out", str(out),
                "--seed", "1",
                "--events", "12",
                "--users", "30",
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["conflict"]["kind"] == "time-interval"

    @pytest.mark.parametrize(
        "algorithm", ["lp-packing", "gg", "random-u", "random-v", "exact"]
    )
    def test_solve_each_algorithm(self, tmp_path, capsys, algorithm):
        out = tmp_path / "instance.json"
        main(
            [
                "generate", "synthetic",
                "--out", str(out),
                "--seed", "3",
                "--events", "6",
                "--users", "10",
            ]
        )
        capsys.readouterr()
        code = main(["solve", str(out), "--algorithm", algorithm, "--seed", "0"])
        assert code == 0
        output = capsys.readouterr().out
        assert "utility" in output
        assert algorithm.replace("exact", "exact-ilp") in output

    def test_solve_with_alpha(self, tmp_path, capsys):
        out = tmp_path / "instance.json"
        main(
            [
                "generate", "synthetic",
                "--out", str(out),
                "--seed", "3",
                "--events", "6",
                "--users", "10",
            ]
        )
        capsys.readouterr()
        code = main(
            ["solve", str(out), "--algorithm", "lp-packing", "--alpha", "0.5"]
        )
        assert code == 0
        assert "alpha: 0.5" in capsys.readouterr().out


class TestServeCommand:
    def test_trace_mode_writes_report(self, tmp_path, capsys):
        out = tmp_path / "serve.json"
        code = main(
            [
                "serve",
                "--users", "60",
                "--events", "12",
                "--batches", "4",
                "--arrival-rate", "4",
                "--departure-rate", "2",
                "--rebid-rate", "4",
                "--max-batch", "8",
                "--max-wait", "1.0",
                "--admission", "queue",
                "--max-serve", "3",
                "--deadline", "2.0",
                "--defrag", "periodic",
                "--defrag-period", "2",
                "--oracle-every", "2",
                "--check-parity",
                "--seed", "0",
                "--out", str(out),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "p50" in output and "p99" in output
        assert "index parity (bit-identical): True" in output
        payload = json.loads(out.read_text())
        assert payload["kind"] == "serve"
        assert payload["all_feasible"] is True
        assert payload["admission_policy"].startswith("queue")

    def test_stdin_mode_answers_on_stdout(self, tmp_path, capsys, monkeypatch):
        import io

        instance_path = tmp_path / "instance.json"
        main(
            [
                "generate", "synthetic",
                "--out", str(instance_path),
                "--seed", "3",
                "--events", "6",
                "--users", "10",
            ]
        )
        capsys.readouterr()
        lines = [
            json.dumps(
                {
                    "type": "churn",
                    "timestamp": 0.0,
                    "delta": {"add_events": [{"event_id": 900, "capacity": 4}]},
                }
            ),
            json.dumps(
                {
                    "type": "arrival",
                    "timestamp": 0.2,
                    "user": {"user_id": 9000, "capacity": 1, "bids": [900]},
                    "interest": [[900, 9000, 0.7]],
                }
            ),
        ]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
        code = main(["serve", "--stdin", "--instance", str(instance_path)])
        assert code == 0
        captured = capsys.readouterr()
        responses = [
            json.loads(line)
            for line in captured.out.splitlines()
            if line.strip().startswith("{")
        ]
        assert [r["user_id"] for r in responses] == [9000]
        assert responses[0]["outcome"] in ("accepted", "empty")

    def test_stdin_requires_instance(self, capsys):
        assert main(["serve", "--stdin"]) == 2
        assert "--instance" in capsys.readouterr().err


class TestExperimentCommand:
    def test_experiment_writes_report_file(self, tmp_path, capsys, monkeypatch):
        """Patch the registry to a fast stub; the CLI glue is what's tested."""
        from repro.experiments.registry import ExperimentReport
        import repro.cli as cli_module

        def fake_run(experiment_id, repetitions=3, seed=0, **kwargs):
            return ExperimentReport(
                experiment_id=experiment_id,
                text=f"stub report for {experiment_id} reps={repetitions}",
                data=None,
                ranking="lp-packing (1.00)",
            )

        monkeypatch.setattr(cli_module, "run_experiment", fake_run)
        out = tmp_path / "report.txt"
        code = main(["experiment", "fig1a", "--reps", "2", "--out", str(out)])
        assert code == 0
        output = capsys.readouterr().out
        assert "stub report for fig1a reps=2" in output
        assert "ranking" in output
        assert out.read_text().startswith("stub report")


# ----------------------------------------------------------------------
# CLI <-> library equivalence: a tiny platform, defrag and oracle every
# tick.  The library side spells out every default the CLI applies, but runs
# on the CSR index while the CLI picks the dense one by size, so each
# comparison is also a dense-vs-CSR parity check.
# ----------------------------------------------------------------------
TINY = [
    "--users", "120", "--events", "15", "--batches", "3",
    "--seed", "4", "--check-parity",
]
TINY_ENGINE = [
    "--defrag", "periodic", "--defrag-period", "1", "--oracle-every", "1",
]


def _tiny_trace(**dynamics):
    synthetic = SyntheticConfig(
        num_events=15, num_users=120, conflict_probability=0.3
    )
    instance = generate_synthetic(synthetic, seed=4)
    instance.configure_index(sharded=True)
    config = ChurnConfig(
        num_batches=3,
        user_arrival_rate=20.0,
        user_departure_rate=20.0,
        rebid_rate=40.0,
        event_open_rate=1.0,
        event_close_rate=1.0,
        burst_every=0,
        base=synthetic,
        **dynamics,
    )
    return generate_churn_trace(instance, config, seed=5)


def _tiny_engine_options():
    return {
        "seed": 4,
        "defrag": PeriodicDefrag(1),
        "oracle_every": 1,
        "check_parity": True,
    }


def _run_cli(argv, out):
    assert main([*argv, "--out", str(out)]) == 0
    return json.loads(out.read_text())


def _decisions(payload):
    """The payload without provenance and wall-clock-derived fields."""
    if isinstance(payload, dict):
        return {
            key: _decisions(value)
            for key, value in payload.items()
            if key != "provenance" and not key.endswith(("seconds", "speedup"))
        }
    if isinstance(payload, list):
        return [_decisions(value) for value in payload]
    return payload


class TestCliMatchesLibrary:
    def test_simulate(self, tmp_path, capsys):
        payload = _run_cli(["simulate", *TINY, *TINY_ENGINE], tmp_path / "sim.json")
        trace = _tiny_trace(
            drift_rate=20.0,
            capacity_shock_rate=2.0,
            burst_capacity_shrink_fraction=0.2,
        )
        report = simulate(trace, OnlineGreedy(), **_tiny_engine_options())
        assert report.defrag_count == 3
        assert [(t["utility"], t["num_pairs"]) for t in payload["ticks"]] == [
            (r.utility, r.num_pairs) for r in report.records
        ]
        assert payload["all_parity"] is True

    def test_serve(self, tmp_path, capsys):
        payload = _run_cli(["serve", *TINY, *TINY_ENGINE], tmp_path / "serve.json")
        requests = generate_request_trace(
            _tiny_trace(drift_rate=20.0, capacity_shock_rate=2.0),
            batch_seconds=1.0,
            seed=6,
        )
        engine = TickEngine(
            requests.initial,
            OnlineGreedy(),
            clock=VirtualClock(),
            switching_penalty=0.0,
            **_tiny_engine_options(),
        )
        config = ServiceConfig(max_batch=64, max_wait=1.0, admission=AdmitAll())
        report, _ = serve_requests(engine, requests.requests, config=config)
        assert report.defrag_count > 0
        outcome_keys = (
            "accepted", "degraded", "rejected", "expired", "empty", "requeued",
        )
        fingerprint = {
            "ticks": [
                {
                    "tick": t["tick"],
                    "decision_time": t["decision_time"],
                    "batch_size": t["batch_size"],
                    "operations": t["operations"],
                    "outcomes": [t[key] for key in outcome_keys],
                    "utility": t["utility"],
                    "defrag": t["defrag"],
                    "switching_pairs": t["switching_pairs"],
                    "switching_spend": t["switching_spend"],
                }
                for t in payload["ticks"]
            ],
            "arrivals": [
                {
                    key: arrival[key]
                    for key in ("user_id", "tick", "outcome", "events", "requeues")
                }
                for arrival in payload["arrivals"]
            ],
        }
        expected = json.loads(json.dumps(report.determinism_fingerprint()))
        assert fingerprint == expected

    def test_replay(self, tmp_path, capsys):
        payload = _run_cli(["replay", *TINY], tmp_path / "replay.json")
        report = replay_trace(
            _tiny_trace(),
            algorithm=LocalSearch(GGGreedy()),
            seed=4,
            compare_full=True,
            check_parity=True,
        )
        expected = json.loads(json.dumps(report.to_dict()))
        assert _decisions(payload) == _decisions(expected)
