"""Plain-text reports in the shape of the paper's figures and tables."""

from __future__ import annotations

from collections.abc import Mapping

from repro.experiments.runner import AlgorithmStats
from repro.experiments.sweeps import SweepResult

#: Paper's Table II column order.
TABLE2_ORDER = ["lp-packing", "random-u", "random-v", "gg"]


def _format_value(value: float) -> str:
    return f"{value:10.2f}"


def format_sweep_table(result: SweepResult, title: str = "") -> str:
    """Render a sweep as a fixed-width table: one row per algorithm.

    Mirrors a Fig. 1 panel: the x-axis grid across the columns, one utility
    series per algorithm.
    """
    lines: list[str] = []
    if title:
        lines.append(title)
    lines.append(
        f"(reps={result.repetitions}, varying {result.label}, "
        f"mean utility per grid point)"
    )
    header = f"{result.label:>12s}" + "".join(
        f"{str(value):>11s}" for value in result.values
    )
    lines.append(header)
    for algorithm in result.algorithms():
        row = f"{algorithm:>12s}"
        for value in result.series(algorithm):
            row += " " + _format_value(value)
        lines.append(row)
    return "\n".join(lines)


def format_utility_table(
    stats: Mapping[str, AlgorithmStats],
    title: str = "",
    order: list[str] | None = None,
) -> str:
    """Render fixed-instance results in the paper's Table II layout.

    Header names and value cells share one column width (12, grown to fit
    the longest algorithm name), so every value's right edge lines up under
    its algorithm name.  (The cells used to render 11 wide under 12-wide
    headers — a 10-char value plus one space — drifting the columns right
    by one character per algorithm.)
    """
    if order is None:
        order = [name for name in TABLE2_ORDER if name in stats]
        order += [name for name in stats if name not in order]
    width = max([12, *(len(name) for name in order)])
    lines: list[str] = []
    if title:
        lines.append(title)
    lines.append("Algorithm " + "".join(f"{name:>{width}s}" for name in order))
    lines.append(
        "Utility   "
        + "".join(f"{stats[name].mean_utility:>{width}.2f}" for name in order)
    )
    lines.append(
        "Std       "
        + "".join(f"{stats[name].std_utility:>{width}.2f}" for name in order)
    )
    lines.append(
        "Pairs     "
        + "".join(f"{stats[name].mean_pairs:>{width}.1f}" for name in order)
    )
    lines.append(
        "Time (s)  "
        + "".join(f"{stats[name].mean_runtime:>{width}.3f}" for name in order)
    )
    return "\n".join(lines)


def format_ranking(stats: Mapping[str, AlgorithmStats]) -> str:
    """One line: algorithms by decreasing mean utility."""
    ranked = sorted(stats.values(), key=lambda s: -s.mean_utility)
    return " > ".join(f"{s.algorithm} ({s.mean_utility:.2f})" for s in ranked)


def format_serve_table(report) -> str:
    """Render a :class:`~repro.service.report.ServeReport` tick by tick.

    One row per tick (batch shape, admission outcomes, utility, audits)
    plus a footer with the latency SLO numbers and session totals.
    """
    lines = [
        (
            f"serve: online={report.online_algorithm} "
            f"admission={report.admission_policy} "
            f"defrag={report.defrag_schedule}"
        ),
        (
            f"bootstrap: utility={report.initial_utility:.2f} "
            f"({report.initial_seconds * 1e3:.0f} ms)"
        ),
        (
            f"{'tick':>4} {'t':>8} {'batch':>5} {'arr':>4} {'acc':>4} "
            f"{'emp':>4} {'deg':>4} {'rej':>4} {'exp':>4} {'que':>4} "
            f"{'|U|':>6} {'|V|':>5} {'pairs':>6} {'utility':>10} "
            f"{'oracle':>10} {'dfg':>3} {'ms':>7} {'ok':>2}"
        ),
    ]
    for record in report.records:
        oracle = (
            f"{record.oracle_utility:>10.2f}"
            if record.oracle_utility is not None
            else f"{'-':>10}"
        )
        defrag = "sup" if (
            record.defrag_moves is not None
            and record.defrag_moves.get("superseded")
        ) else ("yes" if record.defrag else "-")
        lines.append(
            f"{record.tick:>4} {record.decision_time:>8.2f} "
            f"{record.batch_size:>5} {record.arrivals:>4} "
            f"{record.accepted:>4} {record.empty:>4} {record.degraded:>4} "
            f"{record.rejected:>4} {record.expired:>4} {record.requeued:>4} "
            f"{record.num_users:>6} {record.num_events:>5} "
            f"{record.num_pairs:>6} {record.utility:>10.2f} {oracle} "
            f"{defrag:>3} {record.seconds * 1e3:>7.1f} "
            f"{'y' if record.feasible else 'N':>2}"
        )
    p50 = report.p50_latency
    p99 = report.p99_latency
    aps = report.arrivals_per_second
    lines.append(
        "latency: "
        + (f"p50={p50 * 1e3:.2f} ms " if p50 is not None else "p50=- ")
        + (f"p99={p99 * 1e3:.2f} ms " if p99 is not None else "p99=- ")
        + (f"throughput={aps:.1f} arrivals/s" if aps is not None else "")
    )
    counts = report.outcome_counts()
    lines.append(
        "outcomes: "
        + " ".join(f"{key}={value}" for key, value in counts.items())
        + f" requeues={report.total_requeues}"
    )
    lines.append(
        f"defrag: ran={report.defrag_count} "
        f"superseded={report.superseded_defrags} "
        f"switching_pairs={report.switching_pairs_total} "
        f"switching_spend={report.switching_spend_total:.2f}"
    )
    lines.append(
        f"final utility: {report.final_utility:.2f} "
        f"(feasible={report.all_feasible})"
    )
    return "\n".join(lines)


def sweep_to_csv(result: SweepResult) -> str:
    """CSV export of a sweep (one row per algorithm/value pair)."""
    lines = ["parameter,value,algorithm,mean_utility,std_utility,mean_runtime_s"]
    for value, point in zip(result.values, result.stats):
        for name, stat in point.items():
            lines.append(
                f"{result.parameter},{value},{name},"
                f"{stat.mean_utility:.6f},{stat.std_utility:.6f},"
                f"{stat.mean_runtime:.6f}"
            )
    return "\n".join(lines)
