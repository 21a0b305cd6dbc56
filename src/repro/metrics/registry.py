"""The metrics registry: named, typed extractors over report envelopes.

GrimoireLib computes named metrics over data sources into time-series
reports; this is the same shape over this repo's unified report envelopes
(:mod:`repro.experiments.persistence`).  A :class:`Metric` binds

* a stable **name** (``retention_auc``, ``serve_p99_ms``, ``peak_rss_mb``,
  …) under which the history store records values across runs,
* a **direction** (``up`` = higher is better, ``down`` = lower is better)
  the regression detector needs to know which way a slump points, and
* per-envelope-kind **extractors** — pure functions from a payload dict to
  a float (or None when the run did not measure that quantity).

Extractors are total over their kinds: missing fields return None, never
raise, so partially populated artifacts (quick CI runs, skipped gates)
ingest cleanly.

Thresholds encode noise expectations: decision-derived metrics (retention,
acceptance) are bit-stable per seed and carry tight
``max_relative_drop`` values; wall-clock metrics (speedups, latencies)
swing with runner load and carry loose ones — the point bench gates keep
their hard floors either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Literal, Mapping

Extractor = Callable[[Mapping], "float | None"]

#: ``up``: a drop is a regression (retention, speedup, throughput).
#: ``down``: a rise is a regression (latency, memory).
Direction = Literal["up", "down"]


@dataclass(frozen=True)
class Metric:
    """One named metric computable from report envelopes.

    Attributes:
        name: stable identifier the history store keys on.
        description: what the number means.
        unit: display unit (``ratio``, ``ms``, ``x``, ``MB``, ``1/s``, …).
        direction: which way is good (see :data:`Direction`).
        max_relative_drop: regression threshold — the windowed-baseline
            relative change (in the bad direction) that fails the
            trajectory gate.
        extractors: envelope ``kind`` -> extractor over that payload.
    """

    name: str
    description: str
    unit: str
    direction: Direction
    max_relative_drop: float
    extractors: Mapping[str, Extractor] = field(default_factory=dict)

    @property
    def kinds(self) -> tuple[str, ...]:
        return tuple(sorted(self.extractors))

    def extract(self, payload: Mapping) -> float | None:
        """The metric's value from one payload (None: not measured)."""
        extractor = self.extractors.get(str(payload.get("kind")))
        if extractor is None:
            return None
        value = extractor(payload)
        if value is None:
            return None
        value = float(value)
        return value if math.isfinite(value) else None


#: name -> :class:`Metric`.  ``igepa metrics`` and the history store
#: resolve through this table.
METRICS: dict[str, Metric] = {}


def register_metric(metric: Metric) -> Metric:
    """Register a metric (raises on duplicate names).

    Raises:
        ValueError: when the name is already taken — two definitions of
            one series would corrupt the history.
    """
    if metric.name in METRICS:
        raise ValueError(f"metric {metric.name!r} is already registered")
    METRICS[metric.name] = metric
    return metric


def metrics_for_kind(kind: str) -> list[Metric]:
    """Every registered metric extractable from envelopes of ``kind``."""
    return [m for m in METRICS.values() if kind in m.extractors]


def extract_metrics(payload: Mapping) -> dict[str, float]:
    """All metric values one payload yields, keyed by metric name.

    Dispatches on the payload's ``kind``; metrics whose extractor returns
    None (field absent, gate skipped) are omitted.
    """
    values: dict[str, float] = {}
    for metric in METRICS.values():
        value = metric.extract(payload)
        if value is not None:
            values[metric.name] = value
    return values


# ----------------------------------------------------------------------
# Extraction helpers (total: None on any missing/None field)
# ----------------------------------------------------------------------
def _get(payload: Mapping, *keys: str) -> object | None:
    """Nested lookup returning None on any missing step."""
    node: object = payload
    for key in keys:
        if not isinstance(node, Mapping) or key not in node:
            return None
        node = node[key]
    return node


def _number(payload: Mapping, *keys: str, scale: float = 1.0) -> float | None:
    value = _get(payload, *keys)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value) * scale


def retention_auc(payload: Mapping) -> float | None:
    """Area under the retention curve, normalized by the tick span.

    The curve samples ``utility / LP*`` at oracle ticks; the
    normalized trapezoidal area is the horizon-average retention weighted
    by how long each level persisted — a single slumping stretch lowers it
    even when the endpoints recover.  One point degenerates to that value.
    """
    curve = _get(payload, "retention_curve")
    if not isinstance(curve, list):
        return None
    points = [
        (float(t), float(v))
        for t, v in (p for p in curve if isinstance(p, (list, tuple)) and len(p) == 2)
        if isinstance(t, (int, float)) and isinstance(v, (int, float))
    ]
    if not points:
        return None
    if len(points) == 1:
        return points[0][1]
    span = points[-1][0] - points[0][0]
    if span <= 0:
        return points[-1][1]
    area = sum(
        (t1 - t0) * (v0 + v1) / 2.0
        for (t0, v0), (t1, v1) in zip(points, points[1:])
    )
    return area / span


def repair_debt_mean(payload: Mapping) -> float | None:
    """Mean per-tick repair debt (the gap to LP*)."""
    ticks = _get(payload, "ticks")
    if not isinstance(ticks, list):
        return None
    debts = [
        float(t["repair_debt"])
        for t in ticks
        if isinstance(t, Mapping)
        and isinstance(t.get("repair_debt"), (int, float))
    ]
    if not debts:
        return None
    return sum(debts) / len(debts)


def _largest_instance(payload: Mapping) -> Mapping | None:
    """The biggest ladder rung of a bench artifact's ``instances`` list."""
    rows = _get(payload, "instances")
    if not isinstance(rows, list):
        return None
    sized = [
        r
        for r in rows
        if isinstance(r, Mapping) and isinstance(r.get("num_users"), (int, float))
    ]
    if not sized:
        return None
    return max(sized, key=lambda r: r["num_users"])


def _largest_field(*keys: str, scale: float = 1.0) -> Extractor:
    def extract(payload: Mapping) -> float | None:
        row = _largest_instance(payload)
        return _number(row, *keys, scale=scale) if row else None

    return extract


def _shard_peak_rss(payload: Mapping) -> float | None:
    """Columnar 500k peak RSS when the gate ran, else the 50k scale gate's."""
    columnar = _number(payload, "columnar", "peak_delta_mb")
    if columnar is not None:
        return columnar
    return _number(payload, "scale", "peak_delta_mb")


def _smoke_runtime_ms(payload: Mapping) -> float | None:
    """Mean per-algorithm solve time at the smoke ladder's largest size."""
    runs = _get(payload, "runs")
    if not isinstance(runs, list):
        return None
    sized = [
        r
        for r in runs
        if isinstance(r, Mapping)
        and isinstance(r.get("num_users"), (int, float))
        and isinstance(r.get("runtime_seconds"), (int, float))
    ]
    if not sized:
        return None
    largest = max(r["num_users"] for r in sized)
    times = [r["runtime_seconds"] for r in sized if r["num_users"] == largest]
    return 1e3 * sum(times) / len(times)


# ----------------------------------------------------------------------
# Built-in metrics
# ----------------------------------------------------------------------
# Decision-derived (bit-stable per seed): tight thresholds.
register_metric(
    Metric(
        "retention_auc",
        "normalized area under the utility / LP* retention curve",
        "ratio",
        "up",
        0.05,
        {
            "simulation": retention_auc,
            "bench_dynamic": lambda p: retention_auc(
                _get(p, "defrag_on") or {}
            ),
        },
    )
)
register_metric(
    Metric(
        "final_retention",
        "utility / LP* at the last oracle tick",
        "ratio",
        "up",
        0.05,
        {
            "simulation": lambda p: _number(p, "final_retention"),
            "bench_dynamic": lambda p: _number(p, "defrag_on", "final_retention"),
        },
    )
)
register_metric(
    Metric(
        "repair_debt_mean",
        "mean per-tick gap to the last LP* (bounds what a defrag reclaims)",
        "utility",
        "down",
        0.25,
        {
            "simulation": repair_debt_mean,
            "bench_dynamic": lambda p: repair_debt_mean(_get(p, "defrag_on") or {}),
        },
    )
)
register_metric(
    Metric(
        "arrival_acceptance",
        "fraction of online arrivals assigned at least one event",
        "ratio",
        "up",
        0.05,
        {
            "simulation": lambda p: _number(p, "arrival_acceptance_rate"),
            "bench_dynamic": lambda p: _number(p, "acceptance_defrag_on"),
        },
    )
)
register_metric(
    Metric(
        "utility_retention",
        "repaired utility as a fraction of the full re-solve",
        "ratio",
        "up",
        0.05,
        {
            "replay": lambda p: _number(p, "utility_retention"),
            "bench_churn": lambda p: _number(p, "largest_utility_retention"),
        },
    )
)
register_metric(
    Metric(
        "serve_final_utility",
        "arrangement utility at the end of the serving session",
        "utility",
        "up",
        0.10,
        {
            "serve": lambda p: _number(p, "final_utility"),
            "bench_serve": lambda p: _number(p, "admit_all", "final_utility"),
        },
    )
)
register_metric(
    Metric(
        "smoke_mean_utility",
        "mean utility across algorithms at the smoke ladder's largest size",
        "utility",
        "up",
        0.10,
        {
            "bench_smoke": lambda p: (
                lambda rows: (sum(rows) / len(rows)) if rows else None
            )(
                [
                    r["utility"]
                    for r in (_get(p, "runs") or [])
                    if isinstance(r, Mapping)
                    and isinstance(r.get("utility"), (int, float))
                ]
            ),
        },
    )
)

# Memory: stable but allocator/OS-sensitive; medium threshold.
register_metric(
    Metric(
        "peak_rss_mb",
        "peak resident-set growth of the scale pipeline",
        "MB",
        "down",
        0.25,
        {"bench_shard": _shard_peak_rss},
    )
)

# Wall-clock derived: loose thresholds (shared runners add noise; the
# point bench gates keep their own hard floors).
register_metric(
    Metric(
        "churn_speedup",
        "incremental update+repair over full rebuild+re-solve",
        "x",
        "up",
        0.6,
        {
            "replay": lambda p: _number(p, "speedup"),
            "bench_churn": lambda p: _number(p, "largest_speedup"),
        },
    )
)
register_metric(
    Metric(
        "incremental_ms_per_batch",
        "incremental update+repair wall-clock per churn batch",
        "ms",
        "down",
        0.6,
        {
            "replay": lambda p: _number(p, "mean_incremental_seconds", scale=1e3),
            "bench_churn": _largest_field("mean_incremental_seconds", scale=1e3),
        },
    )
)
register_metric(
    Metric(
        "mean_tick_ms",
        "simulator wall-clock per tick (churn+arrivals+repair+defrag)",
        "ms",
        "down",
        0.6,
        {"simulation": lambda p: _number(p, "mean_tick_seconds", scale=1e3)},
    )
)
register_metric(
    Metric(
        "serve_p99_ms",
        "p99 arrival answer latency under admit-all",
        "ms",
        "down",
        0.75,
        {
            "serve": lambda p: _number(p, "p99_latency", scale=1e3),
            "bench_serve": lambda p: _number(p, "admit_all", "p99_latency", scale=1e3),
        },
    )
)
register_metric(
    Metric(
        "answered_per_sec",
        "answered arrivals per second of monotonic wall time",
        "1/s",
        "up",
        0.6,
        {
            "serve": lambda p: _number(p, "arrivals_per_second"),
            "bench_serve": lambda p: _number(p, "admit_all", "arrivals_per_second"),
        },
    )
)
register_metric(
    Metric(
        "smoke_runtime_ms",
        "mean per-algorithm solve time at the smoke ladder's largest size",
        "ms",
        "down",
        0.75,
        {"bench_smoke": _smoke_runtime_ms},
    )
)
