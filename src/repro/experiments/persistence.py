"""JSON persistence for experiment results: one envelope, one loader.

Sweeps take minutes at paper-scale repetitions and bench artifacts
accumulate across CI runs; persisting the raw statistics lets reports be
re-rendered, diffed across code versions, and aggregated into the
perf-history store (:mod:`repro.metrics`) without re-running.

Every payload this module writes shares a single versioned **envelope**:

* ``format_version`` — the envelope schema version (:data:`ENVELOPE_VERSION`;
  version-1 payloads, written before the provenance block existed, still
  load through the same entry point);
* ``kind`` — a discriminator registered in :data:`KIND_REGISTRY`
  (``replay``, ``simulation``, ``serve``, ``sweep``, ``stats``, ``ratio``
  and the ``bench_*`` artifact kinds);
* ``provenance`` — where the payload came from (git sha, UTC timestamp,
  host, python/numpy versions), attached at *write* time by
  :func:`save_report` / :func:`write_bench_artifact` so ``to_dict()``
  snapshots stay deterministic;
* the aggregate summary fields, flattened at the top level, and the
  per-record list under the kind's ``records_key``.

:func:`load_report` is the single entry point: it validates the version,
dispatches on ``kind`` and returns an :class:`Envelope` view.  The
per-kind helpers (:func:`load_sweep`, :func:`load_stats`,
:func:`load_serve_payload`) are thin shims over it, kept so archived
payloads and existing call sites keep working.

Report classes participate through the :class:`ReportEnvelope` protocol:
an ``envelope_kind`` class attribute plus a ``to_dict()`` that routes
through :func:`report_to_dict`.

This module is the only sanctioned place to serialize bench/report
payloads — lint rule IGP010 flags raw ``json.dump`` of report payloads
anywhere else.
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import ClassVar, Mapping, Protocol, runtime_checkable

from repro.experiments.runner import AlgorithmStats
from repro.experiments.sweeps import SweepResult

#: Current envelope schema version.  Version 2 added the ``provenance``
#: block; version-1 payloads (no provenance) still load.
ENVELOPE_VERSION = 2

#: Versions :func:`load_report` accepts.
SUPPORTED_VERSIONS = (1, 2)

#: Back-compat alias: written payloads carry ``format_version ==
#: FORMAT_VERSION``.  Kept under the old name because earlier PRs' tests
#: and call sites compare against it.
FORMAT_VERSION = ENVELOPE_VERSION

#: Envelope keys no summary may shadow.
_RESERVED_KEYS = frozenset({"format_version", "kind", "provenance"})


# ----------------------------------------------------------------------
# Kind registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class KindSpec:
    """One registered envelope kind.

    Attributes:
        kind: the ``kind`` discriminator value.
        records_key: key holding the per-record list (None: the kind is
            summary-only, e.g. the composite bench artifacts).
        description: one-line description for tooling.
    """

    kind: str
    records_key: str | None
    description: str = ""


#: ``kind`` -> :class:`KindSpec`.  ``igepa metrics`` and
#: :func:`load_report` dispatch on this table.
KIND_REGISTRY: dict[str, KindSpec] = {}


def register_kind(
    kind: str, records_key: str | None = None, description: str = ""
) -> KindSpec:
    """Register an envelope kind (idempotent for identical specs).

    Raises:
        ValueError: when the kind is already registered with a different
            ``records_key`` — two writers disagreeing on the schema.
    """
    spec = KindSpec(kind=kind, records_key=records_key, description=description)
    existing = KIND_REGISTRY.get(kind)
    if existing is not None and existing.records_key != records_key:
        raise ValueError(
            f"envelope kind {kind!r} already registered with records_key="
            f"{existing.records_key!r} (got {records_key!r})"
        )
    KIND_REGISTRY[kind] = spec
    return spec


# The report kinds (one per report class / per-kind saver below).
register_kind("replay", "batches", "churn replay: incremental vs full")
register_kind("simulation", "ticks", "dynamic-platform simulation")
register_kind("serve", "ticks", "asyncio serving session")
register_kind("sweep", "stats", "Fig. 1 parameter sweep")
register_kind("stats", None, "fixed-instance repetition statistics")
register_kind("ratio", None, "empirical approximation ratio")

# The bench artifact kinds (``benchmarks/bench_*.py`` writers).
register_kind("bench_churn", "instances", "churn engine ladder")
register_kind("bench_shard", None, "sharded/columnar scale gates")
register_kind("bench_dynamic", None, "dynamic platform defrag pair")
register_kind("bench_serve", None, "serving loop SLO gates")
register_kind("bench_smoke", "runs", "scaling-pipeline smoke ladder")


@runtime_checkable
class ReportEnvelope(Protocol):
    """The one serialization seam every report class implements.

    ``to_dict()`` must return a payload built by :func:`report_to_dict`
    under the class's ``envelope_kind`` — :func:`save_report` validates
    the pairing before writing.
    """

    envelope_kind: ClassVar[str]

    def to_dict(self) -> dict: ...


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
_GIT_SHA_CACHE: str | None = None


def _git_sha() -> str:
    """The repo HEAD sha (cached per process; ``unknown`` off-repo)."""
    global _GIT_SHA_CACHE
    if _GIT_SHA_CACHE is None:
        try:
            _GIT_SHA_CACHE = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            _GIT_SHA_CACHE = "unknown"
    return _GIT_SHA_CACHE


def provenance() -> dict[str, str]:
    """The provenance block stamped onto written payloads.

    Keys the history store aggregates on: ``git_sha`` (HEAD at write
    time), ``timestamp_utc`` (ISO-8601), ``host``, plus the python/numpy
    versions that produced the numbers.
    """
    import numpy

    # Provenance stamps *reports* at write time and never feeds a
    # decision; the envelope is the sanctioned wall-clock reader.
    now = datetime.now(timezone.utc)  # igepa: ignore[IGP007]
    return {
        "git_sha": _git_sha(),
        "timestamp_utc": now.isoformat(timespec="seconds"),
        "host": platform.node() or "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": sys.platform,
    }


# ----------------------------------------------------------------------
# Envelope construction
# ----------------------------------------------------------------------
def report_to_dict(
    kind: str,
    summary: dict,
    records: list[dict],
    records_key: str = "batches",
) -> dict:
    """Shared serialization shape for per-batch/per-tick reports.

    One helper behind every report class's ``to_dict`` (the
    :class:`ReportEnvelope` protocol), so each payload carries the same
    envelope: the ``format_version`` tag, a registered ``kind``
    discriminator, the aggregate summary fields at the top level and the
    per-record list under ``records_key``.  Deterministic — provenance is
    attached only at write time (:func:`save_report`).

    Raises:
        ValueError: on unregistered kinds, a ``records_key`` disagreeing
            with the registry, or summary fields shadowing envelope keys.
    """
    spec = KIND_REGISTRY.get(kind)
    if spec is None:
        raise ValueError(
            f"unknown report kind {kind!r} (register_kind first; "
            f"known: {sorted(KIND_REGISTRY)})"
        )
    if spec.records_key is not None and records_key != spec.records_key:
        raise ValueError(
            f"kind {kind!r} stores records under {spec.records_key!r}, "
            f"not {records_key!r}"
        )
    clashes = _RESERVED_KEYS.intersection(summary)
    if clashes:
        raise ValueError(
            f"summary fields shadow envelope keys: {sorted(clashes)}"
        )
    payload: dict = {"format_version": ENVELOPE_VERSION, "kind": kind}
    payload.update(summary)
    if spec.records_key is not None:
        payload[spec.records_key] = list(records)
    return payload


@dataclass(frozen=True)
class Envelope:
    """A loaded payload: validated version + kind, raw dict attached."""

    kind: str
    version: int
    payload: dict
    spec: KindSpec

    @property
    def records(self) -> list:
        """The per-record list ([] for summary-only kinds)."""
        if self.spec.records_key is None:
            return []
        return list(self.payload.get(self.spec.records_key, []))

    @property
    def provenance(self) -> dict | None:
        """The provenance block (None on version-1 payloads)."""
        block = self.payload.get("provenance")
        return dict(block) if isinstance(block, Mapping) else None

    @property
    def summary(self) -> dict:
        """Top-level summary fields (envelope keys and records stripped)."""
        skip = set(_RESERVED_KEYS)
        if self.spec.records_key is not None:
            skip.add(self.spec.records_key)
        return {k: v for k, v in self.payload.items() if k not in skip}


def envelope_from_payload(payload: dict, expect_kind: str | None = None) -> Envelope:
    """Validate a raw payload dict into an :class:`Envelope`.

    Raises:
        ValueError: on unsupported versions, unregistered kinds, or a
            kind differing from ``expect_kind``.
    """
    version = payload.get("format_version")
    if version not in SUPPORTED_VERSIONS:
        raise ValueError(f"unsupported result format version {version!r}")
    kind = payload.get("kind")
    if expect_kind is not None and kind != expect_kind:
        raise ValueError(f"not a {expect_kind} payload (kind={kind!r})")
    spec = KIND_REGISTRY.get(kind) if isinstance(kind, str) else None
    if spec is None:
        raise ValueError(
            f"unknown report kind {kind!r} (known: {sorted(KIND_REGISTRY)})"
        )
    return Envelope(kind=kind, version=int(version), payload=payload, spec=spec)


def load_report(path: str | Path, expect_kind: str | None = None) -> Envelope:
    """The single loader every persisted report/artifact goes through.

    Reads JSON, validates ``format_version`` against
    :data:`SUPPORTED_VERSIONS` and dispatches on the registered ``kind``.

    Args:
        path: a payload written by :func:`save_report`,
            :func:`write_bench_artifact` or any of the per-kind savers
            (version-1 payloads from earlier PRs load too).
        expect_kind: require this kind (the per-kind shims pass it).

    Raises:
        ValueError: unsupported version, unknown kind, or kind mismatch.
    """
    return envelope_from_payload(
        json.loads(Path(path).read_text()), expect_kind=expect_kind
    )


def _write_payload(payload: dict, path: str | Path) -> None:
    """The one place persisted payloads hit disk."""
    target = Path(path)
    if target.parent != Path(""):
        target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(payload, indent=1) + "\n")


def save_report(report: "ReportEnvelope | dict", path: str | Path) -> dict:
    """Write any report through the envelope, stamping provenance.

    Accepts a :class:`ReportEnvelope` implementation (``ReplayReport``,
    ``SimulationReport``, ``ServeReport``, ``RatioReport``) or an
    already-enveloped payload dict.  Returns the written payload.

    Raises:
        ValueError: when the payload's ``kind`` is unregistered or
            disagrees with the report class's ``envelope_kind``.
    """
    if isinstance(report, Mapping):
        payload = dict(report)
    else:
        payload = report.to_dict()
        declared = getattr(type(report), "envelope_kind", None)
        if declared is not None and payload.get("kind") != declared:
            raise ValueError(
                f"{type(report).__name__}.to_dict() produced kind "
                f"{payload.get('kind')!r}, expected {declared!r}"
            )
    envelope_from_payload(payload)  # validate before writing
    payload.setdefault("provenance", provenance())
    _write_payload(payload, path)
    return payload


def write_bench_artifact(
    kind: str,
    summary: dict,
    records: list[dict] | None = None,
    *,
    path: str | Path,
) -> dict:
    """Write a ``BENCH_*.json`` artifact through the shared envelope.

    The one writer behind every ``benchmarks/bench_*.py`` ``--out``: the
    summary fields land flattened at the top level, ``records`` under the
    kind's registered ``records_key``, and the provenance block (git sha,
    UTC timestamp, host, python/numpy versions) is stamped so the history
    store (:mod:`repro.metrics.store`) can key runs across time.

    Returns the written payload.
    """
    spec = KIND_REGISTRY.get(kind)
    if spec is None:
        raise ValueError(
            f"unknown bench kind {kind!r} (register_kind first; "
            f"known: {sorted(KIND_REGISTRY)})"
        )
    payload = report_to_dict(
        kind, summary, records or [], records_key=spec.records_key or "records"
    )
    payload["provenance"] = provenance()
    _write_payload(payload, path)
    return payload


# ----------------------------------------------------------------------
# Serve shims (pre-envelope call sites)
# ----------------------------------------------------------------------
def save_serve_report(report: "ReportEnvelope", path: str | Path) -> None:
    """Deprecated shim: :func:`save_report` for a ``ServeReport``."""
    save_report(report, path)


def load_serve_payload(path: str | Path) -> dict:
    """Deprecated shim: the raw serve payload via :func:`load_report`.

    Raises:
        ValueError: on unknown format versions or non-serve payloads.
    """
    return load_report(path, expect_kind="serve").payload


# ----------------------------------------------------------------------
# Sweep / fixed-instance statistics (typed round trips)
# ----------------------------------------------------------------------
def stats_to_dict(stats: AlgorithmStats) -> dict:
    """Serialize one algorithm's repetition statistics."""
    return {
        "algorithm": stats.algorithm,
        "utilities": list(stats.utilities),
        "runtimes": list(stats.runtimes),
        "pair_counts": list(stats.pair_counts),
    }


def stats_from_dict(payload: dict) -> AlgorithmStats:
    """Inverse of :func:`stats_to_dict`."""
    return AlgorithmStats(
        algorithm=payload["algorithm"],
        utilities=[float(u) for u in payload["utilities"]],
        runtimes=[float(r) for r in payload["runtimes"]],
        pair_counts=[int(p) for p in payload["pair_counts"]],
    )


def sweep_to_dict(result: SweepResult) -> dict:
    """Serialize a full sweep (all grid points, all algorithms)."""
    return report_to_dict(
        "sweep",
        {
            "parameter": result.parameter,
            "label": result.label,
            "values": list(result.values),
            "repetitions": result.repetitions,
        },
        [
            {name: stats_to_dict(stat) for name, stat in point.items()}
            for point in result.stats
        ],
        records_key="stats",
    )


def sweep_from_dict(payload: dict) -> SweepResult:
    """Inverse of :func:`sweep_to_dict` (version-1 payloads included).

    Raises:
        ValueError: on unknown format versions or non-sweep payloads.
    """
    envelope = envelope_from_payload(payload, expect_kind="sweep")
    return SweepResult(
        parameter=payload["parameter"],
        label=payload["label"],
        values=list(payload["values"]),
        repetitions=payload["repetitions"],
        stats=[
            {name: stats_from_dict(stat) for name, stat in point.items()}
            for point in envelope.records
        ],
    )


def save_sweep(result: SweepResult, path: str | Path) -> None:
    """Write a sweep result as JSON (enveloped, provenance-stamped)."""
    save_report(sweep_to_dict(result), path)


def load_sweep(path: str | Path) -> SweepResult:
    """Read a sweep result written by :func:`save_sweep`."""
    return sweep_from_dict(load_report(path, expect_kind="sweep").payload)


def save_stats(
    stats: dict[str, AlgorithmStats], path: str | Path, label: str = ""
) -> None:
    """Write fixed-instance statistics (e.g. Table II runs) as JSON."""
    payload = report_to_dict(
        "stats",
        {
            "label": label,
            "stats": {name: stats_to_dict(stat) for name, stat in stats.items()},
        },
        [],
    )
    save_report(payload, path)


def load_stats(path: str | Path) -> dict[str, AlgorithmStats]:
    """Read statistics written by :func:`save_stats`.

    Raises:
        ValueError: on unknown format versions or non-stats payloads.
    """
    envelope = load_report(path, expect_kind="stats")
    return {
        name: stats_from_dict(stat)
        for name, stat in envelope.payload["stats"].items()
    }
