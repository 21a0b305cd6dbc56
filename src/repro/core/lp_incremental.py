"""Names the repository benchmark's traced run still wraps.

Every benchmark LP is rebuilt as arrays and solved warm
(:meth:`~repro.core.lp_packing.LPPacking.start_from`); there is no
delta-patched program any more.  ROADMAP item 1's benchmark-only change
deletes this module once ``perfbench/spans.py`` stops wrapping it.
"""

from __future__ import annotations

from repro.core.lp_formulation import build_benchmark_lp

__all__ = ["IncrementalBenchmarkLP", "build_benchmark_lp"]


class IncrementalBenchmarkLP:
    """Retired: the delta-patched benchmark LP.  Only its ``solve``
    attribute remains, for the benchmark's traced run to wrap."""

    def __init__(self, *args: object, **kwargs: object):
        raise TypeError(
            "IncrementalBenchmarkLP is retired: LPPacking rebuilds the "
            "benchmark LP and solves it warm"
        )

    def solve(self) -> None:
        """Never reached: no instance can be made."""
