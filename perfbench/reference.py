"""Host-speed reference: a small fixed piece of work that never touches the
program, sampled between the operations of a timed pass.

On a shared host the speed one process gets drifts by a fifth or more, on
scales from a second to minutes, and the drift moves every timing of a run
together: two runs of the same seed a few minutes apart differ by as much
as the drift.  A :class:`HostProbe` runs :func:`slice_ms` in the closed
loop's gaps, once for every tenth of a second of the pass since its last
samples, so its samples follow the host's speed through the pass, spread
evenly over its time.  A pass's slowdown is the mean of its samples over
:data:`REFERENCE_MS`, leaving out the tenth at either end (a slice the
operating system interrupted reads several times its length), and the benchmark's
``ref_`` metrics divide each pass's times by it::

    ref time = measured time / (trimmed mean slice ms of the pass / REFERENCE_MS)

so that runs made at different moments compare.  The slice mixes the two
kinds of work the program does, interpreter-bound dict and generator code
and NumPy on small arrays, with one BLAS thread.  It only uses Python and
NumPy, so a change to the program cannot move it.

The probe's own time is kept out of the measurement: :meth:`HostProbe.now`
is a clock that stops while a slice runs.  Set-up, which has no gaps, is
scaled the same way from a :func:`burst` of slices just before each of its
samples.  The raw figures stay beside the scaled ones in the run's record
and on standard output.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Median of :func:`slice_ms` on the host the benchmark was tuned on (two
#: vCPUs of an Intel Xeon VM, Python 3, one BLAS thread).
REFERENCE_MS = 1.8

#: Time of the pass per sample, in seconds.
INTERVAL_S = 0.1

#: Most samples taken in one gap, and the samples :func:`burst` takes.
MAX_BURST = 10

_rng = np.random.default_rng(0)
_ROWS = [_rng.random(2000) for _ in range(4)]
_SQUARE = _rng.random((120, 120))


def slice_ms() -> float:
    """Wall time of one run of the reference slice, in ms."""
    started = time.perf_counter()
    table = {}
    for key in range(6000):
        table[key] = (key * 7) % 13
    total = sum(value for key, value in table.items() if key % 3)
    for row in _ROWS:
        np.argsort(row)
        total += np.maximum(row, 0.5).sum()
    for _ in range(3):
        _SQUARE @ _SQUARE
    elapsed = time.perf_counter() - started
    if total < 0:  # keeps the work observable
        raise AssertionError(total)
    return elapsed * 1e3


def burst() -> list[float]:
    """:data:`MAX_BURST` samples in a row, for a stretch of work outside
    the closed loop (set-up)."""
    return [slice_ms() for _ in range(MAX_BURST)]


class HostProbe:
    """Samples the host's speed in the gaps of one pass's closed loop.

    A disabled probe never samples and its clock is the plain monotonic
    timer; the traced run and the verification pass use one.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.samples: list[float] = []
        self._paused = 0.0
        self._last = time.perf_counter()

    def now(self) -> float:
        """Seconds on a monotonic clock that stops while a slice runs."""
        return time.perf_counter() - self._paused

    def gap(self) -> None:
        """Called between two operations: one sample for every interval
        that passed since the last samples."""
        due = min(MAX_BURST, int((self.now() - self._last) / INTERVAL_S))
        if not self.enabled or due == 0:
            return
        started = time.perf_counter()
        self.samples.extend(slice_ms() for _ in range(due))
        self._paused += time.perf_counter() - started
        self._last = self.now()


def slowdown(samples: list[float]) -> float | None:
    """Trimmed mean slice time over the reference; above 1 on a slower
    host, None without samples."""
    if not samples:
        return None
    ordered = sorted(samples)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut : len(ordered) - cut]) / REFERENCE_MS
