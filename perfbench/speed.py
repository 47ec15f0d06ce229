"""Host-speed calibration for the timed region of a repetition.

The machines this benchmark runs on are shared: the same fixed Python loop
can take 1.5x longer from one second to the next, and whole runs can be
slow. Averaging over a run does not remove that. Two corrections do:

* The timed region is measured in CPU time (:func:`busy_seconds`), which
  leaves out the time the host gave the virtual CPU to someone else.
* A fixed reference loop is timed on the same core, interleaved with the
  workload at a fine grain, and the region's time is scaled by how fast
  the reference ran. This removes the slowdown of a CPU that is shared
  at the hardware level (a busy sibling thread, a lower clock).

:class:`Calibrator` runs :func:`reference_loop` (about 1 ms) from a
``SIGALRM`` handler every :data:`INTERVAL_S` of wall time, so the samples
are spread evenly over the timed region. A region that took ``t`` CPU
seconds while the host ran at speed ``v`` is reported as ``t * v``, where
``v`` is the mean over the samples of ``REFERENCE_S / sample``: the time
the work takes on an uncontended host where the reference loop takes
exactly ``REFERENCE_S``. The handler's own time is taken out first.

The reference loop exercises what the package's pure-Python code does
(list indexing, set membership, dict updates, small tuples), so the two
slow down together. Changing the loop or ``REFERENCE_S`` rescales every
reported time, so results are comparable only between runs of the same
``speed.py``.
"""

from __future__ import annotations

import bisect
import resource
import signal
import time

REFERENCE_S = 0.001
INTERVAL_S = 0.1

_N = 24
_TABLE = [[(a * 7 + b * 13 + a * b) % _N for b in range(_N)] for a in range(_N)]
_MARKED = frozenset(range(0, _N, 3))


def reference_loop() -> int:
    """A fixed amount of pure-Python work; see the module docstring."""
    table, marked = _TABLE, _MARKED
    acc = 0
    for _ in range(6):
        seen: dict[tuple[int, int], int] = {}
        for a in range(_N):
            row = table[a]
            for b in range(_N):
                c = row[b]
                key = (a, table[c][b])
                seen[key] = seen.get(key, 0) + 1
                if c in marked:
                    acc += c
        acc += len(sorted(seen))
    return acc


def stamp() -> tuple[float, float]:
    """Wall clock, and CPU seconds of this process and its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.perf_counter(), time.process_time() + children.ru_utime + children.ru_stime


def busy_seconds(started: tuple[float, float], ended: tuple[float, float]) -> float:
    """The seconds between two stamps that the work had a CPU: CPU time,
    capped by wall time when the work ran on more than one CPU at once.

    CPU time leaves out the time the host took the virtual CPU away
    (steal) and the time other processes ran on it; the calls of a
    single-process workload do not wait for anything else."""
    return min(ended[0] - started[0], ended[1] - started[1])


class Calibrator:
    """Samples the reference loop, periodically while it is started."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []  # (wall start, wall end, loop CPU seconds)
        self._previous = None
        self._sampling = False

    def sample(self) -> None:
        if self._sampling:  # the timer fired during a sample
            return
        self._sampling = True
        w0, c0 = time.perf_counter(), time.thread_time()
        reference_loop()
        c1, w1 = time.thread_time(), time.perf_counter()
        self.samples.append((w0, w1, c1 - c0))
        self._sampling = False

    def start(self) -> None:
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None
        self.sample()

    def factor(self) -> float:
        """The factor that turns CPU seconds spent while these samples
        were taken into seconds at the reference speed."""
        return _factor(self.samples)

    def local_factors(self, at: list[float]) -> list[float]:
        """For each wall-clock time in ``at``, the factor of the last sample
        before it and the first after it: short operations are scaled by the
        speed of their own moment, which a sample 0.1 s away can miss. A
        workload takes extra samples around each group of operations."""
        starts = [s[0] for s in self.samples]
        speeds = [REFERENCE_S / d for _, _, d in self.samples]
        out = []
        for t in at:
            i = bisect.bisect_right(starts, t)
            near = speeds[max(i - 1, 0):i + 1]
            out.append(sum(near) / len(near))
        return out

    def scale(self, started: tuple[float, float], ended: tuple[float, float]) -> tuple[float, float]:
        """The seconds between two :func:`stamp` readings at the reference
        speed, without the handler's own time, and the factor used: that
        of the samples taken between the stamps or, when there are none
        (a region shorter than the interval), of all samples."""
        inside = [s for s in self.samples if started[0] <= s[0] and s[1] <= ended[0]]
        paused = sum(d for _, _, d in inside)
        factor = _factor(inside or self.samples)
        return max(busy_seconds(started, ended) - paused, 0.0) * factor, factor


def _factor(samples) -> float:
    # the mean of speeds, not of loop times: a region's work is its time
    # multiplied by the mean speed over it
    return sum(REFERENCE_S / d for _, _, d in samples) / len(samples)
