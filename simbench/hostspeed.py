"""A CPU clock that reads in reference seconds, whatever the host's speed.

On a shared host the same code runs at different speeds from one moment
to the next: on a 2-vCPU VM a pure-Python loop flips between two speeds
about 1.9x apart, in spells from a fraction of a second to over a
minute, as other work comes and goes on the physical core. A time
measured there says as much about the neighbours as about the code.

:class:`HostClock` measures the host's speed while the benchmark runs.
A ``SIGPROF`` timer fires every ``interval`` seconds of CPU time, and
the handler times :func:`probe`, a fixed piece of pure-Python work that
lives here, so no change to the simulator changes it. Each stretch of
CPU time between two probes is scaled by ``REFERENCE_PROBE_S`` over the
mean of the two probes around it, and the scaled stretches add up to
:meth:`HostClock.cpu`. One reference second is the CPU time in which
the host runs the probe ``1 / REFERENCE_PROBE_S`` times. A change that
makes the simulator faster lowers the reading; the neighbours going
quiet does not. The probes' own time is left out of every reading.

The main thread's CPU clock is used, not the process's: while a
process-wide CPU timer is armed, Linux serves the process clock at tick
resolution (4 ms). The benchmark runs the simulator on its main thread.
"""

from __future__ import annotations

import signal
import time

# The probe's duration that defines one reference second: about what
# the probe takes, interrupted mid-campaign, on an idle core of the
# 2-vCPU Xeon the benchmark was tuned on.
REFERENCE_PROBE_S = 150e-6
PROBE_ACCESSES = 300


class _ProbeCache:
    """A 64-set, 4-way cache of dicts, in the simulator's idiom.

    Of the probes tried, this one's slowdown tracked the simulator's
    best when the host slowed down: the spread (standard deviation of
    the log) of a miss-heavy cell's time over 33 repeats fell from
    15-16% to 4-7% once scaled by it, against 8% for a tighter
    list-scanning loop and 9-12% for random reads of a large dict.
    """

    def __init__(self) -> None:
        self.sets = [dict() for _ in range(64)]
        self.hits = self.misses = 0

    def access(self, block: int) -> bool:
        lines = self.sets[block & 63]
        if lines.get(block) is not None:
            self.hits += 1
            return True
        self.misses += 1
        if len(lines) >= 4:
            del lines[next(iter(lines))]
        lines[block] = block
        return False


_CACHE = _ProbeCache()
_BLOCKS = [(k * 2654435761 >> 7) & 0xFFF for k in range(1 << 12)]
_NEXT = [0]


def probe(accesses: int = PROBE_ACCESSES) -> None:
    """Run ``accesses`` accesses of a fixed block sequence through the cache."""
    access, blocks, start = _CACHE.access, _BLOCKS, _NEXT[0]
    for i in range(start, start + accesses):
        access(blocks[i & 0xFFF])
    _NEXT[0] = (start + accesses) & 0xFFF


class HostClock:
    """Reference-second CPU and wall clocks, sampled by a profiling timer."""

    def __init__(self, interval: float = 0.01) -> None:
        self.interval = interval
        self.probes = 0
        self.probe_s = 0.0
        self.probe_min_s = float("inf")
        self._cpu = self._wall = 0.0
        self._cpu_mark = self._wall_mark = 0.0
        self._last = self._scale = 1.0
        self._previous_handler = None
        self._busy = False

    def start(self) -> "HostClock":
        for _ in range(3):
            start = time.perf_counter()
            probe()
            self._last = time.perf_counter() - start
        self._scale = REFERENCE_PROBE_S / self._last
        self._cpu_mark, self._wall_mark = time.thread_time(), time.perf_counter()
        self._previous_handler = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        if self._previous_handler is not None:
            signal.signal(signal.SIGPROF, self._previous_handler)
            self._previous_handler = None

    def _sample(self, signum, frame) -> None:
        # A timer signal can arrive while the handler runs; Python would
        # run the handler again in the middle of this one.
        if self._busy:
            return
        self._busy = True
        cpu, wall = time.thread_time(), time.perf_counter()
        probe()
        took = time.perf_counter() - wall
        scale = 2.0 * REFERENCE_PROBE_S / (self._last + took)
        self._cpu += (cpu - self._cpu_mark) * scale
        self._wall += (wall - self._wall_mark) * scale
        self._last, self._scale = took, REFERENCE_PROBE_S / took
        self.probe_s += took
        self.probe_min_s = min(self.probe_min_s, took)
        self._cpu_mark, self._wall_mark = time.thread_time(), time.perf_counter()
        self.probes += 1  # last: readers retry when a sample lands mid-read
        self._busy = False

    def cpu(self) -> float:
        """Reference CPU seconds since :meth:`start`, probes excluded."""
        while True:
            seen = self.probes
            value = self._cpu + (time.thread_time() - self._cpu_mark) * self._scale
            if seen == self.probes:
                return value

    def wall(self) -> float:
        """Wall seconds since :meth:`start`, scaled like :meth:`cpu`."""
        while True:
            seen = self.probes
            value = self._wall + (time.perf_counter() - self._wall_mark) * self._scale
            if seen == self.probes:
                return value

    def summary(self) -> dict:
        return {
            "reference_probe_s": REFERENCE_PROBE_S,
            "interval_s": self.interval,
            "probes": self.probes,
            "probe_mean_s": self.probe_s / max(self.probes, 1),
            "probe_min_s": self.probe_min_s if self.probes else None,
            "probe_total_s": self.probe_s,
        }
