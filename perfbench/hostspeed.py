"""How fast the host runs right now, read from a fixed reference task.

The benchmark shares a few cores of a virtual machine with other tenants,
and the speed those cores deliver drifts by up to half for minutes at a
time, one core at a time: a pure-Python burn, a NumPy sort and the
program's own ingest all slow down and speed up together.  A run
therefore interleaves a short *probe* — a fixed mix of interpreter work,
a NumPy sort and BLAKE2b digests, none of it from the program — with the
calls it times, and rescales each call to the speed of a reference host
on which one probe takes :data:`REFERENCE_PROBE_S`::

    reported = measured × REFERENCE_PROBE_S / (mean of the probes just before and after the call)

Work done in the benchmark's own process runs on whichever core that
process is on, so it is rescaled by the probe run there.  Work spread
over worker processes runs on every usable core, so it is rescaled by
the mean of one probe pinned to each core in turn.

A change to the program does not touch the probe, so it moves the
rescaled times exactly as it moves the raw ones; what the rescaling
removes is the host's drift, which would otherwise swamp a change of
ten per cent.
"""

from __future__ import annotations

import bisect
import hashlib
import os
import statistics
import time

import numpy as np

#: Seconds one probe takes on the reference host.  The rescaled times
#: read as milliseconds and seconds on that host.
REFERENCE_PROBE_S = 0.010
#: A phase probes before a call when this long has passed since the last
#: probe, so short calls share a probe and long calls get one each.
PROBE_EVERY_S = 0.25

_LOOP = 50_000
_UNIQUE = np.random.default_rng(0).integers(0, 1 << 40, 20_000)
_DIGESTS = [index.to_bytes(8, "little") * 4 for index in range(4_000)]


def probe() -> float:
    """Seconds the fixed reference task takes now."""
    started = time.perf_counter()
    total = 0
    for value in range(_LOOP):
        total += value * value % 7
    np.unique(_UNIQUE)
    for item in _DIGESTS:
        hashlib.blake2b(item, digest_size=8).digest()
    return time.perf_counter() - started


def probe_each_core() -> float:
    """Mean seconds of one probe pinned to each usable core in turn."""
    cores = os.sched_getaffinity(0)
    seconds = []
    try:
        for core in sorted(cores):
            os.sched_setaffinity(0, {core})
            seconds.append(probe())
    finally:
        os.sched_setaffinity(0, cores)
    return statistics.fmean(seconds)


class _Series:
    """Probe durations and the times they were taken."""

    def __init__(self) -> None:
        self.stamps: list[float] = []
        self.seconds: list[float] = []

    def add(self, stamp: float, seconds: float) -> None:
        self.stamps.append(stamp)
        self.seconds.append(seconds)

    def scale_at(self, stamp: float) -> float:
        """Rescaling for a call begun at ``stamp``, from the probes on either side."""
        if not self.seconds:
            raise RuntimeError("no probe was taken")
        at = bisect.bisect_left(self.stamps, stamp)
        return REFERENCE_PROBE_S / statistics.fmean(self.seconds[max(0, at - 1):at + 1])


class HostSpeed:
    """Probes taken through one pass, and the rescaling they imply.

    Every sample probes the current core.  A speed built with
    ``each_core`` also probes every usable core when a sample asks for
    it, for the calls whose work runs in worker processes.
    """

    def __init__(self, each_core: bool = False) -> None:
        # The first probe of a process runs cold, up to three times slower.
        probe()
        self._here = _Series()
        self._cores = _Series() if each_core else None

    def sample(self, each_core: bool = False) -> None:
        """Probe the current core now and, if asked and tracked, every core."""
        stamp = time.perf_counter()
        self._here.add(stamp, probe())
        if each_core and self._cores is not None:
            self._cores.add(stamp, probe_each_core())

    def sample_if_due(self, each_core: bool = False) -> None:
        """:meth:`sample` if :data:`PROBE_EVERY_S` has passed since the last
        probe of the series asked for."""
        stamps = self._series(each_core).stamps
        if not stamps or time.perf_counter() - stamps[-1] >= PROBE_EVERY_S:
            self.sample(each_core)

    def _series(self, each_core: bool) -> _Series:
        return self._cores if each_core and self._cores is not None else self._here

    def probes(self, each_core: bool = False) -> list[float]:
        """Every probe's duration, in order: of the current core, or the
        mean over every core."""
        return list(self._series(each_core).seconds)

    def record(self) -> dict:
        """Every probe as ``[start, seconds]`` pairs, for the run record."""
        series = {"here": self._here, "each_core": self._cores}
        return {
            name: [list(pair) for pair in zip(one.stamps, one.seconds)]
            for name, one in series.items() if one is not None
        }

    def rescale(self, calls: list[tuple[float, float]], each_core: bool = False) -> list[float]:
        """``(start, seconds)`` calls as seconds on the reference host, by the
        probes of the current core or, where tracked, of every core."""
        series = self._series(each_core)
        return [seconds * series.scale_at(start) for start, seconds in calls]
