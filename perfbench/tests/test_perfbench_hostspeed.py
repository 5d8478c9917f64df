"""Host-speed rescaling divides each call by the probes on either side of it."""

import os

import pytest

from perfbench import hostspeed
from perfbench.hostspeed import REFERENCE_PROBE_S, HostSpeed


def _speed(probes, each_core=False):
    """A speed whose probes at t=0, 1, 2, ... took ``probes`` seconds."""
    speed = HostSpeed(each_core=each_core)
    for stamp, seconds in enumerate(probes):
        speed._here.add(float(stamp), seconds)
        if each_core:
            speed._cores.add(float(stamp), 2 * seconds)
    return speed


def test_a_call_is_rescaled_by_the_probes_on_either_side():
    # The host runs at the reference speed, then twice as slow from t=3.
    speed = _speed([REFERENCE_PROBE_S] * 3 + [2 * REFERENCE_PROBE_S] * 3)
    fast, straddling, slow = speed.rescale([(1.5, 1.0), (2.5, 1.5), (4.5, 2.0)])
    assert fast == pytest.approx(1.0)
    assert straddling == pytest.approx(1.0)
    assert slow == pytest.approx(1.0)


def test_a_call_outside_the_probes_uses_the_nearest_one():
    speed = _speed([REFERENCE_PROBE_S, 2 * REFERENCE_PROBE_S, 4 * REFERENCE_PROBE_S])
    before, after = speed.rescale([(-1.0, 1.0), (9.0, 1.0)])
    assert before == pytest.approx(1.0)
    assert after == pytest.approx(0.25)


def test_each_core_series_is_used_only_where_tracked():
    probes = [REFERENCE_PROBE_S] * 4
    tracked = _speed(probes, each_core=True)
    assert tracked.rescale([(1.5, 1.0)], each_core=True)[0] == pytest.approx(0.5)
    assert tracked.rescale([(1.5, 1.0)])[0] == pytest.approx(1.0)
    untracked = _speed(probes)
    assert untracked.rescale([(1.5, 1.0)], each_core=True)[0] == pytest.approx(1.0)


def test_rescaling_needs_a_probe():
    with pytest.raises(RuntimeError):
        HostSpeed().rescale([(0.0, 1.0)])


def test_probing_each_core_restores_the_affinity(monkeypatch):
    before = os.sched_getaffinity(0)
    pinned = []
    monkeypatch.setattr(hostspeed, "probe", lambda: pinned.append(os.sched_getaffinity(0)) or 0.01)
    assert hostspeed.probe_each_core() == pytest.approx(0.01)
    assert pinned == [{core} for core in sorted(before)]
    assert os.sched_getaffinity(0) == before
