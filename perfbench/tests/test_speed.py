"""Scaling timings to reference speed."""

from __future__ import annotations

import pytest

from perfbench import speed
from perfbench.speed import REFERENCE_PROBE_S, Speed


def _speed(samples: list[tuple[float, float]]) -> Speed:
    tracker = Speed()
    for at, seconds in samples:
        tracker.times.append(at)
        tracker.seconds.append(seconds)
    return tracker


def test_factor_is_reference_over_median_of_nearest_probes(monkeypatch):
    monkeypatch.setattr(speed, "NEAREST", 3)
    # Quiet probes early, probes twice as slow from t=10 on.
    tracker = _speed([(t, REFERENCE_PROBE_S) for t in range(10)]
                     + [(t, 2 * REFERENCE_PROBE_S) for t in range(10, 20)])
    assert tracker.factor(3.2) == pytest.approx(1.0)
    assert tracker.factor(15.0) == pytest.approx(0.5)
    # An operation that took twice as long in the slow phase reads the same.
    assert tracker.scale(0.2, 15.0) == pytest.approx(tracker.scale(0.1, 3.0))
    # Before the first and after the last probe, the nearest ones count.
    assert tracker.factor(-100.0) == pytest.approx(1.0)
    assert tracker.factor(100.0) == pytest.approx(0.5)


def test_default_factor_brackets_an_operation():
    # A 1 s operation between a quiet probe and one twice as slow.
    tracker = _speed([(0.0, REFERENCE_PROBE_S), (1.0, 2 * REFERENCE_PROBE_S),
                      (2.0, 2 * REFERENCE_PROBE_S)])
    assert tracker.factor(0.5) == pytest.approx(REFERENCE_PROBE_S / (1.5 * REFERENCE_PROBE_S))


def test_factor_uses_every_probe_when_there_are_few():
    tracker = _speed([(1.0, 0.004), (2.0, 0.001)])
    assert tracker.factor(1.5) == pytest.approx(REFERENCE_PROBE_S / 0.0025)
    with pytest.raises(RuntimeError):
        Speed().factor(0.0)


def test_tick_probes_at_most_once_per_interval():
    tracker = Speed(interval=60.0)
    tracker.tick()
    tracker.tick()
    assert len(tracker.seconds) == 1 and tracker.seconds[0] > 0
    assert not tracker.due()
    assert tracker.summary()["probes"] == 1
