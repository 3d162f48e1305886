"""The percentile rule and the comparison verdicts."""

from __future__ import annotations

import copy

import pytest

from perfbench import compare
from perfbench.stats import beyond, latency_summary, tail_percentile


@pytest.mark.parametrize(
    "n, expected",
    [(9, None), (19, None), (20, 50.0), (40, 75.0), (100, 90.0), (199, 90.0), (200, 95.0),
     (999, 95.0), (1000, 99.0), (10_000, 99.9)],
)
def test_tail_rule_picks_highest_percentile_with_ten_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert beyond(n, expected) >= 10


def test_latency_summary_reports_n_and_the_rule_percentile():
    summary = latency_summary([i / 1000 for i in range(1, 201)])
    assert summary["n"] == 200
    assert summary["tail_percentile"] == 95.0
    assert summary["p50_ms"] == pytest.approx(100.5)
    assert summary["tail_ms"] == pytest.approx(190.05)
    assert latency_summary([0.001] * 5)["tail_ms"] is None


BENCHMARK = {
    "workloads": [{"name": "w"}],
    "end_to_end": [
        {"name": "lat", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
    ],
}


def _set(lat: float, rate: float, digest: str = "d", machine: str = "m") -> dict:
    return {
        "fingerprint": {"cpu_count": 2, "cpu_model": machine, "git_commit": lat},
        "seconds": 20, "smoke": False, "trace": False,
        "workloads": {"w": {
            "metrics": {
                "lat": {"value": lat, "unit": "ms"}, "rate": {"value": rate, "unit": "1/s"},
            },
            "detail": {"digest": digest},
        }},
    }


def _verdicts(a, b):
    rows, changed = compare.compare(a, b, BENCHMARK)
    return {row["metric"]: row for row in rows}, changed


def test_verdicts_same_worse_better():
    a = [_set(100 + i * 0.1, 50) for i in range(5)]
    same, _ = _verdicts(a, [_set(104 + i * 0.1, 48) for i in range(5)])
    assert same["lat"]["verdict"] == "same" and same["rate"]["verdict"] == "same"
    worse, _ = _verdicts(a, [_set(115 + i * 0.1, 40) for i in range(5)])
    assert worse["lat"]["verdict"] == "worse" and worse["rate"]["verdict"] == "worse"
    better, _ = _verdicts(a, [_set(80 + i * 0.1, 60) for i in range(5)])
    assert better["lat"]["verdict"] == "better" and better["rate"]["verdict"] == "better"


def test_wide_spread_is_unresolved_unless_b_beats_every_a():
    a = [_set(lat, 50) for lat in (80, 90, 100, 110, 120)]
    noisy = [_set(lat, 50) for lat in (85, 95, 101, 111, 125)]
    rows, _ = _verdicts(a, noisy)
    assert rows["lat"]["verdict"] == "unresolved"
    rows, _ = _verdicts(a, [_set(lat, 50) for lat in (40, 50, 60, 70, 79)])
    assert rows["lat"]["verdict"] == "better"


def test_claim_needs_ten_pairs_nine_wins_and_a_gap_beyond_a_iqr():
    a = [_set(100 + i, 50) for i in range(10)]
    rows, _ = _verdicts(a[:9], [_set(90, 50)] * 9)
    assert rows["lat"]["claim"].startswith("n/a")
    b = [_set(90 - i * 0.1, 50) for i in range(9)] + [_set(120, 50)]
    rows, _ = _verdicts(a, b)
    assert rows["lat"]["claim"] == "met (9/10 wins)"
    rows, _ = _verdicts(a, [_set(99 + i, 50) for i in range(10)])
    assert rows["lat"]["claim"].startswith("not met")


def test_refuses_other_machines_and_flags_changed_work():
    a = [_set(100, 50)]
    assert compare.refusal(a, [_set(100, 50, machine="other")]) is not None
    assert compare.refusal(a, [_set(101, 50)]) is None  # only the commit differs
    other_settings = copy.deepcopy(_set(100, 50))
    other_settings["seconds"] = 10
    assert compare.refusal(a, [other_settings]) is not None
    _, changed = _verdicts(a, [_set(100, 50, digest="e")])
    assert changed == {"w": ["digest"]}
    _, changed = _verdicts(a, [_set(100, 50)])
    assert changed == {"w": []}
