"""The benchmark timing harness: interleaving, statistics and the JSON writer.

Every test drives :mod:`benchmarks.harness` through a fake clock, so nothing
here depends on wall time.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from benchmarks import harness


@pytest.fixture
def fake_clock(monkeypatch):
    """A clock that only moves when a test advances it."""
    now = [0.0]
    monkeypatch.setattr(harness, "clock", lambda: now[0])
    return now


def _arm(name, calls, now, seconds):
    """An arm that logs its turn and takes ``seconds`` on the fake clock."""

    def run():
        calls.append(name)
        now[0] += seconds
        return name

    return run


class TestTrials:
    def test_order_rotates_each_trial(self, fake_clock):
        calls = []
        arms = {name: _arm(name, calls, fake_clock, 1.0) for name in "ABC"}
        harness.trials(arms, 4)
        assert calls == list("ABC" "BCA" "CAB" "ABC")

    def test_samples_pair_up_by_trial(self, fake_clock):
        calls = []
        samples, results = harness.trials(
            {"slow": _arm("slow", calls, fake_clock, 3.0),
             "fast": _arm("fast", calls, fake_clock, 1.0)},
            3,
        )
        assert samples == {"slow": [3.0] * 3, "fast": [1.0] * 3}
        assert results == {"slow": "slow", "fast": "fast"}

    def test_per_arm_counts_drop_out_of_the_rotation(self, fake_clock):
        calls = []
        arms = {name: _arm(name, calls, fake_clock, 1.0) for name in "AB"}
        samples, _ = harness.trials(arms, {"A": 1, "B": 3})
        assert calls == ["A", "B", "B", "B"]
        assert [len(samples[name]) for name in "AB"] == [1, 3]

    def test_a_returned_lap_replaces_the_call_time(self, fake_clock):
        def self_timed():
            fake_clock[0] += 5.0  # set-up the arm keeps out of its lap
            with harness.stopwatch() as lap:
                fake_clock[0] += 2.0
            fake_clock[0] += 5.0  # tear-down, likewise
            return lap

        samples, results = harness.trials({"burst": self_timed}, 2)
        assert samples == {"burst": [2.0, 2.0]}
        assert isinstance(results["burst"], harness.Lap)

    @pytest.mark.parametrize("arms, n", [({}, 1), ({"A": int}, 0), ({"A": int}, {"B": 1})])
    def test_rejects_empty_arms_and_bad_counts(self, arms, n):
        with pytest.raises(ValueError):
            harness.trials(arms, n)


class TestStatistics:
    @pytest.mark.parametrize(
        "samples", [[0.3], [0.5, 0.1], [4.0, 1.0, 3.0, 2.0], [0.2, 0.9, 0.4, 0.4, 7.0]]
    )
    def test_summary_equals_numpy_percentile(self, samples):
        q1, median, q3 = np.percentile(samples, [25, 50, 75])
        assert harness.summary(samples) == {
            "median": median,
            "iqr": q3 - q1,
            "n": len(samples),
            "best": min(samples),
        }

    def test_compare_ratio_is_baseline_median_over_arm_median(self):
        samples = {"base": [4.0, 6.0, 5.0], "new": [1.0, 3.0, 2.0]}
        assert harness.compare(samples, "base") == {
            "new": {"baseline": "base", "ratio": 2.5, "wins": 3}
        }

    def test_ties_are_a_win_for_neither_side(self):
        samples = {"a": [1.0, 2.0, 3.0, 4.0], "b": [1.0, 1.0, 3.0, 5.0]}
        # Trials 0 and 2 tie; b wins trial 1 and a wins trial 3.
        assert harness.compare(samples, "a")["b"]["wins"] == 1
        assert harness.compare(samples, "b")["a"]["wins"] == 1

    def test_row_carries_every_arm_and_every_comparison(self):
        samples = {"base": [2.0, 2.0], "x": [1.0, 1.0], "y": [4.0, 4.0]}
        timing = harness.row(samples, "base", "s/frame")
        assert timing["unit"] == "s/frame"
        assert set(timing["arms"]) == {"base", "x", "y"}
        assert timing["vs"]["x"]["ratio"] == 2.0 and timing["vs"]["y"]["ratio"] == 0.5
        assert "vs" not in harness.row(samples)

    def test_per_item_divides_by_each_arms_work(self):
        scaled = harness.per_item({"a": [8.0, 4.0], "b": [6.0]}, {"a": 4, "b": 3})
        assert scaled == {"a": [2.0, 1.0], "b": [2.0]}


class TestRecord:
    def test_rows_merge_and_the_host_is_stamped(self, tmp_path):
        harness.record("demo", "first", {"x": 1}, directory=tmp_path)
        harness.record("demo", "second", {"y": {"z": [1, 2]}}, directory=tmp_path)
        data = json.loads((tmp_path / "BENCH_demo.json").read_text())
        assert data["first"] == {"x": 1}
        assert data["second"] == {"y": {"z": [1, 2]}}
        assert data["_host"] == harness.host()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCH_demo.json"]

    def test_a_failed_write_leaves_the_old_file_intact(self, tmp_path):
        harness.record("demo", "first", {"x": 1}, directory=tmp_path)
        before = (tmp_path / "BENCH_demo.json").read_text()
        with pytest.raises(TypeError):
            harness.record("demo", "bad", {"x": object()}, directory=tmp_path)
        assert (tmp_path / "BENCH_demo.json").read_text() == before

    def test_recovers_from_a_truncated_file(self, tmp_path):
        path = tmp_path / "BENCH_demo.json"
        path.write_text('{"first": {"x": 1}, "sec')
        harness.record("demo", "second", {"y": 2}, directory=tmp_path)
        data = json.loads(path.read_text())
        assert data["second"] == {"y": 2}
        assert "first" not in data
