"""Tests for the end-to-end benchmark's helpers.

Run from the repository root with ``python -m pytest e2e_bench -q``.
"""

from __future__ import annotations

import dataclasses
import itertools
import multiprocessing
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "benchmarks"),
             os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import pytest  # noqa: E402

from e2e_harness import (Span, TimedExecutor, Tracer,  # noqa: E402
                         barrier_tail_s, calibration_s,
                         capacity_violations, digest, self_time_by_name,
                         self_times, serial_mismatches, tail_percentile)
from repro.core.scenario import NetworkConfig  # noqa: E402
from repro.exec import SerialExecutor, SimTask  # noqa: E402


def _tasks(n=3):
    config = NetworkConfig(link_speeds_mbps=(2.0,), rtt_ms=20.0,
                           sender_kinds=("newreno", "cubic"))
    return [SimTask.build(config, seed=seed, duration_s=0.5)
            for seed in range(1, n + 1)]


class TestTailPercentile:
    def test_leaves_exactly_ten_beyond(self):
        values = [float(v) for v in range(360)]
        pct, value, n = tail_percentile(values)
        assert n == 360
        assert value == 349.0
        assert sum(1 for v in values if v > value) == 10
        assert pct == pytest.approx(100 * 350 / 360)

    def test_is_the_highest_such_percentile(self):
        values = [float(v) for v in range(50)]
        _, value, _ = tail_percentile(values)
        higher = sorted(values)[sorted(values).index(value) + 1]
        assert sum(1 for v in values if v > higher) == 9

    def test_order_of_samples_does_not_matter(self):
        values = [3.0, 1.0, 2.0] * 7
        assert tail_percentile(values) == tail_percentile(sorted(values))

    @pytest.mark.parametrize("n", [0, 1, 9, 10])
    def test_ten_or_fewer_samples_have_no_tail(self, n):
        assert tail_percentile([1.0] * n) is None

    def test_eleven_samples_give_the_minimum(self):
        pct, value, n = tail_percentile([float(v) for v in range(11)])
        assert (value, n) == (0.0, 11)
        assert pct == pytest.approx(100 / 11)


class TestBarrierTail:
    def test_wait_once_fewer_tasks_than_workers_remain(self):
        assert barrier_tail_s([1.0, 2.0, 3.0, 10.0], workers=2) == 7.0

    def test_small_batch_idles_from_submission(self):
        assert barrier_tail_s([5.0], workers=2) == 5.0

    def test_empty_batch(self):
        assert barrier_tail_s([], workers=2) == 0.0


class TestSelfTime:
    def test_children_are_subtracted_once_even_when_overlapping(self):
        spans = [Span(0, "parent", 0.0, 10.0),
                 Span(1, "child", 1.0, 3.0, parent=0),
                 Span(2, "child", 2.0, 5.0, parent=0),
                 Span(3, "child", 6.0, 7.0, parent=0),
                 Span(4, "grandchild", 6.2, 6.8, parent=3)]
        own = self_times(spans)
        assert own[0] == pytest.approx(10.0 - 4.0 - 1.0)
        assert own[3] == pytest.approx(1.0 - 0.6)
        assert own[4] == pytest.approx(0.6)
        assert self_time_by_name(spans)["child"] == pytest.approx(
            2.0 + 3.0 + 0.4)

    def test_tracer_nests_by_call_order_and_inherits_request_id(self):
        ticks = itertools.count()
        tracer = Tracer(clock=lambda: float(next(ticks)))

        def leaf():
            return "done"

        traced_leaf = tracer.wrap(leaf, "leaf")

        def middle(rid):
            return traced_leaf()

        traced_middle = tracer.wrap(middle, "middle", rid_of=lambda rid: rid)
        outer = tracer.open("outer")
        traced_middle("task-1")
        tracer.close(outer)

        names = [s.name for s in tracer.spans]
        assert names == ["outer", "middle", "leaf"]
        outer_span, middle_span, leaf_span = tracer.spans
        assert middle_span.parent == outer_span.sid
        assert leaf_span.parent == middle_span.sid
        assert leaf_span.rid == "task-1"
        own = self_times(tracer.spans)
        # clock: outer 0..5, middle 1..4, leaf 2..3
        assert own == {0: 2.0, 1: 2.0, 2: 1.0}

    def test_counts_are_recorded_after_the_call(self):
        tracer = Tracer()
        wrapped = tracer.wrap(lambda x: x * 2, "double",
                              count=lambda out, x: {"out": out})
        assert wrapped(21) == 42
        assert tracer.spans[0].counts == {"out": 42}


class TestDigest:
    def test_stable_under_dict_key_order(self):
        a = {"rows": [{"scheme": "cubic", "rtt_ms": 20.0}], "n": 1}
        b = {"n": 1, "rows": [{"rtt_ms": 20.0, "scheme": "cubic"}]}
        assert digest(a) == digest(b)

    def test_tuples_digest_like_lists(self):
        assert digest({"x": (1, 2)}) == digest({"x": [1, 2]})

    def test_any_value_change_changes_the_digest(self):
        assert digest({"x": 0.1}) != digest({"x": 0.2})
        assert digest([1, 2]) != digest([2, 1])


class TestCorrectnessGate:
    def _pairs(self):
        tasks = _tasks()
        with SerialExecutor() as serial:
            return list(zip(tasks, serial.run_batch(tasks)))

    def test_untouched_results_pass(self):
        pairs = self._pairs()
        assert serial_mismatches(pairs) == []
        assert capacity_violations(pairs) == []

    def test_tampered_result_fails_the_serial_rerun(self):
        pairs = self._pairs()
        task, result = pairs[1]
        flows = list(result.run.flows)
        flows[0] = dataclasses.replace(
            flows[0], mean_delay_s=flows[0].mean_delay_s * (1 + 1e-15))
        tampered = dataclasses.replace(
            result, run=dataclasses.replace(result.run, flows=flows))
        pairs[1] = (task, tampered)
        assert serial_mismatches(pairs) == [task.fingerprint()]

    def test_delivering_beyond_capacity_fails(self):
        pairs = self._pairs()
        task, result = pairs[0]
        flows = list(result.run.flows)
        capacity = 2.0e6 / 8 * result.run.duration_s
        flows[0] = dataclasses.replace(flows[0],
                                       delivered_bytes=int(capacity) + 1000)
        pairs[0] = (task, dataclasses.replace(
            result, run=dataclasses.replace(result.run, flows=flows)))
        assert capacity_violations(pairs) == [task.fingerprint()]


class TestTimedExecutor:
    def test_records_every_task_in_submission_order(self):
        tasks = _tasks(4)
        timed = TimedExecutor(SerialExecutor())
        first = timed.run_batch(tasks[:3])
        second = timed.run_batch(tasks[3:])
        assert [t for t, _ in timed.pairs()] == tasks
        assert [r for _, r in timed.pairs()] == first + second
        assert len(timed.completions()) == 4
        assert all(t >= 0 for t in timed.completions())


class TestCalibration:
    def test_loop_runs_and_leaves_no_process_behind(self):
        assert calibration_s(2) > 0
        assert multiprocessing.active_children() == []
