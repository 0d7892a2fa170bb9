"""Tests for the repro.exec execution layer.

The load-bearing property is the determinism contract: every executor
returns bitwise-identical results for the same task batch, so training
(common random numbers) and the experiment tables cannot depend on how
the work was scheduled.
"""

import dataclasses

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scale import Scale
from repro.core.scenario import NetworkConfig, ScenarioRange
from repro.exec import (Executor, SerialExecutor, SimTask,
                        SupervisedExecutor, TaskFailedError, cache_key,
                        executor_for, pack_chunks, run_batch,
                        run_sim_task, task_cost)
from repro.exec.executors import chunk_tasks
from repro.exec.task import FLUID_UNIT_CELLS, fluid_shape, group_tasks
from repro.remy.action import Action
from repro.remy.evaluator import EvalSettings, TreeEvaluator
from repro.remy.optimizer import OptimizerSettings, RemyOptimizer
from repro.remy.tree import WhiskerTree

CONFIG = NetworkConfig(
    link_speeds_mbps=(10.0,), rtt_ms=100.0,
    sender_kinds=("learner", "cubic"), mean_on_s=1.0, mean_off_s=1.0,
    buffer_bdp=5.0)

TREE = WhiskerTree(default_action=Action(0.8, 4.0, 0.002))


def small_batch(n=4, duration=2.0):
    return [SimTask.build(CONFIG, trees={"learner": TREE},
                          seed=1 + k, duration_s=duration)
            for k in range(n)]


class TestSimTask:
    def test_build_from_objects(self):
        task = small_batch(1)[0]
        assert task.config == CONFIG.to_dict()
        assert task.trees == (("learner", TREE.to_json()),)

    def test_fingerprint_stable(self):
        a, b = small_batch(1)[0], small_batch(1)[0]
        assert a.fingerprint() == b.fingerprint()

    @pytest.mark.parametrize("change", [
        {"seed": 99},
        {"duration_s": 3.5},
        {"record_usage": True},
        {"trees": ()},
        {"backend": "fluid"},
        {"config": NetworkConfig(link_speeds_mbps=(11.0,),
                                 rtt_ms=100.0,
                                 sender_kinds=("learner", "cubic"),
                                 buffer_bdp=5.0).to_dict()},
    ])
    def test_fingerprint_covers_every_field(self, change):
        base = small_batch(1)[0]
        changed = dataclasses.replace(base, **change)
        assert changed.fingerprint() != base.fingerprint()

    def test_fingerprint_format_pinned(self):
        """The fingerprint IS the cache key, in memory and on disk.

        This literal pins the format: if it changes, every existing
        result store silently misses on all its entries, so a change
        here must come with a SCHEMA_VERSION bump in repro.exec.store
        (and a very good reason).
        """
        task = small_batch(1)[0]
        assert task.fingerprint() \
            == "0d7308ddd6a34eafb01e6c55162d02c436ea3d5b"
        assert cache_key(task) == task.fingerprint()

    def test_packet_backend_fingerprint_is_backcompat(self):
        """``backend="packet"`` is omitted from the hashed payload, so
        every store written before the field existed still hits; a
        fluid task must never collide with its packet twin."""
        base = small_batch(1)[0]
        explicit = dataclasses.replace(base, backend="packet")
        assert base.backend == "packet"
        assert explicit.fingerprint() == base.fingerprint()
        fluid = dataclasses.replace(base, backend="fluid")
        assert fluid.fingerprint() != base.fingerprint()

    def test_backend_validated(self):
        with pytest.raises(ValueError):
            SimTask.build(CONFIG, trees=None, seed=1, duration_s=1.0,
                          backend="quantum")

    def test_run_sim_task_returns_flow_stats(self):
        out = run_sim_task(small_batch(1)[0])
        assert len(out.run.flows) == 2
        assert out.run.duration_s == 2.0
        assert out.usage_counts == []   # record_usage off

    def test_usage_recorded_when_asked(self):
        task = dataclasses.replace(small_batch(1)[0], record_usage=True)
        out = run_sim_task(task)
        assert len(out.usage_counts) == len(TREE)
        assert sum(out.usage_counts) > 0


def flows_key(results):
    """A comparable projection of every float the tables consume."""
    return [[(f.kind, f.delivered_bytes, f.on_time_s, f.mean_delay_s,
              f.packets_delivered, f.packets_sent, f.retransmissions)
             for f in out.run.flows] for out in results]


class TestExecutorEquivalence:
    def test_serial_matches_pool_bitwise(self):
        """The determinism contract: scheduling cannot change results."""
        tasks = small_batch(4)
        serial = SerialExecutor().run_batch(tasks)
        with SupervisedExecutor(jobs=2) as pool:
            pooled = pool.run_batch(tasks)
        assert flows_key(serial) == flows_key(pooled)

    def test_pool_is_reusable_across_batches(self):
        with SupervisedExecutor(jobs=2) as pool:
            first = pool.run_batch(small_batch(2))
            second = pool.run_batch(small_batch(2))
        assert flows_key(first) == flows_key(second)

    def test_results_in_task_order(self):
        tasks = small_batch(5)
        with SupervisedExecutor(jobs=2, chunk_size=1) as pool:
            results = pool.run_batch(tasks)
        assert [out.run.seed for out in results] == [1, 2, 3, 4, 5]

    def test_progress_called_per_task(self):
        seen = []
        SerialExecutor().run_batch(
            small_batch(3), progress=lambda done, n: seen.append((done, n)))
        assert seen == [(1, 3), (2, 3), (3, 3)]

    def test_run_batch_jobs_flag(self):
        tasks = small_batch(3)
        assert flows_key(run_batch(tasks)) \
            == flows_key(run_batch(tasks, jobs=2))

    def test_executor_for(self):
        assert isinstance(executor_for(None), SerialExecutor)
        assert isinstance(executor_for(1), SerialExecutor)
        pool = executor_for(2)
        assert isinstance(pool, SupervisedExecutor)
        pool.close()   # never started: close is a safe no-op

    def test_bad_jobs_rejected(self):
        with pytest.raises(ValueError):
            SupervisedExecutor(jobs=0)
        with pytest.raises(ValueError):
            executor_for(-8)   # a "--jobs -8" typo must not run serial

    def test_run_seeds_jobs_matches_serial(self):
        from repro.core.scale import Scale as _Scale
        from repro.experiments.common import run_seeds
        scale = _Scale(duration_s=2.0, packet_budget=3_000,
                       min_duration_s=2.0, n_seeds=2)
        serial = run_seeds(CONFIG, trees={"learner": TREE}, scale=scale)
        pooled = run_seeds(CONFIG, trees={"learner": TREE},
                           scale=scale, jobs=2)
        assert [[f.delivered_bytes for f in r.flows] for r in serial] \
            == [[f.delivered_bytes for f in r.flows] for r in pooled]


def _ideal_makespan(costs, n_chunks):
    """Lower bound no partition into n_chunks chunks can beat."""
    return max(sum(costs) / max(min(n_chunks, len(costs)), 1),
               max(costs))


class TestChunkPacking:
    """Property tests for the cost-aware chunk packer.

    The pool's default dispatch packs tasks into chunks by expected
    cost; these pin the two load-bearing guarantees — exact cover
    (every task runs exactly once) and bounded makespan (no straggler
    chunk more than 2x the ideal, even for adversarial cost mixes).
    """

    @given(costs=st.lists(
               st.floats(min_value=0.0, max_value=1e9,
                         allow_nan=False, allow_infinity=False),
               max_size=200),
           n_chunks=st.integers(min_value=1, max_value=64))
    @settings(max_examples=200, deadline=None)
    def test_chunks_cover_all_tasks_exactly_once(self, costs, n_chunks):
        chunks = pack_chunks(costs, n_chunks)
        flat = [i for chunk in chunks for i in chunk]
        assert sorted(flat) == list(range(len(costs)))
        assert len(chunks) <= n_chunks
        assert all(chunks)                       # no empty chunk

    @given(costs=st.lists(
               st.floats(min_value=0.0, max_value=1e9,
                         allow_nan=False, allow_infinity=False),
               min_size=1, max_size=200),
           n_chunks=st.integers(min_value=1, max_value=64))
    @settings(max_examples=200, deadline=None)
    def test_makespan_within_2x_ideal(self, costs, n_chunks):
        chunks = pack_chunks(costs, n_chunks)
        worst = max(sum(costs[i] for i in chunk) for chunk in chunks)
        ideal = _ideal_makespan(costs, n_chunks)
        assert worst <= 2.0 * ideal + 1e-6 * max(ideal, 1.0)

    def test_adversarial_mix_does_not_straggle(self):
        """One 1000x task among dwarfs: count-based chunking would put
        it in a chunk with ~25 others; cost packing must isolate it."""
        costs = [1000.0] + [1.0] * 99
        chunks = pack_chunks(costs, 4)
        heavy = next(c for c in chunks if 0 in c)
        assert sum(costs[i] for i in heavy) <= 2 * _ideal_makespan(
            costs, 4)
        assert heavy == [0]                      # LPT isolates it

    def test_deterministic(self):
        costs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
        assert pack_chunks(costs, 3) == pack_chunks(list(costs), 3)

    def test_task_cost_tracks_duration_and_rate(self):
        slow, = small_batch(1, duration=2.0)
        slower, = small_batch(1, duration=4.0)
        assert task_cost(slower) == 2 * task_cost(slow)
        fast = SimTask.build(
            NetworkConfig(link_speeds_mbps=(100.0,), rtt_ms=100.0,
                          sender_kinds=("learner",), buffer_bdp=5.0),
            trees={"learner": TREE}, seed=1, duration_s=2.0)
        assert task_cost(fast) == 10 * task_cost(slow)

    def test_fluid_task_cost_grows_with_senders(self):
        """A fluid task's step cost has a per-flow part: 1000 senders
        must outweigh 100 of the same shape."""
        def fluid(senders):
            return SimTask.build(
                NetworkConfig(link_speeds_mbps=(100.0,), rtt_ms=60.0,
                              sender_kinds=("newreno",) * senders),
                seed=1, duration_s=0.5, backend="fluid")

        assert task_cost(fluid(1000)) > task_cost(fluid(100)) \
            > task_cost(fluid(10))

    def test_packet_only_layout_unchanged(self):
        """Packet tasks are one unit each, so unit packing must give
        exactly the task-by-task layout: pinned on a heterogeneous
        batch (rates 1-1000 Mbps, durations 0.5-10 s)."""
        speeds = (1.0, 100.0, 10.0, 50.0, 2.0, 1000.0, 5.0, 20.0, 10.0,
                  3.0, 200.0, 1.0)
        durations = (4.0, 1.0, 2.0, 3.0, 10.0, 0.5, 2.0, 2.0, 6.0, 1.0,
                     1.5, 8.0)
        tasks = [SimTask.build(
                     NetworkConfig(link_speeds_mbps=(speed,), rtt_ms=50.0,
                                   sender_kinds=("cubic", "newreno")),
                     seed=k, duration_s=duration)
                 for k, (speed, duration)
                 in enumerate(zip(speeds, durations))]
        assert chunk_tasks(tasks, 2) == [
            [5], [10], [3], [1], [8], [7], [0, 2, 11], [4, 6, 9]]
        assert chunk_tasks(tasks, 1) == [
            [5], [10], [3, 6, 7, 11], [0, 1, 2, 4, 8, 9]]
        assert chunk_tasks(tasks, 3, chunk_size=5) == [
            [0, 1, 2, 3, 4], [5, 6, 7, 8, 9], [10, 11]]

    def test_pool_cost_packing_preserves_determinism(self):
        """Heterogeneous durations exercise the cost-packed dispatch
        path; results must still match serial bitwise, in task order."""
        tasks = [SimTask.build(CONFIG, trees={"learner": TREE},
                               seed=1 + k, duration_s=duration)
                 for k, duration in enumerate((4.0, 2.0, 3.0, 2.0, 2.0))]
        serial = SerialExecutor().run_batch(tasks)
        with SupervisedExecutor(jobs=2) as pool:
            pooled = pool.run_batch(tasks)
        assert flows_key(serial) == flows_key(pooled)
        assert [out.run.seed for out in pooled] == [1, 2, 3, 4, 5]


def _fluid_sweep(senders, schemes=("newreno", "cubic", "dctcp", "vegas"),
                 seeds=(1, 2), rtts=(60.0, 120.0)):
    """A sweep_fluid-shaped batch, interleaved with packet tasks."""
    tasks = []
    for rtt in rtts:
        for scheme in schemes:
            for seed in seeds:
                config = NetworkConfig(
                    link_speeds_mbps=(100.0,), rtt_ms=rtt,
                    sender_kinds=(scheme,) * senders)
                tasks.append(SimTask.build(config, seed=seed,
                                           duration_s=0.5,
                                           backend="fluid"))
                tasks.append(SimTask.build(CONFIG, trees={"learner": TREE},
                                           seed=seed, duration_s=1.0))
    return tasks


class TestFluidUnits:
    @pytest.mark.parametrize("senders", [100, 1000])
    def test_unit_cap_holds(self, senders):
        """A unit of N-sender lanes holds at most max(1, 1024 // N)
        lanes, all of one shape."""
        tasks = _fluid_sweep(senders, seeds=(1, 2, 3))
        cap = max(1, FLUID_UNIT_CELLS // senders)
        fluid_units = [unit for unit in group_tasks(tasks)
                       if tasks[unit[0]].backend == "fluid"]
        assert sorted(i for unit in fluid_units for i in unit) == [
            i for i, task in enumerate(tasks) if task.backend == "fluid"]
        assert all(len(unit) <= cap for unit in fluid_units)
        assert all(len({fluid_shape(tasks[i]) for i in unit}) == 1
                   for unit in fluid_units)
        # Cross-scheme lanes: a full unit mixes schemes of one shape.
        assert max(len(unit) for unit in fluid_units) == min(cap, 12)

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    @pytest.mark.parametrize("chunk_size", [None, 1, 3])
    def test_chunk_tasks_never_splits_a_unit(self, jobs, chunk_size):
        tasks = _fluid_sweep(100) + _fluid_sweep(10, rtts=(80.0,))
        chunks = chunk_tasks(tasks, jobs, chunk_size)
        assert sorted(i for chunk in chunks for i in chunk) \
            == list(range(len(tasks)))
        home = {i: c for c, chunk in enumerate(chunks) for i in chunk}
        for unit in group_tasks(tasks):
            assert len({home[i] for i in unit}) == 1, unit

    def test_pooled_lane_units_match_serial(self):
        tasks = _fluid_sweep(20, seeds=(1,), rtts=(60.0,))
        serial = [run_sim_task(task) for task in tasks]
        with SupervisedExecutor(jobs=2) as pool:
            pooled = pool.run_batch(tasks)
        assert flows_key(serial) == flows_key(pooled)


class TestRunIter:
    def test_serial_streams_in_order(self):
        tasks = small_batch(3)
        seen = list(SerialExecutor().run_iter(tasks))
        assert [i for i, _ in seen] == [0, 1, 2]
        assert flows_key([r for _, r in seen]) \
            == flows_key(SerialExecutor().run_batch(tasks))

    def test_pool_streams_every_task_once(self):
        tasks = small_batch(4)
        with SupervisedExecutor(jobs=2) as pool:
            seen = dict(pool.run_iter(tasks))
        assert sorted(seen) == [0, 1, 2, 3]
        assert flows_key([seen[i] for i in range(4)]) \
            == flows_key(SerialExecutor().run_batch(tasks))

    def test_default_run_iter_wraps_run_batch(self):
        counting = CountingExecutor()
        tasks = small_batch(2)
        seen = dict(counting.run_iter(tasks))
        assert sorted(seen) == [0, 1]


class CountingExecutor(Executor):
    """Serial executor that counts how many tasks actually execute."""

    def __init__(self):
        self.executed = 0

    def run_batch(self, tasks, progress=None):
        tasks = list(tasks)
        self.executed += len(tasks)
        return SerialExecutor().run_batch(tasks, progress=progress)


TINY = EvalSettings(
    n_configs=2, sim_seeds=(1,),
    scale=Scale(duration_s=4.0, packet_budget=6_000, min_duration_s=2.0))

RANGE = ScenarioRange(link_speed_mbps=(8.0, 16.0), rtt_ms=(100.0, 100.0),
                      num_senders=(1, 2), buffer_bdp=5.0)


class TestEvaluatorOnExecutors:
    def test_serial_and_pool_scores_bitwise_identical(self):
        tree = WhiskerTree(default_action=Action(0.8, 4.0, 0.002))
        serial = TreeEvaluator(RANGE, TINY).evaluate(tree)
        with SupervisedExecutor(jobs=2) as pool:
            pooled = TreeEvaluator(RANGE, TINY,
                                   executor=pool).evaluate(tree)
        assert serial.score == pooled.score
        assert serial.per_config_scores == pooled.per_config_scores

    def test_scale_change_does_not_reuse_stale_scores(self):
        """Regression: the old cache was keyed only by tree fingerprint,
        so changing ``EvalSettings.scale`` on a reused evaluator
        returned scores simulated at the *old* scale."""
        tree = WhiskerTree(default_action=Action(0.8, 4.0, 0.002))
        evaluator = TreeEvaluator(RANGE, TINY)
        first = evaluator.evaluate_batch([tree])[0]
        # Same evaluator object, rescaled budget: tasks differ, so the
        # cache must miss and the score must be recomputed.
        evaluator.settings = EvalSettings(
            n_configs=2, sim_seeds=(1,),
            scale=Scale(duration_s=8.0, packet_budget=12_000,
                        min_duration_s=4.0))
        before = evaluator.evaluations
        rescaled = evaluator.evaluate_batch([tree])[0]
        assert evaluator.evaluations > before
        assert rescaled != first

    def test_clear_cache_bounds_memory_not_hits(self):
        tree = WhiskerTree(default_action=Action(0.8, 4.0, 0.002))
        evaluator = TreeEvaluator(RANGE, TINY)
        evaluator.evaluate_batch([tree])
        count = evaluator.evaluations
        assert evaluator.cached_tasks > 0
        evaluator.clear_cache()
        assert evaluator.cached_tasks == 0
        assert evaluator.evaluations == count   # counter survives

    def test_trained_tree_identical_with_and_without_pool(self):
        """Regression for the optimizer: pooled training must follow
        the exact same search trajectory as serial training."""
        settings = OptimizerSettings(generations=1, max_action_steps=2,
                                     neighbor_scales=(1.0,))
        serial_tree, serial_log = RemyOptimizer(
            RANGE, TINY, settings).train()
        with SupervisedExecutor(jobs=2) as pool:
            pooled_tree, pooled_log = RemyOptimizer(
                RANGE, TINY, settings, executor=pool).train()
        assert serial_tree.to_json() == pooled_tree.to_json()
        assert serial_log.scores == pooled_log.scores


class TestDefaultJobs:
    """default_jobs sizes the pool from the CPUs the scheduler will
    actually grant (affinity mask), not the host's core count."""

    def test_respects_cpu_affinity(self, monkeypatch):
        from repro.exec import executors
        monkeypatch.setattr(executors.os, "sched_getaffinity",
                            lambda pid: {0, 1, 2}, raising=False)
        assert executors.default_jobs() == 2

    def test_affinity_failure_falls_back_to_cpu_count(self, monkeypatch):
        import multiprocessing as mp

        from repro.exec import executors

        def boom(pid):
            raise OSError("affinity unavailable")

        monkeypatch.setattr(executors.os, "sched_getaffinity", boom,
                            raising=False)
        assert executors.default_jobs() == max(mp.cpu_count() - 1, 1)

    def test_single_cpu_still_one_worker(self, monkeypatch):
        from repro.exec import executors
        monkeypatch.setattr(executors.os, "sched_getaffinity",
                            lambda pid: {0}, raising=False)
        assert executors.default_jobs() == 1


class TestPoolLifecycle:
    """The pool is recycled after a failed batch and close() stays safe
    under repetition / interruption."""

    def test_pool_recycled_after_worker_exception(self):
        bad = dataclasses.replace(small_batch(1)[0],
                                  trees=(("learner", "{broken"),))
        pool = SupervisedExecutor(jobs=2)
        try:
            with pytest.raises(TaskFailedError):
                pool.run_batch([bad])
            good = pool.run_batch(small_batch(2))
            assert flows_key(good) \
                == flows_key(SerialExecutor().run_batch(small_batch(2)))
        finally:
            pool.close()

    def test_close_idempotent_and_detaches_first(self):
        pool = SupervisedExecutor(jobs=2)
        pool.run_batch(small_batch(1))
        assert pool._idle
        pool.close()
        # Detached before teardown: a ^C landing inside the reaping
        # leaves no half-closed workers behind, and closing again is a
        # clean no-op.
        assert pool._idle == []
        pool.close()

    def test_supervised_close_idempotent_and_reaps(self):
        import multiprocessing

        def supervised_children():
            return [p for p in multiprocessing.active_children()
                    if p.name.startswith("repro-supervised-")]

        pool = SupervisedExecutor(2)
        pool.run_batch(small_batch(2, duration=1.0))
        assert supervised_children()
        pool.close()
        assert not supervised_children()     # no leaked workers
        pool.close()                          # double close: clean no-op
        # Close-then-reuse: a fresh batch respawns workers, and a
        # second close reaps them again.
        good = pool.run_batch(small_batch(1, duration=1.0))
        assert good[0].failure is None
        pool.close()
        assert not supervised_children()

    def test_raising_progress_still_reaps_workers(self):
        """_collect closes the run_iter generator deterministically, so
        an exploding progress callback cannot leave the supervision
        loop suspended with busy workers (they are reaped at close,
        not whenever GC finds the generator)."""
        import multiprocessing

        class Boom(Exception):
            pass

        def progress(done, total):
            raise Boom

        pool = SupervisedExecutor(2)
        try:
            with pytest.raises(Boom):
                pool.run_batch(small_batch(3, duration=1.0),
                               progress=progress)
            # The executor is still usable after the consumer blew up.
            good = pool.run_batch(small_batch(1, duration=1.0))
            assert good[0].failure is None
        finally:
            pool.close()
        assert not [p for p in multiprocessing.active_children()
                    if p.name.startswith("repro-supervised-")]
