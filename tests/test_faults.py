"""Chaos suite: supervised execution under injected faults.

The contract under test (docs/EXECUTION.md "Failure semantics"): for
*any* seeded fault schedule (:mod:`repro.exec.faults`), every task the
supervised executor completes is bitwise-identical to a fault-free
serial run — transient faults are absorbed by retry/bisection, poison
tasks are isolated and quarantined in at most ``log2(chunk)``
resubmissions, hangs are bounded by per-task deadlines, and a store
written under chaos resumes cleanly with zero re-executions.
"""

import argparse
import dataclasses
import math

import pytest

from repro.core.scenario import NetworkConfig
from repro.exec import (ResultStore, RetryPolicy, SerialExecutor,
                        SimTask, StoreExecutor, SupervisedExecutor,
                        TaskFailedError, cache_key, executor_for)
from repro.exec import faults
from repro.exec.faults import (FAULTS_ENV, FaultInjected, FaultInjector,
                               FaultPlan, _uniform, injector_from_env)
from repro.exec.supervise import (add_fault_tolerance_arguments,
                                  policy_from_args)
from repro.remy.action import Action
from repro.remy.tree import WhiskerTree

CONFIG = NetworkConfig(
    link_speeds_mbps=(10.0,), rtt_ms=100.0,
    sender_kinds=("learner", "cubic"), mean_on_s=1.0, mean_off_s=1.0,
    buffer_bdp=5.0)

TREE = WhiskerTree(default_action=Action(0.8, 4.0, 0.002))

#: Retry semantics unchanged, waiting compressed to test scale.
FAST = RetryPolicy(max_retries=2, backoff_base_s=0.01,
                   backoff_max_s=0.05)


def small_batch(n=4, duration=2.0):
    return [SimTask.build(CONFIG, trees={"learner": TREE},
                          seed=1 + k, duration_s=duration)
            for k in range(n)]


def flows_key(results):
    """A comparable projection of every float the tables consume."""
    return [[(f.kind, f.delivered_bytes, f.on_time_s, f.mean_delay_s,
              f.packets_delivered, f.packets_sent, f.retransmissions)
             for f in out.run.flows] for out in results]


def install(monkeypatch, plan):
    monkeypatch.setenv(FAULTS_ENV, plan.to_json())


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(seed=7, p_exception=0.25, p_kill=0.5,
                         p_hang=0.125, p_corrupt=1.0, hang_s=9.0,
                         max_attempt=None, raise_keys=("a",),
                         kill_keys=("b", "c"), hang_keys=("d",))
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_non_object_plan_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.from_json("[1, 2]")

    def test_draws_deterministic_and_independent(self):
        draw = _uniform(3, "kill", "somekey")
        assert 0.0 <= draw < 1.0
        assert draw == _uniform(3, "kill", "somekey")
        assert draw != _uniform(3, "exception", "somekey")
        assert draw != _uniform(4, "kill", "somekey")

    def test_targeted_keys_fire_on_every_attempt(self):
        injector = FaultInjector(FaultPlan(raise_keys=("poison",)))
        for attempt in (0, 1, 7):
            with pytest.raises(FaultInjected):
                injector.on_task("poison", attempt)
        injector.on_task("innocent", 0)   # untargeted: no fault

    def test_probabilistic_faults_are_transient_by_default(self):
        injector = FaultInjector(FaultPlan(p_exception=1.0))
        with pytest.raises(FaultInjected):
            injector.on_task("anykey", 0)
        injector.on_task("anykey", 1)     # max_attempt=0: retry is clean

    def test_corruption_draw_matches_probability(self):
        always = FaultInjector(FaultPlan(p_corrupt=1.0))
        never = FaultInjector(FaultPlan(p_corrupt=0.0))
        assert always.on_put("k") is not None
        assert never.on_put("k") is None

    def test_network_fields_round_trip(self):
        plan = FaultPlan(seed=9, p_conn_drop=0.5, p_frame_corrupt=0.25,
                         p_delay=1.0, p_partition=0.125, delay_s=0.7,
                         partition_s=42.0, conn_drop_keys=("a",),
                         frame_corrupt_keys=("b",), delay_keys=("c",),
                         partition_keys=("d", "e"))
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_on_wire_precedence_and_targeting(self):
        injector = FaultInjector(FaultPlan(
            conn_drop_keys=("drop",), frame_corrupt_keys=("corrupt",),
            partition_keys=("split",), delay_keys=("slow",)))
        assert injector.on_wire("drop", 3) == "conn-drop"
        assert injector.on_wire("corrupt", 0) == "frame-corrupt"
        assert injector.on_wire("split", 1) == "partition"
        assert injector.on_wire("slow", 0) == "delay"
        assert injector.on_wire("innocent", 0) is None
        # Several kinds armed at once: the most disruptive wins.
        everything = FaultInjector(FaultPlan(
            p_conn_drop=1.0, p_frame_corrupt=1.0, p_delay=1.0,
            p_partition=1.0))
        assert everything.on_wire("anykey", 0) == "conn-drop"

    def test_on_wire_probabilistic_faults_are_transient(self):
        injector = FaultInjector(FaultPlan(p_conn_drop=1.0))
        assert injector.on_wire("anykey", 0) == "conn-drop"
        assert injector.on_wire("anykey", 1) is None  # retry is clean
        # Targeted keys are persistent poison: every attempt fires.
        poison = FaultInjector(FaultPlan(conn_drop_keys=("p",)))
        assert all(poison.on_wire("p", attempt) == "conn-drop"
                   for attempt in (0, 1, 9))


class TestInjectorGating:
    """In-task faults arm only inside worker processes: the serial
    reference run must stay fault-free even with a plan installed."""

    def test_inert_outside_workers(self, monkeypatch):
        install(monkeypatch, FaultPlan(p_exception=1.0,
                                       max_attempt=None))
        assert injector_from_env() is None

    def test_armed_in_marked_processes(self, monkeypatch):
        plan = FaultPlan(seed=5, p_kill=0.5)
        install(monkeypatch, plan)
        monkeypatch.setattr(faults, "_IS_WORKER", True)
        injector = injector_from_env()
        assert injector is not None and injector.plan == plan

    def test_unreadable_plan_fails_loudly(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "{not json")
        monkeypatch.setattr(faults, "_IS_WORKER", True)
        with pytest.raises(ValueError):
            injector_from_env()

    def test_serial_run_immune(self, monkeypatch):
        tasks = small_batch(2)
        clean = SerialExecutor().run_batch(tasks)
        install(monkeypatch, FaultPlan(p_exception=1.0,
                                       max_attempt=None))
        assert flows_key(SerialExecutor().run_batch(tasks)) \
            == flows_key(clean)


class TestSupervisedClean:
    def test_matches_serial_bitwise_and_reusable(self):
        tasks = small_batch(4)
        serial = SerialExecutor().run_batch(tasks)
        with SupervisedExecutor(jobs=2, policy=FAST) as sup:
            first = sup.run_batch(tasks)
            second = sup.run_batch(tasks)   # worker reuse across batches
        assert flows_key(first) == flows_key(serial)
        assert flows_key(second) == flows_key(serial)
        assert [out.run.seed for out in first] == [1, 2, 3, 4]
        assert sup.stats.worker_deaths == 0
        assert sup.stats.retries == 0

    def test_executor_for_builds_supervised_pool(self):
        executor = executor_for(2, policy=FAST)
        try:
            assert isinstance(executor, SupervisedExecutor)
            assert executor.policy is FAST
        finally:
            executor.close()

    def test_empty_batch(self):
        with SupervisedExecutor(jobs=2, policy=FAST) as sup:
            assert sup.run_batch([]) == []


class TestTransientFaults:
    def test_exceptions_retried_to_success(self, monkeypatch):
        tasks = small_batch(4)
        serial = SerialExecutor().run_batch(tasks)
        install(monkeypatch, FaultPlan(seed=1, p_exception=1.0))
        with SupervisedExecutor(jobs=2, policy=FAST) as sup:
            out = sup.run_batch(tasks)
        assert flows_key(out) == flows_key(serial)
        assert sup.stats.retries == len(tasks)   # one retry each
        assert sup.stats.quarantined == 0

    def test_worker_kills_absorbed_by_bisection(self, monkeypatch):
        tasks = small_batch(6)
        serial = SerialExecutor().run_batch(tasks)
        install(monkeypatch, FaultPlan(seed=2, p_kill=1.0))
        with SupervisedExecutor(jobs=2, chunk_size=3,
                                policy=FAST) as sup:
            out = sup.run_batch(tasks)
        assert flows_key(out) == flows_key(serial)
        # Each 3-task chunk dies once on attempt 0, then its bisected
        # halves run clean at attempt 1 (transient: max_attempt=0).
        assert sup.stats.worker_deaths == 2
        assert sup.stats.bisections == 2
        assert sup.stats.quarantined == 0


class TestPoisonQuarantine:
    def test_bisection_isolates_poison_within_log2_chunk(
            self, monkeypatch):
        chunk = 8
        tasks = small_batch(chunk)
        serial = SerialExecutor().run_batch(tasks)
        poison = 3
        install(monkeypatch,
                FaultPlan(kill_keys=(cache_key(tasks[poison]),)))
        policy = dataclasses.replace(FAST, on_failure="quarantine")
        with SupervisedExecutor(jobs=2, chunk_size=chunk,
                                policy=policy) as sup:
            out = sup.run_batch(tasks)
        failure = out[poison].failure
        assert failure is not None and failure.kind == "worker-death"
        assert "bisection" in failure.message
        assert failure.resubmissions <= math.log2(chunk)
        assert sup.stats.quarantined == 1
        assert sup.stats.bisections >= 1
        # Every innocent chunk-mate completed, bitwise equal to serial.
        rest = [i for i in range(chunk) if i != poison]
        assert all(out[i].failure is None for i in rest)
        assert flows_key([out[i] for i in rest]) \
            == flows_key([serial[i] for i in rest])

    def test_exhausted_exception_quarantined_with_context(
            self, monkeypatch):
        tasks = small_batch(3)
        serial = SerialExecutor().run_batch(tasks)
        poison = 1
        install(monkeypatch,
                FaultPlan(raise_keys=(cache_key(tasks[poison]),)))
        policy = dataclasses.replace(FAST, max_retries=1,
                                     on_failure="quarantine")
        with SupervisedExecutor(jobs=2, chunk_size=1,
                                policy=policy) as sup:
            out = sup.run_batch(tasks)
        failure = out[poison].failure
        assert failure is not None and failure.kind == "exception"
        assert failure.attempts == 2            # initial + max_retries
        assert failure.error_type == "FaultInjected"
        assert "FaultInjected" in failure.traceback
        rest = [i for i in (0, 2)]
        assert flows_key([out[i] for i in rest]) \
            == flows_key([serial[i] for i in rest])

    def test_raise_mode_aborts_with_fingerprint(self, monkeypatch):
        tasks = small_batch(3)
        poison_key = cache_key(tasks[1])
        install(monkeypatch, FaultPlan(raise_keys=(poison_key,)))
        policy = dataclasses.replace(FAST, max_retries=1)
        with SupervisedExecutor(jobs=2, chunk_size=1,
                                policy=policy) as sup:
            with pytest.raises(TaskFailedError) as excinfo:
                sup.run_batch(tasks)
        assert excinfo.value.failures[0][0] == poison_key
        assert poison_key[:12] in str(excinfo.value)


#: Deadline machinery compressed to test scale: flat 0.6 s budgets.
HANG_POLICY = RetryPolicy(max_retries=1, task_timeout_s=0.6,
                          timeout_slack_s=0.3, backoff_base_s=0.01,
                          backoff_max_s=0.05)


class TestTimeouts:
    def test_hang_degrades_to_serial_fallback(self, monkeypatch):
        tasks = small_batch(3)
        serial = SerialExecutor().run_batch(tasks)
        install(monkeypatch,
                FaultPlan(hang_keys=(cache_key(tasks[1]),), hang_s=60.0))
        with SupervisedExecutor(jobs=2, chunk_size=1,
                                policy=HANG_POLICY) as sup:
            out = sup.run_batch(tasks)
        # Hung twice, killed twice, then ran undisturbed in-process
        # (the supervisor is not a worker, so nothing is injected).
        assert flows_key(out) == flows_key(serial)
        assert sup.stats.timeouts == 2
        assert sup.stats.serial_fallbacks == 1

    def test_hang_without_fallback_quarantines(self, monkeypatch):
        tasks = small_batch(3)
        serial = SerialExecutor().run_batch(tasks)
        install(monkeypatch,
                FaultPlan(hang_keys=(cache_key(tasks[1]),), hang_s=60.0))
        policy = dataclasses.replace(HANG_POLICY, serial_fallback=False,
                                     on_failure="quarantine")
        with SupervisedExecutor(jobs=2, chunk_size=1,
                                policy=policy) as sup:
            out = sup.run_batch(tasks)
        failure = out[1].failure
        assert failure is not None and failure.kind == "timeout"
        assert failure.attempts == 2
        assert flows_key([out[0], out[2]]) \
            == flows_key([serial[0], serial[2]])

    def test_derived_budget_scales_with_task_cost(self):
        policy = RetryPolicy()
        short, = small_batch(1, duration=2.0)
        longer, = small_batch(1, duration=8.0)
        assert policy.timeout_for(longer) > policy.timeout_for(short) \
            >= policy.min_timeout_s
        flat = RetryPolicy(task_timeout_s=12.5)
        assert flat.timeout_for(longer) == 12.5

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(backoff_base_s=0.25, backoff_factor=2.0,
                             backoff_max_s=1.0)
        delays = [policy.backoff_for(n) for n in (1, 2, 3, 4)]
        assert delays == [0.25, 0.5, 1.0, 1.0]


class CountingExecutor(SerialExecutor):
    """Serial executor that counts how many tasks actually execute."""

    def __init__(self):
        self.executed = 0

    def run_iter(self, tasks):
        tasks = list(tasks)
        self.executed += len(tasks)
        yield from super().run_iter(tasks)


class TestStoreUnderChaos:
    """Satellite: crash-resume under chaos.  A store written while
    workers are being killed and shards corrupted must resume cleanly
    — zero re-executions, bitwise-equal results."""

    def test_chaos_store_resumes_with_zero_reexecution(
            self, tmp_path, monkeypatch):
        tasks = small_batch(6)
        serial = SerialExecutor().run_batch(tasks)
        install(monkeypatch, FaultPlan(seed=9, p_kill=1.0,
                                       p_exception=0.3, p_corrupt=1.0))
        store = tmp_path / "chaos.store"
        with SupervisedExecutor(jobs=2, chunk_size=3,
                                policy=FAST) as sup:
            out = StoreExecutor(sup, store=store).run_batch(tasks)
        assert flows_key(out) == flows_key(serial)

        # Every put was followed by an injected torn-write garbage line;
        # readers must degrade them to misses, verify must count them.
        stats = ResultStore(store).verify()
        assert stats.distinct == len(tasks)
        assert stats.corrupt == len(tasks)

        monkeypatch.delenv(FAULTS_ENV)
        counting = CountingExecutor()
        resumed = StoreExecutor(counting, store=store)
        again = resumed.run_batch(tasks)
        assert counting.executed == 0           # everything served
        assert resumed.hits == len(tasks)
        assert flows_key(again) == flows_key(serial)

        # gc compacts the injected garbage away.
        assert ResultStore(store).gc() == len(tasks)
        assert ResultStore(store).verify().corrupt == 0

    def test_quarantined_poison_skipped_on_resume(
            self, tmp_path, monkeypatch):
        tasks = small_batch(4)
        serial = SerialExecutor().run_batch(tasks)
        poison = 2
        poison_key = cache_key(tasks[poison])
        install(monkeypatch, FaultPlan(raise_keys=(poison_key,)))
        policy = dataclasses.replace(FAST, max_retries=1,
                                     on_failure="quarantine")
        store = tmp_path / "poison.store"
        with SupervisedExecutor(jobs=2, chunk_size=1,
                                policy=policy) as sup:
            first = StoreExecutor(sup, store=store,
                                  skip_quarantined=True).run_batch(tasks)
        assert first[poison].failure is not None
        recorded = ResultStore(store).get_quarantine(poison_key)
        assert recorded is not None and recorded.kind == "exception"
        assert ResultStore(store).stats().quarantined == 1

        # Resume with faults off: the known-poison fingerprint is served
        # as its recorded failure, nothing re-executes.
        monkeypatch.delenv(FAULTS_ENV)
        counting = CountingExecutor()
        resumed = StoreExecutor(counting, store=store,
                                skip_quarantined=True)
        again = resumed.run_batch(tasks)
        assert counting.executed == 0
        assert resumed.quarantined == 1
        assert again[poison].failure == recorded
        rest = [i for i in range(4) if i != poison]
        assert flows_key([again[i] for i in rest]) \
            == flows_key([serial[i] for i in rest])

        # Without skip_quarantined the poison is retried for real — and
        # with the plan gone it now succeeds, matching serial.
        counting = CountingExecutor()
        retried = StoreExecutor(counting,
                                store=store).run_batch(tasks)
        assert counting.executed == 1
        assert flows_key([retried[poison]]) \
            == flows_key([serial[poison]])


class TestUnitIsolation:
    def test_raising_fluid_lane_spares_its_unit_mate(self, monkeypatch):
        """Two fluid seeds of one cell travel as one lane unit; when
        one raises, the other must still come back ok — bitwise equal
        to its serial run — instead of sharing the failure."""
        config = NetworkConfig(link_speeds_mbps=(10.0,), rtt_ms=100.0,
                               sender_kinds=("newreno",) * 4)
        tasks = [SimTask.build(config, seed=seed, duration_s=1.0,
                               backend="fluid") for seed in (1, 2)]
        install(monkeypatch, FaultPlan(raise_keys=(cache_key(tasks[0]),)))
        policy = RetryPolicy(max_retries=0, on_failure="quarantine")
        with SupervisedExecutor(jobs=1, chunk_size=2,
                                policy=policy) as sup:
            results = sup.run_batch(tasks)
        assert results[0].failure is not None
        assert results[0].failure.kind == "exception"
        assert results[1].ok
        serial = SerialExecutor().run_batch(tasks[1:])
        assert flows_key(results[1:]) == flows_key(serial)


class TestGoldenUnderChaos:
    def test_digests_unchanged_under_transient_chaos(self, monkeypatch):
        """The acceptance criterion: under an injected fault schedule,
        completed results digest to the same pinned goldens as the
        fault-free serial run."""
        from test_golden_traces import GOLDEN, SCENARIOS, result_digest

        names = ["calibration", "link_speed", "rtt", "tcp_awareness"]
        tasks = [SCENARIOS[name] for name in names]
        install(monkeypatch, FaultPlan(seed=11, p_kill=1.0,
                                       p_exception=0.5))
        with SupervisedExecutor(jobs=2, chunk_size=2,
                                policy=FAST) as sup:
            results = sup.run_batch(tasks)
        assert {name: result_digest(result)
                for name, result in zip(names, results)} \
            == {name: GOLDEN[name] for name in names}


def _load_script(name):
    """Import a scripts/*.py file (scripts/ is not a package)."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "scripts" / name
    spec = importlib.util.spec_from_file_location(name[:-3], path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tiny_quick_scale(monkeypatch):
    from repro.core import scale as scale_module
    from repro.core.scale import Scale

    tiny = Scale(duration_s=2.0, packet_budget=3_000,
                 min_duration_s=2.0, n_seeds=2, sweep_points=2)
    monkeypatch.setitem(scale_module.NAMED_SCALES, "quick", tiny)


class TestScriptsUnderChaos:
    """The CI chaos job's assertions, runnable locally: a sweep under
    injected worker kills produces the same report as a clean serial
    run, and resuming its store afterwards changes nothing."""

    def test_sweep_under_kills_matches_clean_run_and_resumes(
            self, tmp_path, monkeypatch, capsys):
        _tiny_quick_scale(monkeypatch)
        run_experiments = _load_script("run_experiments.py")
        args = ["--scale", "quick", "--only", "calibration",
                "--fake-taos"]
        store = tmp_path / "store"
        ref, out = tmp_path / "ref.md", tmp_path / "out.md"

        # Fault-free serial reference, no store.
        assert run_experiments.main(args + ["-o", str(ref)]) == 0
        # The same sweep, parallel, with every first-attempt chunk's
        # worker SIGKILLed, persisting into a store.
        install(monkeypatch, FaultPlan(seed=21, p_kill=1.0))
        assert run_experiments.main(
            args + ["--jobs", "2", "--store", str(store),
                    "-o", str(out)]) == 0
        assert out.read_text() == ref.read_text()
        # Resume with faults off: byte-identical again, store healthy.
        monkeypatch.delenv(FAULTS_ENV)
        assert run_experiments.main(
            args + ["--jobs", "2", "--store", str(store), "--resume",
                    "-o", str(out)]) == 0
        assert out.read_text() == ref.read_text()
        assert run_experiments.main(
            ["store", "verify", "--store", str(store), "--strict"]) == 0

    def test_quarantine_mode_exits_nonzero_on_poison(
            self, tmp_path, monkeypatch, capsys):
        _tiny_quick_scale(monkeypatch)
        run_experiments = _load_script("run_experiments.py")
        # Every attempt of every task raises: with zero retries, the
        # whole grid is poison — the run must finish (quarantine, not
        # hang or crash) and exit non-zero.
        install(monkeypatch, FaultPlan(p_exception=1.0,
                                       max_attempt=None))
        code = run_experiments.main(
            ["--scale", "quick", "--only", "calibration", "--fake-taos",
             "--jobs", "2", "--max-retries", "0",
             "--on-failure", "quarantine"])
        assert code == 3
        captured = capsys.readouterr()
        assert "FAILED" in captured.out
        assert "failed on poison tasks" in captured.err


class TestCLI:
    def test_policy_from_args_round_trip(self):
        parser = argparse.ArgumentParser()
        add_fault_tolerance_arguments(parser)
        policy = policy_from_args(parser.parse_args([]))
        assert policy == RetryPolicy()
        policy = policy_from_args(parser.parse_args(
            ["--max-retries", "5", "--task-timeout", "30",
             "--on-failure", "quarantine"]))
        assert policy.max_retries == 5
        assert policy.task_timeout_s == 30.0
        assert policy.on_failure == "quarantine"

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(on_failure="explode")
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
