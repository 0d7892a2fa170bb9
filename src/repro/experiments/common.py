"""Shared experiment machinery: configs -> simulations -> results.

This module is the bridge between the declarative layer
(:class:`~repro.core.scenario.NetworkConfig`) and the packet simulator:
it builds the topology, instantiates one congestion controller, sender,
receiver, and workload per flow, runs the event loop, and collects
:class:`~repro.core.results.FlowStats`.

It also defines :class:`Scale` — the knob set that lets every experiment
run either as a quick benchmark (seconds) or a full reproduction
(minutes): simulated duration adapts to the link speed so the
pure-Python event loop processes a bounded number of packets per run.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.objective import normalized_objective
from ..core.results import FlowStats, RunResult
from ..core.scale import DEFAULT, FULL, QUICK, Scale
from ..core.scenario import NetworkConfig
from ..exec import Executor, SimTask, run_batch
from ..protocols.base import CongestionController
from ..protocols.registry import make_controller
from ..protocols.remycc import RemyCCController
from ..protocols.transport import DATA_PACKET_BYTES, FlowReceiver, FlowSender
from ..remy.compiled import UsageStats
from ..remy.tree import WhiskerTree
from ..sim.codel import CoDelQueue
from ..sim.dynamics import DynamicsDriver
from ..sim.engine import Simulator
from ..sim.queues import DropTailQueue, QueueDiscipline
from ..sim.sfq_codel import SfqCoDelQueue
from ..sim.tracing import QueueTrace
from ..sim.workload import (AlwaysOnWorkload, OnOffWorkload,
                            ScheduledWorkload)
from ..topology.dumbbell import dumbbell
from ..topology.graph import BuiltTopology
from ..topology.parking_lot import parking_lot

__all__ = ["Scale", "SimulationHandle", "build_simulation", "run_config",
           "run_seeds", "run_seed_batch",
           "scored_flows", "mean_normalized_score",
           "QUICK", "DEFAULT", "FULL"]


class SimulationHandle:
    """A built-but-not-yet-run simulation plus everything in it."""

    def __init__(self, sim: Simulator, built: BuiltTopology,
                 config: NetworkConfig,
                 controllers: List[CongestionController],
                 senders: List[FlowSender],
                 receivers: List[FlowReceiver],
                 workloads: List[object],
                 traces: Dict[str, QueueTrace],
                 seed: int,
                 usage_accumulators: Optional[
                     List[Tuple[WhiskerTree, UsageStats]]] = None):
        self.sim = sim
        self.built = built
        self.config = config
        self.controllers = controllers
        self.senders = senders
        self.receivers = receivers
        self.workloads = workloads
        self.traces = traces
        self.seed = seed
        #: (tree, shared flat stats) per distinct rule table, merged
        #: back into the tree's whiskers after every run() — the
        #: compiled fast path for record_usage.
        self._usage_accumulators = usage_accumulators or []

    def bottleneck_links(self):
        """The capacitated links of the configured topology."""
        if self.config.topology == "dumbbell":
            return [self.built.link("A", "B")]
        return [self.built.link("A", "B"), self.built.link("B", "C")]

    def run(self, duration_s: float) -> RunResult:
        """Run to ``duration_s`` and collect per-flow statistics."""
        self.sim.run(until=duration_s)
        for tree, stats in self._usage_accumulators:
            stats.merge_into(tree)
        flows: List[FlowStats] = []
        for i, kind in enumerate(self.config.sender_kinds):
            sender = self.senders[i]
            receiver = self.receivers[i]
            workload = self.workloads[i]
            path = self.built.network.flows[i]
            flows.append(FlowStats(
                flow_id=i,
                kind=kind,
                delivered_bytes=receiver.stats.delivered_bytes,
                on_time_s=workload.on_time(duration_s),
                mean_delay_s=receiver.stats.mean_delay,
                base_delay_s=path.one_way_base_delay(DATA_PACKET_BYTES),
                base_rtt_s=sender.base_rtt,
                packets_delivered=receiver.stats.unique_delivered,
                packets_sent=sender.stats.packets_sent,
                retransmissions=sender.stats.retransmissions,
                timeouts=sender.stats.timeouts,
                delta=self.config.deltas[i],
            ))
        bottlenecks = self.bottleneck_links()
        drops = sum(link.queue.stats.dropped for link in bottlenecks)
        utilization = max(link.utilization(duration_s)
                          for link in bottlenecks)
        return RunResult(flows=flows, seed=self.seed,
                         duration_s=duration_s,
                         bottleneck_drops=drops,
                         bottleneck_utilization=utilization)


def _queue_factory(config: NetworkConfig, link_index: int):
    capacity = config.buffer_packets(link_index)
    ecn = config.ecn_threshold
    if config.queue == "droptail":
        return lambda: DropTailQueue(capacity_packets=capacity,
                                     ecn_threshold=ecn)
    if config.queue == "codel":
        return lambda: CoDelQueue(capacity_packets=capacity,
                                  ecn_threshold=ecn)
    if config.queue == "sfq_codel":
        return lambda: SfqCoDelQueue(capacity_packets=capacity,
                                     ecn_threshold=ecn)
    raise ValueError(f"unknown queue {config.queue!r}")


def _controller_for(kind: str, trees: Dict[str, WhiskerTree],
                    record_usage: bool,
                    accumulators: Dict[int, Tuple[WhiskerTree, UsageStats]]
                    ) -> CongestionController:
    if kind in trees:
        tree = trees[kind]
        stats = None
        if record_usage:
            # One shared flat accumulator per tree *instance*: senders
            # driving the same table interleave their hits in event
            # order, exactly as they did when they shared the whisker
            # objects directly.
            entry = accumulators.get(id(tree))
            if entry is None:
                entry = (tree, UsageStats(len(tree)))
                accumulators[id(tree)] = entry
            stats = entry[1]
        return RemyCCController(tree, record_usage=record_usage,
                                usage_stats=stats)
    return make_controller(kind)


def build_simulation(
        config: NetworkConfig,
        trees: Optional[Dict[str, WhiskerTree]] = None,
        seed: int = 0,
        record_usage: bool = False,
        trace_queues: bool = False,
        workload_intervals: Optional[
            Dict[int, Sequence[Tuple[float, float]]]] = None,
) -> SimulationHandle:
    """Assemble a runnable simulation for one scenario.

    Parameters
    ----------
    trees:
        Maps sender kinds (e.g. ``"learner"``, ``"peer"``) to whisker
        trees; kinds not present fall back to the scheme registry.
    workload_intervals:
        Per-flow deterministic on-intervals, overriding the exponential
        on/off model (used by the Figure 8 queue-trace experiment).
    """
    trees = trees or {}
    sim = Simulator()
    if config.topology == "dumbbell":
        topo = dumbbell(config.num_senders, config.link_speed_bps(0),
                        config.rtt_ms / 1e3,
                        queue_factory=_queue_factory(config, 0))
    else:
        topo = parking_lot(config.link_speed_bps(0),
                           config.link_speed_bps(1),
                           per_hop_delay_s=config.rtt_ms / 2e3,
                           queue_factory1=_queue_factory(config, 0),
                           queue_factory2=_queue_factory(config, 1))
    built = topo.build(sim)

    if config.dynamics is not None and not config.dynamics.is_empty:
        # Dynamics apply to the bottleneck links (the ones the config's
        # link_speeds_mbps describe); access links stay static.  The
        # driver must start before senders are built only in the sense
        # that it runs pre-traffic — it merely schedules events, and
        # the per-link RNG streams are disjoint from the workload
        # streams, so static scenarios are untouched.
        if config.topology == "dumbbell":
            dyn_links = [built.link("A", "B")]
        else:
            dyn_links = [built.link("A", "B"), built.link("B", "C")]
        DynamicsDriver(sim, dyn_links, config.dynamics, seed=seed).start()

    controllers: List[CongestionController] = []
    senders: List[FlowSender] = []
    receivers: List[FlowReceiver] = []
    workloads: List[object] = []
    accumulators: Dict[int, Tuple[WhiskerTree, UsageStats]] = {}
    for i, kind in enumerate(config.sender_kinds):
        controller = _controller_for(kind, trees, record_usage,
                                     accumulators)
        sender = FlowSender(sim, built.network, i, controller)
        receiver = FlowReceiver(sim, built.network, i)
        if workload_intervals is not None and i in workload_intervals:
            workload = ScheduledWorkload(sim, sender,
                                         workload_intervals[i])
        elif config.always_on:
            # The both-zero on/off degenerate: permanent backlog, no
            # RNG draws at all.
            workload = AlwaysOnWorkload(sim, sender)
        else:
            flow_rng = random.Random(seed * 1_000_003 + i * 7_919 + 17)
            workload = OnOffWorkload(sim, sender, config.mean_on_s,
                                     config.mean_off_s, rng=flow_rng)
        workload.start()
        controllers.append(controller)
        senders.append(sender)
        receivers.append(receiver)
        workloads.append(workload)

    traces: Dict[str, QueueTrace] = {}
    if trace_queues:
        if config.topology == "dumbbell":
            bottlenecks = [built.link("A", "B")]
        else:
            bottlenecks = [built.link("A", "B"), built.link("B", "C")]
        for link in bottlenecks:
            traces[link.name] = QueueTrace(link.queue)

    return SimulationHandle(sim, built, config, controllers, senders,
                            receivers, workloads, traces, seed,
                            usage_accumulators=list(accumulators.values()))


def run_config(config: NetworkConfig,
               trees: Optional[Dict[str, WhiskerTree]] = None,
               seed: int = 0,
               scale: Scale = DEFAULT,
               record_usage: bool = False) -> RunResult:
    """Build and run one scenario at the given scale."""
    handle = build_simulation(config, trees=trees, seed=seed,
                              record_usage=record_usage)
    return handle.run(scale.duration_for(config))


def run_seeds(config: NetworkConfig,
              trees: Optional[Dict[str, WhiskerTree]] = None,
              scale: Scale = DEFAULT,
              base_seed: int = 1,
              executor: Optional[Executor] = None,
              store=None,
              jobs: Optional[int] = None,
              backend: str = "packet") -> List[RunResult]:
    """Run ``scale.n_seeds`` independent replications.

    The single seed-fanout path: ``executor`` fans the replications out
    through :mod:`repro.exec` (``jobs=N`` is the shorthand for a
    throwaway ``N``-worker pool when you don't hold an executor);
    serial, pooled, and store-backed runs produce identical results —
    the executors' determinism contract.  ``store`` persists results to
    a disk-backed :class:`~repro.exec.ResultStore` (path or instance).
    ``backend="fluid"`` routes every replication through the vectorized
    fluid model (:mod:`repro.sim.fluid`) instead of the packet engine.
    """
    return run_seed_batch([(config, trees)], scale=scale,
                          base_seed=base_seed, executor=executor,
                          store=store, jobs=jobs, backend=backend)[0]


def _seed_tasks(config: NetworkConfig,
                trees: Optional[Dict[str, WhiskerTree]],
                scale: Scale, base_seed: int,
                backend: str = "packet") -> List[SimTask]:
    duration = scale.duration_for(config)
    return [SimTask.build(config, trees=trees, seed=base_seed + k,
                          duration_s=duration, backend=backend)
            for k in range(scale.n_seeds)]


def run_seed_batch(specs: Sequence[Tuple[NetworkConfig,
                                         Optional[Dict[str, WhiskerTree]]]],
                   scale: Scale = DEFAULT,
                   base_seed: int = 1,
                   executor: Optional[Executor] = None,
                   store=None,
                   jobs: Optional[int] = None,
                   backend: str = "packet") -> List[List[RunResult]]:
    """Run a whole (config × seed) grid as one flat task batch.

    ``specs`` is a sequence of ``(config, trees)`` pairs — one per sweep
    point; each is replicated over ``scale.n_seeds`` seeds.  Returns one
    ``List[RunResult]`` per spec, aligned with the input, exactly as if
    :func:`run_seeds` had been called per spec — but submitted as a
    single batch so a pooled executor sees the full grid at once.
    ``jobs`` spins up a throwaway pool when no ``executor`` is passed.

    ``store`` (a :class:`~repro.exec.ResultStore` or directory path)
    makes the grid resumable: results land on disk as they complete,
    and a rerun — after a crash, or from another process — simulates
    only the fingerprints the store doesn't already hold.  Every
    experiment module inherits this, since their sweeps all flow
    through here.

    ``backend`` selects the simulation engine for every task in the
    grid ("packet" or "fluid"); fluid tasks fingerprint differently, so
    a shared store never mixes the two.
    """
    tasks: List[SimTask] = []
    for config, trees in specs:
        tasks.extend(_seed_tasks(config, trees, scale, base_seed,
                                 backend=backend))
    outputs = run_batch(tasks, executor=executor, store=store, jobs=jobs)
    failed = [(task.fingerprint(), out.failure)
              for task, out in zip(tasks, outputs)
              if out.failure is not None]
    if failed:
        # Quarantine-mode executors finish the rest of the grid (and
        # persist it) before we get here; the table must still not be
        # built over holes — fail loudly naming every poison task.
        from ..exec import TaskFailedError
        raise TaskFailedError(failed)
    grouped: List[List[RunResult]] = []
    for i in range(len(specs)):
        chunk = outputs[i * scale.n_seeds:(i + 1) * scale.n_seeds]
        grouped.append([out.run for out in chunk])
    return grouped


def scored_flows(result: RunResult) -> List[FlowStats]:
    """The flows that count toward the objective.

    When rule-table ("learner"/"peer") senders are present only they are
    scored — cross-traffic is environment, as in Remy's training.  In
    homogeneous runs of named schemes, every flow is scored.
    """
    learners = [f for f in result.flows if f.kind in ("learner", "peer")]
    return learners if learners else list(result.flows)


def mean_normalized_score(results: Sequence[RunResult],
                          config: NetworkConfig,
                          delta: float = 1.0) -> float:
    """Mean normalized objective across scored flows and seeds.

    Normalization follows the paper's Figures 2-4: fair share is the
    bottleneck rate over the number of senders; the delay floor is each
    flow's unloaded one-way latency.
    """
    fair = config.fair_share_bps()
    scores: List[float] = []
    for result in results:
        for flow in scored_flows(result):
            if flow.on_time_s <= 0:
                continue
            delay = flow.mean_delay_s if flow.packets_delivered else \
                flow.base_delay_s
            scores.append(normalized_objective(
                flow.throughput_bps, delay, fair, flow.base_delay_s,
                delta=delta))
    if not scores:
        return -math.inf
    return sum(scores) / len(scores)
