"""Declarative simulation tasks.

A :class:`SimTask` is a pickle-friendly description of *one* simulation
run: the network config (as a plain dict), the whisker trees by sender
kind (as JSON strings), the RNG seed, the simulated duration, and
whether to record per-whisker usage.  Everything an executor needs to
reproduce the run in another process — and nothing else — lives on the
task, which is what makes the execution layer's determinism contract
possible: the same task always produces the same result, bit for bit,
regardless of which worker runs it.

Tasks carry a stable :meth:`SimTask.fingerprint` (a SHA-1 over the
canonical JSON form), exposed to every cache through :func:`cache_key`:
:class:`~repro.exec.store.StoreExecutor` keys the on-disk result store
with it, and the evaluator uses it to avoid re-running incumbents.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["SimTask", "SimTaskResult", "TaskFailure", "run_sim_task",
           "run_task_group", "group_tasks", "fluid_shape", "cache_key",
           "BACKENDS", "FLUID_UNIT_CELLS"]

#: Simulation backends a task may select.  ``"packet"`` is the exact
#: event-driven engine (the source of truth); ``"fluid"`` is the
#: vectorized discrete-time approximation (:mod:`repro.sim.fluid`).
BACKENDS = ("packet", "fluid")


@dataclass(frozen=True)
class SimTask:
    """One simulation, fully described by plain picklable data.

    Build instances with :meth:`build` (from live ``NetworkConfig`` /
    ``WhiskerTree`` objects) rather than the raw constructor.
    """

    config: dict                           # NetworkConfig.to_dict()
    trees: Tuple[Tuple[str, str], ...]     # sorted (kind, tree_json)
    seed: int
    duration_s: float
    record_usage: bool = False
    backend: str = "packet"

    @classmethod
    def build(cls, config, trees=None, seed: int = 0,
              duration_s: float = 10.0,
              record_usage: bool = False,
              backend: str = "packet") -> "SimTask":
        """Construct from a :class:`~repro.core.scenario.NetworkConfig`
        and a ``{kind: WhiskerTree}`` mapping (either may already be in
        serialized form)."""
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; "
                             f"expected one of {BACKENDS}")
        config_dict = config if isinstance(config, dict) \
            else config.to_dict()
        pairs = []
        for kind, tree in sorted((trees or {}).items()):
            pairs.append((kind, tree if isinstance(tree, str)
                          else tree.to_json()))
        if backend == "fluid":
            # Fail at build time, not mid-batch: by the time a mixed
            # task group reaches the fluid branch, every packet task in
            # the batch has already been simulated — an unsupported
            # scheme or packet-only dynamics feature should reject the
            # task before any work happens, with the reason named.
            from ..core.scenario import NetworkConfig
            from ..sim.fluid import fluid_refusal
            cfg = config if isinstance(config, NetworkConfig) \
                else NetworkConfig.from_dict(config_dict)
            reason = fluid_refusal(cfg, tree_kinds=[k for k, _ in pairs])
            if reason is None and record_usage:
                reason = ("per-whisker usage recording is packet-only "
                          "(the fluid model has no usage "
                          "instrumentation); build the task with "
                          "record_usage=False or backend='packet'")
            if reason is not None:
                raise ValueError(
                    f"backend 'fluid' cannot run this task: {reason}")
        return cls(config=config_dict, trees=tuple(pairs), seed=seed,
                   duration_s=duration_s, record_usage=record_usage,
                   backend=backend)

    def fingerprint(self) -> str:
        """Stable digest over every field that affects the result.

        The default ``backend="packet"`` is *omitted* from the hashed
        payload, so packet tasks fingerprint exactly as they did before
        the field existed — every pre-existing store shard and evaluator
        memo stays valid.  Non-default backends are hashed in, so a
        fluid result can never be filed under (or served for) the
        packet key of the same scenario.
        """
        payload = {"config": self.config, "trees": self.trees,
                   "seed": self.seed, "duration_s": self.duration_s,
                   "record_usage": self.record_usage}
        if self.backend != "packet":
            payload["backend"] = self.backend
        text = json.dumps(payload, sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha1(text.encode()).hexdigest()


def cache_key(task: "SimTask") -> str:
    """The one key every result cache uses, memory or disk.

    :class:`~repro.exec.store.StoreExecutor` and the evaluator's memo
    both key results through this helper, so an in-memory entry and an
    on-disk entry for the same task can never be filed under different
    keys.  The format is pinned by
    ``tests/test_exec.py::TestSimTask::test_fingerprint_format_pinned``;
    changing it invalidates every existing on-disk store, so bump
    :data:`repro.exec.store.SCHEMA_VERSION` alongside any change here.
    """
    return task.fingerprint()


@dataclass(frozen=True)
class TaskFailure:
    """Why a task produced no :class:`RunResult`.

    ``kind`` is one of ``"exception"`` (the task itself raised),
    ``"timeout"`` (it exceeded its cost-derived wall-clock budget), or
    ``"worker-death"`` (the worker process died while — after
    bisection, provably *because of* — running it).  ``attempts`` is
    how many times the task was tried before the executor gave up.
    ``resubmissions`` counts how many crash-triggered resubmissions the
    task rode through (the bisection depth for a poison task).
    """

    kind: str
    message: str
    attempts: int = 1
    error_type: str = ""
    traceback: str = ""
    resubmissions: int = 0


@dataclass
class SimTaskResult:
    """What one executed :class:`SimTask` produced.

    ``run`` holds the full per-flow statistics; ``usage_counts`` /
    ``usage_sums`` carry the learner tree's per-whisker usage when the
    task asked for it (empty otherwise).  Consumers derive scores from
    these fields on the submitting side, so scoring policy never needs
    to travel to the workers.

    A result is *either* a run *or* a failure: under the supervised
    executor's quarantine policy a task that exhausted its retries
    yields ``run=None`` with ``failure`` describing why, instead of
    killing the batch.  Check :attr:`ok` before touching :attr:`run`.
    """

    run: Optional["RunResult"] = None   # repro.core.results.RunResult
    usage_counts: List[int] = field(default_factory=list)
    usage_sums: List[List[float]] = field(default_factory=list)
    failure: Optional[TaskFailure] = None

    @property
    def ok(self) -> bool:
        return self.failure is None


def run_sim_task(task: SimTask) -> SimTaskResult:
    """Execute one task (module-level so multiprocessing can pickle it).

    This is the single choke point every executor funnels through:
    serial and pooled execution differ only in *where* this function
    runs, never in what it computes.
    """
    # Imported at call time, not module top: experiments.common imports
    # the protocols package, which imports repro.remy — a cycle at
    # import time but not at call time.
    from ..core.scenario import NetworkConfig
    from ..experiments.common import build_simulation
    from ..remy.compiled import compiled_from_json
    from ..remy.tree import WhiskerTree

    trees: Dict[str, WhiskerTree] = {}
    for kind, text in task.trees:
        tree = WhiskerTree.from_json(text)
        # The task's tree JSON is the canonical serialization its
        # fingerprint hashes, so it keys a process-wide compilation
        # memo: evaluating one candidate over a (config x seed) grid
        # compiles it once per worker, not once per task.
        tree.adopt_compiled(compiled_from_json(text))
        trees[kind] = tree
    config = NetworkConfig.from_dict(task.config)
    if task.backend == "fluid":
        from ..sim.fluid import simulate_fluid
        run = simulate_fluid(config, trees=trees, seeds=(task.seed,),
                             duration_s=task.duration_s)[0]
        return SimTaskResult(run=run)
    handle = build_simulation(config, trees=trees, seed=task.seed,
                              record_usage=task.record_usage)
    run = handle.run(task.duration_s)
    counts: List[int] = []
    sums: List[List[float]] = []
    if task.record_usage and "learner" in trees:
        counts, sums = trees["learner"].extract_stats()
    return SimTaskResult(run=run, usage_counts=counts, usage_sums=sums)


#: Most ``(lane, flow)`` cells one fluid unit integrates: a unit of
#: ``N``-sender lanes holds at most ``max(1, FLUID_UNIT_CELLS // N)``
#: lanes, so no unit costs more memory or step time than one
#: 1000-sender solo run (measured in docs/PERFORMANCE.md).
FLUID_UNIT_CELLS = 1024


def fluid_shape(task: SimTask) -> Tuple:
    """What every lane of one fluid unit shares: the config minus its
    sender population (kinds and deltas), the sender count, and the
    duration — everything that fixes the time step, lag lines and
    capacity arrays."""
    shape = {key: value for key, value in task.config.items()
             if key not in ("sender_kinds", "deltas")}
    return (json.dumps(shape, sort_keys=True, separators=(",", ":")),
            len(task.config["sender_kinds"]), task.duration_s)


def group_tasks(tasks: Sequence[SimTask]) -> List[List[int]]:
    """Split ``tasks`` into execution units (lists of task indices).

    Every packet task is a unit of its own, in task order.  Fluid tasks
    follow, grouped by :func:`fluid_shape` — whatever their schemes,
    rule tables and seeds — into units of at most
    ``max(1, FLUID_UNIT_CELLS // senders)`` lanes, each evaluable by a
    single vectorized :func:`~repro.sim.fluid.simulate_fluid` call.
    Workers run and acknowledge unit by unit, which is what gives the
    dispatchers their per-task heartbeat.
    """
    units: List[List[int]] = []
    fluid: Dict[Tuple, List[int]] = {}
    for i, task in enumerate(tasks):
        if task.backend != "fluid":
            units.append([i])
            continue
        fluid.setdefault(fluid_shape(task), []).append(i)
    for (_, senders, _), members in fluid.items():
        cap = max(1, FLUID_UNIT_CELLS // senders)
        units.extend(members[lo:lo + cap]
                     for lo in range(0, len(members), cap))
    return units


def run_task_group(tasks: Sequence[SimTask]) -> List[SimTaskResult]:
    """Execute a batch of tasks, vectorizing fluid lanes.

    Packet tasks run one at a time through :func:`run_sim_task`.  The
    fluid tasks of one :func:`group_tasks` unit become the lanes of a
    single :func:`~repro.sim.fluid.simulate_fluid` call.  Because the
    fluid integrator is lane-invariant (elementwise across lanes), the
    grouped results are bitwise-identical to running each task alone,
    so every executor may route through here without weakening the
    determinism contract.
    """
    from ..core.scenario import NetworkConfig
    from ..remy.compiled import compiled_from_json
    from ..remy.tree import WhiskerTree

    results: List[Optional[SimTaskResult]] = [None] * len(tasks)
    for indices in group_tasks(tasks):
        first = tasks[indices[0]]
        if first.backend != "fluid":
            results[indices[0]] = run_sim_task(first)
            continue
        from ..sim import fluid
        parsed: Dict[str, WhiskerTree] = {}
        lanes = []
        for i in indices:
            trees: Dict[str, WhiskerTree] = {}
            for kind, text in tasks[i].trees:
                if text not in parsed:
                    tree = WhiskerTree.from_json(text)
                    tree.adopt_compiled(compiled_from_json(text))
                    parsed[text] = tree
                trees[kind] = parsed[text]
            config = NetworkConfig.from_dict(tasks[i].config)
            lanes.append(fluid.FluidLane(config.sender_kinds,
                                         config.deltas, trees,
                                         tasks[i].seed))
        # Looked up on the module at call time: the shared config
        # (first lane's, carrying the unit's sender count) is the
        # positional argument tracers see.
        runs = fluid.simulate_fluid(NetworkConfig.from_dict(first.config),
                                    lanes=lanes,
                                    duration_s=first.duration_s)
        for i, run in zip(indices, runs):
            results[i] = SimTaskResult(run=run)
    return results  # type: ignore[return-value]
