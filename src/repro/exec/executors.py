"""Executors: strategies for running a batch of :class:`SimTask`.

The determinism contract
------------------------
``run_batch`` returns one :class:`~repro.exec.task.SimTaskResult` per
task, *in task order*, and every executor produces bitwise-identical
results for the same batch: a task is a pure function of its fields, so
where it runs (this process, a worker process, or a cache) can never
change the answer.  The Remy optimizer's common-random-numbers
comparisons and the experiment tables both rely on this.

Executors also expose a streaming view, :meth:`Executor.run_iter`,
yielding ``(index, result)`` pairs *as tasks complete* (in any order).
The disk-backed :class:`~repro.exec.store.StoreExecutor` consumes this
to persist each result the moment it exists — which is what makes a
killed sweep resumable from everything it finished, not just from the
batches it completed.

Four strategies ship today:

* :class:`SerialExecutor` — run in-process, in order.  The reference
  implementation the others must match.
* :class:`~repro.exec.supervise.SupervisedExecutor` — cost-packed chunk
  fan-out over supervised local worker processes, with retries,
  timeouts, and quarantine (:mod:`repro.exec.supervise`).
* :class:`~repro.exec.remote.RemoteExecutor` — the same failure
  contract over TCP to worker daemons on other hosts
  (:mod:`repro.exec.remote`).
* :class:`~repro.exec.store.StoreExecutor` — a disk-backed result cache
  wrapping any of the above, keyed by
  :func:`~repro.exec.task.cache_key` (:mod:`repro.exec.store`).

New backends plug in by subclassing :class:`Executor`; callers only
ever see ``run_batch``/``run_iter``.
"""

from __future__ import annotations

import heapq
import multiprocessing
import os
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from ..core.scale import PACKET_BYTES
from .task import (SimTask, SimTaskResult, group_tasks, run_sim_task,
                   run_task_group)

__all__ = ["Executor", "SerialExecutor", "chunk_tasks", "default_jobs",
           "pack_chunks", "task_cost", "unit_cost"]

#: ``progress(done, total)`` — called after each task completes.
ProgressFn = Callable[[int, int], None]


def default_jobs() -> int:
    """A sensible worker count for this machine (always >= 1).

    Uses the process's CPU *affinity* when the platform exposes it:
    in a cgroup-limited container (CI) ``cpu_count()`` reports the
    host's cores, and sizing the pool to that oversubscribes the few
    CPUs the scheduler will actually grant.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        try:
            cpus = len(affinity(0))
        except OSError:
            cpus = multiprocessing.cpu_count()
    else:
        cpus = multiprocessing.cpu_count()
    return max((cpus or 1) - 1, 1)


#: Fluid cost model: wall seconds per integrator step, a fixed part
#: (the ~150 numpy calls every step pays) plus a part per (lane, flow)
#: cell.  Least-squares fit (relative error) to measured
#: ``simulate_fluid`` times of mixed newreno/cubic/dctcp/RemyCC lanes
#: at 10-1000 senders and 1-100 lanes (docs/PERFORMANCE.md).
FLUID_STEP_S = 170e-6
FLUID_CELL_S = 0.27e-6

#: Wall seconds of one packet-engine packet event on the machine the
#: fluid constants were fitted on (~77k packets/s, BENCH_kernel.json's
#: ``newreno_flow``): converts fluid seconds into packet events, so
#: fluid and packet tasks pack against each other on one scale.
PACKET_EVENT_S = 13e-6


def task_cost(task: SimTask) -> float:
    """Expected cost of one task, in simulated packet-events.

    The dominant cost of a pure-Python simulation is the number of
    packet events, which is known *before* running: the task's duration
    (already set via ``Scale.duration_for``) times the bottleneck packet
    rate.  Used to pack dispatch chunks by cost instead of count, so one
    1000 Mbps run doesn't straggle behind a chunk of 1 Mbps runs.  A
    fluid task is priced as a one-lane :func:`unit_cost`.
    """
    if task.backend == "fluid":
        return _fluid_cost(task, 1)
    speeds = (1.0,)
    if isinstance(task.config, dict):
        speeds = task.config.get("link_speeds_mbps") or (1.0,)
    rate_pps = max(speeds) * 1e6 / (8.0 * PACKET_BYTES)
    return max(task.duration_s, 0.0) * max(rate_pps, 1.0)


def _fluid_cost(task: SimTask, lanes: int) -> float:
    """``steps * (FLUID_STEP_S + FLUID_CELL_S * lanes * senders)``, in
    packet events."""
    from ..core.scenario import NetworkConfig
    from ..sim.fluid import fluid_dt

    config = NetworkConfig.from_dict(task.config)
    steps = max(int(round(task.duration_s / fluid_dt(config))), 1)
    cells = lanes * config.num_senders
    return steps * (FLUID_STEP_S + FLUID_CELL_S * cells) / PACKET_EVENT_S


def unit_cost(tasks: Sequence[SimTask]) -> float:
    """Expected cost of one :func:`~repro.exec.task.group_tasks` unit:
    one packet task, or the lanes of one fluid call (whose fixed
    per-step cost is paid once, not once per lane)."""
    if tasks[0].backend == "fluid":
        return _fluid_cost(tasks[0], len(tasks))
    return sum(task_cost(task) for task in tasks)


def pack_chunks(costs: Sequence[float], n_chunks: int) -> List[List[int]]:
    """Partition task indices into at most ``n_chunks`` balanced chunks.

    Greedy LPT (longest processing time first): indices are assigned in
    decreasing cost order to the currently lightest chunk.  Guarantees:

    * every index appears in exactly one chunk, no chunk is empty;
    * the costliest chunk is at most 2x the ideal lower bound
      ``max(sum(costs) / n_chunks, max(costs))`` (the classic
      list-scheduling bound; LPT is in fact within 4/3);
    * fully deterministic — ties break on index, so the same batch
      always packs the same way on every machine.
    """
    n_chunks = max(int(n_chunks), 1)
    if not costs:
        return []
    order = sorted(range(len(costs)), key=lambda i: (-costs[i], i))
    heap: List[Tuple[float, int]] = [
        (0.0, j) for j in range(min(n_chunks, len(costs)))]
    chunks: List[List[int]] = [[] for _ in heap]
    for i in order:
        load, j = heapq.heappop(heap)
        chunks[j].append(i)
        heapq.heappush(heap, (load + max(costs[i], 0.0), j))
    # Zero-cost ties can starve a chunk; empties carry no work, drop
    # them rather than ship them to a worker.
    return [sorted(chunk) for chunk in chunks if chunk]


def chunk_tasks(tasks: Sequence[SimTask], jobs: int,
                chunk_size: Optional[int] = None) -> List[List[int]]:
    """The dispatch layout of one batch over ``jobs`` workers.

    Chunks are made of whole :func:`~repro.exec.task.group_tasks`
    units — a fluid unit's lanes always travel together, so the worker
    integrates them in one call.  By default units are *cost-packed*
    (:func:`pack_chunks` over :func:`unit_cost`) into ~4 chunks per
    worker, balanced by expected cost rather than count — a
    heterogeneous sweep (or the cache-miss remainder of a resumed one)
    can't degenerate into one straggler chunk holding all the expensive
    runs.  An explicit ``chunk_size`` opts into count-based chunks of
    consecutive units, each at most ``chunk_size`` tasks unless one
    unit alone is larger (a test seam for pinning exact chunk
    boundaries).  Packet tasks are one unit each, so a packet-only
    batch chunks exactly as it would task by task.
    """
    units = group_tasks(tasks)
    if chunk_size is not None:
        size = max(chunk_size, 1)
        chunks: List[List[int]] = []
        for unit in units:
            if chunks and len(chunks[-1]) + len(unit) <= size:
                chunks[-1].extend(unit)
            else:
                chunks.append(list(unit))
        return [sorted(chunk) for chunk in chunks]
    n_chunks = min(len(units), jobs * 4)
    costs = [unit_cost([tasks[i] for i in unit]) for unit in units]
    return [sorted(i for u in chunk for i in units[u])
            for chunk in pack_chunks(costs, n_chunks)]


class Executor:
    """Interface: run task batches, optionally report progress.

    Executors are context managers; ``close()`` releases any worker
    state and is always safe to call (idempotent, including on
    executors that never ran anything).
    """

    def run_batch(self, tasks: Sequence[SimTask],
                  progress: Optional[ProgressFn] = None
                  ) -> List[SimTaskResult]:
        raise NotImplementedError

    def run_iter(self, tasks: Sequence[SimTask]
                 ) -> Iterator[Tuple[int, SimTaskResult]]:
        """Yield ``(task index, result)`` as tasks complete, any order.

        The streaming counterpart of :meth:`run_batch`, consumed by
        wrappers that act on each result as soon as it exists (the disk
        store persists per result, so a crash loses at most the tasks
        still in flight).  The default buffers one blocking
        ``run_batch``; executors that can genuinely stream override it.
        """
        yield from enumerate(self.run_batch(list(tasks)))

    def _collect(self, tasks: Sequence[SimTask],
                 progress: Optional[ProgressFn]) -> List[SimTaskResult]:
        """``run_batch`` in terms of :meth:`run_iter`: reorder to task
        order, fire ``progress`` once per completed task."""
        tasks = list(tasks)
        results: List[Optional[SimTaskResult]] = [None] * len(tasks)
        done = 0
        stream = self.run_iter(tasks)
        try:
            for i, result in stream:
                results[i] = result
                done += 1
                if progress is not None:
                    progress(done, len(tasks))
        finally:
            # Close the generator *now*, not at GC time: run_iter
            # implementations reap worker processes in their except/
            # finally blocks, and a progress callback that raises must
            # not leave that cleanup pending on the collector.
            stream.close()
        return results  # type: ignore[return-value]

    def close(self) -> None:
        """Release workers/state.  Default: nothing to release."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialExecutor(Executor):
    """Run every task in the calling process, in order."""

    def run_iter(self, tasks: Sequence[SimTask]
                 ) -> Iterator[Tuple[int, SimTaskResult]]:
        tasks = list(tasks)
        fluid = [i for i, task in enumerate(tasks)
                 if task.backend == "fluid"]
        for i, task in enumerate(tasks):
            if task.backend != "fluid":
                yield i, run_sim_task(task)
        if fluid:
            # One vectorized call per unit of lanes; lane invariance
            # makes this bitwise-identical to running each task alone.
            yield from zip(fluid,
                           run_task_group([tasks[i] for i in fluid]))

    def run_batch(self, tasks: Sequence[SimTask],
                  progress: Optional[ProgressFn] = None
                  ) -> List[SimTaskResult]:
        return self._collect(tasks, progress)
