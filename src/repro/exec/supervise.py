"""Supervised fault-tolerant execution.

:class:`SupervisedExecutor` fans batches out over worker processes the
supervisor actually *watches*.  A bare process pool has three failure
modes that each kill a whole campaign: a task exception unwinds the
batch, a worker SIGKILLed by the OOM killer wedges the pool forever,
and a hung task stalls its chunk with no deadline.  Here every one of
those degrades to a structured, bounded, per-task outcome:

* **In-task exceptions** come back as messages, are retried up to
  ``RetryPolicy.max_retries`` with exponential backoff, and finally
  become a :class:`~repro.exec.task.TaskFailure` — either raised as
  :class:`TaskFailedError` (``on_failure="raise"``, the default) or
  yielded as a ``SimTaskResult(failure=...)`` variant so the rest of
  the batch completes (``on_failure="quarantine"``).
* **Worker death** is detected by EOF on the worker's result pipe (the
  per-task result messages double as heartbeats/acks).  The lost
  assignment's unacknowledged tasks are resubmitted with **bisection**:
  halves keep splitting until the poison task is alone, so it is
  isolated in at most ``log2(chunk)`` resubmissions while every
  innocent chunk-mate completes.  A singleton that kills its worker
  *after* bisection has proved itself poison and is failed immediately
  rather than fed more workers.
* **Hangs** are bounded by per-task wall-clock budgets derived from
  :func:`~repro.exec.executors.task_cost` (or a flat
  ``--task-timeout``).  A worker that blows its remaining budget is
  killed and its tasks retried; a task that keeps timing out degrades
  gracefully to one in-process serial attempt before being failed.

These rules live in one place, the transport-independent dispatch core
(:class:`_Dispatch`); :class:`SupervisedExecutor` and
:class:`~repro.exec.remote.RemoteExecutor` only move assignments to
their workers and messages back.

The determinism contract survives all of it: a task is a pure function
of its fields, so *which* attempt produced a result cannot change the
result.  Under any injected fault schedule (:mod:`repro.exec.faults`),
every completed result is bitwise-identical to a fault-free serial run
— pinned by the golden digests and the chaos suite.
"""

from __future__ import annotations

import argparse
import dataclasses
import heapq
import itertools
import multiprocessing
import time
import traceback
from dataclasses import dataclass
from multiprocessing.connection import wait as _wait
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from . import faults
from .executors import (Executor, ProgressFn, chunk_tasks, default_jobs,
                        task_cost)
from .task import (SimTask, SimTaskResult, TaskFailure, cache_key,
                   group_tasks, run_task_group)

__all__ = ["RetryPolicy", "SupervisedExecutor", "SuperviseStats",
           "TaskFailedError", "add_fault_tolerance_arguments",
           "policy_from_args"]

#: Supervisor poll tick: bounds how stale the liveness/deadline view
#: can get.  Results still stream back the moment they arrive (the
#: multiplexed wait returns early on any readable pipe).
_TICK_S = 0.05

#: How long to wait for a worker's trailing "done" after its last
#: result before writing the worker off and recycling it.
_SETTLE_S = 5.0


class TaskFailedError(RuntimeError):
    """A task exhausted its retries under ``on_failure="raise"``.

    ``failures`` is a list of ``(fingerprint, TaskFailure)`` pairs —
    usually one, but consumers that collect failures batch-wide (the
    experiment runner under quarantine) reuse this type.
    """

    def __init__(self, failures: Sequence[Tuple[str, TaskFailure]]):
        self.failures = list(failures)
        key, failure = self.failures[0]
        more = (f" (+{len(self.failures) - 1} more)"
                if len(self.failures) > 1 else "")
        super().__init__(
            f"task {key[:12]} failed [{failure.kind}] after "
            f"{failure.attempts} attempt(s): {failure.message}{more}")


@dataclass(frozen=True)
class RetryPolicy:
    """How the supervisor reacts to failures.

    Timeouts: a task's wall-clock budget is ``task_timeout_s`` when
    set, else ``min_timeout_s + seconds_per_event * task_cost(task)``
    — proportional to the work the task is *known* to contain, so a
    1000 Mbps run is not killed on a budget sized for 1 Mbps ones.
    An assignment's deadline is the slack plus the sum of its
    unacknowledged tasks' budgets (each ack extends the deadline).

    ``on_failure``: ``"raise"`` aborts the batch with
    :class:`TaskFailedError` once a task is out of retries;
    ``"quarantine"`` yields the failure as a result variant so the
    batch completes and the store records the poison fingerprint.
    """

    max_retries: int = 2
    task_timeout_s: Optional[float] = None
    min_timeout_s: float = 60.0
    seconds_per_event: float = 1e-4
    timeout_slack_s: float = 5.0
    backoff_base_s: float = 0.25
    backoff_factor: float = 2.0
    backoff_max_s: float = 10.0
    on_failure: str = "raise"
    serial_fallback: bool = True

    def __post_init__(self):
        if self.on_failure not in ("raise", "quarantine"):
            raise ValueError(f"on_failure must be 'raise' or "
                             f"'quarantine', got {self.on_failure!r}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, "
                             f"got {self.max_retries}")

    def timeout_for(self, task: SimTask) -> float:
        if self.task_timeout_s is not None:
            return self.task_timeout_s
        return self.min_timeout_s + self.seconds_per_event * task_cost(task)

    def backoff_for(self, attempt: int) -> float:
        return min(self.backoff_base_s
                   * self.backoff_factor ** max(attempt - 1, 0),
                   self.backoff_max_s)


@dataclass
class SuperviseStats:
    """Cumulative counters, mostly for the chaos tests and logs."""

    retries: int = 0            # single-task retries (exception/timeout)
    worker_deaths: int = 0      # workers that died mid-assignment
    timeouts: int = 0           # assignments killed on deadline
    bisections: int = 0         # crash-triggered chunk splits
    resubmissions: int = 0      # assignments requeued after a crash
    serial_fallbacks: int = 0   # in-process last-resort executions
    quarantined: int = 0        # tasks finalized as failure results


def _send(conn, message) -> bool:
    """Send to the supervisor; False means it is gone — stop working."""
    try:
        conn.send(message)
        return True
    except (BrokenPipeError, OSError):
        return False


def _run_units(tasks: Sequence[SimTask], attempt: int, injector=None
               ) -> Iterator[Tuple[int, Optional[SimTaskResult],
                                   Optional[Tuple[str, str, str]]]]:
    """Run one assignment's tasks unit by unit (both transports' worker
    side), yielding ``(j, result, None)`` or ``(j, None, (error_type,
    message, traceback))`` for each task ``j`` as its unit completes.

    Each task's scheduled in-task fault (``injector``) fires just
    before its unit runs.  A unit of several tasks that raises is
    re-run one member at a time, so the exception is reported only for
    the member(s) that raise alone — an innocent unit-mate of a poison
    task still returns its result (bitwise equal to a solo run, by
    lane invariance) instead of sharing the failure.
    """
    def run(unit: List[int]) -> List[SimTaskResult]:
        if injector is not None:
            for j in unit:
                injector.on_task(cache_key(tasks[j]), attempt)
        return run_task_group([tasks[j] for j in unit])

    for unit in group_tasks(tasks):
        try:
            outs = run(unit)
        except Exception as error:
            detail = (type(error).__name__, str(error),
                      traceback.format_exc())
        else:
            yield from ((j, out, None) for j, out in zip(unit, outs))
            continue
        if len(unit) == 1:
            yield unit[0], None, detail
            continue
        for j in unit:
            try:
                out = run([j])[0]
            except Exception as error:
                yield j, None, (type(error).__name__, str(error),
                                traceback.format_exc())
            else:
                yield j, out, None


def _worker_main(inbox, results) -> None:
    """Worker loop: run assignments, ack per task, report exceptions.

    Message protocol (worker -> supervisor), all tagged with the
    assignment id so stale messages from an abandoned assignment are
    discarded:

    * ``("result", aid, pos, SimTaskResult)`` — one task done; doubles
      as the heartbeat/ack that extends the assignment's deadline.
    * ``("failure", aid, pos, (error_type, message, traceback))`` — the
      task raised; structured, never a pickled exception object (which
      may itself fail to unpickle).
    * ``("done", aid)`` — assignment finished, worker is idle.

    Tasks run unit by unit (:func:`_run_units`), not as one call per
    assignment, so every task is acknowledged as it completes and a
    crash never loses already-finished work.
    """
    faults.mark_worker_process()
    try:
        injector = faults.injector_from_env()
    except ValueError:
        injector = None
    while True:
        try:
            message = inbox.get()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if message is None:
            return
        aid, attempt, positions, tasks = message
        for j, out, detail in _run_units(tasks, attempt, injector):
            reply = (("result", aid, positions[j], out) if detail is None
                     else ("failure", aid, positions[j], detail))
            if not _send(results, reply):
                return
        if not _send(results, ("done", aid)):
            return


class _WorkerHandle:
    """One supervised worker process plus its two channels."""

    __slots__ = ("wid", "inbox", "results", "process", "broken")

    def __init__(self, ctx, wid: int):
        self.wid = wid
        self.inbox = ctx.SimpleQueue()
        # duplex=False: (receive end, send end).  The supervisor closes
        # its copy of the send end, so worker death reads as EOF on
        # `results` instead of a silent hang.
        self.results, send = ctx.Pipe(duplex=False)
        self.process = ctx.Process(
            target=_worker_main, args=(self.inbox, send),
            name=f"repro-supervised-{wid}", daemon=True)
        self.process.start()
        send.close()
        self.broken = False        # EOF/error seen on `results`

    def reap(self) -> None:
        """Kill (if needed), join, and release both channels."""
        try:
            self.process.kill()
        except (OSError, ValueError, AttributeError):
            pass
        self.process.join(timeout=5.0)
        try:
            self.results.close()
        except OSError:
            pass
        close_inbox = getattr(self.inbox, "close", None)
        if close_inbox is not None:
            try:
                close_inbox()
            except OSError:
                pass


# ----------------------------------------------------------------------
# The dispatch core: the failure contract, independent of transport.


class _Assignment:
    """A set of task positions dispatched (or queued) as one message."""

    __slots__ = ("aid", "positions", "attempt")

    def __init__(self, aid: int, positions: List[int], attempt: int):
        self.aid = aid
        self.positions = positions
        self.attempt = attempt


class _Lease:
    """One in-flight assignment and the worker it was dispatched to.

    The deadline is the lease: the policy's slack plus the budgets of
    the still-unacknowledged tasks.  Every per-task message is an ack
    that shrinks the budget and pushes the deadline out.  ``worker`` is
    whatever the transport dispatched to (a worker process handle, a
    connection).
    """

    __slots__ = ("assignment", "worker", "unacked", "budget", "deadline",
                 "done")

    def __init__(self, assignment: _Assignment, worker, budget: float,
                 deadline: float):
        self.assignment = assignment
        self.worker = worker
        self.unacked: Set[int] = set(assignment.positions)
        self.budget = budget
        self.deadline = deadline
        self.done = False


class _Dispatch:
    """The failure contract for one batch, shared by every transport.

    Owns which tasks are still owed (``pending``), the tries and
    crash-resubmissions each has consumed, the ``ready`` heap of
    assignments waiting for a worker (by ready time, then aid), and the
    results and failures waiting to reach the caller.  Retry with
    backoff, bisection, proven-poison, serial fallback, and
    quarantine-or-raise are all decided here, so a local worker pool
    and a fleet of TCP daemons fail identically.

    A transport only moves work: it pops due assignments with
    :meth:`next_ready`, wraps each one it dispatches in :meth:`lease`,
    feeds every worker message to :meth:`on_message`, reports a dead or
    silent worker with :meth:`on_lost`, and yields :meth:`flush` after
    each round.  ``aids`` is the executor's assignment-id counter, so
    ids stay unique across its batches and a late message from an
    abandoned batch can never match a live lease.  ``stats`` needs the
    ``retries``, ``bisections``, ``resubmissions``,
    ``serial_fallbacks``, and ``quarantined`` counters.
    """

    def __init__(self, tasks: List[SimTask], chunks: List[List[int]],
                 policy: RetryPolicy, stats, aids: Iterator[int]):
        self.tasks = tasks
        self.policy = policy
        self.stats = stats
        self._aids = aids
        self.timeouts = [policy.timeout_for(task) for task in tasks]
        self.pending: Set[int] = set(range(len(tasks)))
        self.attempts: Dict[int, int] = {}     # per-task tries consumed
        self.resubmits: Dict[int, int] = {}    # crash-resubmission depth
        self.ready: List[Tuple[float, int, _Assignment]] = []
        self._emitted: List[Tuple[int, SimTaskResult]] = []
        self._fatal: List[Tuple[str, TaskFailure]] = []
        for chunk in chunks:
            self.enqueue(chunk, 0, 0.0)

    # -- queueing ---------------------------------------------------------

    def assignment(self, positions: Sequence[int],
                   attempt: int) -> _Assignment:
        return _Assignment(next(self._aids), list(positions), attempt)

    def enqueue(self, positions: Sequence[int], attempt: int,
                ready_at: float) -> None:
        self.requeue(self.assignment(positions, attempt), ready_at)

    def requeue(self, assignment: _Assignment, ready_at: float) -> None:
        heapq.heappush(self.ready, (ready_at, assignment.aid, assignment))

    def due(self, now: float) -> bool:
        return bool(self.ready) and self.ready[0][0] <= now

    def next_ready(self, now: float) -> Optional[_Assignment]:
        """Pop the next assignment due by ``now``, trimmed to the tasks
        still owed; ``None`` when nothing is due."""
        while self.due(now):
            _, _, assignment = heapq.heappop(self.ready)
            positions = [pos for pos in assignment.positions
                         if pos in self.pending]
            if positions:
                assignment.positions = positions
                return assignment
        return None

    def lease(self, assignment: _Assignment, now: float,
              worker) -> _Lease:
        budget = sum(self.timeouts[pos] for pos in assignment.positions)
        return _Lease(assignment, worker, budget,
                      now + self.policy.timeout_slack_s + budget)

    # -- outcomes ---------------------------------------------------------

    def _complete(self, pos: int, result: SimTaskResult) -> None:
        self.pending.discard(pos)
        self._emitted.append((pos, result))

    def _consume(self, pos: int) -> int:
        count = self.attempts.get(pos, 0) + 1
        self.attempts[pos] = count
        return count

    def _retry(self, pos: int, count: int, now: float) -> bool:
        """Requeue a lone retry after backoff, if tries are left."""
        if count > self.policy.max_retries:
            return False
        self.stats.retries += 1
        self.enqueue([pos], count, now + self.policy.backoff_for(count))
        return True

    def _finalize(self, pos: int, failure: TaskFailure) -> None:
        """Out of options for this task: quarantine or abort."""
        if pos not in self.pending:
            return
        failure = dataclasses.replace(
            failure, resubmissions=self.resubmits.get(pos, 0))
        if self.policy.on_failure == "quarantine":
            self.stats.quarantined += 1
            self._complete(pos, SimTaskResult(failure=failure))
        else:
            self.pending.discard(pos)
            self._fatal.append((cache_key(self.tasks[pos]), failure))

    def on_message(self, lease: Optional[_Lease], msg) -> None:
        """Apply one worker message to ``lease``.

        Messages arrive over pipes or the network, so their shape is
        checked here for every transport: anything but a
        ``("done", aid)``, ``("result", aid, pos, result)``, or
        ``("failure", aid, pos, detail)`` tuple for the lease's own
        assignment is ignored — stale messages from an abandoned
        assignment included.
        """
        if lease is None or not (isinstance(msg, tuple) and len(msg) >= 2):
            return
        kind, aid = msg[0], msg[1]
        if aid != lease.assignment.aid:
            return                    # stale: abandoned assignment
        if kind == "done":
            lease.done = True
            return
        if kind not in ("result", "failure") or len(msg) < 4:
            return
        pos = msg[2]
        if pos in lease.unacked:
            # The ack is the heartbeat: shrink the remaining budget and
            # push the deadline out for what's left.
            lease.unacked.discard(pos)
            lease.budget -= self.timeouts[pos]
            lease.deadline = (time.monotonic() + self.policy.timeout_slack_s
                              + max(lease.budget, 0.0))
        if pos not in self.pending:
            return      # a duplicate: kill race or speculative copy
        if kind == "result":
            self._complete(pos, msg[3])
            return
        error_type, message, tb = msg[3]
        count = self._consume(pos)
        if not self._retry(pos, count, time.monotonic()):
            self._finalize(pos, TaskFailure(
                kind="exception",
                message=f"task raised {error_type}: {message}",
                attempts=count, error_type=error_type, traceback=tb))

    def on_lost(self, lease: _Lease, kind: str, now: float) -> None:
        """``lease``'s worker died or dropped its connection
        (``"worker-death"``), or went silent past its deadline
        (``"timeout"``): recover its unacknowledged tasks."""
        lost = [pos for pos in lease.assignment.positions
                if pos in lease.unacked and pos in self.pending]
        if not lost:
            return
        if len(lost) > 1:
            # Bisection: whichever half holds the poison crashes again
            # and splits again; the other half completes.  attempt+1 so
            # seeded *transient* faults (attempt-0 only) don't re-fire
            # down the lineage.
            self.stats.bisections += 1
            self.stats.resubmissions += 2
            for pos in lost:
                self.resubmits[pos] = self.resubmits.get(pos, 0) + 1
            mid = (len(lost) + 1) // 2
            for part in (lost[:mid], lost[mid:]):
                self.enqueue(part, lease.assignment.attempt + 1, now)
            return
        pos = lost[0]
        count = self._consume(pos)
        if kind == "worker-death" and lease.assignment.attempt > 0:
            # A bisection-isolated singleton that still takes its worker
            # down is proven poison: fail it now instead of burning
            # max_retries more workers on it.
            self._finalize(pos, TaskFailure(
                kind="worker-death", attempts=count,
                message="worker lost while running this task "
                        "(isolated by bisection)"))
            return
        if self._retry(pos, count, now):
            self.stats.resubmissions += 1
            self.resubmits[pos] = self.resubmits.get(pos, 0) + 1
            return
        if kind == "timeout" and self.policy.serial_fallback:
            # Graceful degradation: workers keep timing out on it, so
            # give the task one undisturbed in-process run (no deadline,
            # no injection — this is the dispatching process).
            self.stats.serial_fallbacks += 1
            try:
                result = run_task_group([self.tasks[pos]])[0]
            except Exception as error:
                self._finalize(pos, TaskFailure(
                    kind="timeout", attempts=count + 1,
                    message=f"timed out {count} time(s); serial "
                            f"fallback raised "
                            f"{type(error).__name__}: {error}",
                    error_type=type(error).__name__,
                    traceback=traceback.format_exc()))
            else:
                self._complete(pos, result)
            return
        what = "timed out" if kind == "timeout" else "lost its worker"
        self._finalize(pos, TaskFailure(
            kind=kind, attempts=count,
            message=f"{what} on every one of {count} attempt(s)"))

    def flush(self) -> Iterator[Tuple[int, SimTaskResult]]:
        """Yield the results completed since the last flush, then raise
        :class:`TaskFailedError` if a task failed under
        ``on_failure="raise"``."""
        emitted, self._emitted = self._emitted, []
        yield from emitted
        if self._fatal:
            raise TaskFailedError(self._fatal)


# ----------------------------------------------------------------------
# The local transport.


class SupervisedExecutor(Executor):
    """Cost-packed fan-out over supervised local worker processes.

    Chunks come from :func:`~repro.exec.executors.chunk_tasks`, results
    stream from :meth:`run_iter` as they complete, and the failure
    semantics in the module docstring are governed by a
    :class:`RetryPolicy`.  This class is only the transport — worker
    processes, their pipes, and the idle pool kept warm across batches;
    the failure contract itself lives in :class:`_Dispatch`.
    """

    def __init__(self, jobs: Optional[int] = None,
                 chunk_size: Optional[int] = None,
                 policy: Optional[RetryPolicy] = None):
        if jobs is not None and jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs or default_jobs()
        self.chunk_size = chunk_size
        self.policy = policy if policy is not None else RetryPolicy()
        self.stats = SuperviseStats()
        self._ctx = multiprocessing.get_context()
        self._idle: List[_WorkerHandle] = []
        self._next_wid = 0
        self._aids = itertools.count(1)

    def run_batch(self, tasks: Sequence[SimTask],
                  progress: Optional[ProgressFn] = None
                  ) -> List[SimTaskResult]:
        return self._collect(tasks, progress)

    # -- worker lifecycle -------------------------------------------------

    def _checkout(self) -> _WorkerHandle:
        if self._idle:
            return self._idle.pop()
        self._next_wid += 1
        return _WorkerHandle(self._ctx, self._next_wid)

    def close(self) -> None:
        # Detach the worker list *first*: a ^C landing mid-teardown
        # leaves nothing double-owned, and a second close() is a no-op.
        workers, self._idle = self._idle, []
        for handle in workers:
            try:
                handle.inbox.put(None)     # graceful: exit the loop
            except (OSError, ValueError):
                pass
        for handle in workers:
            handle.process.join(timeout=1.0)
            handle.reap()

    # -- the supervision loop ---------------------------------------------

    def run_iter(self, tasks: Sequence[SimTask]
                 ) -> Iterator[Tuple[int, SimTaskResult]]:
        tasks = list(tasks)
        if not tasks:
            return
        core = _Dispatch(tasks, chunk_tasks(tasks, self.jobs,
                                            self.chunk_size),
                         self.policy, self.stats, self._aids)
        busy: Dict[int, _Lease] = {}       # wid -> lease (worker=handle)

        def drain(lease: _Lease) -> None:
            handle = lease.worker
            while not handle.broken:
                try:
                    if not handle.results.poll():
                        return
                    msg = handle.results.recv()
                except (EOFError, OSError):
                    handle.broken = True
                    return
                core.on_message(lease, msg)

        try:
            while core.pending and (core.ready or busy):
                now = time.monotonic()
                while len(busy) < self.jobs:
                    assignment = core.next_ready(now)
                    if assignment is None:
                        break
                    handle = self._checkout()
                    handle.inbox.put(
                        (assignment.aid, assignment.attempt,
                         assignment.positions,
                         [tasks[pos] for pos in assignment.positions]))
                    busy[handle.wid] = core.lease(assignment, now, handle)
                conns = [lease.worker.results for lease in busy.values()
                         if not lease.worker.broken]
                if conns:
                    _wait(conns, timeout=_TICK_S)
                else:
                    delay = _TICK_S
                    if core.ready:
                        delay = min(max(core.ready[0][0] - now, 0.0),
                                    _TICK_S)
                    time.sleep(delay)
                for lease in list(busy.values()):
                    drain(lease)
                yield from core.flush()
                now = time.monotonic()
                for wid, lease in list(busy.items()):
                    handle = lease.worker
                    if lease.done:
                        busy.pop(wid)
                        self._idle.append(handle)
                    elif handle.broken or not handle.process.is_alive():
                        drain(lease)      # last-gasp buffered messages
                        busy.pop(wid)
                        handle.reap()
                        self.stats.worker_deaths += 1
                        core.on_lost(lease, "worker-death", now)
                    elif now > lease.deadline:
                        busy.pop(wid)
                        handle.reap()
                        self.stats.timeouts += 1
                        core.on_lost(lease, "timeout", now)
                yield from core.flush()
            # All results are out; collect trailing "done" messages so
            # finishing workers return to the idle pool for the next
            # batch (a slow or wedged one is recycled instead).
            for wid, lease in list(busy.items()):
                handle = lease.worker
                end = time.monotonic() + _SETTLE_S
                while not (lease.done or handle.broken) \
                        and time.monotonic() < end:
                    if handle.results.poll(0.02):
                        drain(lease)
                    elif not handle.process.is_alive():
                        break
                busy.pop(wid)
                if lease.done:
                    self._idle.append(handle)
                else:
                    handle.reap()
        except BaseException:
            # Abort (failure, ^C, or an abandoned generator): workers
            # still running stale assignments must not survive into the
            # next batch, where their task positions would collide.
            for lease in busy.values():
                lease.worker.reap()
            busy.clear()
            raise


def add_fault_tolerance_arguments(parser: argparse.ArgumentParser
                                  ) -> None:
    """The CLI surface of :class:`RetryPolicy`, shared by the scripts."""
    group = parser.add_argument_group("fault tolerance")
    group.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="retries per failing task before giving up (default 2)")
    group.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="flat per-task wall-clock budget; default derives one "
             "from each task's simulated-event cost")
    group.add_argument(
        "--on-failure", choices=("raise", "quarantine"),
        default="raise",
        help="raise: abort the run on the first exhausted task "
             "(default).  quarantine: record the failure, finish "
             "everything else, then exit non-zero naming the "
             "quarantined fingerprints")


def policy_from_args(args: argparse.Namespace) -> RetryPolicy:
    return RetryPolicy(max_retries=args.max_retries,
                       task_timeout_s=args.task_timeout,
                       on_failure=args.on_failure)
