"""Workload-independent helpers of the end-to-end benchmark.

Everything here is pure bookkeeping around the public ``repro`` API:
timing an executor from outside, recording spans around layer
boundaries, summarizing latency samples, canonical digests, and the
correctness gate.  ``run.py`` drives it; ``test_e2e_bench.py`` pins the
rules it implements.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from repro.exec import Executor, SerialExecutor, SimTask, SimTaskResult
from repro.exec.store import encode_result

#: The tail percentile must leave at least this many samples beyond it.
TAIL_SAMPLES = 10

#: Iterations of the calibration loop, and the loop's time on the
#: reference machine (README.md, "Steadiness").
SPIN_ITERATIONS = 400_000
REFERENCE_SPIN_S = 0.050


def spin_s(iterations: int = SPIN_ITERATIONS) -> float:
    """Seconds one fixed pure-Python loop takes right now.

    The loop is this file's own code, so no change to the program under
    test can change it: it measures only how fast the machine runs the
    interpreter at the moment."""
    start = time.perf_counter()
    acc = 0
    table = {}
    for i in range(iterations):
        acc = (acc * 31 + i) & 0xFFFF
        table[acc & 255] = i
    return time.perf_counter() - start


def calibration_s(processes: int) -> float:
    """Mean :func:`spin_s` of ``processes`` loops run at once, so the
    machine is loaded the way a pool of that many workers loads it."""
    pool = multiprocessing.get_context("fork").Pool(processes)
    try:
        times = pool.map(spin_s, [SPIN_ITERATIONS] * processes,
                         chunksize=1)
    finally:
        pool.close()
        pool.join()
    return sum(times) / len(times)


# ----------------------------------------------------------------------
# Latency summaries
# ----------------------------------------------------------------------
def tail_percentile(values: Sequence[float],
                    beyond: int = TAIL_SAMPLES
                    ) -> Optional[Tuple[float, float, int]]:
    """The highest percentile with at least ``beyond`` samples above it.

    With ``n`` samples sorted ascending, that is the order statistic of
    rank ``n - beyond`` (1-based): exactly ``beyond`` samples lie
    beyond it, and any higher rank would leave fewer.  Returns
    ``(percentile, value, n)`` with ``percentile = 100 * rank / n``, or
    ``None`` when the sample has ``beyond`` or fewer values — then no
    percentile has enough samples beyond it to be worth reporting.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = n - beyond
    if rank < 1:
        return None
    return 100.0 * rank / n, ordered[rank - 1], n


def barrier_tail_s(completions: Sequence[float], workers: int) -> float:
    """Time a batch spends with fewer tasks left than workers.

    ``completions`` are per-task completion times measured from batch
    submission.  Once fewer than ``workers`` tasks remain, at least one
    worker idles until the batch's slowest task returns; that wait is
    the barrier tail.  A batch smaller than the pool idles from the
    start.
    """
    if not completions:
        return 0.0
    ordered = sorted(completions)
    n = len(ordered)
    start = ordered[n - workers] if n >= workers else 0.0
    return ordered[-1] - start


# ----------------------------------------------------------------------
# Canonical digests
# ----------------------------------------------------------------------
def _jsonable(value: object) -> object:
    try:
        return float(value)     # numpy scalars
    except (TypeError, ValueError):
        raise TypeError(f"cannot digest {type(value).__name__}") from None


def canonical_json(value: object) -> str:
    """JSON with sorted keys and fixed separators: two structures that
    differ only in dict key order serialize to the same text."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      default=_jsonable)


def digest(value: object) -> str:
    """SHA-256 of :func:`canonical_json` — short enough to print."""
    return hashlib.sha256(canonical_json(value).encode()).hexdigest()


def result_digest(result: SimTaskResult) -> str:
    """Digest of one task result in the result store's own encoding."""
    return digest(encode_result(result))


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
@dataclass
class Span:
    """One timed call across a layer boundary."""

    sid: int
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    rid: Optional[str] = None               # request id: task fingerprint
    counts: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"id": self.sid, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "rid": self.rid,
                "counts": self.counts}


class Tracer:
    """In-memory span recorder for single-threaded, in-process runs.

    Spans nest by call order: a span opened while another is open is
    its child and inherits its request id unless given one.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._clock = clock

    def open(self, name: str, rid: Optional[str] = None) -> Span:
        parent = self._stack[-1] if self._stack else None
        if rid is None and parent is not None:
            rid = parent.rid
        span = Span(len(self.spans), name, self._clock(),
                    parent=None if parent is None else parent.sid, rid=rid)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self._clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    def wrap(self, fn: Callable, name: str,
             rid_of: Optional[Callable[..., str]] = None,
             count: Optional[Callable[..., Dict[str, object]]] = None
             ) -> Callable:
        """``fn`` with a span around every call.

        ``rid_of(*args)`` names the request; ``count(result, *args)``
        returns counters recorded on the span after the call."""
        def traced(*args, **kwargs):
            span = self.open(name, rid_of(*args) if rid_of else None)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(span)
            if count is not None:
                span.counts.update(count(out, *args, **kwargs))
            return out

        traced.__wrapped__ = fn
        return traced

    def write(self, path: str) -> None:
        """Write every span as one JSON line (called once, at the end)."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict(), sort_keys=True) + "\n")


def _covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Per span: its duration minus the time its children cover."""
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out: Dict[int, float] = {}
    for span in spans:
        covered = _covered(
            (max(child.start, span.start), min(child.end, span.end))
            for child in children[span.sid])
        out[span.sid] = (span.end - span.start) - covered
    return out


def self_time_by_name(spans: Sequence[Span]) -> Dict[str, float]:
    """Self time summed per span name."""
    own = self_times(spans)
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.name] += own[span.sid]
    return dict(totals)


# ----------------------------------------------------------------------
# Timing an executor from outside
# ----------------------------------------------------------------------
@dataclass
class BatchRecord:
    """One ``run_batch`` call seen by :class:`TimedExecutor`."""

    completions: List[float]          # per task, seconds after submission
    tasks: List[SimTask]
    results: List[SimTaskResult]


class TimedExecutor(Executor):
    """Pass-through executor recording what the caller waits for.

    The benchmark hands this to the public entry points through their
    ``executor=`` parameter.  Each batch keeps its submission time, one
    completion timestamp per task (from the inner executor's progress
    callback), and its tasks and results for the correctness gate.
    With a :class:`Tracer` attached, every batch is also an
    ``exec.run_batch`` span.
    """

    def __init__(self, inner: Executor, tracer: Optional[Tracer] = None,
                 clock: Callable[[], float] = time.perf_counter):
        self.inner = inner
        self.tracer = tracer
        self.batches: List[BatchRecord] = []
        self._clock = clock

    def run_batch(self, tasks: Sequence[SimTask], progress=None
                  ) -> List[SimTaskResult]:
        tasks = list(tasks)
        clock = self._clock
        stamps: List[float] = []

        def on_progress(done: int, total: int) -> None:
            stamps.append(clock())
            if progress is not None:
                progress(done, total)

        span = self.tracer.open("exec.run_batch") if self.tracer else None
        submitted = clock()
        try:
            results = self.inner.run_batch(tasks, progress=on_progress)
        finally:
            if span is not None:
                self.tracer.close(span)
        self.batches.append(BatchRecord(
            [t - submitted for t in stamps], tasks, list(results)))
        return results

    def close(self) -> None:
        self.inner.close()

    # -- views --------------------------------------------------------
    def pairs(self) -> List[Tuple[SimTask, SimTaskResult]]:
        """Every (task, result) in submission order."""
        return [pair for batch in self.batches
                for pair in zip(batch.tasks, batch.results)]

    def completions(self) -> List[float]:
        return [t for batch in self.batches for t in batch.completions]

    def barrier_tail_s(self, workers: int) -> float:
        return sum(barrier_tail_s(batch.completions, workers)
                   for batch in self.batches)


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------
def sample_positions(n: int, k: int = 5) -> List[int]:
    """``k`` fixed, evenly spread positions in ``range(n)``."""
    if n <= 0:
        return []
    return sorted({round(i * (n - 1) / max(k - 1, 1)) for i in range(k)})


def serial_mismatches(pairs: Sequence[Tuple[SimTask, SimTaskResult]]
                      ) -> List[str]:
    """Re-run each task alone, in-process, and name those whose result
    differs.

    The execution layer promises that where a task runs never changes
    its result, bit for bit; a pooled result that differs from the
    serial reference is a correctness failure, not noise.  Each task
    is its own batch, so the reference never depends on which other
    tasks happen to be in the sample."""
    bad = []
    with SerialExecutor() as serial:
        for task, pooled in pairs:
            again = serial.run_batch([task])[0]
            if not pooled.ok or result_digest(pooled) != result_digest(again):
                bad.append(task.fingerprint())
    return bad


def capacity_violations(pairs: Sequence[Tuple[SimTask, SimTaskResult]]
                        ) -> List[str]:
    """Tasks that delivered more bytes than the bottleneck can carry.

    Bound: the slowest configured link's rate times the run's duration
    (fluid results round each flow to whole bytes, hence one byte of
    slack per flow)."""
    bad = []
    for task, result in pairs:
        if not result.ok:
            continue
        run = result.run
        rate_bps = min(task.config["link_speeds_mbps"]) * 1e6
        capacity = rate_bps / 8.0 * run.duration_s
        delivered = sum(flow.delivered_bytes for flow in run.flows)
        if delivered > capacity * (1 + 1e-9) + len(run.flows):
            bad.append(task.fingerprint())
    return bad
