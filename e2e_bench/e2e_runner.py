"""Repetitions, metrics and the report of one benchmark run.

``run.py`` puts the repository's sources on ``sys.path`` and calls
:func:`main`.  A repetition (:func:`run_rep`) is one set-up — a fresh
executor, its warm-up and, for ``sweep_packet``, a fresh result store —
followed by one timed call of the workload and the executor's
shutdown, so every repetition pays and measures its own set-up.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Dict, List, Sequence, Tuple

import numpy

from e2e_harness import (REFERENCE_SPIN_S, TAIL_SAMPLES, TimedExecutor,
                         Tracer, calibration_s, capacity_violations,
                         digest, result_digest, sample_positions,
                         serial_mismatches, tail_percentile)
from e2e_layers import installed, layer_metrics
from e2e_workloads import POOL_SIZE, WORKLOADS
from repro.core.scenario import NetworkConfig
from repro.exec import (SimTask, StoreExecutor, TaskFailedError,
                        executor_for)

#: Modules the workloads import; their import time is part of set-up.
IMPORTS = ("repro.experiments.api", "repro.remy.optimizer",
           "repro.remy.catalog", "repro.sim.fluid", "repro.exec",
           "kernel_workloads")
IMPORT_SAMPLES = 5

#: Timed repetitions per run: at least MIN_REPS, more while the run's
#: seconds last, never more than MAX_REPS.
MIN_REPS = 3
MAX_REPS = 40


def metric_specs(root: str) -> Dict[str, Dict[str, dict]]:
    """``{"end_to_end"|"per_layer": {name: spec}}`` from BENCHMARK.json,
    the one place metric names, units and directions are declared."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    return {kind: {m["name"]: m for m in declared[kind]}
            for kind in ("end_to_end", "per_layer")}


@dataclass
class Rep:
    """One set-up plus one timed call of a workload."""

    setup_s: float
    wall_s: float
    tasks: int
    failed: int
    packets: int
    candidates: int
    completions: List[float]
    barrier_tail_s: float
    parent_cpu_s: float
    worker_cpu_s: float
    digest: str
    retries: int = 0
    store_put_s: float = 0.0
    store_bytes: int = 0
    evaluations: int = 0
    requested: int = 0
    capacity_violations: List[str] = field(default_factory=list)
    sample: list = field(default_factory=list)


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def _dir_bytes(path: str) -> int:
    total = 0
    for base, _, names in os.walk(path):
        for name in names:
            total += os.path.getsize(os.path.join(base, name))
    return total


def _warm_up(pool) -> None:
    """Start every worker of ``pool`` with one tiny task each."""
    config = NetworkConfig(link_speeds_mbps=(1.0,), rtt_ms=10.0,
                           sender_kinds=("newreno",))
    pool.run_batch([SimTask.build(config, seed=k, duration_s=0.05)
                    for k in range(pool.jobs)])


def run_rep(workload, seed: int, jobs: int, out_dir: str,
            tracer: Tracer = None, time_store_puts: bool = False) -> Rep:
    """Set up, run once, tear down; everything timed from outside."""
    children0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    started = time.perf_counter()
    store_dir = None
    if workload.uses_store:
        store_dir = os.path.join(tempfile.mkdtemp(dir=out_dir), "store")
    executor = executor_for(jobs, store=store_dir)
    pool = executor.inner if isinstance(executor, StoreExecutor) \
        else executor
    put_s = [0.0]
    try:
        if jobs > 1:
            _warm_up(pool)
        if time_store_puts and store_dir is not None:
            put = executor.store.put

            def timed_put(key, result):
                t0 = time.perf_counter()
                put(key, result)
                put_s[0] += time.perf_counter() - t0

            executor.store.put = timed_put
        timed = TimedExecutor(executor, tracer=tracer)
        call = workload.prepare(seed, timed, tracer=tracer)
        setup_s = time.perf_counter() - started

        self0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        outcome = call()
        wall_s = time.perf_counter() - t0
        parent_cpu = (_cpu(resource.getrusage(resource.RUSAGE_SELF))
                      - _cpu(self0))
        retries = pool.stats.retries if hasattr(pool, "stats") else 0
    finally:
        executor.close()
    worker_cpu = (_cpu(resource.getrusage(resource.RUSAGE_CHILDREN))
                  - _cpu(children0))
    store_bytes = 0
    if store_dir is not None:
        store_bytes = _dir_bytes(store_dir)
        shutil.rmtree(os.path.dirname(store_dir), ignore_errors=True)

    pairs = timed.pairs()
    failed = sum(1 for _, result in pairs if not result.ok)
    packets = sum(flow.packets_delivered for _, result in pairs
                  if result.ok for flow in result.run.flows)
    rep_digest = digest({
        "outcome": outcome.payload,
        "results": [result_digest(result) if result.ok else "failed"
                    for _, result in pairs]})
    return Rep(setup_s=setup_s, wall_s=wall_s, tasks=len(pairs),
               failed=failed, packets=packets,
               candidates=outcome.candidates,
               completions=timed.completions(),
               barrier_tail_s=timed.barrier_tail_s(jobs),
               parent_cpu_s=parent_cpu, worker_cpu_s=worker_cpu,
               digest=rep_digest, retries=retries,
               store_put_s=put_s[0], store_bytes=store_bytes,
               evaluations=outcome.evaluations,
               requested=outcome.requested,
               capacity_violations=capacity_violations(pairs),
               sample=[pairs[i] for i in sample_positions(len(pairs))])


def import_seconds(root: str) -> float:
    """Median wall time of importing the workload modules in a fresh
    interpreter (this process imports them only once)."""
    paths = [os.path.join(root, "src"), os.path.join(root, "benchmarks")]
    code = ("import sys, time\n"
            f"sys.path[:0] = {paths!r}\n"
            "t = time.perf_counter()\n"
            f"for name in {list(IMPORTS)!r}:\n"
            "    __import__(name)\n"
            "print(time.perf_counter() - t)\n")
    samples = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run([sys.executable, "-c", code], cwd=root,
                             capture_output=True, text=True, check=True,
                             timeout=120)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return median(samples)


def git_commit(root: str) -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(root: str) -> List[str]:
    nproc = len(os.sched_getaffinity(0)) \
        if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return [f"commit: {git_commit(root)}",
            f"python: {platform.python_version()}  "
            f"numpy: {numpy.__version__}",
            f"nproc: {nproc}  pool size: {POOL_SIZE}"]


def peak_rss_mb() -> float:
    """Larger of this process's and its reaped children's peak RSS."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def gate(reps: Sequence[Rep], name: str, lines: List[str],
         repeats: Sequence[Sequence[Rep]] = ()) -> bool:
    """The correctness gate over every repetition of one run.

    Every task succeeded, no result beats the bottleneck, a fixed
    sample of the first repetition's tasks matches an in-process
    re-run, and each group in ``repeats`` (default: all repetitions)
    produced one digest."""
    ok = True
    failed = sum(rep.failed for rep in reps)
    if failed:
        lines.append(f"GATE FAIL: {failed} task(s) failed")
        ok = False
    for group in repeats or [reps]:
        digests = sorted({rep.digest for rep in group})
        if len(digests) != 1:
            lines.append(f"GATE FAIL: repeated runs disagree: {digests}")
            ok = False
    over = [fp for rep in reps for fp in rep.capacity_violations]
    if over:
        lines.append(f"GATE FAIL: {len(over)} result(s) exceed "
                     f"bottleneck capacity, e.g. {over[:3]}")
        ok = False
    mismatched = serial_mismatches(reps[0].sample)
    if mismatched:
        lines.append(f"GATE FAIL: pooled != serial for {mismatched}")
        ok = False
    lines.append(f"gate: {'pass' if ok else 'FAIL'} ({len(reps)} "
                 f"repetition(s), {len(reps[0].sample)} task(s) re-run "
                 f"serially)")
    lines.append(f"result_digest[{name}]: {reps[0].digest}")
    return ok


def timed_runs(workload, seed: int, seconds: float, root: str,
               out_dir: str, specs: Dict[str, dict], lines: List[str]
               ) -> Tuple[bool, int, int, Dict[str, float]]:
    spins = [calibration_s(POOL_SIZE)]
    import_s = import_seconds(root)
    reps: List[Rep] = []
    rss = 0.0
    deadline = time.perf_counter() + seconds
    while len(reps) < MIN_REPS or (time.perf_counter() < deadline
                                   and len(reps) < MAX_REPS):
        reps.append(run_rep(workload, seed, POOL_SIZE, out_dir))
        spins.append(calibration_s(POOL_SIZE))
        if len(reps) == MIN_REPS:
            # Over a fixed number of repetitions, so that a faster
            # machine running more of them does not read as more memory.
            rss = peak_rss_mb()

    tails = [tail_percentile(rep.completions) for rep in reps]
    if None in tails:
        raise RuntimeError(f"a repetition has at most {TAIL_SAMPLES} "
                           f"tasks: no tail percentile")
    pct, _, n = tails[0]
    per_rep = {
        "wall_s": [r.wall_s for r in reps],
        "tasks_per_s": [r.tasks / r.wall_s for r in reps],
        "sim_pkts_per_s": [r.packets / r.wall_s for r in reps],
        "candidates_per_s": [r.candidates / r.wall_s for r in reps],
        "result_p50_s": [median(r.completions) for r in reps],
        "result_tail_s": [tail[1] for tail in tails],
        "cpu_per_task_s": [(r.parent_cpu_s + r.worker_cpu_s) / r.tasks
                           for r in reps],
    }
    raw = {name: median(samples) for name, samples in per_rep.items()}
    raw["setup_s"] = import_s + median([r.setup_s for r in reps])
    # The machine's speed drifts by up to 2x between runs; scale times
    # (and rates, inversely) to the calibration loop's reference speed.
    slowdown = median(spins) / REFERENCE_SPIN_S
    values = {name: value / slowdown if specs[name]["better"] == "lower"
              else value * slowdown for name, value in raw.items()}
    values["peak_rss_mb"] = rss

    attempted = sum(r.tasks for r in reps)
    failed = sum(r.failed for r in reps)
    lines.append(f"repetitions: {len(reps)}  tasks/rep: {reps[0].tasks}  "
                 f"cells-or-trees/rep: {reps[0].candidates}  "
                 f"packets/rep: {reps[0].packets}")
    lines.append(f"calibration loop on {POOL_SIZE} processes: median "
                 f"{median(spins):.5f} s of {len(spins)} (reference "
                 f"{REFERENCE_SPIN_S} s); raw times divided by "
                 f"{slowdown:.4f}, raw rates multiplied")
    lines.append(f"set-up: imports {import_s:.4f} s + per-rep median "
                 f"{median([r.setup_s for r in reps]):.4f} s")
    for name, samples in per_rep.items():
        lines.append(f"  {name} per rep: "
                     + " ".join(f"{v:.4g}" for v in samples))
    lines.append("raw medians: " + "  ".join(
        f"{name} {value:.6g}" for name, value in raw.items()))
    lines.append(f"result_tail_s: p{pct:.2f} of {n} tasks per rep "
                 f"({TAIL_SAMPLES} beyond)")
    lines.append(f"failed_frac: {failed}/{attempted} = "
                 f"{failed / attempted:.4f}")
    correct = gate(reps, workload.name, lines)
    return correct, attempted, failed, values


def traced_runs(workload, seed: int, out_dir: str, lines: List[str]
                ) -> Tuple[bool, int, int, Dict[str, float]]:
    pooled = run_rep(workload, seed, POOL_SIZE, out_dir,
                     time_store_puts=True)
    serial = run_rep(workload, seed, 1, out_dir)
    tracer = Tracer()
    with installed(tracer):
        traced = run_rep(workload, seed, 1, out_dir, tracer=tracer)
    reps = [pooled, serial, traced]
    metrics = layer_metrics(tracer.spans, traced.evaluations,
                            traced.requested)
    metrics.update({
        "exec.busy_frac": pooled.worker_cpu_s
        / (pooled.wall_s * POOL_SIZE),
        "exec.barrier_tail_frac": pooled.barrier_tail_s / pooled.wall_s,
        "exec.retries": float(pooled.retries),
        "exec.store_put_s": pooled.store_put_s,
        "exec.store_bytes_per_task": pooled.store_bytes / pooled.tasks,
        "trace.overhead_frac": traced.wall_s / serial.wall_s - 1.0,
    })
    span_path = os.path.join(out_dir, f"spans-{workload.name}-{seed}.jsonl")
    tracer.write(span_path)
    lines.append(f"wall: pooled {pooled.wall_s:.4f} s, in-process "
                 f"{serial.wall_s:.4f} s, traced in-process "
                 f"{traced.wall_s:.4f} s")
    lines.append(f"spans: {len(tracer.spans)} written to {span_path}")
    # Informational, not gated: the in-process runs batch same-config
    # fluid seeds into one call, the pooled run does not (README.md,
    # "Known defect").
    same = "equal" if pooled.digest == serial.digest else "DIFFERENT"
    lines.append(f"pooled vs in-process result digests: {same}")
    attempted = sum(r.tasks for r in reps)
    failed = sum(r.failed for r in reps)
    correct = gate(reps, workload.name, lines, repeats=[[serial, traced]])
    return correct, attempted, failed, metrics


def main(root: str, name: str, seed: int, seconds: float,
         trace: bool) -> int:
    out_dir = os.path.join(root, ".e2e_bench")
    os.makedirs(out_dir, exist_ok=True)
    workload = WORKLOADS[name]
    specs = metric_specs(root)
    lines = [f"workload: {name}  seed: {seed}  trace: {int(trace)}"]
    lines.extend(provenance(root))
    try:
        if trace:
            specs = specs["per_layer"]
            correct, attempted, failed, raw = traced_runs(
                workload, seed, out_dir, lines)
        else:
            specs = specs["end_to_end"]
            correct, attempted, failed, raw = timed_runs(
                workload, seed, seconds, root, out_dir, specs, lines)
    except TaskFailedError as error:
        # The supervised pool's default policy aborts the batch on the
        # first task that exhausts its retries.
        lines.append(f"GATE FAIL: {error}")
        print("\n".join(lines), flush=True)
        failed = len(error.failures)
        print(json.dumps({"correct": False, "attempted": failed,
                          "failed": failed, "metrics": {}}))
        return 1
    if set(raw) != set(specs):
        raise RuntimeError(f"measured {sorted(raw)} but BENCHMARK.json "
                           f"declares {sorted(specs)}")
    metrics = {key: {"value": raw[key], "unit": specs[key]["unit"]}
               for key in sorted(raw)}
    for key, entry in metrics.items():
        lines.append(f"{key}: {entry['value']:.6g} {entry['unit']}")
    print("\n".join(lines), flush=True)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1
