#!/usr/bin/env python
"""Benchmark-regression gate for the simulation kernel.

Times the :mod:`kernel_workloads` suite and diffs the rates against the
committed ``BENCH_kernel.json`` baseline::

    PYTHONPATH=src python benchmarks/compare.py --check
    PYTHONPATH=src python benchmarks/compare.py --update
    PYTHONPATH=src python benchmarks/compare.py --list

``--check`` (the CI smoke job) exits non-zero when any workload's
*normalized* rate fell more than ``--tolerance`` (default 30%) below the
baseline.  Rates are normalized by a pure-interpreter calibration spin
measured in the same session, so a slower CI runner or laptop shifts
both sides of the comparison and only genuine kernel regressions trip
the gate.  Raw rates are recorded too — they are what
``docs/PERFORMANCE.md`` quotes — and each baseline entry may carry a
``pre_pr_rate``: the same workload timed at the commit *before* the
compiled hot path landed, preserving the speedup context the baseline
was accepted against.

Besides wall-clock rates the baseline carries an ``alloc`` section —
the deterministic allocation counts from :mod:`bench_alloc` (packet
constructions and agenda entries per simulated packet), gated with
their own (much tighter) tolerance: churn regressions are invisible to
a 30% wall-clock gate but show up exactly here.

The ``fluid`` section gates the vectorized fluid backend both ways: it
must stay at least ``speedup_floor`` times faster than the packet
engine on the 1000-sender scenario (both sides timed in the same
session, so machine speed cancels), and every golden packet scenario
re-run on the fluid backend must land inside the per-scenario relative
error bands committed in ``tests/test_fluid_backend.py`` (the table is
printed, and lands in the ``--report`` artifact).

``--update`` rewrites the baseline in place (keeping any ``pre_pr_rate``
fields) — run it after an intentional kernel change, in the same commit,
so the gate always measures against the current code's expectations.
Each baseline records provenance (git commit, python version, CPU
count, machine) so a checked-in number is auditable; ``--check`` warns
when the baseline was recorded on a different machine shape, where the
calibration normalization is least trustworthy.

``--report PATH`` duplicates everything printed into ``PATH`` (CI
uploads it as a workflow artifact).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import bench_alloc
import kernel_workloads as workloads

BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_kernel.json"

SCHEMA = 3

#: Allowed fractional *increase* in the per-packet allocation ratios.
#: The counts are deterministic, so this headroom only absorbs benign
#: intentional drift; anything past it is a churn regression.
ALLOC_TOLERANCE = 0.10

#: Floor on the fluid/packet per-packet rate ratio for the 1000-sender
#: scenario.  Both sides are timed in the same session, so machine
#: speed cancels out of the ratio; dipping under the floor means the
#: fluid backend lost the bulk-sweep advantage it exists for.
FLUID_SPEEDUP_FLOOR = 20.0

#: name -> zero-argument callable returning a unit count.
BENCHMARKS = {
    "event_loop": workloads.spin_event_loop,
    "whisker_lookup": workloads.run_whisker_lookups,
    "compiled_lookup": workloads.run_compiled_lookups,
    "newreno_flow": workloads.run_newreno_flow,
    "dctcp_flow": workloads.run_dctcp_flow,
    "pcc_flow": workloads.run_pcc_flow,
    "remycc_flow": workloads.run_remycc_flow,
    "many_senders": workloads.run_many_senders,
    "fluid_dumbbell": workloads.run_fluid_dumbbell,
    "fluid_kilosenders": workloads.run_fluid_kilosenders,
    "fluid_lanes": workloads.run_fluid_lanes,
}


def _git_commit() -> str:
    """Current commit hash (+ dirty marker), or "unknown".

    ``--update`` necessarily runs *before* the commit that ships the
    new numbers, so a recorded hash usually names the parent commit —
    the ``+dirty`` suffix makes that visible to anyone auditing the
    baseline by checking the hash out.
    """
    cwd = Path(__file__).resolve().parent
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            cwd=cwd, timeout=10)
        if out.returncode != 0:
            return "unknown"
        commit = out.stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"], capture_output=True,
            text=True, cwd=cwd, timeout=10)
        if status.returncode == 0 and status.stdout.strip():
            commit += "+dirty"
        return commit
    except (OSError, subprocess.SubprocessError):
        # git missing, stalled (cold NFS, contended lock), or broken —
        # provenance degrades gracefully, the gate must still run.
        return "unknown"


def _calibration_spin(n: int = 2_000_000) -> int:
    """Pure-interpreter speed probe; never touches repro code."""
    total = 0
    for i in range(n):
        total += i & 7
    return n


def best_rate(fn, repeats: int) -> tuple[float, int]:
    """(units per second, units) for the fastest of ``repeats`` runs."""
    best = None
    units = 0
    for _ in range(repeats):
        started = time.perf_counter()
        units = fn()
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
    return units / best, units


def measure(repeats: int) -> dict:
    """Time every workload; returns the baseline-file payload."""
    calibration_rate, _ = best_rate(_calibration_spin, repeats)
    benchmarks = {}
    for name, fn in BENCHMARKS.items():
        rate, units = best_rate(fn, repeats)
        benchmarks[name] = {
            "rate": round(rate, 1),
            "normalized": round(rate / calibration_rate, 6),
            "units": units,
        }
        print(f"  {name:16s} {rate:12.1f}/s "
              f"(normalized {rate / calibration_rate:.4f})", flush=True)
    alloc = bench_alloc.measure_allocations()
    print(f"  {'alloc':16s} {alloc['packet_allocs_per_packet']:12.4f} "
          f"Packet allocs/pkt, {alloc['agenda_entries_per_packet']:.4f} "
          f"agenda entries/pkt", flush=True)
    # The packet twin of the 1000-sender scenario takes seconds per
    # run, so it is timed once here (for the speedup gate) and never
    # enters the per-workload regression loop above.
    packet_kilo_rate, _ = best_rate(workloads.run_packet_kilosenders, 1)
    fluid_kilo_rate = benchmarks["fluid_kilosenders"]["rate"]
    speedup = fluid_kilo_rate / packet_kilo_rate
    print(f"  {'fluid speedup':16s} {speedup:12.1f}x "
          f"(1000-sender pkts/s: fluid {fluid_kilo_rate:.0f}, "
          f"packet {packet_kilo_rate:.0f})", flush=True)
    return {
        "schema": SCHEMA,
        "recorded_with": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
            "git_commit": _git_commit(),
        },
        "calibration_rate": round(calibration_rate, 1),
        "benchmarks": benchmarks,
        "alloc": {
            "packet_allocs_per_packet": alloc["packet_allocs_per_packet"],
            "agenda_entries_per_packet": alloc["agenda_entries_per_packet"],
            "traced_peak_kib": alloc["traced_peak_kib"],
        },
        "fluid": {
            "speedup": round(speedup, 1),
            "speedup_floor": FLUID_SPEEDUP_FLOOR,
            "packet_kilosenders_rate": round(packet_kilo_rate, 1),
        },
    }


def load_baseline() -> dict:
    if not BASELINE_PATH.exists():
        sys.exit(f"no baseline at {BASELINE_PATH}; create one with "
                 f"'python benchmarks/compare.py --update'")
    with open(BASELINE_PATH) as handle:
        data = json.load(handle)
    if data.get("schema") != SCHEMA:
        sys.exit(f"baseline schema {data.get('schema')!r} != {SCHEMA}; "
                 f"regenerate with --update")
    return data


def _warn_cross_machine(recorded_with: dict) -> None:
    """Flag comparisons whose normalization assumptions are shaky."""
    recorded = recorded_with.get("python", "")
    running = platform.python_version()
    if recorded.split(".")[:2] != running.split(".")[:2]:
        print(f"warning: baseline recorded under Python {recorded}, "
              f"checking under {running}; interpreters shift the "
              f"kernel/calibration ratio unevenly, so normalized "
              f"comparisons may drift — re-record with --update on the "
              f"gating interpreter", file=sys.stderr)
    machine = recorded_with.get("machine")
    cpus = recorded_with.get("cpu_count")
    here = (platform.machine(), os.cpu_count())
    if (machine, cpus) != (None, None) and (machine, cpus) != here:
        print(f"warning: baseline recorded on {machine}/{cpus} CPUs "
              f"(commit {recorded_with.get('git_commit', 'unknown')[:12]}), "
              f"checking on {here[0]}/{here[1]}; the calibration spin "
              f"normalizes overall speed but not microarchitectural "
              f"ratios — treat borderline results with suspicion",
              file=sys.stderr)


def _cross_validate() -> list[str]:
    """Fluid-vs-packet relative errors on every golden packet scenario,
    against the tolerance bands the test suite commits.  Returns the
    list of band violations; prints the full table (the CI artifact
    anyone debugging a red gate wants)."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent
                           / "tests"))
    from test_fluid_backend import TOLERANCE, _fluid_twin, _rel
    from test_golden_traces import SCENARIOS

    from repro.exec import run_sim_task

    failures = []
    print(f"\n{'cross-validation':16s} {'tput err':>9s} {'band':>6s} "
          f"{'delay err':>10s} {'band':>6s}")
    for name in sorted(TOLERANCE):
        tput_tol, delay_tol = TOLERANCE[name]
        packet = run_sim_task(SCENARIOS[name]).run
        fluid = run_sim_task(_fluid_twin(SCENARIOS[name])).run
        tput = max(_rel(ff.throughput_bps, pf.throughput_bps, 1e3)
                   for pf, ff in zip(packet.flows, fluid.flows))
        delay = max(_rel(ff.mean_delay_s, pf.mean_delay_s, 1e-4)
                    for pf, ff in zip(packet.flows, fluid.flows))
        flag = ""
        if tput > tput_tol or delay > delay_tol:
            flag = "  << OUT OF BAND"
            failures.append(
                f"{name}: fluid error {tput:.1%}/{delay:.1%} "
                f"(bands {tput_tol:.1%}/{delay_tol:.1%})")
        print(f"{name:16s} {tput:9.1%} {tput_tol:6.1%} "
              f"{delay:10.1%} {delay_tol:6.1%}{flag}")
    return failures


def cmd_check(tolerance: float, repeats: int) -> int:
    baseline = load_baseline()
    _warn_cross_machine(baseline.get("recorded_with", {}))
    print("measuring current kernel rates...")
    current = measure(repeats)
    failures = [
        f"{name}: in the suite but not in the baseline; run "
        f"'compare.py --update' and commit BENCH_kernel.json"
        for name in current["benchmarks"]
        if name not in baseline["benchmarks"]]
    print(f"\n{'benchmark':16s} {'baseline':>12s} {'current':>12s} "
          f"{'norm ratio':>10s}")
    for name, base in baseline["benchmarks"].items():
        now = current["benchmarks"].get(name)
        if now is None:
            failures.append(f"{name}: workload disappeared from the suite")
            continue
        ratio = now["normalized"] / base["normalized"]
        flag = ""
        if ratio < 1.0 - tolerance:
            flag = "  << REGRESSION"
            failures.append(
                f"{name}: normalized rate fell {100 * (1 - ratio):.0f}% "
                f"(tolerance {100 * tolerance:.0f}%)")
        print(f"{name:16s} {base['rate']:12.1f} {now['rate']:12.1f} "
              f"{ratio:10.2f}{flag}")
        pre = base.get("pre_pr_rate")
        if pre:
            print(f"{'':16s} ({now['rate'] / pre:.2f}x the pre-compiled-"
                  f"hot-path rate of {pre:.0f}/s)")
    # Allocation gate: deterministic counts, tight one-sided tolerance.
    base_alloc = baseline.get("alloc", {})
    now_alloc = current["alloc"]
    print(f"\n{'allocation gate':24s} {'baseline':>10s} {'current':>10s}")
    for key in ("packet_allocs_per_packet", "agenda_entries_per_packet"):
        base_val = base_alloc.get(key)
        now_val = now_alloc[key]
        if base_val is None:
            failures.append(
                f"{key}: missing from the baseline; run 'compare.py "
                f"--update' and commit BENCH_kernel.json")
            continue
        flag = ""
        if now_val > base_val * (1.0 + ALLOC_TOLERANCE):
            flag = "  << REGRESSION"
            failures.append(
                f"{key}: rose {now_val / base_val:.2f}x over baseline "
                f"(tolerance {100 * ALLOC_TOLERANCE:.0f}%)")
        print(f"{key:24s} {base_val:10.4f} {now_val:10.4f}{flag}")
    # Fluid gates: the backend must stay worth having (speedup) and
    # worth trusting (cross-validation bands).
    fluid = current["fluid"]
    floor = baseline.get("fluid", {}).get("speedup_floor",
                                          FLUID_SPEEDUP_FLOOR)
    flag = ""
    if fluid["speedup"] < floor:
        flag = "  << REGRESSION"
        failures.append(
            f"fluid speedup: {fluid['speedup']:.1f}x under the "
            f"{floor:.0f}x floor on the 1000-sender scenario")
    print(f"\n{'fluid speedup':24s} {floor:9.0f}x {fluid['speedup']:9.1f}x"
          f"{flag}")
    failures.extend(_cross_validate())
    if failures:
        print("\nFAIL:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"\nOK: all {len(baseline['benchmarks'])} workloads within "
          f"{100 * tolerance:.0f}% of baseline")
    return 0


def cmd_update(repeats: int) -> int:
    previous = {}
    if BASELINE_PATH.exists():
        with open(BASELINE_PATH) as handle:
            previous = json.load(handle).get("benchmarks", {})
    print("recording new baseline...")
    data = measure(repeats)
    for name, entry in data["benchmarks"].items():
        pre = previous.get(name, {}).get("pre_pr_rate")
        if pre is not None:
            entry["pre_pr_rate"] = pre
    with open(BASELINE_PATH, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"baseline written to {BASELINE_PATH}")
    return 0


def cmd_list() -> int:
    baseline = load_baseline()
    print(json.dumps(baseline, indent=2, sort_keys=True))
    return 0


class _Tee:
    """Duplicate writes to several streams (stdout + the report file)."""

    def __init__(self, *streams):
        self._streams = streams

    def write(self, data):
        for stream in self._streams:
            stream.write(data)

    def flush(self):
        for stream in self._streams:
            stream.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--check", action="store_true",
                       help="fail if any workload regressed past "
                            "--tolerance vs the committed baseline")
    group.add_argument("--update", action="store_true",
                       help="re-measure and rewrite the baseline")
    group.add_argument("--list", action="store_true",
                       help="print the committed baseline")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional drop in normalized rate "
                             "(default 0.30)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timing repeats per workload; the fastest "
                             "run counts (default 5)")
    parser.add_argument("--report", metavar="PATH", default=None,
                        help="also write everything printed to PATH "
                             "(uploaded as a CI artifact)")
    args = parser.parse_args(argv)

    def run() -> int:
        if args.check:
            return cmd_check(args.tolerance, args.repeats)
        if args.update:
            return cmd_update(args.repeats)
        return cmd_list()

    if args.report is None:
        return run()
    with open(args.report, "w") as report:
        # Tee both streams: the FAIL list and the cross-machine
        # warnings go to stderr, and the artifact exists precisely to
        # make a red gate diagnosable.
        with contextlib.redirect_stdout(_Tee(sys.stdout, report)), \
                contextlib.redirect_stderr(_Tee(sys.stderr, report)):
            status = run()
        report.write(f"\nexit status: {status}\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
