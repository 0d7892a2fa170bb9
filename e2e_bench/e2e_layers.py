"""Layer boundaries of the traced run, and the per-layer metrics.

:func:`installed` wraps the public functions at each layer boundary of
``repro`` (``sim``, ``protocols``, ``topology``, ``remy``, ``exec``,
``experiments``, ``core``) with spans for the duration of one
in-process run, then restores them.  Nothing inside ``repro`` is
edited: the wrappers replace module or class attributes that the
package looks up at call time.  :func:`layer_metrics` turns the spans
into the per-layer numbers listed in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from typing import Dict, Iterator, List, Sequence, Tuple

import repro.experiments.api as api
import repro.experiments.common as common
import repro.exec.executors as executors
import repro.remy.compiled as compiled
import repro.remy.evaluator as evaluator
import repro.sim.fluid as fluid
from repro.exec import ResultStore, SimTask
from repro.remy.tree import WhiskerTree

from e2e_harness import Span, Tracer, self_time_by_name, self_times

#: Protocol schemes reported per delivered packet; rule-table senders
#: ("learner"/"peer") run the RemyCC controller.
SCHEMES = ("newreno", "cubic", "dctcp", "pcc", "remycc")


def _scheme_of(kind: str) -> str:
    return "remycc" if kind in ("learner", "peer") else kind


def _sim_counts(result, handle) -> Dict[str, object]:
    flows = result.flows
    per_scheme: Dict[str, int] = defaultdict(int)
    for flow in flows:
        per_scheme[_scheme_of(flow.kind)] += flow.packets_delivered
    return {"events": handle.sim.events_processed,
            "allocs": handle.built.network.pool.allocated,
            "pkts": sum(f.packets_delivered for f in flows),
            "sent": sum(f.packets_sent for f in flows),
            "retx": sum(f.retransmissions for f in flows),
            "drops": result.bottleneck_drops,
            "pkts_by_scheme": dict(per_scheme)}


def _fluid_counts(runs, config, duration_s, **_) -> Dict[str, object]:
    return {"flow_s": len(config.sender_kinds) * len(runs) * duration_s,
            "pkts": sum(f.packets_delivered for run in runs
                        for f in run.flows)}


#: The unwrapped fingerprint: naming a request must not add spans.
_FINGERPRINT = SimTask.fingerprint


def _task_rid(task: SimTask) -> str:
    return _FINGERPRINT(task)


def _group_rid(tasks) -> str:
    return "+".join(_FINGERPRINT(task) for task in tasks)


def _boundaries(tracer: Tracer) -> List[Tuple[object, str, object]]:
    """``(owner, attribute, wrapper)`` for every traced public function."""
    wrap = tracer.wrap
    return [
        (api, "expand", wrap(api.expand, "experiments.expand")),
        (common, "build_simulation",
         wrap(common.build_simulation, "topology.build")),
        (common.SimulationHandle, "run",
         wrap(common.SimulationHandle.run, "sim.run",
              count=lambda result, handle, *_: _sim_counts(result, handle))),
        (fluid, "simulate_fluid",
         wrap(fluid.simulate_fluid, "sim.fluid", count=_fluid_counts)),
        (WhiskerTree, "clone", wrap(WhiskerTree.clone, "remy.clone")),
        (WhiskerTree, "to_json", wrap(WhiskerTree.to_json, "remy.to_json")),
        (compiled, "compiled_from_json",
         wrap(compiled.compiled_from_json, "remy.compile")),
        (evaluator, "score_training_run",
         wrap(evaluator.score_training_run, "remy.score")),
        (evaluator.TreeEvaluator, "evaluate",
         wrap(evaluator.TreeEvaluator.evaluate, "remy.evaluate")),
        (evaluator.TreeEvaluator, "evaluate_batch",
         wrap(evaluator.TreeEvaluator.evaluate_batch, "remy.evaluate")),
        (SimTask, "fingerprint",
         wrap(SimTask.fingerprint, "exec.fingerprint")),
        (executors, "run_sim_task",
         wrap(executors.run_sim_task, "exec.task", rid_of=_task_rid)),
        (executors, "run_task_group",
         wrap(executors.run_task_group, "exec.task", rid_of=_group_rid)),
        (ResultStore, "put", wrap(ResultStore.put, "exec.store_put")),
    ]


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Trace every layer boundary while the block runs (in-process
    execution only: worker processes never see these wrappers)."""
    patches = _boundaries(tracer)
    saved = [(owner, attr, owner.__dict__[attr])
             for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: Sequence[Span], evaluations: int,
                  requested: int) -> Dict[str, float]:
    """Per-layer metrics of one traced run (see README.md)."""
    own = self_times(spans)
    by_name = self_time_by_name(spans)

    def total(name: str) -> float:
        return by_name.get(name, 0.0)

    sim_spans = [s for s in spans if s.name == "sim.run"]
    events = sum(s.counts["events"] for s in sim_spans)
    pkts = sum(s.counts["pkts"] for s in sim_spans)
    sim_self = total("sim.run")
    scheme_s: Dict[str, float] = defaultdict(float)
    scheme_pkts: Dict[str, int] = defaultdict(int)
    for span in sim_spans:
        # Split a run's self time over its schemes by delivered packets.
        split = span.counts["pkts_by_scheme"]
        for scheme, n in split.items():
            scheme_pkts[scheme] += n
            scheme_s[scheme] += own[span.sid] * _ratio(n, span.counts["pkts"])

    fluid_spans = [s for s in spans if s.name == "sim.fluid"]
    fluid_self = total("sim.fluid")
    flow_s = sum(s.counts["flow_s"] for s in fluid_spans)

    by_id = {s.sid: s for s in spans}
    evaluate_s = sum(s.end - s.start for s in spans
                     if s.name == "remy.evaluate")
    batch_in_evaluate_s = sum(
        s.end - s.start for s in spans
        if s.name == "exec.run_batch" and s.parent is not None
        and _has_ancestor(s, "remy.evaluate", by_id))

    metrics = {
        "sim.self_s": sim_self,
        "sim.events": float(events),
        "sim.events_per_s": _ratio(events, sim_self),
        "sim.events_per_pkt": _ratio(events, pkts),
        "sim.pkt_allocs_per_pkt": _ratio(
            sum(s.counts["allocs"] for s in sim_spans), pkts),
        "sim.drops_per_kpkt": 1e3 * _ratio(
            sum(s.counts["drops"] for s in sim_spans), pkts),
        "sim.fluid_self_s": fluid_self,
        "sim.fluid_flow_s_per_s": _ratio(flow_s, fluid_self),
        "protocols.retx_frac": _ratio(
            sum(s.counts["retx"] for s in sim_spans),
            sum(s.counts["sent"] for s in sim_spans)),
        "topology.build_s": total("topology.build"),
        "remy.clone_s": total("remy.clone"),
        "remy.to_json_s": total("remy.to_json"),
        "remy.compile_s": total("remy.compile"),
        "remy.score_s": total("remy.score"),
        "remy.evaluations": float(evaluations),
        "remy.memo_hit_frac": _ratio(requested - evaluations, requested),
        "remy.evaluator_overhead_frac": _ratio(
            evaluate_s - batch_in_evaluate_s, evaluate_s),
        "exec.fingerprint_s": total("exec.fingerprint"),
        "experiments.expand_s": total("experiments.expand"),
        "experiments.fold_s": (total("experiments.metrics")
                               + total("core.reference")),
        "core.reference_s": total("core.reference"),
    }
    for scheme in SCHEMES:
        metrics[f"protocols.us_per_pkt.{scheme}"] = 1e6 * _ratio(
            scheme_s[scheme], scheme_pkts[scheme])
    return metrics


def _has_ancestor(span: Span, name: str, by_id: Dict[int, Span]) -> bool:
    parent = span.parent
    while parent is not None:
        node = by_id[parent]
        if node.name == name:
            return True
        parent = node.parent
    return False
