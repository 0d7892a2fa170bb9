"""The three end-to-end workloads, built only from public entry points.

Each workload turns the run's seed into its inputs (a sweep grid or a
training budget), and ``prepare`` returns a zero-argument callable that
performs exactly what a user waits for: one ``run_experiment`` call or
one ``RemyOptimizer.train`` call.  Sizes are fixed here, so the same
seed always gives the same work; see README.md for why each was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Optional, Tuple

from kernel_workloads import demo_tree
from repro.core.scale import Scale
from repro.exec import Executor
from repro.experiments.api import AdhocBase, Axis, adhoc_spec, run_experiment
from repro.remy.catalog import CATALOG
from repro.remy.evaluator import EvalSettings
from repro.remy.optimizer import OptimizerSettings, RemyOptimizer
from repro.remy.tree import WhiskerTree

from e2e_harness import Tracer

#: Workers in the supervised pool every timed run uses.
POOL_SIZE = 2

#: Asset name the demo tree is bound to in sweep specs (no trained
#: assets are committed, so the 46-leaf kernel-gate tree stands in).
DEMO_ASSET = "demo_tree"


@dataclass
class Outcome:
    """What one workload call produced, beyond its task results."""

    payload: Dict[str, object]      # must repeat bit for bit
    candidates: int                 # trees (training) or cells (sweeps)
    evaluations: int = 0            # simulations the evaluator ran
    requested: int = 0              # tasks the evaluator was asked for


RunFn = Callable[[], Outcome]


@dataclass(frozen=True)
class SweepWorkload:
    """An ad-hoc dumbbell grid through ``run_experiment``."""

    name: str
    axes: Tuple[Axis, ...]
    schemes: Tuple[str, ...]
    scale: Scale
    base: AdhocBase = field(default_factory=AdhocBase)
    backend: str = "packet"
    uses_store: bool = False

    def prepare(self, seed: int, executor: Executor,
                tracer: Optional[Tracer] = None) -> RunFn:
        trees = {DEMO_ASSET: demo_tree()}
        spec = adhoc_spec(self.axes, self.schemes, name=self.name,
                          base=self.base)
        if tracer is not None:
            # Folding a cell into its row (metrics) and the omniscient
            # bound rows are spec hooks: trace them on this spec only.
            spec = replace(
                spec,
                metrics=tracer.wrap(spec.metrics, "experiments.metrics"),
                reference=tracer.wrap(spec.reference, "core.reference"))

        def run() -> Outcome:
            result = run_experiment(spec, self.scale, trees=trees,
                                    base_seed=seed, executor=executor,
                                    backend=self.backend)
            cells = sum(1 for row in result.rows
                        if row["scheme"] != spec.reference_scheme)
            return Outcome(payload={"rows": result.rows}, candidates=cells)

        return run


@dataclass(frozen=True)
class TrainWorkload:
    """``RemyOptimizer.train`` from an empty tree, fixed budget."""

    name: str
    asset: str
    n_configs: int
    scale: Scale
    settings: OptimizerSettings
    sim_seeds: Tuple[int, ...] = (1,)
    uses_store: bool = False

    def prepare(self, seed: int, executor: Executor,
                tracer: Optional[Tracer] = None) -> RunFn:
        eval_settings = EvalSettings(n_configs=self.n_configs,
                                     config_seed=seed,
                                     sim_seeds=self.sim_seeds,
                                     scale=self.scale)
        optimizer = RemyOptimizer(CATALOG[self.asset].training,
                                  eval_settings, self.settings,
                                  executor=executor)
        # Count trees scored at the evaluator's public entry points
        # (one increment per call; the optimizer's own log has no such
        # count).
        evaluator = optimizer.evaluator
        scored = [0]
        evaluate, evaluate_batch = evaluator.evaluate, evaluator.evaluate_batch

        def count_one(tree, *args, **kwargs):
            scored[0] += 1
            return evaluate(tree, *args, **kwargs)

        def count_batch(trees, *args, **kwargs):
            trees = list(trees)
            scored[0] += len(trees)
            return evaluate_batch(trees, *args, **kwargs)

        evaluator.evaluate = count_one
        evaluator.evaluate_batch = count_batch
        per_tree = self.n_configs * len(self.sim_seeds)

        def run() -> Outcome:
            tree, log = optimizer.train(WhiskerTree())
            return Outcome(
                payload={"tree": tree.to_json(),
                         "evaluations": log.evaluations,
                         "scores": log.scores,
                         "tree_sizes": log.tree_sizes},
                candidates=scored[0], evaluations=log.evaluations,
                requested=scored[0] * per_tree)

        return run


#: Packet sweep: the Fig. 2/4 shape.  Four queue variants split the
#: traffic between the monomorphic drop-tail fast path (droptail, no
#: ECN) and the generic path (marking drop-tail, sfqCoDel with and
#: without marking).
SWEEP_PACKET = SweepWorkload(
    name="sweep_packet",
    axes=(Axis.log("link_mbps", 2.0, 8.0, 3),
          Axis.log("rtt_ms", 20.0, 80.0, 2),
          Axis.of("queue", ("droptail", "sfq_codel")),
          Axis.of("ecn_threshold", ("none", 20))),
    schemes=("newreno", "cubic", "dctcp", "pcc", DEMO_ASSET),
    scale=Scale(duration_s=1.5, packet_budget=4000, min_duration_s=1.5,
                n_seeds=2),
    base=AdhocBase(n_senders=16),
    uses_store=True)

#: Training: Table 2a's tao_10x range (10-100 Mbps), a fixed budget and
#: no time budget, so the evaluation count depends only on the seed.
TRAIN_REMY = TrainWorkload(
    name="train_remy",
    asset="tao_10x",
    n_configs=8,
    scale=Scale(duration_s=4.0, packet_budget=1250, min_duration_s=1.0),
    settings=OptimizerSettings(generations=1, max_action_steps=1))

#: Population-scale fluid sweep: 100 and 1000 on/off senders per cell.
SWEEP_FLUID = SweepWorkload(
    name="sweep_fluid",
    axes=(Axis.of("senders", (100, 1000)),
          Axis.log("rtt_ms", 60.0, 120.0, 2)),
    schemes=("newreno", "cubic", "dctcp", DEMO_ASSET),
    scale=Scale(duration_s=0.5, packet_budget=10**9, min_duration_s=0.5,
                n_seeds=2),
    base=AdhocBase(link_mbps=100.0),
    backend="fluid")

WORKLOADS = {w.name: w for w in (SWEEP_PACKET, TRAIN_REMY, SWEEP_FLUID)}
