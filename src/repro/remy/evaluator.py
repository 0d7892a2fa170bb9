"""Evaluating whisker trees over training scenarios.

The optimizer's inner loop asks one question, thousands of times: *what
is the mean objective of this rule table over the training
distribution?*  This module answers it, with

* deterministic scenario sampling (common random numbers: every
  candidate tree sees exactly the same drawn configs and seeds, so score
  differences reflect the trees, not the luck of the draw),
* per-whisker usage accounting (the optimizer refines the busiest
  whisker and splits at its observed mean signals), and
* batch submission through :mod:`repro.exec` — training is
  embarrassingly parallel and pure Python is slow, so handing the
  (tree, config, seed) grid to a process-pool executor is what makes
  the reproduction practical (DESIGN.md section 2).  Serial and pooled
  execution produce bitwise-identical scores.

Caching happens at the task level: the evaluator memoizes each task's
*derived* outputs (objective score plus usage stats — a few floats, not
the full per-flow ``RunResult``) keyed by the full
:meth:`~repro.exec.SimTask.fingerprint` (config, trees, seed, duration,
flags), so re-testing an incumbent tree is free and — unlike the old
tree-keyed score cache — changing ``EvalSettings.scale`` can never
return a stale score.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.objective import Objective
from ..core.scale import Scale
from ..core.scenario import ScenarioRange
from ..exec import Executor, SerialExecutor, SimTask, StoreExecutor
from .tree import WhiskerTree

__all__ = ["EvalSettings", "EvalResult", "TreeEvaluator",
           "run_training_task", "score_training_run"]


@dataclass(frozen=True)
class EvalSettings:
    """Budget for one tree evaluation."""

    n_configs: int = 8
    config_seed: int = 4242
    sim_seeds: Tuple[int, ...] = (1,)
    scale: Scale = field(default_factory=lambda: Scale(
        duration_s=16.0, packet_budget=30_000, min_duration_s=4.0))


@dataclass
class EvalResult:
    """Mean objective plus merged per-whisker usage statistics."""

    score: float
    usage_counts: List[int]
    usage_sums: List[List[float]]
    per_config_scores: List[float]


def score_training_run(result: "RunResult") -> float:
    """The training objective of one run: summed over learner flows.

    Pure float math over the returned :class:`FlowStats`, so the score
    is identical whether the simulation ran in-process or in a worker.
    """
    from ..experiments.common import scored_flows

    score = 0.0
    for flow in scored_flows(result):
        if flow.kind != "learner":
            continue
        objective = Objective(delta=flow.delta)
        delay = flow.mean_delay_s if flow.packets_delivered \
            else flow.base_delay_s
        score += objective.score(flow.throughput_bps, delay)
    return score


def run_training_task(tree_json: str, peer_json: Optional[str],
                      config_dict: dict, seed: int, duration: float,
                      record_usage: bool) -> Tuple[float, list, list]:
    """One simulation of one tree on one config (kept for callers of
    the pre-``repro.exec`` API; now a thin shim over
    :func:`repro.exec.run_sim_task`).

    Returns ``(objective_sum, usage_counts, usage_sums)``; usage lists
    are empty when ``record_usage`` is off.
    """
    from ..exec import run_sim_task

    trees = {"learner": tree_json}
    if peer_json is not None:
        trees["peer"] = peer_json
    task = SimTask.build(config_dict, trees=trees, seed=seed,
                         duration_s=duration, record_usage=record_usage)
    out = run_sim_task(task)
    return score_training_run(out.run), out.usage_counts, out.usage_sums


class TreeEvaluator:
    """Scores whisker trees over a :class:`ScenarioRange`.

    Parameters
    ----------
    executor:
        Any :class:`repro.exec.Executor` (e.g. a
        :class:`~repro.exec.SupervisedExecutor` for multi-core
        training); ``None`` runs tasks serially.  The evaluator
        memoizes each task's derived score and usage stats by task
        fingerprint, so repeated tasks — the incumbent tree under
        common random numbers — are never re-simulated.
    store:
        Optional disk-backed :class:`~repro.exec.ResultStore` (or a
        directory path).  The executor is wrapped in a
        :class:`~repro.exec.StoreExecutor`, so whisker evaluations
        persist across crashes and are shared with any other process
        pointed at the same store (e.g. ``run_experiments.py`` reusing
        training simulations) — the in-memory memo above stays the
        first, cheaper layer.
    screen:
        ``"fluid"`` turns :meth:`evaluate_batch` into screen-then-
        confirm: every candidate is scored on the cheap vectorized
        fluid backend, then the ``confirm_top`` best (plus any
        candidate whose fluid score still beats the best confirmed
        packet score) are re-scored on the exact packet engine.  The
        batch's best returned score is therefore always a genuine
        packet-engine score — the optimizer can never adopt an action
        on the strength of a fluid approximation.  ``None`` (default)
        scores everything on the packet engine.  :meth:`evaluate` —
        used for incumbents and usage recording — always runs packet.
    confirm_top:
        How many screened candidates to packet-confirm per batch
        (minimum 1; ignored unless ``screen`` is set).
    """

    def __init__(self, scenario_range: ScenarioRange,
                 settings: EvalSettings = EvalSettings(),
                 executor: Optional[Executor] = None,
                 store=None,
                 screen: Optional[str] = None,
                 confirm_top: int = 4):
        if screen not in (None, "fluid"):
            raise ValueError(f"screen must be None or 'fluid', "
                             f"got {screen!r}")
        self.scenario_range = scenario_range
        self.settings = settings
        executor = executor or SerialExecutor()
        if store is not None:
            executor = StoreExecutor(executor, store=store)
        self.executor = executor
        self.screen = screen
        self.confirm_top = max(int(confirm_top), 1)
        self.configs = scenario_range.sample_many(
            settings.n_configs, settings.config_seed)
        # fingerprint -> (score, usage_counts, usage_sums): a few
        # floats per task, never the full per-flow RunResult.  The
        # fingerprint hashes the task's backend, so fluid screens and
        # packet confirmations can never serve each other's scores.
        self._memo: Dict[str, Tuple[float, list, list]] = {}
        self._evaluations = 0

    @property
    def evaluations(self) -> int:
        """Simulations actually executed (cache hits excluded)."""
        return self._evaluations

    @property
    def cached_tasks(self) -> int:
        """Memoized task results currently held."""
        return len(self._memo)

    def clear_cache(self) -> None:
        """Drop memoized task results (the ``evaluations`` count stays).

        The optimizer calls this after every structural split: a split
        changes the tree's fingerprint, so all cached entries become
        unreachable — clearing bounds memory to one generation's tasks
        without losing a single hit.
        """
        self._memo.clear()

    def _tasks_for(self, tree: WhiskerTree,
                   peer: Optional[WhiskerTree],
                   record_usage: bool,
                   backend: str = "packet") -> List[SimTask]:
        trees = {"learner": tree.to_json()}
        if peer is not None:
            trees["peer"] = peer.to_json()
        tasks = []
        for config in self.configs:
            duration = self.settings.scale.duration_for(config)
            for seed in self.settings.sim_seeds:
                tasks.append(SimTask.build(
                    config, trees=trees, seed=seed, duration_s=duration,
                    record_usage=record_usage, backend=backend))
        return tasks

    def _run_tasks(self, tasks: List[SimTask]
                   ) -> List[Tuple[float, list, list]]:
        """Memoized (score, usage_counts, usage_sums) per task.

        Misses go to the executor as one batch (deduplicated); only the
        derived outputs are retained.
        """
        keys = [task.fingerprint() for task in tasks]
        pending: List[SimTask] = []
        pending_keys: List[str] = []
        seen = set()
        for task, key in zip(tasks, keys):
            if key not in self._memo and key not in seen:
                seen.add(key)
                pending.append(task)
                pending_keys.append(key)
        if pending:
            fresh = self.executor.run_batch(pending)
            self._evaluations += len(pending)
            failed = [(key, out.failure)
                      for key, out in zip(pending_keys, fresh)
                      if out.failure is not None]
            if failed:
                # A candidate scored on a partial grid is not comparable
                # to one scored on the full grid — quarantined results
                # must abort the evaluation, never be skipped over.
                from ..exec import TaskFailedError
                raise TaskFailedError(failed)
            for key, out in zip(pending_keys, fresh):
                self._memo[key] = (score_training_run(out.run),
                                   out.usage_counts, out.usage_sums)
        return [self._memo[key] for key in keys]

    def evaluate(self, tree: WhiskerTree,
                 peer: Optional[WhiskerTree] = None,
                 record_usage: bool = False) -> EvalResult:
        """Mean objective of ``tree``; merges usage stats into ``tree``."""
        tasks = self._tasks_for(tree, peer, record_usage)
        outputs = self._run_tasks(tasks)
        scores = [score for score, _, _ in outputs]
        mean = sum(scores) / len(scores)

        n_whiskers = len(tree)
        counts = [0] * n_whiskers
        sums = [[0.0] * 4 for _ in range(n_whiskers)]
        if record_usage:
            for _, task_counts, task_sums in outputs:
                for i, count in enumerate(task_counts):
                    counts[i] += count
                    for dim in range(4):
                        sums[i][dim] += task_sums[i][dim]
            tree.merge_stats(counts, sums)
        return EvalResult(score=mean, usage_counts=counts,
                          usage_sums=sums, per_config_scores=scores)

    def _batch_scores(self, trees: Sequence[WhiskerTree],
                      peer: Optional[WhiskerTree],
                      backend: str) -> List[float]:
        """Mean score per tree over the (config × seed) grid."""
        tasks: List[SimTask] = []
        for tree in trees:
            tasks.extend(self._tasks_for(tree, peer, False,
                                         backend=backend))
        outputs = self._run_tasks(tasks)
        per_tree = len(self.configs) * len(self.settings.sim_seeds)
        scores: List[float] = []
        for i in range(len(trees)):
            chunk = outputs[i * per_tree:(i + 1) * per_tree]
            scores.append(sum(score for score, _, _ in chunk)
                          / len(chunk))
        return scores

    def evaluate_batch(self, trees: Sequence[WhiskerTree],
                       peer: Optional[WhiskerTree] = None) -> List[float]:
        """Scores for many candidate trees, one flat task batch.

        Memoization makes re-testing the incumbent free, and the flat
        batch lets a pooled executor see the whole candidate set at
        once — the widest fan-out the optimizer's inner loop offers.

        With ``screen="fluid"`` this becomes screen-then-confirm: all
        candidates are scored on the fluid backend, the ``confirm_top``
        best are re-scored on the packet engine, and confirmation keeps
        expanding while any unconfirmed fluid score still exceeds the
        best confirmed packet score.  Confirmed trees return their
        packet score; the rest return their (strictly lower-ranked)
        fluid score — so the batch argmax is always packet-exact.
        """
        trees = list(trees)
        if self.screen is None or not trees:
            return self._batch_scores(trees, peer, "packet")
        scores = self._batch_scores(trees, peer, self.screen)
        order = sorted(range(len(trees)),
                       key=lambda i: (-scores[i], i))
        confirmed: Dict[int, float] = {}
        wave = order[:self.confirm_top]
        while wave:
            packet = self._batch_scores([trees[i] for i in wave],
                                        peer, "packet")
            confirmed.update(zip(wave, packet))
            best = max(confirmed.values())
            wave = [i for i in order
                    if i not in confirmed and scores[i] >= best]
        return [confirmed.get(i, scores[i])
                for i in range(len(trees))]
