"""repro.exec — the unified parallel execution layer.

Every simulation this package runs — Remy training evaluations, the
experiment sweeps, the CLI scripts — is one of thousands of independent
(config, trees, seed) runs.  This subpackage gives them a single
batch-execution layer:

* :class:`SimTask` / :class:`SimTaskResult` — declarative, picklable
  descriptions of one run and its output, with a stable fingerprint
  exposed as the universal :func:`cache_key`.
* :class:`Executor` and its implementations (:class:`SerialExecutor`,
  :class:`SupervisedExecutor` — cost-packed chunks over supervised
  worker processes with retry/timeout/quarantine fault tolerance under
  a :class:`RetryPolicy` — and :class:`StoreExecutor`, a disk-backed
  result cache over either).
* :class:`RemoteExecutor` / :class:`WorkerServer` — multi-host
  dispatch over TCP (``scripts/worker.py`` daemons) under the same
  :class:`RetryPolicy` failure contract, with lease-based ownership,
  session-resuming reconnects, work stealing, and graceful local
  fallback (``--workers host:port,...`` on the CLIs).
* :class:`ResultStore` — the sharded, schema-versioned,
  corruption-tolerant on-disk result map behind :class:`StoreExecutor`;
  it makes crashed sweeps resumable and shares results across
  processes.
* :func:`run_batch` / :func:`executor_for` — the entry points callers
  actually use (both accept ``store=``).

See ``docs/EXECUTION.md`` for the architecture, the determinism
contract (serial, pooled, and store-backed execution are
bitwise-identical), and the on-disk store format.
"""

from .batch import executor_for, run_batch
from .executors import (Executor, SerialExecutor, default_jobs,
                        pack_chunks, task_cost)
from .remote import (RemoteExecutor, RemoteStats, WorkerServer,
                     add_workers_argument, parse_workers, serve_worker,
                     workers_from_args)
from .store import (SCHEMA_VERSION, ResultStore, StoreExecutor,
                    StoreSchemaError, StoreStats, store_main)
from .supervise import (RetryPolicy, SupervisedExecutor, SuperviseStats,
                        TaskFailedError, add_fault_tolerance_arguments,
                        policy_from_args)
from .task import (BACKENDS, SimTask, SimTaskResult, TaskFailure,
                   cache_key, run_sim_task, run_task_group)

__all__ = [
    "SimTask", "SimTaskResult", "TaskFailure", "run_sim_task",
    "run_task_group", "cache_key", "BACKENDS",
    "Executor", "SerialExecutor", "StoreExecutor", "SupervisedExecutor",
    "RemoteExecutor", "RemoteStats", "WorkerServer", "serve_worker",
    "parse_workers", "add_workers_argument", "workers_from_args",
    "default_jobs", "pack_chunks", "task_cost",
    "RetryPolicy", "SuperviseStats", "TaskFailedError",
    "add_fault_tolerance_arguments", "policy_from_args",
    "ResultStore", "StoreStats", "StoreSchemaError", "SCHEMA_VERSION",
    "store_main",
    "run_batch", "executor_for",
]
