"""Resilience layer: budgets, policies, chaos, and self-healing.

Five pillars keep the pipeline production-safe:

* :mod:`~repro.resilience.budget` — :class:`Budget` objects threaded
  through synthesis (PC, MEC enumeration, sketch filling, OptSMT) so
  combinatorial phases stop gracefully at a deadline/step cap and
  ``synthesize`` returns a best-so-far ``partial`` result;
* :mod:`~repro.resilience.policy` — :class:`GuardPolicy` degradation
  modes (strict / warn / pass_through / reject), a
  :class:`CircuitBreaker` with retry/backoff, and resilient wrappers
  for the streaming guards;
* :mod:`~repro.resilience.drift` — online :class:`DriftDetector`\\ s
  (codec-unseen rate, χ²/G² marginal shift, EWMA violation chart)
  raising typed :class:`DriftAlert`\\ s when the stream leaves the
  training distribution;
* :mod:`~repro.resilience.recovery` — the :class:`GuardrailSupervisor`
  closing the loop: quarantine, budgeted warm-started re-synthesis,
  held-out validation, atomic guardrail hot-swap with rollback;
* :mod:`~repro.resilience.chaos` — a fault-injection harness proving
  every fault class (including drift-shaped, process-level, and
  disk-fault ones) yields a policy-conformant outcome, and
  :mod:`~repro.resilience.chaos_load` — the same faults injected into
  a live :class:`repro.serve.GuardServer` under a closed-loop client
  fleet, judged at the service level (zero lost requests, verdict
  parity, recovery);
* :mod:`~repro.resilience.durability` — the crash-safe state store
  (write-ahead journal + atomic snapshot generations +
  :func:`~repro.resilience.durability.recover`) that makes hot-swaps,
  quarantine contents, and drift baselines survive process death;
* :mod:`~repro.resilience.overload` — overload control for the
  serving layer (CoDel-style adaptive admission, request deadlines,
  weighted fair-share budgets, brownout degradation tiers), with its
  own storm-shaped chaos suite in
  :mod:`~repro.resilience.chaos_overload`.
"""

from .budget import Budget, BudgetExceeded
from .chaos import (
    DURABILITY_FAULT_CLASSES,
    FAULT_CLASSES,
    WORKER_FAULT_CLASSES,
    ChaosOutcome,
    chaos_program,
    chaos_relation,
    render_chaos_report,
    run_chaos_suite,
    run_fault,
)
from .durability import (
    DiskIO,
    DurabilityError,
    DurableStateStore,
    FullDiskIO,
    JournalRecord,
    RecoveredState,
    SnapshotStore,
    TornWriteIO,
    WriteAheadJournal,
    atomic_write_text,
    fold_runtime_state,
    io_shim,
    recover,
    recover_runtime_state,
)
from .chaos_load import (
    LOAD_FAULT_CLASSES,
    LoadOutcome,
    render_load_report,
    run_load_fault,
    run_load_suite,
)
from .chaos_overload import (
    OVERLOAD_FAULT_CLASSES,
    OverloadOutcome,
    render_overload_report,
    run_overload_fault,
    run_overload_suite,
)
from .overload import (
    STEADY_CLOCK,
    AdmissionController,
    BrownoutConfig,
    BrownoutController,
    FairShareLimiter,
    SteadyClock,
)
from .drift import (
    DRIFT_KINDS,
    DriftAlert,
    DriftDetector,
    DriftStats,
    render_drift_report,
)
from .policy import (
    BreakerState,
    CircuitBreaker,
    CircuitOpenError,
    DegradationStats,
    GuardPolicy,
    GuardUnavailableError,
    ResilientBatchGuard,
    ResilientGuard,
    ResilientRowGuard,
    resilient_call,
)
from .recovery import (
    OVERFLOW_POLICIES,
    GuardrailSupervisor,
    GuardrailVersions,
    HealOutcome,
    LiveBatchGuard,
    LiveGuard,
    QuarantineBuffer,
    SupervisorConfig,
)

__all__ = [
    "Budget",
    "BudgetExceeded",
    "GuardPolicy",
    "GuardUnavailableError",
    "CircuitOpenError",
    "BreakerState",
    "CircuitBreaker",
    "DegradationStats",
    "ResilientGuard",
    "resilient_call",
    "DRIFT_KINDS",
    "DriftAlert",
    "DriftDetector",
    "DriftStats",
    "render_drift_report",
    "OVERFLOW_POLICIES",
    "QuarantineBuffer",
    "GuardrailVersions",
    "LiveGuard",
    "SupervisorConfig",
    "HealOutcome",
    "GuardrailSupervisor",
    "FAULT_CLASSES",
    "WORKER_FAULT_CLASSES",
    "DURABILITY_FAULT_CLASSES",
    "ChaosOutcome",
    "chaos_relation",
    "chaos_program",
    "run_fault",
    "run_chaos_suite",
    "render_chaos_report",
    "LOAD_FAULT_CLASSES",
    "LoadOutcome",
    "run_load_fault",
    "run_load_suite",
    "render_load_report",
    "OVERLOAD_FAULT_CLASSES",
    "OverloadOutcome",
    "run_overload_fault",
    "run_overload_suite",
    "render_overload_report",
    "STEADY_CLOCK",
    "SteadyClock",
    "AdmissionController",
    "FairShareLimiter",
    "BrownoutConfig",
    "BrownoutController",
    "DurabilityError",
    "DiskIO",
    "TornWriteIO",
    "FullDiskIO",
    "io_shim",
    "atomic_write_text",
    "JournalRecord",
    "WriteAheadJournal",
    "SnapshotStore",
    "DurableStateStore",
    "RecoveredState",
    "recover",
    "recover_runtime_state",
    "fold_runtime_state",
]
