"""Chaos-injection harness: prove degradation policies hold under fire.

TorchQL-style integrity checking has to survive messy real inputs; this
module makes that an executable claim.  Each *fault class* injects one
production failure mode into a guarded pipeline — a guard that raises,
a guard that stalls, a model that throws, values the codecs never saw,
malformed and ragged rows, mid-stream schema drift, a forked worker
SIGKILLed or wedged mid-shard, a result that cannot cross the pickle
boundary, a torn journal tail, a bit-rotted snapshot, a full state
disk, a process SIGKILLed mid-commit — and the harness
verifies the outcome is exactly what the configured
:class:`~repro.resilience.GuardPolicy` dictates: ``strict`` fails the
query with a typed error, ``warn``/``pass_through`` complete with rows
flowing unvetted (and the degradation recorded), ``reject`` completes
with the affected rows withheld.  No fault class may ever surface as an
unhandled exception.

    outcomes = run_chaos_suite(policy="warn")
    assert all(o.conformant for o in outcomes)
    print(render_chaos_report(outcomes))

The harness is self-contained (synthetic data, a hand-built program, a
stub model), so it runs in milliseconds and can gate CI.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..dsl import Branch, Condition, Program, Statement
from ..relation import Relation
from .policy import (
    CircuitBreaker,
    GuardPolicy,
    GuardUnavailableError,
    ResilientGuard,
)

FAULT_CLASSES = (
    "raising_guard",
    "slow_guard",
    "model_exception",
    "codec_unseen",
    "malformed_rows",
    "schema_drift",
    "marginal_shift",
    "unseen_burst",
    "worker_killed",
    "worker_hang",
    "poisoned_result",
    "torn_journal_tail",
    "corrupt_snapshot",
    "disk_full",
    "crash_restart",
)
"""Every fault class the harness can inject, in suite order."""

WORKER_FAULT_CLASSES = (
    "worker_killed",
    "worker_hang",
    "poisoned_result",
)
"""The process-level subset: faults injected below Python, into the
forked workers of :class:`repro.parallel.WorkerPool` (see
``repro chaos --worker-faults``)."""

DURABILITY_FAULT_CLASSES = (
    "torn_journal_tail",
    "corrupt_snapshot",
    "disk_full",
    "crash_restart",
)
"""The disk-fault subset: faults injected through the durability
layer's pluggable IO shim (torn writes, bit rot, ENOSPC) or below it
(SIGKILL mid-commit), judged on committed-prefix recovery (see
``repro chaos --durability``)."""


@dataclass
class ChaosOutcome:
    """Verdict on one injected fault: did the policy hold?"""

    fault: str
    policy: GuardPolicy
    conformant: bool
    detail: str


# ---------------------------------------------------------------------------
# Fixture: a tiny guarded ML-SQL pipeline
# ---------------------------------------------------------------------------

_CITY_OF = {
    "94704": "Berkeley",
    "94720": "Berkeley",
    "10001": "NewYork",
    "73301": "Austin",
}
_STATE_OF = {"Berkeley": "CA", "NewYork": "NY", "Austin": "TX"}


def chaos_relation(copies: int = 8) -> Relation:
    """A clean PostalCode → City → State relation for the harness."""
    rows = []
    for postal, city in _CITY_OF.items():
        for _ in range(copies):
            rows.append(
                {
                    "PostalCode": postal,
                    "City": city,
                    "State": _STATE_OF[city],
                }
            )
    return Relation.from_rows(rows)


def chaos_program() -> Program:
    """The ground-truth constraints of :func:`chaos_relation`."""

    def statement(det: str, dep: str, table: dict) -> Statement:
        return Statement(
            (det,),
            dep,
            tuple(
                Branch(Condition.of(**{det: key}), dep, value)
                for key, value in table.items()
            ),
        )

    return Program(
        (
            statement("PostalCode", "City", _CITY_OF),
            statement("City", "State", _STATE_OF),
        )
    )


class _StubModel:
    """A model the executor can call: predicts the City column."""

    def predict_values(self, relation: Relation) -> list[object]:
        return list(relation.column_values("City"))


class _ExplodingModel:
    """A model that dies on every inference call."""

    def predict_values(self, relation: Relation) -> list[object]:
        raise RuntimeError("chaos: model backend unavailable")


class _ExplodingGuardrail:
    """A guardrail whose handle() raises (e.g. a poisoned program)."""

    def handle(self, relation, strategy):
        raise RuntimeError("chaos: guard crashed mid-query")


class _SlowGuardrail:
    """A guardrail that stalls past the executor's watchdog."""

    def __init__(self, inner, delay: float):
        self._inner = inner
        self.delay = delay

    def handle(self, relation, strategy):
        time.sleep(self.delay)
        return self._inner.handle(relation, strategy)


_QUERY = "SELECT PREDICT(m) AS p, COUNT(*) AS n FROM t GROUP BY p"


def _run_sql(
    guardrail,
    model,
    relation: Relation,
    policy: GuardPolicy,
    guard_timeout_seconds: float | None = None,
):
    """Execute the probe query; return (result | None, error | None,
    metrics)."""
    # Imported lazily: the executor itself depends on repro.resilience
    # (degradation policies), and chaos is the one module that closes
    # the loop in the other direction.
    from ..sql.executor import QueryExecutor

    executor = QueryExecutor(
        {"t": relation},
        {"m": model},
        guardrail=guardrail,
        strategy="rectify",
        policy=policy,
        guard_timeout_seconds=guard_timeout_seconds,
    )
    try:
        result = executor.execute(_QUERY)
    except Exception as error:  # noqa: BLE001 - the harness judges it
        return None, error, executor.last_metrics
    return result, None, executor.last_metrics


def _judge_sql(
    policy: GuardPolicy, result, error, metrics, n_rows: int
) -> tuple[bool, str]:
    """Is a degraded SQL run's outcome what the policy dictates?"""
    from ..sql.executor import SqlRuntimeError

    if policy is GuardPolicy.STRICT:
        if isinstance(error, SqlRuntimeError):
            return True, f"failed closed: {error}"
        return False, f"expected SqlRuntimeError, got {error!r}"
    if error is not None:
        return False, f"unhandled {type(error).__name__}: {error}"
    returned = sum(result.column("n")) if result.rows else 0
    if policy is GuardPolicy.REJECT:
        if returned == 0 and metrics.rows_rejected > 0:
            return True, f"rejected {metrics.rows_rejected} rows"
        return False, f"expected 0 rows, got {returned}"
    if not metrics.degraded:
        return False, "degradation not recorded in metrics"
    if returned != n_rows:
        return False, f"expected {n_rows} rows to flow, got {returned}"
    return True, (
        f"failed open: {returned} rows flowed, "
        f"{len(metrics.degradations)} degradation(s) recorded"
    )


# ---------------------------------------------------------------------------
# Fault classes
# ---------------------------------------------------------------------------


def _fault_raising_guard(policy: GuardPolicy) -> ChaosOutcome:
    relation = chaos_relation()
    result, error, metrics = _run_sql(
        _ExplodingGuardrail(), _StubModel(), relation, policy
    )
    ok, detail = _judge_sql(policy, result, error, metrics, relation.n_rows)
    return ChaosOutcome("raising_guard", policy, ok, detail)


def _fault_slow_guard(policy: GuardPolicy) -> ChaosOutcome:
    from ..synth import Guardrail

    relation = chaos_relation()
    guardrail = _SlowGuardrail(
        Guardrail.from_program(chaos_program()), delay=0.02
    )
    result, error, metrics = _run_sql(
        guardrail,
        _StubModel(),
        relation,
        policy,
        guard_timeout_seconds=0.001,
    )
    ok, detail = _judge_sql(policy, result, error, metrics, relation.n_rows)
    return ChaosOutcome("slow_guard", policy, ok, detail)


def _fault_model_exception(policy: GuardPolicy) -> ChaosOutcome:
    from ..synth import Guardrail

    relation = chaos_relation()
    guardrail = Guardrail.from_program(chaos_program())
    result, error, metrics = _run_sql(
        guardrail, _ExplodingModel(), relation, policy
    )
    ok, detail = _judge_sql(policy, result, error, metrics, relation.n_rows)
    return ChaosOutcome("model_exception", policy, ok, detail)


def _fault_codec_unseen(policy: GuardPolicy) -> ChaosOutcome:
    """Values the program's codecs never saw must not crash the guard."""
    from ..synth import Guardrail

    relation = chaos_relation()
    relation = relation.set_cell(0, "City", "Atlantis")
    relation = relation.set_cell(1, "State", "ZZ")
    relation = relation.set_cell(2, "PostalCode", "00000")
    guardrail = Guardrail.from_program(chaos_program())
    result, error, metrics = _run_sql(
        guardrail, _StubModel(), relation, policy
    )
    if error is not None:
        return ChaosOutcome(
            "codec_unseen",
            policy,
            False,
            f"unhandled {type(error).__name__}: {error}",
        )
    if metrics.degraded:
        return ChaosOutcome(
            "codec_unseen", policy, False, "unseen values degraded the guard"
        )
    return ChaosOutcome(
        "codec_unseen",
        policy,
        True,
        f"handled natively: {metrics.rows_flagged} rows flagged, "
        f"{metrics.rows_rectified} cells rectified",
    )


_MALFORMED_ROWS: list = [
    {"PostalCode": "94704", "City": "Berkeley", "State": "CA"},  # clean
    ["94704", "Berkeley", "CA"],  # non-mapping
    None,  # not even a row
    {"PostalCode": "10001"},  # ragged: missing attributes
    {"PostalCode": "10001", "City": None, "State": None},  # None cells
    {"PostalCode": "73301", "City": "Austin", "State": "TX", "x": 1},  # extra
    42,  # scalar garbage
]
_MALFORMED_BAD = {1, 2, 6}  # indexes the bare guards cannot vet


def _stream_guard(policy: GuardPolicy) -> ResilientGuard:
    from ..synth import Guardrail

    # Generous breaker: the point here is per-row degradation, not
    # tripping the circuit (the breaker has its own unit tests).
    return ResilientGuard(
        Guardrail.from_program(chaos_program()).guard(),
        policy=policy,
        breaker=CircuitBreaker(failure_threshold=10_000, max_retries=0),
    )


def _judge_stream(
    fault: str,
    policy: GuardPolicy,
    rows: list,
    bad: set[int],
) -> ChaosOutcome:
    """Stream ``rows`` through a resilient guard; check the policy.

    ``bad`` marks the indexes the bare guard cannot vet; those must
    raise under ``strict`` and take the policy verdict otherwise, and
    the row path (``stream``) and the batch path (``check_batch``, with
    per-row salvage) must agree row for row.
    """
    row_guard, batch_guard = _stream_guard(policy), _stream_guard(policy)
    if policy is GuardPolicy.STRICT and bad:
        try:
            list(row_guard.stream(rows))
        except GuardUnavailableError as error:
            return ChaosOutcome(
                fault, policy, True, f"failed closed: {error}"
            )
        except Exception as error:  # noqa: BLE001
            return ChaosOutcome(
                fault,
                policy,
                False,
                f"wrong error type {type(error).__name__}: {error}",
            )
        return ChaosOutcome(
            fault, policy, False, "strict policy swallowed the fault"
        )
    try:
        row_verdicts = list(row_guard.stream(rows))
        batch_verdicts = batch_guard.check_batch(rows)
    except Exception as error:  # noqa: BLE001
        return ChaosOutcome(
            fault, policy, False, f"unhandled {type(error).__name__}: {error}"
        )
    if len(row_verdicts) != len(rows) or len(batch_verdicts) != len(rows):
        return ChaosOutcome(
            fault, policy, False, "a row was dropped without a verdict"
        )
    for index, (rv, bv) in enumerate(zip(row_verdicts, batch_verdicts)):
        if rv.ok != bv.ok:
            return ChaosOutcome(
                fault,
                policy,
                False,
                f"row/batch verdicts diverge at row {index}: "
                f"{rv.ok} vs {bv.ok}",
            )
        if index in bad:
            expected_ok = policy is not GuardPolicy.REJECT
            if rv.ok != expected_ok:
                return ChaosOutcome(
                    fault,
                    policy,
                    False,
                    f"malformed row {index} got ok={rv.ok}, policy "
                    f"{policy.value} dictates ok={expected_ok}",
                )
    degraded = row_guard.stats.degraded_verdicts
    return ChaosOutcome(
        fault,
        policy,
        True,
        f"{len(rows)} verdicts, {degraded} degraded per policy, "
        f"row/batch agree",
    )


def _fault_malformed_rows(policy: GuardPolicy) -> ChaosOutcome:
    return _judge_stream(
        "malformed_rows", policy, list(_MALFORMED_ROWS), set(_MALFORMED_BAD)
    )


# ---------------------------------------------------------------------------
# Drift-shaped fault classes: the supervisor must detect AND recover
# ---------------------------------------------------------------------------


def _sample_rows(mapping: dict, n: int, rng: np.random.Generator) -> list:
    """Draw ``n`` rows from a postal → (city, state) world."""
    postals = sorted(mapping)
    rows = []
    for _ in range(n):
        postal = postals[int(rng.integers(len(postals)))]
        city, state = mapping[postal]
        rows.append({"PostalCode": postal, "City": city, "State": state})
    return rows


def _drift_world() -> dict:
    """The training-time postal → (city, state) mapping."""
    return {
        postal: (city, _STATE_OF[city]) for postal, city in _CITY_OF.items()
    }


def _drift_supervisor(policy: GuardPolicy, training: Relation):
    """A supervisor over a synthesized guard, tuned for short streams."""
    from ..synth import Guardrail
    from .recovery import GuardrailSupervisor, SupervisorConfig
    from .drift import DriftDetector

    guardrail = Guardrail().fit(training)
    detector = DriftDetector.from_training(
        training,
        program=guardrail.program,
        window=96,
        min_window=48,
        sample_every=1,
    )
    return GuardrailSupervisor(
        guardrail,
        drift=detector,
        policy=policy,
        config=SupervisorConfig(
            history_rows=512,
            min_heal_rows=96,
            heal_budget_seconds=10.0,
            cooldown_rows=128,
        ),
    )


def _judge_selfheal(
    fault: str,
    policy: GuardPolicy,
    supervisor,
    clean_flags: int,
    tail_flags: int,
    tail_rows: int,
) -> ChaosOutcome:
    """Did the supervisor detect the drift and return to a quiet guard?

    Self-healing is orthogonal to the degradation policy (a healthy
    guard raising honest verdicts is not a *failure*), so the same
    conformance bar holds under every :class:`GuardPolicy`: an alert
    fired, a heal was accepted, and the post-swap false-flag rate is
    back near the pre-drift level.
    """
    if clean_flags:
        return ChaosOutcome(
            fault, policy, False,
            f"guard flagged {clean_flags} clean rows before any drift",
        )
    if not supervisor.alerts:
        return ChaosOutcome(
            fault, policy, False, "drift injected but no alert fired"
        )
    if not any(heal.accepted for heal in supervisor.heals):
        reasons = "; ".join(h.reason for h in supervisor.heals) or "none"
        return ChaosOutcome(
            fault, policy, False, f"no heal accepted (attempts: {reasons})"
        )
    tail_rate = tail_flags / tail_rows if tail_rows else 0.0
    if tail_rate > 0.05:
        return ChaosOutcome(
            fault, policy, False,
            f"post-swap false-flag rate {tail_rate:.2%} never recovered",
        )
    kinds = sorted({alert.kind for alert in supervisor.alerts})
    return ChaosOutcome(
        fault, policy, True,
        f"detected ({', '.join(kinds)}), healed to v{supervisor.version}, "
        f"post-swap flag rate {tail_rate:.2%}",
    )


def _fault_marginal_shift(
    policy: GuardPolicy, rng: np.random.Generator
) -> ChaosOutcome:
    """Gradual marginal shift: one postal code slides to a new city."""
    world = _drift_world()
    shifted = dict(world)
    shifted["94704"] = ("Oakland", "CA")
    training = Relation.from_rows(_sample_rows(world, 300, rng))
    supervisor = _drift_supervisor(policy, training)

    clean_flags = sum(
        0 if supervisor.check(row).ok else 1
        for row in _sample_rows(world, 200, rng)
    )
    # The shift arrives gradually: the new world's share of traffic
    # ramps from 0 to 1 over the transition window.
    for step in range(600):
        source = shifted if rng.random() < step / 400 else world
        supervisor.check(_sample_rows(source, 1, rng)[0])
    tail = _sample_rows(shifted, 200, rng)
    tail_flags = sum(
        0 if supervisor.check(row).ok else 1 for row in tail
    )
    return _judge_selfheal(
        "marginal_shift", policy, supervisor, clean_flags,
        tail_flags, len(tail),
    )


def _fault_unseen_burst(
    policy: GuardPolicy, rng: np.random.Generator
) -> ChaosOutcome:
    """A burst of codec-unseen values: a new postal/city pair appears."""
    world = _drift_world()
    burst_world = dict(world)
    burst_world["02139"] = ("Cambridge", "MA")
    training = Relation.from_rows(_sample_rows(world, 300, rng))
    supervisor = _drift_supervisor(policy, training)

    clean_flags = sum(
        0 if supervisor.check(row).ok else 1
        for row in _sample_rows(world, 200, rng)
    )
    # The burst: every value of the new pair is outside the training
    # codecs, arriving all at once rather than ramping.
    for row in _sample_rows(burst_world, 600, rng):
        supervisor.check(row)
    tail = _sample_rows(burst_world, 200, rng)
    tail_flags = sum(
        0 if supervisor.check(row).ok else 1 for row in tail
    )
    return _judge_selfheal(
        "unseen_burst", policy, supervisor, clean_flags,
        tail_flags, len(tail),
    )


def _fault_schema_drift(policy: GuardPolicy) -> ChaosOutcome:
    """Mid-stream, the upstream producer renames/narrows its columns.

    Missing attributes behave like missing (None) cells in the
    canonical semantics, so drift is vetted natively — no degradation,
    but every row still gets a verdict and row/batch still agree.
    """
    drifted: list = [
        {"PostalCode": "94704", "City": "Berkeley", "State": "CA"},
        {"PostalCode": "94720", "City": "Berkeley", "State": "CA"},
        # v2 of the producer: renamed columns
        {"postal_code": "94704", "city_name": "Berkeley"},
        {"postal_code": "10001", "city_name": "NewYork"},
        # v3: narrowed payload
        {"PostalCode": "73301"},
    ]
    return _judge_stream("schema_drift", policy, drifted, set())


# ---------------------------------------------------------------------------
# Process-level fault classes: the supervised pool must recover
# ---------------------------------------------------------------------------


def _worker_fault_fixture():
    """A guardrail + relation big enough to shard across two workers.

    A few cells are corrupted so the violation mask is non-trivial —
    a lost shard that silently came back all-False would be caught.
    """
    from ..synth import Guardrail

    relation = chaos_relation(copies=64)
    relation = relation.set_cell(3, "City", "Austin")
    relation = relation.set_cell(70, "State", "NY")
    relation = relation.set_cell(200, "City", "Berkeley")
    guardrail = Guardrail.from_program(chaos_program())
    return guardrail, relation


def _worker_fault_outcome(
    name: str,
    policy: GuardPolicy,
    *,
    fault: str,
    times: int = 1,
    task_timeout: float = 30.0,
    max_retries: int = 1,
    expect_kind: str,
) -> ChaosOutcome:
    """Inject one process-level fault into sharded detection and judge.

    Like self-healing, surviving a dead worker is orthogonal to the
    degradation policy (the guard itself never failed — its substrate
    did), so the conformance bar is the same under every
    :class:`GuardPolicy`: the call returns (no hang), the mask is
    bit-identical to a serial reference, and the incident was recorded
    as a typed :class:`~repro.parallel.WorkerFault` of the expected
    kind.
    """
    from ..parallel import WorkerPool, fork_available, worker_chaos

    if not fork_available():  # pragma: no cover - linux has fork
        return ChaosOutcome(
            name, policy, True, "skipped: platform lacks fork"
        )
    guardrail, relation = _worker_fault_fixture()
    n_rows = relation.n_rows
    # Fresh views per call: detection results are cached per relation
    # identity, and a cache hit would make the injection a no-op.
    reference = guardrail.check(relation.slice_rows(0, n_rows))
    pool = WorkerPool(
        2,
        min_shard_rows=1,
        task_timeout=task_timeout,
        max_retries=max_retries,
    )
    started = time.perf_counter()
    with worker_chaos(fault, item=1, times=times, hang_seconds=30.0):
        mask = guardrail.check(relation.slice_rows(0, n_rows), pool=pool)
    elapsed = time.perf_counter() - started
    if not np.array_equal(mask, reference):
        return ChaosOutcome(
            name, policy, False,
            "recovered mask diverges from the serial reference",
        )
    kinds = [f.kind for f in pool.last_faults]
    if expect_kind not in kinds:
        return ChaosOutcome(
            name, policy, False,
            f"no WorkerFault of kind {expect_kind!r} recorded "
            f"(got {kinds or 'none'})",
        )
    return ChaosOutcome(
        name, policy, True,
        f"bit-identical after {len(kinds)} fault(s) "
        f"[{', '.join(sorted(set(kinds)))}] in {elapsed:.2f}s",
    )


def _fault_worker_killed(policy: GuardPolicy) -> ChaosOutcome:
    """A worker is SIGKILLed mid-shard; its shard is retried re-forked."""
    return _worker_fault_outcome(
        "worker_killed", policy, fault="kill", expect_kind="worker_died"
    )


def _fault_worker_hang(policy: GuardPolicy) -> ChaosOutcome:
    """A worker wedges past the progress deadline; it is killed and its
    shard retried — the caller never blocks on it."""
    return _worker_fault_outcome(
        "worker_hang",
        policy,
        fault="hang",
        task_timeout=0.5,
        expect_kind="task_deadline",
    )


def _fault_poisoned_result(policy: GuardPolicy) -> ChaosOutcome:
    """A worker's result cannot cross the pickle boundary, every time;
    retries exhaust and the shard degrades to inline serial execution."""
    return _worker_fault_outcome(
        "poisoned_result",
        policy,
        fault="unpicklable",
        times=8,  # outlives any retry budget: forces the inline fallback
        expect_kind="result_unpicklable",
    )


# ---------------------------------------------------------------------------
# Disk-fault classes: the durability layer under fire
# ---------------------------------------------------------------------------


def _durability_fixture(state_dir, swaps: int = 5):
    """Commit a reference event history into ``state_dir``.

    Registers one tenant and hot-swaps it ``swaps`` times (with a
    couple of quarantine pushes riding along), returning the store and
    the folded state every committed-prefix check compares against.
    """
    from .durability import DurableStateStore, fold_runtime_state

    store = DurableStateStore(state_dir, snapshot_every=None)
    events = [("tenant_register", {"tenant": "acme", "config": {}, "program": "p1"})]
    for n in range(2, swaps + 2):
        events.append(("swap", {"tenant": "acme", "version": n, "program": f"p{n}"}))
        if n % 2 == 0:
            events.append(
                ("quarantine_push", {"tenant": "acme", "row": {"City": f"x{n}"}})
            )
    records = [store.append(kind, **data) for kind, data in events]
    expected = fold_runtime_state(None, records)
    return store, records, expected


def _judge_recovery(
    name: str, policy: GuardPolicy, state_dir, expected: dict, want
) -> ChaosOutcome:
    """Shared committed-prefix judge for the disk fault classes.

    Durability, like self-healing, is orthogonal to the degradation
    policy — the guard never misbehaved, its disk did — so the
    conformance bar is identical under every :class:`GuardPolicy`:
    :func:`~repro.resilience.durability.recover` must return exactly
    the committed prefix (``expected``), plus whatever fault-specific
    diagnostics ``want(recovered)`` checks.
    """
    from .durability import fold_runtime_state, recover

    recovered = recover(state_dir)
    folded = fold_runtime_state(recovered.state, recovered.events)
    if folded != expected:
        return ChaosOutcome(
            name, policy, False,
            "recovered state diverges from the committed prefix",
        )
    problem = want(recovered)
    if problem:
        return ChaosOutcome(name, policy, False, problem)
    return ChaosOutcome(
        name, policy, True,
        f"committed prefix intact: {recovered.replayed_records} record(s) "
        f"replayed, {recovered.truncated_tail_bytes} tail byte(s) "
        f"discarded, snapshot generation {recovered.snapshot_generation}",
    )


def _fault_torn_journal_tail(policy: GuardPolicy) -> ChaosOutcome:
    """A crash mid-append leaves a torn journal tail; recovery truncates
    to the last valid record and replays exactly the committed prefix."""
    import tempfile

    from .durability import JOURNAL_NAME, DurabilityError, TornWriteIO, io_shim

    with tempfile.TemporaryDirectory(prefix="chaos-durability-") as state_dir:
        store, _, expected = _durability_fixture(state_dir)
        with io_shim(TornWriteIO(fail_on_append=1, keep_bytes=9)):
            try:
                store.append("swap", tenant="acme", version=99, program="torn")
            except DurabilityError:
                pass  # the torn append was never committed
            else:
                return ChaosOutcome(
                    "torn_journal_tail", policy, False,
                    "torn append did not surface a typed DurabilityError",
                )

        def want(recovered):
            if recovered.truncated_tail_bytes <= 0:
                return "no torn tail detected despite the torn write"
            return None

        outcome = _judge_recovery(
            "torn_journal_tail", policy, state_dir, expected, want
        )
        if not outcome.conformant:
            return outcome
        # Reopening must repair the tail so new appends never
        # interleave with garbage.
        from .durability import DurableStateStore

        reopened = DurableStateStore(state_dir, snapshot_every=None)
        raw = (Path(state_dir) / JOURNAL_NAME).read_bytes()
        if not raw.endswith(b"\n"):
            return ChaosOutcome(
                "torn_journal_tail", policy, False,
                "reopen did not truncate the torn tail",
            )
        if reopened.last_seq != store.last_seq:
            return ChaosOutcome(
                "torn_journal_tail", policy, False,
                "reopened store lost committed sequence numbers",
            )
        return outcome


def _fault_corrupt_snapshot(policy: GuardPolicy) -> ChaosOutcome:
    """The newest snapshot generation is bit-rotted; recovery rejects it
    by checksum and falls back to the previous generation + journal."""
    import tempfile

    with tempfile.TemporaryDirectory(prefix="chaos-durability-") as state_dir:
        store, _, expected = _durability_fixture(state_dir)
        # Two generations, then corrupt the newest one.
        store.state_provider = lambda: {"tenants": {}}
        from .durability import fold_runtime_state, recover

        pre = recover(state_dir)
        folded = fold_runtime_state(pre.state, pre.events)
        store.snapshot(folded)
        store.append("swap", tenant="acme", version=90, program="p90")
        post = recover(state_dir)
        expected = fold_runtime_state(post.state, post.events)
        store.snapshot(expected)
        generations = sorted(Path(state_dir).glob("snapshot-*.json"))
        newest = generations[-1]
        data = bytearray(newest.read_bytes())
        data[len(data) // 2] ^= 0xFF
        newest.write_bytes(bytes(data))

        def want(recovered):
            if recovered.rejected_snapshots < 1:
                return "corrupt snapshot was not rejected"
            if recovered.snapshot_generation == 0:
                return "recovery did not fall back to a prior generation"
            return None

        return _judge_recovery(
            "corrupt_snapshot", policy, state_dir, expected, want
        )


def _fault_disk_full(policy: GuardPolicy) -> ChaosOutcome:
    """The state device hits ENOSPC mid-run: further commits surface a
    typed error, nothing already committed is lost or corrupted."""
    import tempfile

    from .durability import DurabilityError, FullDiskIO, io_shim

    with tempfile.TemporaryDirectory(prefix="chaos-durability-") as state_dir:
        store, _, expected = _durability_fixture(state_dir)
        with io_shim(FullDiskIO(capacity_bytes=0)):
            try:
                store.append("swap", tenant="acme", version=99, program="full")
            except DurabilityError as error:
                if error.path is None or error.__cause__ is None:
                    return ChaosOutcome(
                        "disk_full", policy, False,
                        "DurabilityError lacks its path or cause",
                    )
            except OSError:
                return ChaosOutcome(
                    "disk_full", policy, False,
                    "ENOSPC leaked as a raw OSError instead of a typed "
                    "DurabilityError",
                )
            else:
                return ChaosOutcome(
                    "disk_full", policy, False,
                    "append on a full disk did not raise",
                )

        def want(recovered):
            if recovered.truncated_tail_bytes:
                return "full-disk append corrupted the journal tail"
            return None

        return _judge_recovery("disk_full", policy, state_dir, expected, want)


def _fault_crash_restart(policy: GuardPolicy) -> ChaosOutcome:
    """A child process journaling events is SIGKILLed mid-stream; the
    parent recovers every event the child acknowledged, and nothing
    partial."""
    import multiprocessing as mp
    import os
    import signal
    import tempfile

    from ..parallel import fork_available
    from .durability import recover

    if not fork_available():  # pragma: no cover - linux has fork
        return ChaosOutcome(
            "crash_restart", policy, True, "skipped: platform lacks fork"
        )

    def victim(state_dir, conn):
        """Append events forever, acking each committed seq to the parent."""
        from .durability import DurableStateStore

        store = DurableStateStore(state_dir, snapshot_every=4)
        store.state_provider = lambda: {"tenants": {}}
        store.append("tenant_register", tenant="acme", config={}, program="p1")
        conn.send(store.last_seq)
        version = 1
        while True:
            version += 1
            store.append(
                "swap", tenant="acme", version=version, program=f"p{version}"
            )
            conn.send(store.last_seq)

    with tempfile.TemporaryDirectory(prefix="chaos-durability-") as state_dir:
        ctx = mp.get_context("fork")
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        child = ctx.Process(target=victim, args=(state_dir, child_conn))
        child.start()
        child_conn.close()
        acked = 0
        try:
            for _ in range(12):  # let a dozen commits land, then murder it
                acked = parent_conn.recv()
        finally:
            os.kill(child.pid, signal.SIGKILL)
            child.join(timeout=10.0)
            parent_conn.close()
        recovered = recover(state_dir)
        if recovered.last_seq < acked:
            return ChaosOutcome(
                "crash_restart", policy, False,
                f"recovery lost acknowledged commits: last_seq "
                f"{recovered.last_seq} < acked {acked}",
            )
        seqs = [record.seq for record in recovered.events]
        if seqs != sorted(set(seqs)):
            return ChaosOutcome(
                "crash_restart", policy, False,
                "journal replay yielded duplicate or unordered records",
            )
        return ChaosOutcome(
            "crash_restart", policy, True,
            f"all {acked} acknowledged commit(s) recovered "
            f"(last_seq {recovered.last_seq}, "
            f"{recovered.truncated_tail_bytes} torn byte(s) discarded)",
        )


_FAULTS = {
    "raising_guard": _fault_raising_guard,
    "slow_guard": _fault_slow_guard,
    "model_exception": _fault_model_exception,
    "codec_unseen": _fault_codec_unseen,
    "malformed_rows": _fault_malformed_rows,
    "schema_drift": _fault_schema_drift,
    "marginal_shift": _fault_marginal_shift,
    "unseen_burst": _fault_unseen_burst,
    "worker_killed": _fault_worker_killed,
    "worker_hang": _fault_worker_hang,
    "poisoned_result": _fault_poisoned_result,
    "torn_journal_tail": _fault_torn_journal_tail,
    "corrupt_snapshot": _fault_corrupt_snapshot,
    "disk_full": _fault_disk_full,
    "crash_restart": _fault_crash_restart,
}

_RNG_FAULTS = {"marginal_shift", "unseen_burst"}
"""Fault classes whose streams are sampled (all others are fixed)."""


def run_fault(
    fault: str,
    policy: "GuardPolicy | str",
    rng: "np.random.Generator | None" = None,
) -> ChaosOutcome:
    """Inject one fault class under one policy; judge the outcome.

    ``rng`` seeds the sampled (drift-shaped) fault classes; it defaults
    to ``np.random.default_rng(0)`` so repeated runs — and CI — are
    deterministic.
    """
    if fault not in _FAULTS:
        raise ValueError(
            f"unknown fault class {fault!r}; choose from "
            + ", ".join(FAULT_CLASSES)
        )
    resolved = GuardPolicy.parse(policy)
    if fault in _RNG_FAULTS:
        if rng is None:
            rng = np.random.default_rng(0)
        return _FAULTS[fault](resolved, rng)
    return _FAULTS[fault](resolved)


def run_chaos_suite(
    policy: "GuardPolicy | str" = GuardPolicy.WARN,
    faults: tuple[str, ...] = FAULT_CLASSES,
    rng: "np.random.Generator | None" = None,
) -> list[ChaosOutcome]:
    """Inject every fault class under ``policy``; return the verdicts.

    One ``rng`` is shared across the suite's sampled fault classes, so a
    fixed seed pins the whole run.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    return [run_fault(fault, policy, rng=rng) for fault in faults]


def render_chaos_report(outcomes: list[ChaosOutcome]) -> str:
    """Plain-text table of chaos outcomes (the CLI's output)."""
    width = max(len(o.fault) for o in outcomes)
    lines = [
        f"chaos suite under policy "
        f"{outcomes[0].policy.value if outcomes else '?'}:"
    ]
    for outcome in outcomes:
        mark = "PASS" if outcome.conformant else "FAIL"
        lines.append(
            f"  {mark}  {outcome.fault.ljust(width)}  {outcome.detail}"
        )
    conformant = sum(o.conformant for o in outcomes)
    lines.append(f"{conformant}/{len(outcomes)} fault classes conformant")
    return "\n".join(lines)
