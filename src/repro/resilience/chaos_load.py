"""Chaos *under load*: inject faults into a live, traffic-bearing server.

The unit-level chaos harness (:mod:`repro.resilience.chaos`) proves each
fault class conforms to its degradation policy in isolation.  This
module closes the gap ROADMAP calls out — exercising the same faults
while a closed-loop asyncio client fleet drives
:class:`repro.serve.GuardServer` — and judges the service-level
contract instead of the single-call one:

* **zero lost requests** — every submitted request resolves with a
  typed :class:`~repro.serve.ServeResponse`, never an exception, never
  a future nobody resolves;
* **verdict parity** — every healthy (OK, non-degraded) response
  matches a serial ``Guard.check_batch`` reference for the
  guardrail version stamped on it, before, during, and after the
  fault;
* **recovery** — after the fault clears, healthy verdicts flow again
  (the first one is timed, and the fleet runs to completion).

Four fault classes are injected mid-run, each with its own evidence
that it actually landed:

========================  ====================================================
``guard_exception``       the live guardrail is hot-swapped for one whose
                          guards always raise, then rolled back — requests
                          in the window degrade per policy, never vanish
``hot_swap``              a legitimate v2 guardrail lands mid-traffic;
                          parity is judged per stamped version
``breaker_trip``          the raising guard plus a tight failure threshold
                          trips the tenant's circuit breaker (asserted via
                          ``times_opened``); recovery rides the half-open probe
``worker_kill``           the tenant's batcher task is cancelled mid-batch
                          (``GuardServer.kill_batcher``); in-hand requests
                          resolve with typed ERRORs and supervision respawns
                          the batcher (asserted via ``batcher_restarts``)
========================  ====================================================

Each run uses two tenants; the second never sees a fault and doubles as
an isolation control.  The suite is deterministic (phase-driven, not
wall-clock-driven) and fast enough to gate CI; ``repro chaos --load``
is the command-line entry point.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

from ..dsl import Branch, Condition, Program, Statement
from .chaos import _CITY_OF, _STATE_OF
from .policy import GuardPolicy

LOAD_FAULT_CLASSES = (
    "guard_exception",
    "hot_swap",
    "breaker_trip",
    "worker_kill",
)
"""Every fault class the under-load suite can inject, in suite order."""


@dataclass
class LoadOutcome:
    """Verdict on one fault class injected under live traffic."""

    fault: str
    policy: GuardPolicy
    conformant: bool
    detail: str
    submitted: int = 0
    resolved: int = 0
    errors: int = 0
    rejected_retries: int = 0
    recovery_s: float = 0.0


# ---------------------------------------------------------------------------
# Fixture: programs, rows, and a fault-injection guardrail
# ---------------------------------------------------------------------------


def _load_program(city_of: dict, state_of: dict) -> Program:
    """The chaos-world program for a given postal→city→state mapping."""

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
            statement("PostalCode", "City", city_of),
            statement("City", "State", state_of),
        )
    )


def _programs() -> dict[int, Program]:
    """v1: the training-time world; v2: 94704 has become Oakland."""
    v2_city = dict(_CITY_OF, **{"94704": "Oakland"})
    v2_state = dict(_STATE_OF, Oakland="CA")
    return {
        1: _load_program(dict(_CITY_OF), dict(_STATE_OF)),
        2: _load_program(v2_city, v2_state),
    }


def _load_rows() -> list[dict]:
    """A fixed request pool mixing clean, violating, and v2-only rows."""
    state_of = dict(_STATE_OF, Oakland="CA")
    postals = sorted(_CITY_OF)
    cities = ("Berkeley", "NewYork", "Austin", "Oakland")
    rows = []
    for i in range(32):
        city = cities[i % len(cities)]
        rows.append(
            {
                "PostalCode": postals[i % len(postals)],
                "City": city,
                "State": state_of[city],
            }
        )
    return rows


def _exploding_guardrail(program: Program):
    """A real :class:`~repro.synth.Guardrail` (it must pass ``swap``'s
    validation) whose guard always raises — the injection
    vehicle for ``guard_exception`` and ``breaker_trip``."""
    from ..synth import Guardrail

    class _ExplodingGuard:
        """Stands in for a guard whose backend is down."""

        def check_batch(self, rows):
            raise RuntimeError("chaos: guard backend down")

        def rectify(self, row):
            raise RuntimeError("chaos: guard backend down")

    class _ExplodingServeGuardrail(Guardrail):
        """Validates as a guardrail; serves only a poisoned guard."""

        def guard(self):
            return _ExplodingGuard()

    return _ExplodingServeGuardrail.from_program(program)


# ---------------------------------------------------------------------------
# The closed-loop client fleet
# ---------------------------------------------------------------------------


class _Fleet:
    """Bookkeeping shared by every client of one fault run."""

    def __init__(self, server, tenants, rows, clients):
        self.server = server
        self.tenants = tenants
        self.rows = rows
        self.clients = clients
        self.log: list = []  # (tenant, row_index, response, t)
        self.lost: list[str] = []
        self.submitted = 0
        self.rejected_retries = 0

    async def drive(self, per_client: int, offset: int) -> None:
        """One phase: every client issues ``per_client`` sequential
        requests (closed loop), retrying typed REJECTED backpressure."""

        async def one(cid: int) -> None:
            for k in range(per_client):
                tenant = self.tenants[cid % len(self.tenants)]
                row_index = (offset + cid * 31 + k * 7) % len(self.rows)
                self.submitted += 1
                try:
                    await self.one_request(tenant, row_index)
                except Exception as error:  # noqa: BLE001 - judged
                    self.lost.append(
                        f"{type(error).__name__}: {error}"
                    )

        await asyncio.gather(*(one(c) for c in range(self.clients)))

    async def one_request(self, tenant: str, row_index: int) -> None:
        from ..serve import ServeStatus

        while True:
            response = await self.server.check(
                tenant, self.rows[row_index]
            )
            if response.status is ServeStatus.REJECTED:
                self.rejected_retries += 1
                await asyncio.sleep(
                    min(response.retry_after or 0.001, 0.005)
                )
                continue
            self.log.append(
                (tenant, row_index, response, time.perf_counter())
            )
            return


# ---------------------------------------------------------------------------
# One fault run: pre-traffic, inject, post-traffic, judge
# ---------------------------------------------------------------------------


async def _drive_load_fault(
    fault: str,
    policy: GuardPolicy,
    clients: int,
    requests: int,
) -> LoadOutcome:
    from ..errors import Guard
    from ..serve import GuardServer, TenantConfig
    from ..synth import Guardrail

    programs = _programs()
    rows = _load_rows()
    references = {
        version: Guard(program).check_batch(rows)
        for version, program in programs.items()
    }
    config = TenantConfig(
        policy=policy,
        max_batch=max(2, clients // 2),
        max_wait_ms=25.0 if fault == "worker_kill" else 2.0,
        queue_size=256,
        # Only breaker_trip wants a hair-trigger breaker; the other
        # classes isolate their own failure mode (the unit harness
        # pattern: the breaker has its own fault class and tests).
        failure_threshold=2 if fault == "breaker_trip" else 10_000,
        recovery_seconds=0.05,
    )
    server = GuardServer()
    tenants = ("faulted", "control")
    for name in tenants:
        server.register(
            name, Guardrail.from_program(programs[1]), config
        )
    fleet = _Fleet(server, tenants, rows, clients)
    injector = _INJECTORS[fault]
    async with server:
        await fleet.drive(requests, offset=0)
        evidence = await injector(server, fleet, programs)
        cleared_at = time.perf_counter()
        await fleet.drive(requests, offset=13)
    return _judge_load(
        fault, policy, fleet, references, evidence, cleared_at
    )


async def _inject_guard_exception(server, fleet, programs) -> dict:
    server.swap("faulted", _exploding_guardrail(programs[1]))
    await fleet.drive(3, offset=5)  # traffic through the broken guard
    server.rollback("faulted")
    return {}


async def _inject_hot_swap(server, fleet, programs) -> dict:
    version = server.swap("faulted", _programs_guardrail(programs[2]))
    return {"swapped_to": version}


def _programs_guardrail(program):
    from ..synth import Guardrail

    return Guardrail.from_program(program)


async def _inject_breaker_trip(server, fleet, programs) -> dict:
    tenant = server.tenant("faulted")
    server.swap("faulted", _exploding_guardrail(programs[1]))
    await fleet.drive(3, offset=5)  # enough failed flushes to trip
    times_opened = tenant.breaker.times_opened
    server.rollback("faulted")
    # Let the breaker reach half-open so the probe can close it.
    await asyncio.sleep(tenant.config.recovery_seconds * 1.5 + 0.01)
    return {"times_opened": times_opened}


async def _inject_worker_kill(server, fleet, programs) -> dict:
    from ..serve import ServeStatus

    # A partial batch (smaller than max_batch) parks the batcher in its
    # accumulate wait; the cancel lands with that batch in hand.
    burst = [
        asyncio.ensure_future(
            server.check("faulted", fleet.rows[index])
        )
        for index in (1, 2)
    ]
    fleet.submitted += len(burst)
    await asyncio.sleep(0.005)
    server.kill_batcher("faulted")
    in_hand_errors = 0
    for index, response in zip(
        (1, 2), await asyncio.gather(*burst)
    ):
        fleet.log.append(
            ("faulted", index, response, time.perf_counter())
        )
        if response.status is ServeStatus.ERROR:
            in_hand_errors += 1
    return {
        "restarts": server.tenant("faulted").metrics.batcher_restarts,
        "in_hand_errors": in_hand_errors,
    }


_INJECTORS = {
    "guard_exception": _inject_guard_exception,
    "hot_swap": _inject_hot_swap,
    "breaker_trip": _inject_breaker_trip,
    "worker_kill": _inject_worker_kill,
}


def _judge_load(
    fault: str,
    policy: GuardPolicy,
    fleet: _Fleet,
    references: dict,
    evidence: dict,
    cleared_at: float,
) -> LoadOutcome:
    """Apply the service-level contract to one fault run's log."""
    from ..serve import ServeStatus

    resolved = len(fleet.log)
    errors = sum(
        1
        for (_, _, response, _) in fleet.log
        if response.status is ServeStatus.ERROR
    )
    base = dict(
        submitted=fleet.submitted,
        resolved=resolved,
        errors=errors,
        rejected_retries=fleet.rejected_retries,
    )

    def fail(detail: str) -> LoadOutcome:
        return LoadOutcome(fault, policy, False, detail, **base)

    if fleet.lost:
        return fail(
            f"{len(fleet.lost)} request(s) lost to exceptions "
            f"(first: {fleet.lost[0]})"
        )
    if resolved != fleet.submitted:
        return fail(
            f"{fleet.submitted} submitted but {resolved} resolved — "
            "a request vanished without a typed response"
        )
    # Verdict parity: every healthy response matches the serial
    # reference for the version stamped on it.
    healthy = 0
    for tenant, row_index, response, _ in fleet.log:
        if response.status is not ServeStatus.OK:
            continue
        if response.degraded or response.verdict is None:
            continue
        reference = references.get(response.version)
        if reference is None:
            return fail(
                f"response stamped unknown version {response.version}"
            )
        if response.verdict != reference[row_index]:
            return fail(
                f"verdict parity broken for {tenant} row {row_index} "
                f"under v{response.version}"
            )
        healthy += 1
    if healthy == 0:
        return fail("no healthy verdict ever flowed")
    # Recovery: healthy verdicts from the *faulted* tenant after the
    # fault cleared.
    post = [
        t
        for tenant, _, response, t in fleet.log
        if tenant == "faulted"
        and t >= cleared_at
        and response.status is ServeStatus.OK
        and not response.degraded
    ]
    if not post:
        return fail("faulted tenant never recovered a healthy verdict")
    recovery_s = min(post) - cleared_at
    # Fault-specific evidence that the injection actually landed.
    checks = {
        "guard_exception": lambda: errors > 0
        or any(r.degraded for (_, _, r, _) in fleet.log),
        "hot_swap": lambda: any(
            r.version == evidence.get("swapped_to")
            and r.status is ServeStatus.OK
            for (_, _, r, _) in fleet.log
        ),
        "breaker_trip": lambda: evidence.get("times_opened", 0) >= 1,
        "worker_kill": lambda: evidence.get("restarts", 0) >= 1
        and evidence.get("in_hand_errors", 0) >= 1,
    }
    if not checks[fault]():
        return fail(f"fault never landed (evidence: {evidence})")
    return LoadOutcome(
        fault,
        policy,
        True,
        f"{resolved}/{fleet.submitted} typed responses, {healthy} "
        f"parity-checked, {errors} typed error(s), recovery in "
        f"{recovery_s * 1000:.0f}ms",
        recovery_s=recovery_s,
        **base,
    )


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def run_load_fault(
    fault: str,
    policy: "GuardPolicy | str",
    clients: int = 8,
    requests: int = 5,
) -> LoadOutcome:
    """Inject one fault class into a loaded server; judge the outcome.

    ``clients`` closed-loop clients each issue ``requests`` requests
    per traffic phase (before and after the fault; some classes also
    drive traffic during it).
    """
    if fault not in _INJECTORS:
        raise ValueError(
            f"unknown load fault class {fault!r}; choose from "
            + ", ".join(LOAD_FAULT_CLASSES)
        )
    resolved = GuardPolicy.parse(policy)
    return asyncio.run(
        _drive_load_fault(fault, resolved, clients, requests)
    )


def run_load_suite(
    policy: "GuardPolicy | str" = GuardPolicy.WARN,
    faults: tuple = LOAD_FAULT_CLASSES,
    clients: int = 8,
    requests: int = 5,
) -> list[LoadOutcome]:
    """Run every under-load fault class under ``policy``."""
    return [
        run_load_fault(fault, policy, clients=clients, requests=requests)
        for fault in faults
    ]


def render_load_report(outcomes: list) -> str:
    """Plain-text table of under-load outcomes (the CLI's output)."""
    width = max((len(o.fault) for o in outcomes), default=5)
    policy = outcomes[0].policy.value if outcomes else "?"
    lines = [f"chaos-under-load suite under policy {policy}:"]
    for outcome in outcomes:
        mark = "PASS" if outcome.conformant else "FAIL"
        lines.append(
            f"  {mark}  {outcome.fault.ljust(width)}  {outcome.detail}"
        )
    conformant = sum(o.conformant for o in outcomes)
    lines.append(
        f"{conformant}/{len(outcomes)} fault classes conformant under load"
    )
    return "\n".join(lines)
