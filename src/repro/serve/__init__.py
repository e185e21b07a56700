"""Async multi-tenant guard serving (the "millions of users" shape).

The batch pipeline synthesizes and checks relations offline; this
package is the long-lived deployment front-end over the same machinery:

* :class:`GuardServer` — an asyncio service registering many named
  guardrails (tenants) and accepting concurrent ``check`` /
  ``rectify`` / ``predict`` requests;
* per-tenant admission queues coalesce requests into
  micro-batches for the tenant's :class:`~repro.errors.Guard` (flush on
  ``max_batch`` or ``max_wait_ms``) — verdicts stay bit-identical to
  a direct serial ``check_batch`` over the same rows;
* bounded queues give typed backpressure: a full tenant rejects with
  a :attr:`~repro.serve.ServeStatus.REJECTED` response carrying
  ``retry_after``, never an exception — and overload control
  (:mod:`repro.resilience.overload`) sheds *before* the cliff:
  adaptive admission on queue sojourn time, request ``deadline_ms``
  budgets (typed :attr:`~repro.serve.ServeStatus.EXPIRED` at
  dequeue), a weighted fair-share concurrency budget across tenants
  (``GuardServer(budget=...)``), and brownout degradation tiers with
  hysteresis;
* per-tenant :class:`~repro.resilience.GuardPolicy` +
  :class:`~repro.resilience.CircuitBreaker` govern degradation, and
  :class:`~repro.resilience.GuardrailVersions` gives per-tenant
  hot-swap under live traffic (no request observes a torn version);
* two execution modes per tenant (:class:`ServeMode`): *blocking*
  (the verdict gates the predict stage) and *parallel* (the predict
  stage races the guard; a tripwire voids its output) — the latency
  / cost tradeoff from the openai-agents guardrails playbook;
* optional durability (``GuardServer(state_dir=...)``): control-plane
  events and quarantined rows are write-ahead journaled, snapshots
  bound replay, and :meth:`GuardServer.recover` rebuilds every tenant
  at its last committed version after a crash (``repro recover`` from
  the CLI).

    server = GuardServer()
    server.register("acme", guardrail, TenantConfig(mode="blocking"))
    async with server:
        response = await server.check("acme", row)
        response.verdict.ok, response.version

CLI: ``repro serve guardrail.dsl traffic.csv --tenants 4 --clients 16``
drives a closed-loop workload and prints the per-tenant service report.
"""

from .config import ServeMode, TenantConfig
from .metrics import render_service_report
from .responses import ServeResponse, ServeStatus
from .server import GuardServer
from .tenant import Tenant, TenantMetrics

__all__ = [
    "GuardServer",
    "ServeMode",
    "ServeResponse",
    "ServeStatus",
    "Tenant",
    "TenantConfig",
    "TenantMetrics",
    "render_service_report",
]
