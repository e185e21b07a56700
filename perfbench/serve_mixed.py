"""Workload ``serve_mixed``: a durable multi-tenant ``GuardServer``.

Why: the repo's own serving layer.  One server hosts four tenants
(Lung Cancer, Jungle Chess, Bank Marketing, Hotel Reservations), each
guarded by a program fitted on the registry's own Table-2 twin (as in
``sql_rq2``, the seed varies the traffic, not the programs), and
runs durable, with its ``state_dir`` in a fresh directory under
``.bench_out``.  Requests draw rows from fresh 1%-noise samples: 80%
``check``, 20% ``rectify``.  Violating check rows are journaled to the
quarantine with an fsync per append, which puts disk writes beside the
read path.  Three phases:

* open-loop Poisson arrivals at 500 and 2000 req/s, each request timed
  from its due time.  At 500 req/s batches hold about one row, so the
  2 ms batching window sets latency: the bypass case for guard-engine
  changes, whose p50 should not move when they land.  At 2000 req/s
  batches form and guard cost per row starts to count;
* a closed loop of 32 callers (8 per tenant), each waiting for its
  reply, where guard cost per row dominates;
* a fixed rate ladder for ``serve.max_rps``: the highest rate with p99
  from due time at most ``LADDER_P99_MS``, no rejection and no backlog
  growth.  A step stops sending once ``LADDER_BACKLOG`` requests are in
  flight, so the ladder never drives the server into shedding.
"""

from __future__ import annotations

import asyncio
import shutil
import tempfile
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from repro.serve import ServeResponse, ServeStatus

from common import OUT_DIR, Outcome, percentile

TENANTS = (
    ("lung", "Lung Cancer"),
    ("jungle", "Jungle Chess"),
    ("bank", "Bank Marketing"),
    ("hotel", "Hotel Reservations"),
)
POOL_ROWS = 2000
"""Fresh noisy rows per tenant that requests draw from."""
ERROR_RATE = 0.01
SETUP_REPEATS = 1
"""Set-up fits four Table-2 twins (about 12 s of fixed work), once."""
RECTIFY_SHARE = 0.2
OPEN_RATES = (500, 2000)
CALLERS_PER_TENANT = 8
LADDER = (2000, 3000, 4000, 5000, 6000, 7000, 8000)
LADDER_P99_MS = 50.0
LADDER_BACKLOG = 256
SHARES = {500: 0.2, 2000: 0.1, "closed": 0.2, "ladder": 0.5}
"""Share of ``--seconds`` each phase gets; at 12 s the 500 req/s phase
holds about 1200 requests, so its p99 has ten samples beyond it."""
WARM_UP_REQUESTS = 400


@dataclass
class State:
    """Guardrails, request pools, and the durable server under test."""

    guardrails: dict
    pools: dict
    server: object
    state_dir: str
    seed: int


class Sent(NamedTuple):
    """One request and the parts of its reply the check reads.

    Replies are not kept whole: the clients share the server's heap
    here, and every object they hold lengthens the collector's passes.
    """

    tenant: str
    kind: str
    row_index: int
    latency_ms: float
    typed: bool
    status: object
    request_id: int
    verdict_ok: "bool | None"
    row: "dict | None"
    queued_ms: float

    @property
    def ok(self) -> bool:
        """Did the server serve the request?"""
        return self.typed and self.status is ServeStatus.OK


def _build_server(guardrails: dict, state_dir: str):
    from repro.serve import GuardServer

    server = GuardServer(state_dir=state_dir)
    for name, guardrail in guardrails.items():
        server.register(name, guardrail)
    return server


def setup(seed: int) -> State:
    """Fit a guardrail per tenant, sample request pools, warm up."""
    from repro.datasets import load
    from repro.errors import inject_errors
    from repro.synth import Guardrail

    rng = np.random.default_rng([seed, 4])
    guardrails = {}
    pools = {}
    for name, dataset_name in TENANTS:
        dataset = load(dataset_name)
        guardrails[name] = Guardrail().fit(dataset.relation)
        fresh = dataset.sem.sample(POOL_ROWS, rng)
        noisy = inject_errors(fresh, rate=ERROR_RATE, rng=rng).relation
        pools[name] = noisy.to_rows()
    OUT_DIR.mkdir(exist_ok=True)
    # A throwaway server pays imports and first-call costs here; the
    # measured server gets its own fresh state directory.
    warm_dir = tempfile.mkdtemp(prefix="serve-warm-", dir=OUT_DIR)
    try:
        warm = _build_server(guardrails, warm_dir)
        asyncio.run(_warm_up(warm, pools, rng))
    finally:
        shutil.rmtree(warm_dir, ignore_errors=True)
    state_dir = tempfile.mkdtemp(prefix="serve-state-", dir=OUT_DIR)
    return State(
        guardrails,
        pools,
        _build_server(guardrails, state_dir),
        state_dir,
        seed,
    )


async def _warm_up(server, pools, rng) -> None:
    async with server:
        plan = _plan(rng, pools, WARM_UP_REQUESTS)
        await asyncio.gather(*(_call(server, *spec) for spec in plan))


def teardown(state: State) -> None:
    """Remove the server's state directory."""
    shutil.rmtree(state.state_dir, ignore_errors=True)


def _plan(rng, pools, count: int) -> list:
    """``count`` seeded (tenant, kind, row index) request specs."""
    names = list(pools)
    tenants = rng.integers(len(names), size=count)
    rectify = rng.random(count) < RECTIFY_SHARE
    rows = rng.integers(POOL_ROWS, size=count)
    return [
        (
            names[t],
            "rectify" if r else "check",
            int(i),
            pools[names[t]][int(i)],
        )
        for t, r, i in zip(tenants, rectify, rows)
    ]


async def _call(server, tenant, kind, row_index, row):
    if kind == "check":
        return await server.check(tenant, row)
    return await server.rectify(tenant, row)


class _Phase:
    """Requests of one phase, with in-flight accounting."""

    def __init__(self):
        self.sent: list[Sent] = []
        self.lateness_ms: list[float] = []
        self.in_flight = 0

    async def request(self, server, spec, due: float) -> None:
        self.in_flight += 1
        try:
            response = await _call(server, *spec)
        finally:
            self.in_flight -= 1
        latency = (time.perf_counter() - due) * 1000.0
        typed = isinstance(response, ServeResponse)
        verdict = response.verdict if typed else None
        self.sent.append(
            Sent(
                spec[0],
                spec[1],
                spec[2],
                latency,
                typed and isinstance(response.status, ServeStatus),
                response.status if typed else None,
                response.request_id if typed else -1,
                None if verdict is None else verdict.ok,
                response.row if typed and spec[1] == "rectify" else None,
                response.queued_ms if typed else 0.0,
            )
        )

    def latencies(self) -> list[float]:
        return [s.latency_ms for s in self.sent]


async def _open_loop(server, pools, rng, rate, seconds, backlog=None):
    """Poisson arrivals at ``rate`` for ``seconds``.

    Returns the phase, whether sending stopped early because
    ``backlog`` requests were in flight, and the backlog when sending
    ended.
    """
    gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 1.5) + 16)
    offsets = np.cumsum(gaps)
    offsets = offsets[offsets < seconds]
    plan = _plan(rng, pools, len(offsets))
    phase = _Phase()
    tasks = []
    stopped = False
    start = time.perf_counter()
    for offset, spec in zip(offsets, plan):
        now = time.perf_counter() - start
        if offset > now:
            await asyncio.sleep(offset - now)
        if backlog is not None and phase.in_flight >= backlog:
            stopped = True
            break
        phase.lateness_ms.append(
            (time.perf_counter() - start - offset) * 1000.0
        )
        tasks.append(
            asyncio.ensure_future(phase.request(server, spec, start + offset))
        )
    end_backlog = phase.in_flight
    await asyncio.gather(*tasks)
    return phase, stopped, end_backlog


async def _closed_loop(server, pools, rng, seconds: float):
    """``CALLERS_PER_TENANT`` callers per tenant, each awaiting its reply."""
    phase = _Phase()
    stop = time.perf_counter() + seconds
    seeds = rng.integers(2**31, size=len(pools) * CALLERS_PER_TENANT)

    async def caller(tenant, caller_seed):
        caller_rng = np.random.default_rng(caller_seed)
        pool = pools[tenant]
        while time.perf_counter() < stop:
            index = int(caller_rng.integers(POOL_ROWS))
            rectify = caller_rng.random() < RECTIFY_SHARE
            kind = "rectify" if rectify else "check"
            await phase.request(
                server, (tenant, kind, index, pool[index]), time.perf_counter()
            )

    start = time.perf_counter()
    await asyncio.gather(
        *(
            caller(tenant, int(seeds[k * len(pools) + j]))
            for j, tenant in enumerate(pools)
            for k in range(CALLERS_PER_TENANT)
        )
    )
    return phase, time.perf_counter() - start


async def _drive(state: State, seconds: float) -> dict:
    rng = np.random.default_rng([state.seed, 5])
    phases = {}
    async with state.server:
        for rate in OPEN_RATES:
            phases[f"r{rate}"], _, _ = await _open_loop(
                state.server, state.pools, rng, rate, SHARES[rate] * seconds
            )
        phases["closed"], closed_s = await _closed_loop(
            state.server, state.pools, rng, SHARES["closed"] * seconds
        )
        step_s = SHARES["ladder"] * seconds / len(LADDER)
        max_rps = 0
        for rate in LADDER:
            phase, stopped, end_backlog = await _open_loop(
                state.server, state.pools, rng, rate, step_s, LADDER_BACKLOG
            )
            phases[f"ladder{rate}"] = phase
            latencies = phase.latencies()
            passed = (
                not stopped
                and end_backlog < LADDER_BACKLOG
                and all(s.ok for s in phase.sent)
                and percentile(latencies, 0.99) <= LADDER_P99_MS
            )
            if not passed:
                break
            max_rps = rate
    return {"phases": phases, "closed_s": closed_s, "max_rps": max_rps}


def measure(state: State, seconds: float, tracer=None) -> Outcome:
    """Run the three phases against the durable server."""
    run = asyncio.run(_drive(state, seconds))
    phases = run["phases"]
    outcome = Outcome()
    sent = [s for phase in phases.values() for s in phase.sent]
    outcome.attempted = len(sent)
    for s in sent:
        if not s.ok:
            outcome.fail(
                f"{s.tenant} {s.kind} request {s.request_id}: {s.status}"
            )
    closed = phases["closed"].latencies()
    outcome.ops_per_s = len(closed) / run["closed_s"]
    outcome.op_latency_ms = percentile(closed, 0.5)
    n = len(closed)
    named = {
        "serve.closed_rps": (outcome.ops_per_s, "req/s", n, None),
        "serve.closed_p50_ms": (percentile(closed, 0.5), "ms", n, 0.5),
        "serve.closed_p99_ms": (percentile(closed, 0.99), "ms", n, 0.99),
    }
    for rate in OPEN_RATES:
        latencies = phases[f"r{rate}"].latencies()
        n = len(latencies)
        for q, label in ((0.5, "p50"), (0.99, "p99")):
            named[f"serve.r{rate}.{label}_ms"] = (
                percentile(latencies, q), "ms", n, q
            )
    named["serve.max_rps"] = (float(run["max_rps"]), "req/s", None, None)
    outcome.named = named

    metrics = [state.server.tenant(name).metrics for name in state.pools]
    queued = [s.queued_ms for s in sent if s.ok]
    lateness = [
        late
        for name, phase in phases.items()
        if name != "closed"
        for late in phase.lateness_ms
    ]
    batches = sum(m.batches for m in metrics)
    outcome.layers = {
        "serve.batch_fill": sum(m.rows_flushed for m in metrics)
        / max(batches, 1),
        "serve.rows_flushed": float(sum(m.rows_flushed for m in metrics)),
        "serve.queue_wait_ms.p50": percentile(queued, 0.5),
        "serve.queue_wait_ms.p99": percentile(queued, 0.99),
        "serve.rejected": float(sum(m.rejected for m in metrics)),
        "serve.expired": float(sum(m.expired for m in metrics)),
        "serve.errors": float(sum(m.errors for m in metrics)),
        "serve.gen_lateness_ms.p50": percentile(lateness, 0.5),
        "serve.gen_lateness_ms.p99": percentile(lateness, 0.99),
    }
    outcome.records = sent
    return outcome


def check(state: State, outcome: Outcome) -> None:
    """Zero lost requests; verdicts and repairs agree with the reference.

    Every request got a typed response with a unique id; every OK
    ``check`` verdict equals ``row_conforms`` on its row; every OK
    ``rectify`` reply conforms.
    """
    from repro.dsl import row_conforms

    reference = {}
    ids = set()
    for s in outcome.records:
        if not s.typed:
            outcome.fail(f"{s.tenant}: untyped response")
            continue
        if s.request_id in ids:
            outcome.fail(f"duplicate response id {s.request_id}")
        ids.add(s.request_id)
        if not s.ok:
            continue
        program = state.guardrails[s.tenant].program
        if s.kind == "check":
            key = (s.tenant, s.row_index)
            if key not in reference:
                reference[key] = row_conforms(
                    program, state.pools[s.tenant][s.row_index]
                )
            if s.verdict_ok != reference[key]:
                outcome.fail(
                    f"{s.tenant} row {s.row_index}: verdict disagrees"
                )
        elif s.row is None or not row_conforms(program, s.row):
            outcome.fail(
                f"{s.tenant} row {s.row_index}: rectified row violates"
            )


def layer_metrics(tracer, outcome: Outcome) -> dict:
    """Per-layer metrics of a traced pass."""
    rows = outcome.layers["serve.rows_flushed"]
    batch_rows = sum(tracer.returns["errors.batch_check"])
    rectifies = tracer.calls("errors.row_rectify")
    appends = tracer.calls("resilience.journal_append")
    admits = tracer.calls("serve.admit")

    def per(total, count, scale=1e6):
        return scale * total / count if count else 0.0

    layers = dict(outcome.layers)
    del layers["serve.rows_flushed"]
    layers.update(
        {
            "serve.admit_us": per(tracer.total("serve.admit"), admits),
            "serve.flush_us_per_row": per(
                tracer.self_time("serve.flush"), rows
            ),
            "resilience.policy_us_per_batch": per(
                tracer.self_time("resilience.policy_check"),
                tracer.calls("resilience.policy_check"),
            ),
            "resilience.live_us_per_batch": per(
                tracer.self_time("resilience.live_check"),
                tracer.calls("resilience.live_check"),
            ),
            "errors.batch_guard_us_per_row": per(
                tracer.self_time("errors.batch_check"), batch_rows
            ),
            "dsl.run_codes_us_per_row": per(
                tracer.total("dsl.run_codes"), batch_rows
            ),
            "errors.row_rectify_us": per(
                tracer.total("errors.row_rectify"), rectifies
            ),
            "resilience.journal_appends": float(appends),
            "resilience.journal_append_ms": per(
                tracer.total("resilience.journal_append"), appends, 1e3
            ),
        }
    )
    return layers


def install(tracer) -> None:
    """Wrap the entry points this workload's layers are timed at."""
    from repro.dsl import CompiledProgram
    from repro.errors import BatchGuard
    from repro.resilience import (
        DurableStateStore,
        LiveBatchGuard,
        ResilientBatchGuard,
        ResilientRowGuard,
    )
    from repro.serve import Tenant

    tracer.patch(Tenant, "admit", "serve.admit", context=lambda args: args[3])
    tracer.patch(Tenant, "flush", "serve.flush")
    tracer.patch(ResilientBatchGuard, "check_batch", "resilience.policy_check")
    tracer.patch(LiveBatchGuard, "check_batch", "resilience.live_check")
    tracer.patch(BatchGuard, "check_batch", "errors.batch_check", keep=len)
    tracer.patch(CompiledProgram, "run_codes", "dsl.run_codes")
    tracer.patch(ResilientRowGuard, "rectify", "errors.row_rectify")
    tracer.patch(DurableStateStore, "append", "resilience.journal_append")
