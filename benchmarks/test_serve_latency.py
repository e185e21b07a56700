"""Serving-layer latency/throughput — the ``repro.serve`` cost model.

Drives ``GuardServer`` with a closed-loop workload (N tenants x M
concurrent clients per tenant, each submitting a fixed number of
``check`` requests) and records the request-latency percentiles the
micro-batcher produces plus end-to-end throughput.  The interesting
number is the p95: a request admitted first into an empty batch waits
up to ``max_wait_ms`` for co-riders, so p95 should sit near
``max_wait_ms`` plus one batch-kernel flush — far below N serial
per-row checks.

Each run also records its measurements against ``BENCH_serve.json``
(``{"baseline": {...}, "trajectory": [...]}``, the layout
``benchmarks/README.md`` documents); set ``REPRO_UPDATE_BENCH=1`` to
rewrite the baseline on a quiet machine.
"""

import asyncio
import json
import os
import time
from pathlib import Path

import pytest

from conftest import banner
from repro.pgm import DAG, random_sem, sem_to_program
from repro.serve import GuardServer, ServeStatus, TenantConfig
from repro.synth import Guardrail

_TENANTS = 4
_CLIENTS = 16
_REQUESTS = int(os.environ.get("REPRO_SERVE_REQUESTS", "250"))
_BASELINE = Path(__file__).resolve().parent / "BENCH_serve.json"


@pytest.fixture(scope="module")
def workload():
    """A 6-attribute chain guardrail plus a clean request stream."""
    import numpy as np

    rng = np.random.default_rng(7)
    names = [f"a{i}" for i in range(6)]
    dag = DAG(
        names, [(names[i], names[i + 1]) for i in range(len(names) - 1)]
    )
    sem = random_sem(dag, cardinalities=4, determinism=1.0, rng=rng)
    relation = sem.sample(4096, rng)
    program = sem_to_program(sem, relation)
    rows = list(relation.iter_rows())
    return program, rows


async def _drive(server: GuardServer, names, rows) -> int:
    """Closed-loop clients; returns the number of completed requests."""
    completed = 0

    async def client(tenant: str, client_index: int) -> int:
        done = 0
        for j in range(_REQUESTS):
            row = rows[(client_index * _REQUESTS + j) % len(rows)]
            response = await server.check(tenant, row)
            while response.status is ServeStatus.REJECTED:
                await asyncio.sleep(response.retry_after)
                response = await server.check(tenant, row)
            assert response.ok
            done += 1
        return done

    async with server:
        results = await asyncio.gather(
            *(
                client(name, k)
                for name in names
                for k in range(_CLIENTS)
            )
        )
    completed = sum(results)
    return completed


def _measure(program, rows, state_dir=None) -> dict:
    server = GuardServer(state_dir=state_dir)
    names = [f"tenant-{i}" for i in range(_TENANTS)]
    for name in names:
        server.register(
            name,
            Guardrail.from_program(program),
            TenantConfig(max_batch=64, max_wait_ms=2.0),
        )
    start = time.perf_counter()
    completed = asyncio.run(_drive(server, names, rows))
    elapsed = time.perf_counter() - start
    assert completed == _TENANTS * _CLIENTS * _REQUESTS

    snapshots = [server.tenant(name).metrics for name in names]
    p50 = max(m.percentile_ms(0.50) for m in snapshots)
    p95 = max(m.percentile_ms(0.95) for m in snapshots)
    fill = sum(m.rows_flushed for m in snapshots) / max(
        1, sum(m.batches for m in snapshots)
    )
    return {
        "tenants": _TENANTS,
        "clients_per_tenant": _CLIENTS,
        "requests_per_client": _REQUESTS,
        "completed": completed,
        "throughput_rps": completed / elapsed,
        "p50_ms": p50,
        "p95_ms": p95,
        "mean_batch_fill": fill,
        "wall_s": elapsed,
    }


def _record_baseline(measurements: dict) -> str:
    """Compare against (or rewrite) the committed baseline file."""
    payload = (
        json.loads(_BASELINE.read_text()) if _BASELINE.exists() else {}
    )
    if os.environ.get("REPRO_UPDATE_BENCH") == "1" or not payload:
        payload["baseline"] = measurements
        payload.setdefault("trajectory", [])
        _BASELINE.write_text(json.dumps(payload, indent=2) + "\n")
        return f"baseline written to {_BASELINE.name}"
    baseline = payload["baseline"]
    lines = []
    for key in ("throughput_rps", "p50_ms", "p95_ms"):
        reference = baseline.get(key)
        if isinstance(reference, (int, float)) and reference:
            value = measurements[key]
            lines.append(
                f"{key}: {value:.2f} (baseline {reference:.2f}, "
                f"{value / reference:+.1%} of reference)"
            )
    return "vs committed baseline:\n  " + "\n  ".join(lines)


def test_serve_latency_and_throughput(workload):
    program, rows = workload
    measurements = _measure(program, rows)

    banner(
        "Serving layer latency/throughput",
        "\n".join(
            [
                f"{_TENANTS} tenants x {_CLIENTS} clients x "
                f"{_REQUESTS} requests (closed loop)",
                f"throughput   {measurements['throughput_rps']:10.0f} req/s",
                f"p50 latency  {measurements['p50_ms']:10.2f} ms",
                f"p95 latency  {measurements['p95_ms']:10.2f} ms",
                f"batch fill   {measurements['mean_batch_fill']:10.1f} "
                "rows/flush",
            ]
        )
        + "\n"
        + _record_baseline(measurements),
    )

    # Micro-batching must actually coalesce under concurrent load —
    # a fill near 1 means the batcher is flushing per request and the
    # serving layer is just expensive ceremony.
    assert measurements["mean_batch_fill"] >= 2.0
    # The latency bound the config promises: one max_wait window plus
    # generous flush/scheduling headroom.
    assert measurements["p95_ms"] < 250.0


def _record_durable(measurements: dict) -> str:
    """Record (or report) the durable variant in ``BENCH_serve.json``."""
    payload = (
        json.loads(_BASELINE.read_text()) if _BASELINE.exists() else {}
    )
    if os.environ.get("REPRO_UPDATE_BENCH") == "1" or (
        "durable" not in payload
    ):
        payload["durable"] = measurements
        payload.setdefault("trajectory", [])
        _BASELINE.write_text(json.dumps(payload, indent=2) + "\n")
        return f"durable entry written to {_BASELINE.name}"
    reference = payload["durable"]
    return (
        f"recorded durable: {reference['throughput_rps']:.0f} req/s, "
        f"p95 {reference['p95_ms']:.2f} ms"
    )


def test_durable_serve_overhead_within_bound(workload, tmp_path):
    """The durable variant (``state_dir=``) stays within 10% of the
    in-memory server on throughput and p95 — steady-state traffic is
    never journaled, so the WAL must cost nothing on the hot path."""
    program, rows = workload

    def ratios(attempt: int):
        baseline = _measure(program, rows)
        durable = _measure(
            program, rows, state_dir=tmp_path / f"state-{attempt}"
        )
        return (
            durable,
            durable["throughput_rps"] / baseline["throughput_rps"],
            durable["p95_ms"] / max(baseline["p95_ms"], 1e-9),
        )

    durable, throughput_ratio, p95_ratio = ratios(0)
    if throughput_ratio < 0.90 or p95_ratio > 1.10:
        # One retry absorbs scheduler jitter on a loaded machine.
        durable, throughput_ratio, p95_ratio = ratios(1)

    measurements = dict(
        durable,
        throughput_ratio=throughput_ratio,
        p95_ratio=p95_ratio,
    )
    banner(
        "Durable serving overhead (state_dir journal)",
        "\n".join(
            [
                f"durable throughput {durable['throughput_rps']:10.0f} "
                f"req/s ({throughput_ratio:.1%} of in-memory)",
                f"durable p95        {durable['p95_ms']:10.2f} ms "
                f"({p95_ratio:.1%} of in-memory)",
            ]
        )
        + "\n"
        + _record_durable(measurements),
    )
    assert throughput_ratio >= 0.90, (
        f"durable serving lost {1 - throughput_ratio:.1%} throughput "
        f"(bound: 10%)"
    )
    assert p95_ratio <= 1.10, (
        f"durable serving inflated p95 by {p95_ratio - 1:.1%} (bound: 10%)"
    )


async def _storm(server: GuardServer, rows, total: int, duration: float):
    """Open-loop arrivals: ``total`` requests over ``duration`` seconds
    regardless of completions (the arrival process a shedding server
    actually faces).  Returns the settled responses and elapsed time
    from first submission to last resolution."""
    futures = []
    ticks = 40
    sent = 0
    start = time.perf_counter()
    for tick in range(ticks):
        quota = (total * (tick + 1)) // ticks
        while sent < quota:
            futures.append(
                asyncio.ensure_future(
                    server.check("tenant-0", rows[sent % len(rows)])
                )
            )
            sent += 1
        await asyncio.sleep(duration / ticks)
    responses = await asyncio.gather(*futures)
    return responses, time.perf_counter() - start


def _throttled_guardrail(program, delay_s: float):
    """A correct guardrail whose guards sleep ``delay_s`` per call.

    The raw guardrail clears ~20k req/s — far more than an in-process
    open-loop driver can offer at 10x, so a storm against it measures
    driver CPU, not shedding.  Throttling makes capacity small and
    the 10x arrival process real."""

    class _Throttled:
        def __init__(self, inner):
            self._inner = inner

        def check_batch(self, batch):
            time.sleep(delay_s)
            return self._inner.check_batch(batch)

        def rectify(self, row):
            time.sleep(delay_s)
            return self._inner.rectify(row)

    class _ThrottledGuardrail(Guardrail):
        def guard(self):
            return _Throttled(super().guard())

    return _ThrottledGuardrail.from_program(program)


def _measure_overload(program, rows) -> dict:
    """Calibrate single-tenant capacity, then storm the same config at
    1x/4x/10x offered load and record goodput + admitted-request p95."""

    from repro.resilience import BrownoutConfig

    def server() -> GuardServer:
        fresh = GuardServer(
            brownout=BrownoutConfig(
                step_down_after=2,
                cool_seconds=0.15,
                min_dwell_seconds=0.05,
                max_tier=2,
            )
        )
        fresh.register(
            "tenant-0",
            _throttled_guardrail(program, 0.008),
            TenantConfig(
                max_batch=8,
                max_wait_ms=2.0,
                queue_size=96,
                target_delay_ms=20.0,
            ),
        )
        return fresh

    async def calibrate() -> float:
        # Cold closed loop with max_batch concurrent clients (so
        # batches fill).  Best of two runs: a single short sample is
        # noisy enough to distort every storm multiplier downstream.
        async def once() -> float:
            closed = server()
            async with closed:
                start = time.perf_counter()
                completed = await _drive_single(closed, rows, 8, 10)
                return completed / (time.perf_counter() - start)

        return max(await once(), await once())

    async def _drive_single(srv, pool, clients, requests) -> int:
        async def client(cid: int) -> int:
            done = 0
            for j in range(requests):
                row = pool[(cid * requests + j) % len(pool)]
                response = await srv.check("tenant-0", row)
                while response.status is ServeStatus.REJECTED:
                    await asyncio.sleep(response.retry_after)
                    response = await srv.check("tenant-0", row)
                done += 1
            return done

        return sum(
            await asyncio.gather(*(client(c) for c in range(clients)))
        )

    capacity = asyncio.run(calibrate())
    measurements = {"capacity_rps": capacity, "storms": {}}
    for multiplier in (1, 4, 10):
        offered = capacity * multiplier
        total = min(int(offered * 0.5), 4000)
        duration = total / offered

        async def run_storm():
            stormed = server()
            async with stormed:
                return await _storm(stormed, rows, total, duration)

        responses, elapsed = asyncio.run(run_storm())
        completed = [
            r for r in responses if r.status is ServeStatus.OK
        ]
        latencies = sorted(
            r.queued_ms + r.service_ms for r in completed
        )
        p95 = (
            latencies[int(0.95 * (len(latencies) - 1))]
            if latencies
            else 0.0
        )
        goodput = len(completed) / elapsed
        measurements["storms"][f"{multiplier}x"] = {
            "offered_rps": offered,
            "submitted": total,
            "completed": len(completed),
            "rejected": sum(
                r.status is ServeStatus.REJECTED for r in responses
            ),
            "goodput_rps": goodput,
            "goodput_ratio": goodput / capacity,
            "admitted_p95_ms": p95,
        }
    return measurements


def _record_overload(measurements: dict) -> str:
    """Record (or report) the overload variant in ``BENCH_serve.json``."""
    payload = (
        json.loads(_BASELINE.read_text()) if _BASELINE.exists() else {}
    )
    if os.environ.get("REPRO_UPDATE_BENCH") == "1" or (
        "overload" not in payload
    ):
        payload["overload"] = measurements
        payload.setdefault("trajectory", [])
        _BASELINE.write_text(json.dumps(payload, indent=2) + "\n")
        return f"overload entry written to {_BASELINE.name}"
    reference = payload["overload"]["storms"]["10x"]
    return (
        f"recorded overload 10x: {reference['goodput_ratio']:.0%} "
        f"goodput, admitted p95 {reference['admitted_p95_ms']:.2f} ms"
    )


def test_overload_goodput_under_storm(workload):
    """Open-loop storms at 1x/4x/10x calibrated capacity: admission
    control and queue-full shedding must keep goodput at >= 70% of the
    single-tenant capacity even when ten times as much traffic is
    offered — shedding is cheap, guard work is not wasted on requests
    that will never be served in time."""
    program, rows = workload
    measurements = _measure_overload(program, rows)
    if measurements["storms"]["10x"]["goodput_ratio"] < 0.70:
        # One retry absorbs scheduler jitter on a loaded machine.
        measurements = _measure_overload(program, rows)

    lines = [f"capacity     {measurements['capacity_rps']:10.0f} req/s"]
    for key, storm in measurements["storms"].items():
        lines.append(
            f"{key:>4s} offered {storm['goodput_ratio']:9.0%} goodput, "
            f"admitted p95 {storm['admitted_p95_ms']:6.2f} ms, "
            f"{storm['rejected']} shed"
        )
    banner(
        "Overload shedding (open-loop storms)",
        "\n".join(lines) + "\n" + _record_overload(measurements),
    )

    storm_10x = measurements["storms"]["10x"]
    assert storm_10x["goodput_ratio"] >= 0.70, (
        f"10x storm goodput collapsed to "
        f"{storm_10x['goodput_ratio']:.0%} of capacity (bound: 70%)"
    )
    # Shedding must actually engage at 10x — a queue deep enough to
    # absorb the whole storm would just be hidden latency.
    assert storm_10x["rejected"] > 0


def test_committed_baseline_exists():
    """The committed record must hold a plausible serving baseline."""
    payload = json.loads(_BASELINE.read_text())
    baseline = payload["baseline"]
    assert baseline["completed"] == (
        baseline["tenants"]
        * baseline["clients_per_tenant"]
        * baseline["requests_per_client"]
    )
    assert baseline["throughput_rps"] > 0
    assert baseline["p95_ms"] >= baseline["p50_ms"] > 0
    assert "trajectory" in payload
