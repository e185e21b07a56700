"""Policy-wrapper overhead — the resilient guard vs. the bare guard.

The degradation layer (policy dispatch + circuit breaker + watchdog
bookkeeping) sits on the per-row hot path, so it must be nearly free:
the acceptance bar for the resilience PR is policy-wrapped throughput
within 10% of the bare guards on the healthy path.
"""

import time

import pytest

from conftest import banner
from repro.pgm import DAG, random_sem, sem_to_program
from repro.resilience import CircuitBreaker, ResilientGuard
from repro.synth import Guardrail

_N_ROWS = 4000
_REPEATS = 5
_BATCH = 256
"""Rows per ``check_batch`` call (the micro-batch ``stream`` used to
flush when this benchmark was written)."""


@pytest.fixture(scope="module")
def workload():
    """A moderately wide program + clean rows, so per-row guard work
    (not wrapper dispatch) dominates honest measurements."""
    import numpy as np

    rng = np.random.default_rng(7)
    names = [f"a{i}" for i in range(6)]
    dag = DAG(
        names, [(names[i], names[i + 1]) for i in range(len(names) - 1)]
    )
    sem = random_sem(dag, cardinalities=4, determinism=1.0, rng=rng)
    relation = sem.sample(_N_ROWS, rng)
    guardrail = Guardrail.from_program(sem_to_program(sem, relation))
    rows = list(relation.iter_rows())
    return guardrail, relation, rows


def _best_of(fn, repeats=_REPEATS):
    """Best-of-N wall time: robust to scheduler noise on shared CI."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _wrap(guardrail):
    return ResilientGuard(
        guardrail.guard(),
        policy="warn",
        breaker=CircuitBreaker(max_retries=0),
    )


def _batches(guard, rows):
    return [
        verdict
        for start in range(0, len(rows), _BATCH)
        for verdict in guard.check_batch(rows[start:start + _BATCH])
    ]


def test_policy_wrapper_overhead(workload):
    guardrail, _, rows = workload

    bare = guardrail.guard()
    wrapped = _wrap(guardrail)

    # Warm-up: compile the program outside the timings.
    for guard in (bare, wrapped):
        guard.check(rows[0])
        guard.check_batch(rows[:_BATCH])

    t_bare_row = _best_of(lambda: [bare.check(r) for r in rows])
    t_wrapped_row = _best_of(lambda: [wrapped.check(r) for r in rows])
    t_bare_batch = _best_of(lambda: _batches(bare, rows))
    t_wrapped_batch = _best_of(lambda: _batches(wrapped, rows))

    row_ratio = t_wrapped_row / t_bare_row
    batch_ratio = t_wrapped_batch / t_bare_batch
    body = (
        f"rows: {_N_ROWS}, best of {_REPEATS} runs, "
        f"batches of {_BATCH}\n"
        f"check       bare {t_bare_row * 1e3:8.2f} ms   "
        f"wrapped {t_wrapped_row * 1e3:8.2f} ms   "
        f"ratio {row_ratio:.3f}\n"
        f"check_batch bare {t_bare_batch * 1e3:8.2f} ms   "
        f"wrapped {t_wrapped_batch * 1e3:8.2f} ms   "
        f"ratio {batch_ratio:.3f}"
    )
    banner("Guard policy overhead", body)

    # The acceptance bar: within 10% of bare-guard throughput.
    assert row_ratio < 1.10, f"row wrapper overhead {row_ratio:.3f}x"
    assert batch_ratio < 1.10, f"batch wrapper overhead {batch_ratio:.3f}x"


def test_wrapped_verdicts_match_bare(workload):
    guardrail, _, rows = workload
    bare = guardrail.guard()
    wrapped = _wrap(guardrail)
    sample = rows[:200]
    assert [bare.check(r).ok for r in sample] == [
        wrapped.check(r).ok for r in sample
    ]
