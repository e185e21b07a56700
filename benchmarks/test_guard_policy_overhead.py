"""Policy-wrapper overhead — the resilient guard vs. the bare guard.

The degradation layer (policy dispatch + circuit breaker + watchdog
bookkeeping) sits on the per-row hot path, so it must be nearly free:
the acceptance bar for the resilience PR is policy-wrapped throughput
within 10% of the bare guards on the healthy path.
"""

import pytest

from conftest import banner, paired
from repro.pgm import DAG, random_sem, sem_to_program
from repro.resilience import CircuitBreaker, ResilientGuard
from repro.synth import Guardrail

_N_ROWS = 4000
_REPEATS = 15
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

    t_bare_row, t_wrapped_row, row_ratio = paired(
        lambda: [bare.check(r) for r in rows],
        lambda: [wrapped.check(r) for r in rows],
        _REPEATS,
    )
    t_bare_batch, t_wrapped_batch, batch_ratio = paired(
        lambda: _batches(bare, rows),
        lambda: _batches(wrapped, rows),
        _REPEATS,
    )
    body = (
        f"rows: {_N_ROWS}, {_REPEATS} paired runs, "
        f"ratio = median of per-pair ratios, batches of {_BATCH}\n"
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
