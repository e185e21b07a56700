"""Drift-instrumentation overhead — instrumented guard vs. bare guard.

The drift hook sits on the guard's per-row hot path (one call to the
detector's countdown; every k-th row pays a buffer append, and all
statistics are amortized to the window flush), so it must be nearly
free: the acceptance bar for the self-healing PR is drift-instrumented
throughput within 10% of the bare guards.

Each run also records its measurements against ``BENCH_guard.json``.
That file holds a ``baseline`` object (this benchmark's committed
reference numbers) plus a ``trajectory`` list (worker-scaling entries
appended by ``test_scaling_workers.py``); set ``REPRO_UPDATE_BENCH=1``
to rewrite the baseline on a quiet machine — the trajectory is
preserved.  ``benchmarks/README.md`` documents the format.
"""

import json
import os
from pathlib import Path

import pytest

from conftest import banner, paired
from repro.pgm import DAG, random_sem, sem_to_program
from repro.resilience import DriftDetector
from repro.synth import Guardrail

_N_ROWS = 20_000
_REPEATS = 9
_BATCH = 256
"""Rows per ``check_batch`` call (the micro-batch ``stream`` used to
flush when this benchmark was written)."""
_BASELINE = Path(__file__).resolve().parent / "BENCH_guard.json"


@pytest.fixture(scope="module")
def workload():
    """The same moderately wide workload the policy-overhead benchmark
    uses, so the two overhead numbers are directly comparable."""
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


def _batches(guard, rows):
    return [
        verdict
        for start in range(0, len(rows), _BATCH)
        for verdict in guard.check_batch(rows[start:start + _BATCH])
    ]


def _detector(relation, guardrail) -> DriftDetector:
    return DriftDetector.from_training(
        relation, program=guardrail.program, window=512
    )


def _record_baseline(measurements: dict) -> str:
    """Compare against (or rewrite) the committed baseline file.

    ``BENCH_guard.json`` is ``{"baseline": {...}, "trajectory": [...]}``;
    only the baseline object belongs to this benchmark, and a rewrite
    keeps the scaling trajectory intact.
    """
    payload = (
        json.loads(_BASELINE.read_text()) if _BASELINE.exists() else {}
    )
    if "baseline" not in payload and payload:
        # Migrate the pre-trajectory flat layout in place.
        payload = {"baseline": payload, "trajectory": []}
    if os.environ.get("REPRO_UPDATE_BENCH") == "1" or not payload:
        payload["baseline"] = measurements
        payload.setdefault("trajectory", [])
        _BASELINE.write_text(json.dumps(payload, indent=2) + "\n")
        return f"baseline written to {_BASELINE.name}"
    baseline = payload["baseline"]
    lines = []
    for key, value in measurements.items():
        reference = baseline.get(key)
        if isinstance(reference, (int, float)) and reference:
            lines.append(
                f"{key}: {value:.4f} (baseline {reference:.4f}, "
                f"{value / reference:.2f}x)"
            )
    return "vs committed baseline:\n  " + "\n  ".join(lines)


def test_drift_instrumentation_overhead(workload):
    guardrail, relation, rows = workload

    bare = guardrail.guard()
    drifted = guardrail.guard()
    drifted.attach_drift(_detector(relation, guardrail))

    # Warm-up: compile the program outside the timings.
    for guard in (bare, drifted):
        guard.check(rows[0])
        guard.check_batch(rows[:_BATCH])

    t_bare_row, t_drift_row, row_ratio = paired(
        lambda: [bare.check(r) for r in rows],
        lambda: [drifted.check(r) for r in rows],
        _REPEATS,
    )
    t_bare_batch, t_drift_batch, batch_ratio = paired(
        lambda: _batches(bare, rows),
        lambda: _batches(drifted, rows),
        _REPEATS,
    )
    measurements = {
        "n_rows": _N_ROWS,
        "row_bare_ms": t_bare_row * 1e3,
        "row_drift_ms": t_drift_row * 1e3,
        "row_ratio": row_ratio,
        "batch_bare_ms": t_bare_batch * 1e3,
        "batch_drift_ms": t_drift_batch * 1e3,
        "batch_ratio": batch_ratio,
    }
    body = (
        f"rows: {_N_ROWS}, {_REPEATS} paired runs, "
        f"ratio = median of per-pair ratios, batches of {_BATCH}\n"
        f"check       bare {t_bare_row * 1e3:8.2f} ms   "
        f"drifted {t_drift_row * 1e3:8.2f} ms   ratio {row_ratio:.3f}\n"
        f"check_batch bare {t_bare_batch * 1e3:8.2f} ms   "
        f"drifted {t_drift_batch * 1e3:8.2f} ms   ratio {batch_ratio:.3f}\n"
        + _record_baseline(measurements)
    )
    banner("Drift instrumentation overhead", body)

    # The acceptance bar: within 10% of bare-guard throughput.
    assert row_ratio < 1.10, f"row drift overhead {row_ratio:.3f}x"
    assert batch_ratio < 1.10, f"batch drift overhead {batch_ratio:.3f}x"


def test_instrumented_verdicts_match_bare(workload):
    guardrail, relation, rows = workload
    bare = guardrail.guard()
    drifted = guardrail.guard()
    drifted.attach_drift(_detector(relation, guardrail))
    sample = rows[:200]
    assert [bare.check(r).ok for r in sample] == [
        drifted.check(r).ok for r in sample
    ]


def test_detector_actually_fed(workload):
    """The overhead number is honest only if the detector really ran."""
    guardrail, relation, rows = workload
    guard = guardrail.guard()
    detector = _detector(relation, guardrail)
    guard.attach_drift(detector)
    for row in rows:
        guard.check(row)
    # The detector evaluates 1-in-k sampled windows of 512 rows.
    expected = _N_ROWS // (512 * detector.sample_every)
    assert detector.stats.windows_evaluated == expected
    assert expected >= 1
