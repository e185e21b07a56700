#!/usr/bin/env python
"""Per-row cost of the guard's dict probe vs the numpy kernel.

Fits a guardrail on each of the four Table-2 twins the ``serve_mixed``
benchmark workload serves, draws fresh rows with 1% injected noise,
and prints, per program, the µs per row of
``CompiledProgram.run_row`` (what ``repro.errors.Guard`` runs for every
row) and of encoding + ``CompiledProgram.run_codes`` at several batch
sizes (the numpy kernel).  ``docs/PERFORMANCE.md`` quotes its output.

Run:  PYTHONPATH=src python tools/guard_probe_cost.py
"""

import time

import numpy as np

from repro.datasets import load
from repro.dsl import compile_program
from repro.errors import inject_errors
from repro.synth import Guardrail

DATASETS = ("Lung Cancer", "Jungle Chess", "Bank Marketing", "Hotel Reservations")
BATCH_SIZES = (1, 4, 8, 256)
N_ROWS = 512


def best_us_per_row(fn, n_rows: int, repeats: int) -> float:
    """Best-of-``repeats`` wall time of ``fn()``, in µs per row."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best / n_rows * 1e6


def kernel_pass(compiled, rows: list, size: int) -> None:
    """Encode ``rows`` in batches of ``size`` and run the kernel."""
    for start in range(0, len(rows), size):
        batch = rows[start:start + size]
        codes = {
            attribute: np.fromiter(
                (compiled.encode_value(attribute, row.get(attribute))
                 for row in batch),
                dtype=np.int32,
                count=len(batch),
            )
            for attribute in compiled.attributes
        }
        compiled.run_codes(codes, len(batch))


def main() -> None:
    rng = np.random.default_rng([1, 4])
    for name in DATASETS:
        dataset = load(name)
        program = Guardrail().fit(dataset.relation).program
        fresh = dataset.sem.sample(N_ROWS, rng)
        noisy = inject_errors(fresh, rate=0.01, rng=rng).relation
        rows = [dict(row) for row in noisy.iter_rows()]
        compiled = compile_program(program)
        probe = best_us_per_row(
            lambda: [compiled.run_row(row) for row in rows], len(rows), 7
        )
        kernels = ", ".join(
            f"batch {size}: "
            f"{best_us_per_row(lambda: kernel_pass(compiled, rows, size), len(rows), 3):.1f}"
            for size in BATCH_SIZES
        )
        print(
            f"{name} ({len(program)} statements): probe {probe:.1f} "
            f"µs/row; kernel µs/row, {kernels}"
        )


if __name__ == "__main__":
    main()
