#!/usr/bin/env python
"""Cost of PC's conditional-independence tests on the Table-2 twins.

Fits a guardrail (default config) on each of the twelve Table-2 twins,
each the registry's own sample at its Table-2 row count capped at
``--rows`` (4000 by default, as in the ``synth_table2`` benchmark
workload; 0 = uncapped), and prints per twin the number of CI tests PC
ran, the mean µs per ``CITester.test`` call, and the fit's wall time.
With ``--workers N`` it also times ``Guardrail.fit(workers=N)`` on the
same sample (CI tests then run in forked workers, so only the fit time
is printed for that leg).  ``docs/PERFORMANCE.md`` quotes its output.

Run:  PYTHONPATH=src python tools/ci_test_cost.py [--rows 4000] [--workers 2]
"""

import argparse
import functools
import time

from repro.datasets import DATASETS, load
from repro.pgm import CITester
from repro.synth import Guardrail


def timed_tests():
    """Wrap ``CITester.test`` so every call adds to a running total."""
    totals = {"calls": 0, "seconds": 0.0}
    original = CITester.test

    @functools.wraps(original)
    def test(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            return original(self, *args, **kwargs)
        finally:
            totals["seconds"] += time.perf_counter() - start
            totals["calls"] += 1

    CITester.test = test
    return totals


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=4000)
    parser.add_argument("--workers", type=int, default=0)
    args = parser.parse_args()

    totals = timed_tests()
    all_tests = all_calls = all_seconds = all_fit = all_parallel = 0.0
    for spec in DATASETS:
        n_rows = min(args.rows, spec.n_rows) if args.rows else spec.n_rows
        relation = load(spec.id, n_rows=n_rows).relation
        calls, seconds = totals["calls"], totals["seconds"]
        start = time.perf_counter()
        result = Guardrail().fit(relation).result
        fit_s = time.perf_counter() - start
        calls, seconds = totals["calls"] - calls, totals["seconds"] - seconds
        n_tests = result.pc_result.n_ci_tests
        line = (
            f"{spec.name:34s} rows {n_rows:6d}  CI tests {n_tests:5d}  "
            f"{seconds / max(calls, 1) * 1e6:7.0f} µs/test  "
            f"fit {fit_s:6.2f} s"
        )
        all_tests += n_tests
        all_calls += calls
        all_seconds += seconds
        all_fit += fit_s
        if args.workers:
            start = time.perf_counter()
            Guardrail().fit(relation, workers=args.workers)
            parallel_s = time.perf_counter() - start
            all_parallel += parallel_s
            line += f"  fit(workers={args.workers}) {parallel_s:6.2f} s"
        print(line, flush=True)
    line = (
        f"{'all twelve':34s} {'':11s}  CI tests {int(all_tests):5d}  "
        f"{all_seconds / max(all_calls, 1) * 1e6:7.0f} µs/test  "
        f"fit {all_fit:6.2f} s"
    )
    if args.workers:
        line += f"  fit(workers={args.workers}) {all_parallel:6.2f} s"
    print(line)


if __name__ == "__main__":
    main()
