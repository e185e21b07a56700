"""Shared configuration for the paper-reproduction benchmarks.

Each benchmark module regenerates one table or figure of the paper's
evaluation (§8) and prints it.  The workload is scaled for a laptop-
class single-core machine; set ``REPRO_FULL=1`` to run the paper's full
dataset sizes, or ``REPRO_SCALE_ROWS=<n>`` to pick a custom cap.
"""

from __future__ import annotations

import sys
import statistics
import time
from pathlib import Path

import pytest

# Make `pytest benchmarks/` work from a clean checkout: the package
# lives in src/ and is not necessarily pip-installed.
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.experiments import ExperimentContext  # noqa: E402


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "paper: regenerates a table/figure from the paper"
    )


@pytest.fixture(scope="session")
def context() -> ExperimentContext:
    return ExperimentContext()


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(
        fn, args=args, kwargs=kwargs, rounds=1, iterations=1
    )


def banner(title: str, body: str) -> None:
    line = "=" * max(len(title), 8)
    print(f"\n{line}\n{title}\n{line}\n{body}\n")


def paired(base_fn, other_fn, repeats):
    """Paired timing: (best base, best other, median pair ratio).

    Each repeat times the two callables back to back (alternating
    which goes first), so both legs of a pair share the machine's load
    conditions; the *median* of the per-pair ratios other/base is then
    robust to load spikes that would skew a single best-of series
    either way.
    """

    def once(fn):
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start

    base_times, other_times, ratios = [], [], []
    for i in range(repeats):
        if i % 2:
            other_times.append(once(other_fn))
            base_times.append(once(base_fn))
        else:
            base_times.append(once(base_fn))
            other_times.append(once(other_fn))
        ratios.append(other_times[-1] / base_times[-1])
    return min(base_times), min(other_times), statistics.median(ratios)
