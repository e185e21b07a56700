"""Shared helpers: percentiles, memory, provenance, and result records."""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
"""Root of the checkout the benchmark runs in."""

OUT_DIR = ROOT / ".bench_out"
"""Everything a run writes (spans, result records, serve state)."""


def percentile(samples, q: float) -> float:
    """Nearest-rank ``q``-quantile (0 < q < 1) of ``samples``."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    index = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[index]


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank q-quantile."""
    return n - max(0, math.ceil(q * n) - 1) - 1


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_sha() -> str:
    """The checkout's commit, or ``unknown`` outside a git work tree."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return completed.stdout.strip() or "unknown"


def host_loop_ms(repeats: int = 15) -> float:
    """Median time of a fixed pure-Python loop: the host's speed now.

    On a shared host the same work runs tens of percent slower or
    faster from one quarter hour to the next; this figure lets results
    be read against the speed of the machine when they were taken.
    """
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(times)


def provenance(seed: int) -> dict:
    """Where a result came from: code, machine and its current speed,
    toolchain, seed, command."""
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "host_loop_ms": host_loop_ms(),
        "seed": seed,
        "command": " ".join([Path(sys.executable).name, *sys.argv]),
    }


@dataclass
class Outcome:
    """What one workload pass produced.

    ``named`` holds the workload's own metrics, keyed by their own
    names (``sql.qps``, ``serve.r500.p50_ms``, ...) as
    ``(value, unit, samples, q)``: ``samples`` is the count behind the
    value and ``q`` the quantile it reports (None when not a
    percentile).  ``ops_per_s`` and ``op_latency_ms`` are the
    workload's values of the end-to-end metrics every workload has.
    """

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    ops_per_s: float = 0.0
    op_latency_ms: float = 0.0
    named: dict[str, tuple] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    records: list = field(default_factory=list)
    """Workload-specific results the post-run check audits."""

    def fail(self, message: str, count: int = 1) -> None:
        """Count ``count`` failed operations, keeping a few messages."""
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(message)


def write_record(record: dict) -> None:
    """Append one result record to ``.bench_out/results.jsonl``."""
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "results.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
