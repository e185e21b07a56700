"""Benchmark entry point: one seeded workload, checked, with its metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sql_rq2 --seed 1 --seconds 12 --trace 0

``--trace 0`` sets the workload up ``SETUP_REPEATS`` times, as its
module sets it (the median is ``setup_s``), runs the timed region once
with nothing patched, checks the outputs, and reports every end-to-end
metric of ``BENCHMARK.json``.  ``--trace 1`` runs the timed region
twice on fresh inputs, first untraced and then with the workload's
entry points wrapped (see ``tracing.py``), and reports every per-layer
metric plus ``trace.overhead_ratio``, the untraced over the traced
throughput.

Every metric of the other mode's list, and every metric the workload
does not exercise, is still printed (layers it never calls read 0).
The workload's own metrics, the sample count behind each percentile,
and the run's provenance are printed above the final JSON line, which
is the machine-readable result.  Spans of a traced run are written to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import statistics
import sys
import time
import traceback
from pathlib import Path

# Every workload runs serial: one thread for the numeric libraries too,
# set before numpy is first imported.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import (  # noqa: E402
    OUT_DIR,
    ROOT,
    beyond,
    peak_rss_mb,
    provenance,
    write_record,
)

WORKLOADS = ("synth_table2", "sql_rq2", "serve_mixed")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _declared():
    """End-to-end and per-layer metric declarations from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["end_to_end"], spec["per_layer"]


def _measure(workload, state, seconds, tracer=None):
    """Run the timed region with set-up state frozen out of the collector.

    Clients, inputs and the program share one heap here; set-up state
    is long-lived, so freezing it keeps collector passes in the timed
    region proportional to what that region allocates.
    """
    gc.collect()
    gc.freeze()
    try:
        return workload.measure(state, seconds, tracer)
    finally:
        gc.unfreeze()


def _end_to_end(outcome, setup_times) -> dict:
    return {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
        "ops_per_s": outcome.ops_per_s,
        "op_latency_ms": outcome.op_latency_ms,
    }


def _report(workload, outcome, values, units) -> None:
    """Human-readable lines: the workload's own metrics, then the rest."""
    print(f"workload {workload}")
    for name, (value, unit, samples, q) in outcome.named.items():
        note = ""
        if q is not None:
            note = f"  (n={samples}, {beyond(samples, q)} beyond)"
        elif samples is not None:
            note = f"  (n={samples})"
        print(f"  {name:<34} {value:14.4f} {unit}{note}")
    ratio = outcome.failed / max(outcome.attempted, 1)
    print(
        f"  {'fail_ratio':<34} {ratio:14.4f} failed/attempted "
        f"({outcome.failed}/{outcome.attempted})"
    )
    for name, value in values.items():
        print(f"  {name:<34} {value:14.4f} {units[name]}")
    for message in outcome.failures:
        print(f"  FAILED: {message}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"error: no library source at {ROOT / 'src' / 'repro'}; run "
            "from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    end_to_end, per_layer = _declared()
    OUT_DIR.mkdir(exist_ok=True)
    workload = importlib.import_module(args.workload)
    meta = provenance(args.seed)
    print("provenance " + json.dumps(meta, sort_keys=True))

    if args.trace == 0:
        setup_times = []
        state = None
        for _ in range(workload.SETUP_REPEATS):
            if state is not None:
                workload.teardown(state)
                state = None
                gc.collect()
            start = time.perf_counter()
            state = workload.setup(args.seed)
            setup_times.append(time.perf_counter() - start)
        try:
            outcome = _measure(workload, state, args.seconds)
            workload.check(state, outcome)
        finally:
            workload.teardown(state)
        values = _end_to_end(outcome, setup_times)
        declared = end_to_end
    else:
        from tracing import Tracer

        state = workload.setup(args.seed)
        try:
            base = _measure(workload, state, args.seconds)
            workload.check(state, base)
        finally:
            workload.teardown(state)
        state = None
        gc.collect()
        state = workload.setup(args.seed)
        tracer = Tracer()
        try:
            try:
                workload.install(tracer)
                outcome = _measure(workload, state, args.seconds, tracer)
            finally:
                tracer.restore()
            workload.check(state, outcome)
        finally:
            workload.teardown(state)
        outcome.attempted += base.attempted
        outcome.failed += base.failed
        outcome.failures = base.failures + outcome.failures
        layers = {name: 0.0 for name in (m["name"] for m in per_layer)}
        layers.update(workload.layer_metrics(tracer, outcome))
        for name, (value, *_) in base.named.items():
            layers[name] = value
        layers["fail_ratio"] = outcome.failed / max(outcome.attempted, 1)
        layers["trace.overhead_ratio"] = base.ops_per_s / outcome.ops_per_s
        values = layers
        declared = per_layer
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")

    units = {m["name"]: m["unit"] for m in declared}
    values = {name: float(values[name]) for name in units}
    _report(args.workload, outcome, values, units)
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }
    write_record(
        {
            "workload": args.workload,
            "trace": args.trace,
            "provenance": meta,
            "named": {k: v[0] for k, v in outcome.named.items()},
            **result,
        }
    )
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
