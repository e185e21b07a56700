"""Observability: trace a synthesis run and a serving session (repro.obs).

Everything the reproduction does — PC structure learning, MEC
enumeration, sketch filling, per-row guarding, guarded SQL — emits
structured events when tracing is on.  This example records one
offline synthesis and one simulated serving session into a JSONL trace,
then renders the operator report (the same output as ``python -m repro
obs report trace.jsonl``).

Run:  python examples/observability.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import obs
from repro.datasets import load
from repro.errors import Guard, inject_errors
from repro.synth import GuardrailConfig, synthesize


def main() -> None:
    rng = np.random.default_rng(3)
    dataset = load("Adult", n_rows=1500)
    train, serving = dataset.relation.split(0.6, rng)
    trace_path = Path(tempfile.gettempdir()) / "guardrail_trace.jsonl"

    sink = obs.JsonlSink(trace_path)
    with obs.tracing(sink):
        # Offline: synthesis emits a span tree (sampling → structure
        # learning → enumeration/fill) plus cache counters.
        result = synthesize(
            train, GuardrailConfig(epsilon=0.02, min_support=4)
        )

        # Online: every Guard.check emits a latency sample and a
        # tripwire-style verdict record.
        guard = Guard(result.program)
        feed = inject_errors(serving, rate=0.05, rng=rng).relation
        for index in range(feed.n_rows):
            row = feed.row(index)
            if not guard.check(row).ok:
                guard.rectify(row)
    sink.close()

    events = obs.read_jsonl(trace_path)
    print(f"wrote {len(events)} events to {trace_path}\n")
    print(obs.render_report(trace_path))


if __name__ == "__main__":
    main()
