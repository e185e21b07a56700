"""Streaming deployment: vet rows one at a time (paper Fig. 1).

Production guardrails sit in front of the model and see one row per
request.  :class:`repro.errors.Guard` vets each one against the
compiled program, whose statements keep first-match dicts so each check
costs a handful of dictionary probes; this example simulates a serving
loop over a corrupted feed and prints the guard's running statistics.

Run:  python examples/streaming_guard.py
"""

import numpy as np

from repro import obs
from repro.datasets import load
from repro.errors import inject_errors
from repro.ml import NaiveBayes
from repro.synth import Guardrail, GuardrailConfig


def main() -> None:
    rng = np.random.default_rng(8)
    dataset = load("Telco Customer Churn", n_rows=4000)
    train, serving = dataset.relation.split(0.6, rng)

    model = NaiveBayes().fit(train, dataset.target)
    guardrail = Guardrail(
        GuardrailConfig(epsilon=0.02, min_support=4)
    ).fit(train)
    guard = guardrail.guard()
    print(
        f"compiled {len(guard)} statements into the streaming guard "
        f"({len(guardrail.program.branches)} branches)"
    )

    # A corrupted request stream.
    dag = dataset.ground_truth_dag()
    constrained = [n for n in dag.nodes if dag.parents(n)]
    feed = inject_errors(
        serving, rate=0.05, attributes=constrained, rng=rng
    ).relation

    # Trace the serving loop: every check/rectify emits a latency
    # sample and a verdict record into the in-memory sink.
    repaired_predictions = 0
    with obs.tracing() as sink:
        for index in range(feed.n_rows):
            row = feed.row(index)
            verdict = guard.check(row)
            if not verdict.ok:
                fixed = guard.rectify(row)
                before = model.predict_values(feed.take([index]))[0]
                after_relation = feed.take([index])
                for name, value in fixed.items():
                    if value != row[name]:
                        after_relation = after_relation.set_cell(
                            0, name, value
                        )
                after = model.predict_values(after_relation)[0]
                if before != after:
                    repaired_predictions += 1

    stats = guard.stats
    print(
        f"\nserved {feed.n_rows} requests: "
        f"{stats.rows_flagged} flagged "
        f"({stats.violation_rate:.1%}), "
        f"{stats.rows_rectified} rectified, "
        f"{repaired_predictions} predictions changed by the repair"
    )
    print("violations by attribute:")
    for name, count in sorted(
        stats.violations_by_attribute.items(), key=lambda kv: -kv[1]
    ):
        print(f"  {name:<20} {count}")

    # The same session, as the obs dashboard sees it (per-row latency
    # percentiles come from the trace, not from GuardStats).
    print("\n" + obs.render_report(sink.events))


if __name__ == "__main__":
    main()
