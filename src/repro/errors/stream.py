"""The streaming guard (the deployment mode of Fig. 1).

The batch path (:mod:`repro.errors.detect`) vectorizes over a whole
relation; production guardrails instead vet rows as they arrive at the
model.  :class:`Guard` does that over the compiled program of
:mod:`repro.dsl.compiled`: every row, alone or in a micro-batch, costs
one first-match dict probe per statement
(:meth:`~repro.dsl.CompiledProgram.run_row`), and a whole relation goes
through the numpy kernel (:meth:`Guard.check_relation`).

    guard = Guard(program)
    verdict = guard.check({"rel": "Husband", "marital-status": "Single"})
    verdict.ok                 # False
    verdict.violations         # (("marital-status", "Married-civ-spouse"),)
    guard.rectify(row)         # repaired copy of the row
    for verdict in guard.stream(incoming_rows):
        ...
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .. import obs
from ..dsl import Program
from ..dsl.compiled import compile_program, compiled_for
from ..relation import Relation


@dataclass(frozen=True)
class RowVerdict:
    """Outcome of vetting one row."""

    ok: bool
    violations: tuple[tuple[str, Hashable], ...] = ()
    """(attribute, expected value) per violated statement."""

    def __bool__(self) -> bool:
        return self.ok


_CONFORMS = RowVerdict(True)


@dataclass
class GuardStats:
    """Counters a long-running guard accumulates."""

    rows_checked: int = 0
    rows_flagged: int = 0
    rows_rectified: int = 0
    violations_by_attribute: dict[str, int] = field(default_factory=dict)

    @property
    def violation_rate(self) -> float:
        """Fraction of checked rows that were flagged."""
        if self.rows_checked == 0:
            return 0.0
        return self.rows_flagged / self.rows_checked

    def flag(self, violations: tuple[tuple[str, Hashable], ...]) -> None:
        """Count one flagged row and the attributes it violates."""
        self.rows_flagged += 1
        counts = self.violations_by_attribute
        for attribute, _ in violations:
            counts[attribute] = counts.get(attribute, 0) + 1


class Guard:
    """A program compiled for per-row vetting and repair.

    Verdicts follow the canonical first-match, state-threaded Eqn. 1
    semantics of :mod:`repro.dsl.semantics`, whichever entry point
    produced them.
    """

    def __init__(self, program: Program):
        self.program = program
        self.compiled = compile_program(program)
        self.stats = GuardStats()
        self._drift = None
        # The detector's bound ``observe``, looked up once at attach time:
        # the per-row feed is on the hot path.
        self._observe = None

    @property
    def drift(self):
        """The attached drift detector, if any."""
        return self._drift

    def attach_drift(self, detector) -> None:
        """Feed every verdict into a drift detector; ``None`` detaches.

        ``detector`` follows the :class:`repro.resilience.DriftDetector`
        protocol: ``observe(row, ok)`` per checked row and
        ``observe_batch(rows, oks)`` per batch.  The detector owns its
        1-in-k sampling countdown, so changing its ``sample_every``
        takes effect on the guard's traffic.
        """
        self._drift = detector
        self._observe = None if detector is None else detector.observe

    def check(self, row: Mapping[str, Hashable]) -> RowVerdict:
        """Vet one row; O(#statements) dict probes.

        With tracing enabled (:mod:`repro.obs`) each call also emits a
        latency sample and a tripwire-style ``guard.verdict`` record;
        disabled, the only overhead is one flag check.
        """
        traced = obs.enabled()
        start = time.perf_counter() if traced else 0.0
        violations = self.compiled.run_row(row)
        verdict = RowVerdict(False, violations) if violations else _CONFORMS
        if self._observe is not None:
            self._observe(row, not violations)
        self.stats.rows_checked += 1
        if violations:
            self.stats.flag(violations)
        if traced:
            obs.observe(
                "guard.check_seconds", time.perf_counter() - start
            )
            obs.record(
                "guard.verdict",
                ok=verdict.ok,
                attributes=[a for a, _ in verdict.violations],
            )
        return verdict

    def check_batch(
        self, rows: Sequence[Mapping[str, Hashable]]
    ) -> list[RowVerdict]:
        """Vet a micro-batch; one :class:`RowVerdict` per row, in order.

        Rows are probed one by one: served batches hold a few rows,
        where encoding them for the numpy kernel costs more than it
        saves (``docs/PERFORMANCE.md``).  With tracing enabled a
        ``guard.batch`` record and a latency sample are emitted per
        call.
        """
        rows = list(rows)
        traced = obs.enabled()
        start = time.perf_counter() if traced else 0.0
        run_row = self.compiled.run_row
        verdicts = [
            RowVerdict(False, violations) if violations else _CONFORMS
            for violations in map(run_row, rows)
        ]
        if self._drift is not None and rows:
            self._drift.observe_batch(rows, [v.ok for v in verdicts])
        stats = self.stats
        stats.rows_checked += len(rows)
        for verdict in verdicts:
            if not verdict.ok:
                stats.flag(verdict.violations)
        if traced:
            obs.observe(
                "guard.batch_seconds", time.perf_counter() - start
            )
            obs.record(
                "guard.batch",
                n_rows=len(rows),
                flagged=sum(1 for v in verdicts if not v.ok),
            )
        return verdicts

    def stream(
        self, rows: Iterable[Mapping[str, Hashable]]
    ) -> Iterator[RowVerdict]:
        """Vet an incoming row stream, yielding verdicts in order."""
        for row in rows:
            yield self.check(row)

    def check_relation(self, relation: Relation) -> np.ndarray:
        """Row-violation mask for a whole relation.

        Runs the numpy kernel compiled against the relation's own
        codecs (memoized), so this matches
        :func:`repro.errors.detect.detect_errors` bit for bit.
        """
        result = compiled_for(self.program, relation).detect(relation)
        self.stats.rows_checked += relation.n_rows
        self.stats.rows_flagged += result.n_flagged
        return result.row_mask

    def rectify(self, row: Mapping[str, Hashable]) -> dict[str, Hashable]:
        """Repair one row (same policy as the batch rectify strategy).

        Single-cell minimal repair when one conforms; otherwise the
        per-statement dependent rewrite, applied in program order so
        upstream repairs feed downstream checks.
        """
        from .handle import _repair_row

        traced = obs.enabled()
        start = time.perf_counter() if traced else 0.0
        if not self.compiled.run_row(row):
            return dict(row)
        self.stats.rows_rectified += 1
        repaired = dict(row)
        changes = _repair_row(self.program, repaired, self.compiled.domains)
        repaired.update(changes)
        if traced:
            obs.observe(
                "guard.rectify_seconds", time.perf_counter() - start
            )
            obs.record(
                "guard.rectify", attributes=sorted(changes)
            )
        return repaired

    def process(
        self, row: Mapping[str, Hashable], strategy: str = "rectify"
    ) -> dict[str, Hashable] | None:
        """One-shot vetting under a named strategy.

        ``raise`` raises :class:`DataIntegrityError`; ``ignore`` returns
        the row as-is; ``coerce`` blanks violated dependents (None);
        ``rectify`` repairs.  Returns the (possibly modified) row.
        """
        from .handle import DataIntegrityError, Strategy

        parsed = Strategy.parse(strategy)
        if parsed is Strategy.RECTIFY:
            return self.rectify(row)
        verdict = self.check(row)
        if verdict.ok:
            return dict(row)
        if parsed is Strategy.RAISE:
            raise DataIntegrityError(
                f"row violates {len(verdict.violations)} constraints",
                rows=[],
            )
        out = dict(row)
        if parsed is Strategy.COERCE:
            for attribute, _ in verdict.violations:
                out[attribute] = None
        return out

    def __len__(self) -> int:
        return len(self.compiled.statements)


# ``perfbench/serve_mixed.py`` times the guard under this old name in its
# traced run; the alias stays until that benchmark is updated.
BatchGuard = Guard
