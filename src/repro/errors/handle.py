"""Error-handling strategies (paper §7, Example 1.2).

Mirroring pandas' error-handling vocabulary, GUARDRAIL offers:

* ``raise``  — abort on the first violating row;
* ``ignore`` — pass data through unchanged (violations still reported);
* ``coerce`` — blank the violated dependent cells (NaN-equivalent);
* ``rectify`` — GUARDRAIL's novel strategy: replace erroneous cells
  with the *most likely correct value* via a minimal single-cell
  repair over the implicated attributes, falling back to the
  per-statement dependent rewrite ``[[p]]_t`` (the iterative process
  the case study in appendix F walks through).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Hashable, Mapping, Sequence

import numpy as np

from ..dsl import Program, compiled_for
from ..relation import MISSING, Relation
from .detect import DetectionResult, detect_errors


class DataIntegrityError(ValueError):
    """Raised by the ``raise`` strategy on a constraint violation."""

    def __init__(self, message: str, rows: list[int]):
        super().__init__(message)
        self.rows = rows


class Strategy(enum.Enum):
    """The four error-handling strategies."""

    RAISE = "raise"
    IGNORE = "ignore"
    COERCE = "coerce"
    RECTIFY = "rectify"

    @classmethod
    def parse(cls, value: "Strategy | str") -> "Strategy":
        """Coerce a string (or Strategy) into a Strategy member."""
        if isinstance(value, Strategy):
            return value
        try:
            return cls(value.lower())
        except ValueError:
            options = ", ".join(s.value for s in cls)
            raise ValueError(
                f"unknown strategy {value!r}; expected one of {options}"
            ) from None


@dataclass
class HandlingOutcome:
    """The handled relation plus what was done to it."""

    relation: Relation
    detection: DetectionResult
    strategy: Strategy
    cells_changed: list[tuple[int, str]] = field(default_factory=list)

    @property
    def n_changed(self) -> int:
        """Number of cells the strategy modified."""
        return len(self.cells_changed)


def apply_strategy(
    program: Program,
    relation: Relation,
    strategy: "Strategy | str" = Strategy.RECTIFY,
    pool=None,
) -> HandlingOutcome:
    """Vet a relation against a program under the chosen strategy.

    ``pool`` (a :class:`repro.parallel.WorkerPool`, a worker count, or
    ``None``) parallelizes the detection pass over row shards; the
    strategy then acts on the merged, bit-identical verdicts.
    """
    strategy = Strategy.parse(strategy)
    detection = detect_errors(program, relation, pool=pool)
    if strategy is Strategy.RAISE:
        if detection.n_flagged_rows:
            rows = [int(r) for r in detection.flagged_rows()[:10]]
            raise DataIntegrityError(
                f"{detection.n_flagged_rows} rows violate the integrity "
                f"constraints (first rows: {rows})",
                rows,
            )
        return HandlingOutcome(relation, detection, strategy)
    if strategy is Strategy.IGNORE:
        return HandlingOutcome(relation, detection, strategy)
    if strategy is Strategy.COERCE:
        return _coerce(program, relation, detection)
    return _rectify(program, relation, detection)


def _coerce(
    program: Program, relation: Relation, detection: DetectionResult
) -> HandlingOutcome:
    """Blank every violated dependent cell.

    The blanked cells are exactly the ones the canonical detection
    implicates (first-match, state-threaded), so a corrupted upstream
    determinant no longer blanks the — consistent — cells downstream
    of its corrected value.
    """
    changed: list[tuple[int, str]] = []
    codes: dict[str, np.ndarray] = {}
    for violation in detection.violations:
        name = violation.attribute
        if name not in codes:
            codes[name] = relation.codes(name).copy()
        codes[name][violation.row] = MISSING
        changed.append((violation.row, name))
    out = relation
    for name, arr in codes.items():
        out = out.replace_codes(name, arr)
    return HandlingOutcome(out, detection, Strategy.COERCE, changed)


def _rectify(
    program: Program, relation: Relation, detection: DetectionResult
) -> HandlingOutcome:
    """Replace erroneous cells with the most likely correct values.

    For each violating row we search for the *minimal repair*: a single
    cell change (over the attributes the violated branches implicate —
    dependents and determinants alike) after which the whole row
    conforms to the program.  This recovers the common case where a
    corrupted determinant triggers violations in several downstream
    statements at once: the shared determinant is the likely culprit,
    not the (correct) dependents.  When no single-cell repair conforms,
    we fall back to the per-statement dependent rewrite ``[[p]]_t``
    (the case study's iterative process).
    """
    from ..dsl.semantics import run_program

    domains = compiled_for(program, relation).domains
    updates: dict[str, dict[int, Hashable]] = {}
    changed: list[tuple[int, str]] = []
    for row_index in detection.flagged_rows():
        row = relation.row(int(row_index))
        repaired = _repair_row(program, row, domains)
        for name, value in repaired.items():
            if value != row[name]:
                updates.setdefault(name, {})[int(row_index)] = value
                changed.append((int(row_index), name))
        if not repaired:
            fixed = run_program(program, row)
            for name, value in fixed.items():
                if value != row[name]:
                    updates.setdefault(name, {})[int(row_index)] = value
                    changed.append((int(row_index), name))

    out = relation
    for name, cells in updates.items():
        codec = out.codec(name).extend(cells.values())
        if codec is not out.codec(name):
            out = out.align_codecs({name: codec})
        arr = out.codes(name).copy()
        for row_index, value in cells.items():
            arr[row_index] = codec.encode_one(value)
        out = out.replace_codes(name, arr)
    return HandlingOutcome(out, detection, Strategy.RECTIFY, changed)


def _count_violations(program: Program, row: dict) -> int:
    from ..dsl.semantics import condition_holds

    count = 0
    for statement in program:
        for branch in statement.branches:
            if condition_holds(branch.condition, row) and (
                row.get(branch.dependent) != branch.literal
            ):
                count += 1
    return count


def _count_satisfied(program: Program, row: dict) -> int:
    """Branches whose condition fires and whose assignment is met."""
    from ..dsl.semantics import condition_holds

    count = 0
    for statement in program:
        for branch in statement.branches:
            if condition_holds(branch.condition, row) and (
                row.get(branch.dependent) == branch.literal
            ):
                count += 1
    return count


def _repair_row(
    program: Program,
    row: dict,
    domains: Mapping[str, Sequence[Hashable]],
) -> dict:
    """Best single-cell repair of a violating row, or {} if none conforms.

    Candidates are the attributes implicated by the violated branches,
    tried against ``domains`` — the program's literals per attribute
    (:attr:`repro.dsl.CompiledProgram.domains`); ties between conforming
    repairs prefer dependents (the case-study behaviour) over
    determinants.
    """
    from ..dsl.semantics import condition_holds, run_program

    violated = []
    for statement in program:
        for branch in statement.branches:
            if condition_holds(branch.condition, row) and (
                row.get(branch.dependent) != branch.literal
            ):
                violated.append(branch)
    if not violated:
        return {}
    dependents = {b.dependent for b in violated}
    candidates = set(dependents)
    for branch in violated:
        candidates.update(branch.condition.attributes)

    best: tuple[tuple[int, int, int], str, Hashable] | None = None
    for name in sorted(candidates):
        for value in domains.get(name, ()):
            if value == row.get(name):
                continue
            trial = dict(row)
            trial[name] = value
            remaining = _count_violations(program, trial)
            preference = 0 if name in dependents else 1
            # Prefer repairs that keep the row *covered*: a repair that
            # merely steers the row outside every branch condition is a
            # degenerate way to "conform".
            coverage = _count_satisfied(program, trial)
            key = (remaining, preference, -coverage)
            if best is None or key < best[0]:
                best = (key, name, value)
    if best is not None and best[0][0] == 0:
        return {best[1]: best[2]}
    # No conforming single-cell repair: per-statement dependent rewrite.
    fixed = run_program(program, row)
    return {
        name: value for name, value in fixed.items() if value != row.get(name)
    }
