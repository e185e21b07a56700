"""Property test: every evaluation path implements one semantics.

Random programs (chains, multi-determinant statements, literals the
data never exhibits) over random noisy relations (missing cells
included) must produce identical verdicts from:

* :func:`repro.dsl.row_conforms` (the reference row semantics),
* :func:`repro.dsl.program_violations` (vectorized),
* :func:`repro.errors.detect_errors` (compiled kernels),
* :meth:`repro.dsl.CompiledProgram.run_row` (first-match dict probes),
* :meth:`repro.errors.Guard.check` and :meth:`~repro.errors.Guard.check_batch`
  (the streaming guard),
* :meth:`repro.synth.Guardrail.check_row`.

Any divergence — all-branches vs first-match, branch-local vs threaded
reads, sentinel aliasing of unseen literals — shows up here as a
disagreeing row.
"""

import numpy as np
import pytest

from repro.dsl import (
    Branch,
    Condition,
    Program,
    Statement,
    clear_dsl_caches,
    compiled_for,
    program_violations,
    row_conforms,
)
from repro.errors import Guard, detect_errors
from repro.relation import Relation
from repro.synth import Guardrail

N_CASES = 220


def _random_case(rng: np.random.Generator):
    n_attrs = int(rng.integers(3, 7))
    attributes = [f"x{i}" for i in range(n_attrs)]
    pools = {
        attr: [f"{attr}v{k}" for k in range(int(rng.integers(2, 4)))]
        for attr in attributes
    }
    n_rows = int(rng.integers(30, 61))
    rows = []
    for _ in range(n_rows):
        row = {}
        for attr in attributes:
            if rng.random() < 0.1:
                row[attr] = None  # missing cell
            else:
                row[attr] = pools[attr][
                    int(rng.integers(len(pools[attr])))
                ]
        rows.append(row)
    relation = Relation.from_rows(rows)

    def literal_for(attr: str):
        # ~15% of literals never appear in the data (codec-unseen).
        if rng.random() < 0.15:
            return f"{attr}_ghost{int(rng.integers(3))}"
        return pools[attr][int(rng.integers(len(pools[attr])))]

    statements = []
    used_dependents: set[str] = set()
    for _ in range(int(rng.integers(1, 5))):
        candidates = [a for a in attributes if a not in used_dependents]
        if not candidates:
            break
        dependent = candidates[int(rng.integers(len(candidates)))]
        others = [a for a in attributes if a != dependent]
        n_det = min(len(others), int(rng.integers(1, 3)))
        determinants = list(
            rng.choice(len(others), size=n_det, replace=False)
        )
        determinants = sorted(others[i] for i in determinants)
        branches = []
        seen_conditions = set()
        for _ in range(int(rng.integers(1, 5))):
            atoms = tuple(
                (name, literal_for(name)) for name in determinants
            )
            condition = Condition(atoms)
            if condition in seen_conditions:
                continue
            seen_conditions.add(condition)
            branches.append(
                Branch(condition, dependent, literal_for(dependent))
            )
        statements.append(
            Statement(tuple(determinants), dependent, tuple(branches))
        )
        used_dependents.add(dependent)
    return Program(tuple(statements)), relation


@pytest.mark.parametrize("seed", range(4))
def test_all_paths_agree_on_random_programs(seed):
    rng = np.random.default_rng(1000 + seed)
    for case in range(N_CASES // 4):
        clear_dsl_caches()
        program, relation = _random_case(rng)
        rows = [relation.row(i) for i in range(relation.n_rows)]

        reference = [not row_conforms(program, row) for row in rows]
        vector = program_violations(program, relation)
        detection = detect_errors(program, relation)
        compiled = compiled_for(program, relation)
        kernel = compiled.detect(relation)
        guard = Guard(program)
        single = [guard.check(row) for row in rows]
        batched = Guard(program).check_batch(rows)
        probed = [compiled.run_row(row) for row in rows]
        guardrail = Guardrail.from_program(program)
        facade = [guardrail.check_row(row) for row in rows]

        context = f"seed={seed} case={case} program={program!r}"
        assert list(vector) == reference, context
        assert list(detection.row_mask) == reference, context
        assert list(kernel.row_mask) == reference, context
        assert [not v.ok for v in single] == reference, context
        assert [not v.ok for v in batched] == reference, context
        assert [bool(writes) for writes in probed] == reference, context
        assert facade == reference, context

        # The implicated (attribute, expected) cells must agree between
        # the detection path and every row-level path, row by row.
        by_row: dict[int, set] = {}
        for violation in detection.violations:
            by_row.setdefault(violation.row, set()).add(
                (violation.attribute, violation.expected)
            )
        for index in range(relation.n_rows):
            expected_cells = by_row.get(index, set())
            assert set(single[index].violations) == expected_cells, context
            assert set(batched[index].violations) == expected_cells, context
            assert set(probed[index]) == expected_cells, context


def test_case_generator_is_exercised():
    """The generator must actually produce the hard shapes."""
    rng = np.random.default_rng(7)
    saw_chain = saw_ghost = saw_multi_det = False
    for _ in range(60):
        program, _ = _random_case(rng)
        dependents = {s.dependent for s in program}
        for statement in program:
            if set(statement.determinants) & dependents:
                saw_chain = True
            if len(statement.determinants) > 1:
                saw_multi_det = True
            for branch in statement.branches:
                if "ghost" in str(branch.literal):
                    saw_ghost = True
    assert saw_chain and saw_ghost and saw_multi_det


def test_argmax_fallback_agrees_on_random_programs(monkeypatch):
    """Same sweep with the LUT disabled: stacked-argmax must agree too."""
    import repro.dsl.compiled as compiled_module

    monkeypatch.setattr(compiled_module, "_LUT_MAX_ENTRIES", 0)
    rng = np.random.default_rng(77)
    for case in range(20):
        clear_dsl_caches()
        program, relation = _random_case(rng)
        rows = [relation.row(i) for i in range(relation.n_rows)]
        reference = [not row_conforms(program, row) for row in rows]
        compiled = compiled_for(program, relation)
        assert all(s.lut is None for s in compiled.statements)
        assert list(compiled.detect(relation).row_mask) == reference, (
            f"case={case} program={program!r}"
        )
