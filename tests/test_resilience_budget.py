"""Tests for the cooperative synthesis budget (repro.resilience.budget)."""

import time

import numpy as np
import pytest

from repro.pgm import CITester, DAG, enumerate_mec, learn_cpdag, random_sem
from repro.pgm.pdag import PDAG
from repro.resilience import Budget, BudgetExceeded
from repro.synth import GuardrailConfig, synthesize


class TestBudgetUnit:
    def test_fresh_budget_is_not_exhausted(self):
        budget = Budget(seconds=10.0, max_steps=100)
        assert not budget.exhausted()
        assert budget.exhaustion_reason() is None
        assert not budget.truncated

    def test_unlimited_budget_never_exhausts(self):
        budget = Budget()
        budget.spend(10_000)
        assert not budget.exhausted()
        assert budget.remaining_seconds() is None

    def test_step_cap(self):
        budget = Budget(max_steps=3)
        budget.spend(2)
        assert not budget.exhausted()
        budget.spend(1)
        assert budget.exhausted()
        assert budget.exhaustion_reason() == "steps"

    def test_deadline(self):
        budget = Budget(seconds=0.01)
        budget.start()
        time.sleep(0.02)
        assert budget.exhausted()
        assert budget.exhaustion_reason() == "deadline"

    def test_clock_starts_lazily(self):
        budget = Budget(seconds=100.0)
        assert not budget.started
        assert budget.elapsed() == 0.0
        budget.spend(1)
        assert budget.started
        assert budget.remaining_seconds() <= 100.0

    def test_spend_by_kind(self):
        budget = Budget()
        budget.spend(2, kind="pc.ci_test")
        budget.spend(3, kind="mec.expansion")
        budget.spend(1, kind="pc.ci_test")
        assert budget.spent_by_kind == {"pc.ci_test": 3, "mec.expansion": 3}
        assert budget.steps == 6

    def test_check_raises_with_reason(self):
        budget = Budget(max_steps=1)
        budget.spend(1)
        with pytest.raises(BudgetExceeded, match="steps") as info:
            budget.check(where="unit test")
        assert info.value.reason == "steps"
        assert "unit test" in str(info.value)

    def test_check_passes_when_unexhausted(self):
        Budget(max_steps=5).check()

    def test_notes_mark_truncation(self):
        budget = Budget()
        assert not budget.truncated
        budget.note("pc: stopped early")
        assert budget.truncated
        assert budget.notes == ["pc: stopped early"]

    def test_invalid_limits_rejected(self):
        with pytest.raises(ValueError):
            Budget(seconds=-1.0)
        with pytest.raises(ValueError):
            Budget(max_steps=-1)


@pytest.fixture
def dense_relation(rng):
    """A dense SEM whose MEC is large enough to need truncating."""
    names = [f"a{i}" for i in range(9)]
    edges = [
        (names[i], names[j])
        for i in range(len(names))
        for j in range(i + 1, min(i + 4, len(names)))
    ]
    sem = random_sem(
        DAG(names, edges), cardinalities=3, determinism=0.9, rng=rng
    )
    return sem.sample(3000, rng)


class TestBudgetedSubsystems:
    def test_pc_truncates_gracefully(self, dense_relation):
        codes = np.column_stack(
            [dense_relation.codes(n) for n in dense_relation.names]
        )
        budget = Budget(max_steps=5)
        result = learn_cpdag(
            CITester(codes, dense_relation.names), budget=budget
        )
        assert result.cpdag.nodes  # best-so-far CPDAG, not an exception
        assert budget.truncated
        assert any(note.startswith("budget: pc") for note in result.notes)

    def test_mec_yields_at_least_one_dag(self):
        # A 4-clique skeleton has many consistent extensions; even a
        # zero-step budget must produce one DAG (the partial guarantee).
        nodes = ["a", "b", "c", "d"]
        pdag = PDAG(
            nodes,
            undirected=[
                (x, y) for i, x in enumerate(nodes) for y in nodes[i + 1:]
            ],
        )
        budget = Budget(max_steps=0)
        dags = list(enumerate_mec(pdag, budget=budget))
        assert len(dags) == 1
        unbudgeted = list(enumerate_mec(pdag))
        assert len(unbudgeted) > 1

    def test_synthesize_without_budget_is_not_partial(self, city_relation):
        result = synthesize(city_relation)
        assert result.partial is False
        assert result.budget_notes == ()

    def test_synthesize_with_roomy_budget_is_complete(self, city_relation):
        result = synthesize(city_relation, budget=Budget(seconds=60.0))
        assert result.partial is False
        assert result.program.statements

    def test_budget_capped_synthesis_returns_partial_program(
        self, dense_relation
    ):
        """Acceptance: a dense SEM under a tight deadline yields a valid
        partial program within 2x the deadline."""
        deadline = 0.25
        budget = Budget(seconds=deadline)
        start = time.perf_counter()
        result = synthesize(
            dense_relation,
            GuardrailConfig(epsilon=0.05, max_condition_size=2),
            budget=budget,
        )
        elapsed = time.perf_counter() - start
        # One unit of work may straddle the deadline; 2x is the contract
        # (plus slack for a slow CI box).
        assert elapsed < 2 * deadline + 1.0
        assert result.partial is True
        assert result.budget_notes
        assert result.program.statements  # a usable best-so-far program
        # The partial program still vets the training data end to end.
        from repro.synth import Guardrail

        guard = Guardrail.from_program(result.program).guard()
        mask = guard.check_relation(dense_relation)
        assert mask.shape == (dense_relation.n_rows,)

    def test_budget_threads_into_optsmt(self, city_relation):
        from repro.synth import OptSmtSynthesizer

        budget = Budget(max_steps=1)
        budget.spend(1)
        outcome = OptSmtSynthesizer(
            time_limit=30.0, budget=budget
        ).solve(city_relation)
        assert outcome.timed_out
