"""Tests for the streaming Guard and BIC hill climbing."""

import numpy as np
import pytest

from repro.errors import DataIntegrityError, Guard, detect_errors
from repro.pgm import (
    DAG,
    BicScorer,
    cpdag_from_dag,
    hill_climb,
    random_sem,
)
from repro.synth import GuardrailConfig, synthesize


class TestRowGuard:
    @pytest.fixture
    def guard(self, city_program) -> Guard:
        return Guard(city_program)

    def test_clean_row_passes(self, guard):
        verdict = guard.check(
            {
                "PostalCode": "94704",
                "City": "Berkeley",
                "State": "CA",
                "Country": "USA",
            }
        )
        assert verdict.ok
        assert bool(verdict)

    def test_violation_reports_expected_value(self, guard):
        verdict = guard.check(
            {
                "PostalCode": "94704",
                "City": "gibbon",
                "State": "CA",
                "Country": "USA",
            }
        )
        assert not verdict.ok
        assert ("City", "Berkeley") in verdict.violations

    def test_uncovered_row_passes(self, guard):
        verdict = guard.check({"PostalCode": "00000"})
        assert verdict.ok

    def test_agrees_with_batch_detection(
        self, guard, city_relation, city_program, rng
    ):
        from repro.errors import inject_errors

        report = inject_errors(city_relation, n_errors=15, rng=rng)
        batch = detect_errors(city_program, report.relation)
        for index in range(report.relation.n_rows):
            row_verdict = guard.check(report.relation.row(index))
            assert row_verdict.ok == (not batch.row_mask[index])

    def test_rectify_row(self, guard):
        repaired = guard.rectify(
            {
                "PostalCode": "73301",
                "City": "gibbon",
                "State": "TX",
                "Country": "USA",
            }
        )
        assert repaired["City"] == "Austin"

    def test_rectify_midchain_determinant(self, guard):
        # Corrupted City breaks both City and State statements; the
        # minimal repair restores City.
        repaired = guard.rectify(
            {
                "PostalCode": "94704",
                "City": "Austin",
                "State": "CA",
                "Country": "USA",
            }
        )
        assert repaired["City"] == "Berkeley"
        assert repaired["State"] == "CA"

    def test_process_strategies(self, guard):
        bad = {
            "PostalCode": "94704",
            "City": "gibbon",
            "State": "CA",
            "Country": "USA",
        }
        with pytest.raises(DataIntegrityError):
            guard.process(bad, "raise")
        assert guard.process(bad, "ignore")["City"] == "gibbon"
        assert guard.process(bad, "coerce")["City"] is None
        assert guard.process(bad, "rectify")["City"] == "Berkeley"

    def test_stats_accumulate(self, guard):
        good = {
            "PostalCode": "94704", "City": "Berkeley",
            "State": "CA", "Country": "USA",
        }
        guard.check(good)
        guard.check(dict(good, City="gibbon"))
        assert guard.stats.rows_checked >= 2
        assert guard.stats.rows_flagged == 1
        assert guard.stats.violations_by_attribute["City"] == 1
        assert 0 < guard.stats.violation_rate <= 1


class TestBicScorer:
    def test_dependent_family_scores_higher(self, rng):
        dag = DAG(["a", "b"], [("a", "b")])
        sem = random_sem(dag, 3, determinism=0.95, rng=rng)
        relation = sem.sample(2000, rng)
        codes = relation.codes_matrix(["a", "b"])
        scorer = BicScorer(codes, ["a", "b"])
        with_parent = scorer.score("b", frozenset({"a"}))
        without = scorer.score("b", frozenset())
        assert with_parent > without

    def test_independent_parent_penalized(self, rng):
        codes = np.column_stack(
            [
                rng.integers(0, 3, 3000),
                rng.integers(0, 3, 3000),
            ]
        ).astype(np.int32)
        scorer = BicScorer(codes, ["x", "y"])
        assert scorer.score("y", frozenset()) > scorer.score(
            "y", frozenset({"x"})
        )

    def test_memoization(self, rng):
        codes = rng.integers(0, 2, (100, 2)).astype(np.int32)
        scorer = BicScorer(codes, ["x", "y"])
        scorer.score("y", frozenset({"x"}))
        count = scorer.families_scored
        scorer.score("y", frozenset({"x"}))
        assert scorer.families_scored == count

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            BicScorer(np.zeros((3, 2), dtype=np.int32), ["only"])


class TestHillClimb:
    def test_recovers_collider(self, rng):
        dag = DAG(["a", "b", "c"], [("a", "c"), ("b", "c")])
        sem = random_sem(dag, 3, determinism=0.95, rng=rng)
        relation = sem.sample(4000, rng)
        codes = relation.codes_matrix(["a", "b", "c"])
        result = hill_climb(codes, ["a", "b", "c"])
        assert result.dag.skeleton() == dag.skeleton()
        # Collider orientation is score-identifiable.
        assert cpdag_from_dag(result.dag) == cpdag_from_dag(dag)

    def test_empty_on_independent_data(self, rng):
        codes = rng.integers(0, 3, (2000, 3)).astype(np.int32)
        result = hill_climb(codes, ["x", "y", "z"])
        assert result.dag.n_edges == 0

    def test_max_parents_respected(self, rng):
        dag = DAG(
            ["p1", "p2", "p3", "c"],
            [("p1", "c"), ("p2", "c"), ("p3", "c")],
        )
        sem = random_sem(dag, 2, determinism=0.95, rng=rng)
        relation = sem.sample(3000, rng)
        codes = relation.codes_matrix(list(dag.nodes))
        result = hill_climb(codes, list(dag.nodes), max_parents=2)
        assert all(
            len(result.dag.parents(n)) <= 2 for n in result.dag.nodes
        )

    def test_result_metadata(self, rng):
        codes = rng.integers(0, 2, (500, 2)).astype(np.int32)
        result = hill_climb(codes, ["x", "y"])
        assert result.iterations >= 1
        assert result.families_scored > 0


class TestHcLearnerInSynthesis:
    def test_hc_backend_produces_valid_program(self, chain_relation):
        config = GuardrailConfig(
            epsilon=0.05, min_support=2, learner="hc", seed=1
        )
        result = synthesize(chain_relation, config)
        from repro.dsl import program_is_valid

        assert program_is_valid(result.program, chain_relation, 0.05)
        assert result.program  # finds the chain structure

    def test_invalid_learner_rejected(self):
        with pytest.raises(ValueError, match="learner"):
            GuardrailConfig(learner="magic")
