"""Tests for repro.dsl.semantics (row and vectorized evaluation)."""

import numpy as np

from repro.dsl import (
    Branch,
    Condition,
    Program,
    Statement,
    apply_statement,
    branch_masks,
    condition_holds,
    condition_mask,
    program_violations,
    row_conforms,
    run_program,
    statement_coverage_mask,
)
from repro.relation import Relation


class TestRowSemantics:
    def test_condition_holds(self):
        cond = Condition.of(a="x", b="y")
        assert condition_holds(cond, {"a": "x", "b": "y"})
        assert not condition_holds(cond, {"a": "x", "b": "z"})
        assert not condition_holds(cond, {"a": "x"})

    def test_apply_statement_first_matching_branch(self):
        stmt = Statement(
            ("a",),
            "c",
            (
                Branch(Condition.of(a="x"), "c", "one"),
                Branch(Condition.of(a="y"), "c", "two"),
            ),
        )
        assert apply_statement(stmt, {"a": "y", "c": "?"})["c"] == "two"

    def test_run_program_threads_state(self, city_program):
        # PostalCode decides City, which decides State, which decides
        # Country — even starting from entirely wrong downstream values.
        row = {
            "PostalCode": "94704",
            "City": "wrong",
            "State": "wrong",
            "Country": "wrong",
        }
        fixed = run_program(city_program, row)
        assert fixed["City"] == "Berkeley"
        assert fixed["State"] == "CA"
        assert fixed["Country"] == "USA"

    def test_row_conforms_eqn1(self, city_program):
        good = {
            "PostalCode": "10001",
            "City": "NewYork",
            "State": "NY",
            "Country": "USA",
        }
        assert row_conforms(city_program, good)
        corrupted = dict(good, City="gibbon")
        assert not row_conforms(city_program, corrupted)


class TestVectorizedSemantics:
    def test_condition_mask(self, city_relation):
        mask = condition_mask(
            Condition.of(PostalCode="94704"), city_relation
        )
        assert int(mask.sum()) == 10

    def test_condition_mask_unseen_literal(self, city_relation):
        mask = condition_mask(
            Condition.of(PostalCode="99999"), city_relation
        )
        assert not mask.any()

    def test_branch_masks_no_violations_on_clean(self, city_relation):
        b = Branch(Condition.of(PostalCode="94704"), "City", "Berkeley")
        applicable, violating = branch_masks(b, city_relation)
        assert int(applicable.sum()) == 10
        assert int(violating.sum()) == 0

    def test_branch_masks_detect_corruption(self, city_relation):
        corrupted = city_relation.set_cell(0, "City", "gibbon")
        b = Branch(Condition.of(PostalCode="94704"), "City", "Berkeley")
        _, violating = branch_masks(b, corrupted)
        assert list(np.nonzero(violating)[0]) == [0]

    def test_program_violations_match_row_semantics(
        self, city_relation, city_program
    ):
        corrupted = city_relation.set_cell(5, "State", "XX")
        mask = program_violations(city_program, corrupted)
        for index in range(corrupted.n_rows):
            assert mask[index] == (
                not row_conforms(city_program, corrupted.row(index))
            )

    def test_statement_coverage_mask_full(self, city_relation, city_program):
        stmt = city_program.statement_for("Country")
        mask = statement_coverage_mask(stmt, city_relation)
        assert mask.all()

    def test_missing_dependent_counts_as_violation(self, city_relation):
        codes = city_relation.codes("City").copy()
        codes[0] = -1  # missing
        relation = city_relation.replace_codes("City", codes)
        b = Branch(Condition.of(PostalCode="94704"), "City", "Berkeley")
        _, violating = branch_masks(b, relation)
        assert violating[0]


class TestCanonicalSemanticsRegressions:
    """Row, vector, and compiled paths share one Eqn. 1 semantics."""

    def _chain(self) -> Program:
        from repro.dsl import parse_program

        return parse_program(
            """
            GIVEN a ON b HAVING
              IF a = 'a1' THEN b <- 'b1';
            GIVEN b ON c HAVING
              IF b = 'b1' THEN c <- 'c1';
              IF b = 'bad' THEN c <- 'c9'
            """
        )

    def test_write_then_read_threads_state(self):
        """Regression: program_violations used branch-local reads.

        Statement 1 rewrites the corrupted b to b1; statement 2 must
        then judge c against the threaded b1 (expecting c1, satisfied),
        not the observed 'bad' (expecting c9, which would flag the
        row's c as well and — worse — pass rows with c == 'c9').
        """
        program = self._chain()
        rows = [
            {"a": "a1", "b": "bad", "c": "c1"},  # only b is wrong
            {"a": "a1", "b": "bad", "c": "c9"},  # b wrong, c judged vs b1
            {"a": "a1", "b": "b1", "c": "c1"},   # clean
        ]
        relation = Relation.from_rows(rows)
        mask = program_violations(program, relation)
        assert list(mask) == [True, True, False]
        for index, row in enumerate(rows):
            assert mask[index] == (not row_conforms(program, row))

    def test_run_program_matches_vector_on_chain(self):
        program = self._chain()
        row = {"a": "a1", "b": "bad", "c": "c9"}
        fixed = run_program(program, row)
        assert fixed == {"a": "a1", "b": "b1", "c": "c1"}
