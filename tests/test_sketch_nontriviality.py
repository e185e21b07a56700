"""Tests for LNT/GNT checks (paper §4.1)."""

import numpy as np
import pytest

from repro.pgm import CITester, IndependenceError
from repro.sketch import ProgramSketch, SketchJudge, StatementSketch, compound_codes

from .ci_reference import reference_test


def make_judge(columns: dict[str, np.ndarray], alpha=0.01) -> SketchJudge:
    names = list(columns)
    codes = np.column_stack([columns[n] for n in names])
    return SketchJudge(CITester(codes, names, alpha=alpha))


@pytest.fixture
def postal_data(rng):
    """PostalCode -> City -> State (the Example 4.1 setting).

    A little exogenous noise on each mechanism keeps the data faithful
    to the chain — a perfectly deterministic chain would make the child
    constant given its parent, hiding conditional dependencies from any
    statistical test.
    """
    postal = rng.integers(0, 6, size=4000).astype(np.int32)
    city_noise = (rng.random(4000) < 0.03).astype(np.int32)
    city = ((postal // 2) + city_noise).astype(np.int32)
    state_noise = (rng.random(4000) < 0.03).astype(np.int32)
    state = ((city // 2) + state_noise).astype(np.int32)
    return {"postal": postal, "city": city, "state": state}


class TestCompoundCodes:
    def test_distinct_combos_get_distinct_codes(self):
        a = np.array([0, 0, 1, 1], dtype=np.int32)
        b = np.array([0, 1, 0, 1], dtype=np.int32)
        compound = compound_codes([a, b])
        assert len(set(compound.tolist())) == 4

    def test_missing_propagates(self):
        a = np.array([0, -1], dtype=np.int32)
        b = np.array([0, 0], dtype=np.int32)
        compound = compound_codes([a, b])
        assert compound[1] == -1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compound_codes([])


class TestLNT:
    def test_dependent_pair_is_lnt(self, postal_data):
        judge = make_judge(postal_data)
        assert judge.is_lnt(StatementSketch(("postal",), "city"))

    def test_independent_pair_is_not_lnt(self, rng):
        judge = make_judge(
            {
                "a": rng.integers(0, 3, 2000).astype(np.int32),
                "b": rng.integers(0, 3, 2000).astype(np.int32),
            }
        )
        assert not judge.is_lnt(StatementSketch(("a",), "b"))

    def test_joint_determinant_set(self, rng):
        a = rng.integers(0, 2, 3000).astype(np.int32)
        b = rng.integers(0, 2, 3000).astype(np.int32)
        c = ((a + b) % 2).astype(np.int32)  # XOR: depends jointly only
        judge = make_judge({"a": a, "b": b, "c": c})
        assert judge.is_lnt(StatementSketch(("a", "b"), "c"))
        assert not judge.is_lnt(StatementSketch(("a",), "c"))


class TestGNT:
    def test_example_4_1_redundant_sketch_rejected(self, postal_data):
        """GIVEN postal ON state is not GNT next to GIVEN city ON state."""
        judge = make_judge(postal_data)
        s_postal_state = StatementSketch(("postal",), "state")
        s_city_state = StatementSketch(("city",), "state")
        program = ProgramSketch((s_postal_state, s_city_state))
        assert judge.is_lnt(s_postal_state)  # individually fine
        assert not judge.statement_is_gnt(s_postal_state, program)

    def test_true_structure_is_gnt(self, postal_data):
        judge = make_judge(postal_data)
        program = ProgramSketch(
            (
                StatementSketch(("postal",), "city"),
                StatementSketch(("city",), "state"),
            )
        )
        assert judge.is_gnt(program)

    def test_prune_to_gnt_removes_redundancy(self, postal_data):
        judge = make_judge(postal_data)
        bloated = ProgramSketch(
            (
                StatementSketch(("postal",), "city"),
                StatementSketch(("postal",), "state"),  # redundant
                StatementSketch(("city",), "state"),
            )
        )
        pruned = judge.prune_to_gnt(bloated)
        kept = {(s.determinants, s.dependent) for s in pruned}
        assert (("postal",), "city") in kept
        assert (("postal",), "state") not in kept

    def test_prune_drops_non_lnt(self, rng):
        judge = make_judge(
            {
                "a": rng.integers(0, 3, 2000).astype(np.int32),
                "b": rng.integers(0, 3, 2000).astype(np.int32),
            }
        )
        pruned = judge.prune_to_gnt(
            ProgramSketch((StatementSketch(("a",), "b"),))
        )
        assert len(pruned) == 0


class TestCompositeColumns:
    def test_composite_added_after_queries_matches_reference(self, rng):
        """A composite added once queries have run is tested against
        its own codes, not a stale column cache."""
        a = rng.integers(0, 3, 3000).astype(np.int32)
        b = rng.integers(0, 4, 3000).astype(np.int32)
        c = ((a + b) % 3).astype(np.int32)
        c[rng.random(3000) < 0.2] = rng.integers(0, 3)
        d = rng.integers(0, 2, 3000).astype(np.int32)
        a[:40] = -1  # MISSING propagates into the composite
        columns = {"a": a, "b": b, "c": c, "d": d}
        names = list(columns)
        codes = np.column_stack([columns[n] for n in names])
        tester = CITester(codes, names, alpha=0.01)
        judge = SketchJudge(tester)
        tester.test("a", "c")
        tester.test("a", "c", ["d"])

        assert judge.is_lnt(StatementSketch(("a", "b"), "c"))
        assert tester.names == ["a", "b", "c", "d", "a&b"]
        columns["a&b"] = compound_codes([a, b])
        assert np.array_equal(tester.column("a&b"), columns["a&b"])
        for given in ((), ("d",)):
            expected = reference_test(columns, "c", "a&b", given, alpha=0.01)
            result = tester.test("c", "a&b", given)
            assert result.independent == expected.independent
            assert result.dof == expected.dof
            assert result.statistic == pytest.approx(
                expected.statistic, rel=1e-12, abs=0
            )

    def test_add_column_rejects_duplicates_and_bad_shapes(self):
        tester = CITester(np.zeros((4, 1), dtype=np.int32), ["a"])
        with pytest.raises(IndependenceError):
            tester.add_column("a", np.zeros(4, dtype=np.int32))
        with pytest.raises(IndependenceError):
            tester.add_column("b", np.zeros(3, dtype=np.int32))
