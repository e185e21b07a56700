"""Tests for the conditional-independence tester."""

import numpy as np
import pytest

from repro.pgm import CITester, IndependenceError
from repro.relation import Relation

from .ci_reference import reference_test


def make_tester(columns: dict[str, np.ndarray], **kwargs) -> CITester:
    names = list(columns)
    codes = np.column_stack([columns[n] for n in names])
    return CITester(codes, names, **kwargs)


@pytest.fixture
def dependent_data(rng) -> CITester:
    x = rng.integers(0, 3, size=3000).astype(np.int32)
    y = (x + rng.integers(0, 2, size=3000)) % 3  # strongly dependent
    z = rng.integers(0, 3, size=3000).astype(np.int32)
    return make_tester({"x": x, "y": y.astype(np.int32), "z": z})


class TestMarginalTests:
    def test_detects_dependence(self, dependent_data):
        assert not dependent_data.independent("x", "y")

    def test_detects_independence(self, dependent_data):
        assert dependent_data.independent("x", "z")

    def test_result_fields(self, dependent_data):
        result = dependent_data.test("x", "y")
        assert result.statistic > 0
        assert 0 <= result.p_value <= 1
        assert result.dof > 0
        assert bool(result) == result.independent

    def test_symmetry(self, dependent_data):
        assert dependent_data.test("x", "y") == dependent_data.test("y", "x")

    def test_memoization(self, dependent_data):
        before = dependent_data.n_queries
        dependent_data.test("x", "z")
        dependent_data.test("z", "x")
        dependent_data.test("x", "z", ())
        assert dependent_data.n_queries == before + 1


class TestConditionalTests:
    def test_chain_blocked_by_middle(self, rng):
        a = rng.integers(0, 3, size=4000).astype(np.int32)
        noise_b = rng.random(4000) < 0.05
        b = np.where(noise_b, (a + 1) % 3, a).astype(np.int32)
        noise_c = rng.random(4000) < 0.05
        c = np.where(noise_c, (b + 1) % 3, b).astype(np.int32)
        tester = make_tester({"a": a, "b": b, "c": c})
        assert not tester.independent("a", "c")
        assert tester.independent("a", "c", ["b"])

    def test_collider_opens(self, rng):
        a = rng.integers(0, 2, size=4000).astype(np.int32)
        b = rng.integers(0, 2, size=4000).astype(np.int32)
        c = ((a + b) % 2).astype(np.int32)
        tester = make_tester({"a": a, "b": b, "c": c})
        assert tester.independent("a", "b")
        assert not tester.independent("a", "b", ["c"])


class TestEdgeCases:
    def test_same_variable_rejected(self, dependent_data):
        with pytest.raises(IndependenceError):
            dependent_data.test("x", "x")

    def test_conditioning_on_endpoint_rejected(self, dependent_data):
        with pytest.raises(IndependenceError):
            dependent_data.test("x", "y", ["x"])

    def test_unknown_column_rejected(self, dependent_data):
        with pytest.raises(IndependenceError):
            dependent_data.test("x", "nope")

    def test_constant_column_is_independent(self, rng):
        x = rng.integers(0, 3, size=100).astype(np.int32)
        const = np.zeros(100, dtype=np.int32)
        tester = make_tester({"x": x, "c": const})
        result = tester.test("x", "c")
        assert result.independent
        assert result.dof == 0

    def test_missing_values_dropped(self, rng):
        x = rng.integers(0, 2, size=500).astype(np.int32)
        y = x.copy()
        y[:50] = -1  # MISSING
        tester = make_tester({"x": x, "y": y})
        assert not tester.independent("x", "y")

    def test_empty_after_missing(self):
        x = np.full(10, -1, dtype=np.int32)
        y = np.zeros(10, dtype=np.int32)
        tester = make_tester({"x": x, "y": y})
        assert tester.test("x", "y").independent

    def test_x2_method(self, dependent_data):
        names = dependent_data.names
        codes = np.column_stack([dependent_data.column(n) for n in names])
        tester = CITester(codes, names, method="x2")
        assert not tester.independent("x", "y")

    def test_unknown_method_rejected(self):
        with pytest.raises(IndependenceError):
            make_tester({"a": np.zeros(1, dtype=np.int32)}, method="zzz")

    def test_min_samples_per_dof_guards_sparse_tables(self, rng):
        # 400 rows over a 20x20 table: informative, but below the
        # 5-samples-per-dof bar (dof = 19*19 = 361 needs 1805 rows).
        x = rng.integers(0, 20, size=400).astype(np.int32)
        y = x.copy()  # perfectly dependent
        strict = make_tester({"x": x, "y": y}, min_samples_per_dof=5.0)
        loose = make_tester({"x": x, "y": y}, min_samples_per_dof=0.0)
        assert strict.test("x", "y").independent
        assert not loose.test("x", "y").independent

    def test_from_relation(self):
        relation = Relation.from_rows(
            [{"a": "x", "b": "y"}, {"a": "z", "b": "w"}]
        )
        tester = CITester.from_relation(relation)
        assert set(tester.names) == {"a", "b"}


def _assert_matches(result, expected):
    assert result.independent == expected.independent
    assert result.dof == expected.dof
    for field in ("statistic", "p_value"):
        assert getattr(result, field) == pytest.approx(
            getattr(expected, field), rel=1e-12, abs=0
        )


def _random_columns(seed: int) -> dict[str, np.ndarray]:
    """Five seeded code columns, cardinalities 2–40, a chain of
    dependences, and a few MISSING cells."""
    rng = np.random.default_rng(seed)
    n_rows = int(rng.integers(200, 3000))
    columns = {}
    previous = None
    for i in range(5):
        cardinality = int(rng.integers(2, 41))
        column = rng.integers(0, cardinality, n_rows)
        if previous is not None:
            copy = rng.random(n_rows) < 0.6
            column[copy] = previous[copy] % cardinality
        previous = column
        column = column.astype(np.int32)
        column[rng.random(n_rows) < 0.02] = -1  # MISSING
        columns[f"c{i}"] = column
    return columns


class TestReferenceOracle:
    """The one-pass tester against the per-stratum reference loop."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("min_samples_per_dof", [0.0, 5.0])
    @pytest.mark.parametrize("method", ["g2", "x2"])
    def test_matches_per_stratum_loop(self, seed, min_samples_per_dof, method):
        columns = _random_columns(seed)
        tester = make_tester(
            columns, method=method, min_samples_per_dof=min_samples_per_dof
        )
        names = list(columns)
        rng = np.random.default_rng([seed, 1])
        for n_given in range(4):
            for _ in range(3):
                x, y, *z = rng.permutation(names)[: 2 + n_given]
                expected = reference_test(
                    columns, x, y, tuple(sorted(z)), method=method,
                    min_samples_per_dof=min_samples_per_dof,
                )
                _assert_matches(tester.test(x, y, z), expected)

    @pytest.mark.parametrize("method", ["g2", "x2"])
    def test_bit_identical_on_binary_columns(self, rng, method):
        # PC sees the auxiliary sampler's binary columns: every stratum
        # table has the same 2x2 shape, so sums run in the same order.
        columns = {}
        previous = rng.integers(0, 2, 5000)
        for name in "abcdef":
            flip = rng.random(5000) < 0.3
            previous = np.where(flip, 1 - previous, previous)
            columns[name] = previous.astype(np.int32)
        tester = make_tester(columns, method=method, min_samples_per_dof=5.0)
        for n_given in range(4):
            for _ in range(5):
                x, y, *z = rng.permutation(list(columns))[: 2 + n_given]
                z = tuple(sorted(z))
                assert tester.test(x, y, z) == reference_test(
                    columns, x, y, z, method=method, min_samples_per_dof=5.0
                )

    def test_key_range_beyond_int64_is_renumbered(self, rng):
        # Four conditioning columns coded 0 or 109 999: their mixed-radix
        # range (1.5e20) overflows int64 unless renumbered on the way.
        # With binary x and y every stratum table is 2x2, so the result
        # must be bit-identical, strata summed in lexicographic order.
        columns = {
            name: (rng.integers(0, 2, 400) * 109_999).astype(np.int32)
            for name in ("z0", "z1", "z2", "z3")
        }
        columns["x"] = rng.integers(0, 2, 400).astype(np.int32)
        columns["y"] = np.where(
            rng.random(400) < 0.3, 1 - columns["x"], columns["x"]
        ).astype(np.int32)
        given = ("z0", "z1", "z2", "z3")
        for method in ("g2", "x2"):
            tester = make_tester(columns, method=method)
            assert tester.test("x", "y", given) == reference_test(
                columns, "x", "y", given, method=method
            )

    @pytest.mark.parametrize("min_samples_per_dof", [0.0, 5.0])
    @pytest.mark.parametrize("method", ["g2", "x2"])
    def test_wide_composite_given_strata(
        self, rng, method, min_samples_per_dof
    ):
        # A composite of three determinants (one code per combination,
        # ~2000 codes over 3000 rows) against a 512-code dependent:
        # |X|·|Y| is hundreds of times the row count, so each stratum's
        # table is sized by the values that occur in it.
        from repro.sketch.nontriviality import compound_codes

        n_rows = 3000
        parts = [rng.integers(0, 16, n_rows) for _ in range(3)]
        dependent = (parts[0] * 32 + rng.integers(0, 32, n_rows)) % 512
        columns = {
            "dependent": dependent.astype(np.int32),
            "z0": rng.integers(0, 8, n_rows).astype(np.int32),
            "z1": rng.integers(0, 3, n_rows).astype(np.int32),
        }
        columns["z1"][rng.random(n_rows) < 0.05] = -1  # MISSING
        tester = make_tester(
            columns, method=method, min_samples_per_dof=min_samples_per_dof
        )
        columns["composite"] = compound_codes(parts)
        tester.add_column("composite", columns["composite"])
        for given in [(), ("z0",), ("z1",), ("z0", "z1")]:
            expected = reference_test(
                columns, "dependent", "composite", given, method=method,
                min_samples_per_dof=min_samples_per_dof,
            )
            result = tester.test("dependent", "composite", given)
            _assert_matches(result, expected)

    def test_wide_relation_within_memory_bound(self):
        """Raw Adult: one column of 512 codes, three conditioning
        columns of 12–16.  Strata are counted in chunks, so the peak
        stays a small multiple of ``max(rows, |X|·|Y|)`` cells instead of
        the ~9M-cell table an unchunked ``|Z| = 3`` query would need."""
        import tracemalloc

        from repro.datasets import load

        relation = load("Adult").relation
        tester = CITester.from_relation(relation)
        names = tester.names
        columns = {n: tester.column(n) for n in names}
        x, y, *z = sorted(
            names, key=lambda n: int(columns[n].max()), reverse=True
        )[:5]
        n_cells = (int(columns[x].max()) + 1) * (int(columns[y].max()) + 1)
        bound_bytes = max(relation.n_rows, n_cells) * 8

        tracemalloc.start()
        try:
            result = tester.test(x, y, z)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        expected = reference_test(columns, x, y, tuple(sorted(z)))
        _assert_matches(result, expected)
        assert peak < 16 * bound_bytes, (peak, bound_bytes)
