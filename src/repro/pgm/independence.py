"""Conditional independence tests for discrete data.

Structure learning (the PC algorithm, §4.4–4.5) is driven by CI queries
``X ⊥ Y | Z`` answered from data.  We provide the standard G² likelihood-
ratio test and Pearson's χ² test over contingency tables, both computed
vectorized from integer-coded columns.

Tests operate on a :class:`CITester` bound to a code matrix so repeated
queries (PC issues many) share its column cache and a memo table; each
query builds its whole stratified table in one ``np.bincount`` pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import chdtrc

from ..relation import MISSING, Relation


class IndependenceError(ValueError):
    """Raised for malformed CI queries."""


@dataclass(frozen=True)
class CIResult:
    """Outcome of a conditional independence test."""

    statistic: float
    p_value: float
    dof: int
    independent: bool

    def __bool__(self) -> bool:  # truthiness == "independent"
        return self.independent


def table_statistics(
    tables: np.ndarray, method: str = "g2"
) -> tuple[np.ndarray, np.ndarray]:
    """G² (or Pearson χ²) statistic and dof of each table in a stack.

    ``tables`` is a ``(strata, |X|, |Y|)`` array of counts.  Degrees of
    freedom carry the structural-zero adjustment: empty rows and columns
    of a table do not count, so an all-zero table scores ``(0.0, 0)``.
    """
    tables = np.asarray(tables, dtype=np.float64)
    rows = tables.sum(axis=2)
    cols = tables.sum(axis=1)
    total = rows.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        expected = rows[:, :, None] * cols[:, None, :] / total[:, None, None]
        if method == "g2":
            ratio = np.where(tables > 0, tables / expected, 1.0)
            terms = tables * np.log(ratio)
        else:
            terms = np.where(
                expected > 0, (tables - expected) ** 2 / expected, 0.0
            )
    # One contiguous row per table, so each table sums in the same order
    # as ``np.sum`` over that table alone.
    statistics = terms.reshape(len(tables), -1).sum(axis=1)
    if method == "g2":
        statistics = np.maximum(2.0 * statistics, 0.0)
    # A table's rows are all empty exactly when its columns are, so the
    # row factor needs no clamp: it then multiplies a 0.
    dofs = ((rows > 0).sum(axis=1) - 1) * np.maximum(
        (cols > 0).sum(axis=1) - 1, 0
    )
    return statistics, dofs


def _narrow(column: np.ndarray) -> np.ndarray:
    """Contiguous read-only copy of a code column, narrowest signed dtype."""
    low = int(column.min()) if column.size else 0
    high = int(column.max()) if column.size else 0
    for dtype in (np.int8, np.int16, np.int32):
        info = np.iinfo(dtype)
        if info.min <= low and high <= info.max:
            break
    else:
        dtype = np.int64
    narrow = np.array(column, dtype=dtype)
    narrow.flags.writeable = False
    return narrow


def _dense_ids(key: np.ndarray) -> tuple[np.ndarray, int]:
    """Renumber ``key``'s values densely, preserving their order."""
    unique, inverse = np.unique(key, return_inverse=True)
    return inverse.reshape(-1), unique.size


_MAX_KEY_SPAN = 2**62
"""Largest mixed-radix key range built before renumbering densely."""


class CITester:
    """Conditional independence oracle over an integer code matrix.

    Parameters
    ----------
    codes:
        ``(n_rows, n_columns)`` integer matrix; rows containing
        :data:`~repro.relation.MISSING` in the queried columns are
        dropped per query.  The tester keeps its own copy of each
        column in the narrowest signed dtype that holds it.
    names:
        Column names, used for query addressing.
    alpha:
        Significance level; p-values above ``alpha`` are read as
        independent.
    method:
        ``"g2"`` (default) or ``"x2"``.
    min_samples_per_dof:
        Heuristic sample-size guard: when the per-stratum table would
        have fewer samples than this multiple of its degrees of freedom,
        the stratum is skipped (standard practice in discrete PC
        implementations to avoid vacuous rejections).
    """

    def __init__(
        self,
        codes: np.ndarray,
        names: Sequence[str],
        alpha: float = 0.05,
        method: str = "g2",
        min_samples_per_dof: float = 0.0,
    ):
        codes = np.asarray(codes)
        if codes.ndim != 2:
            raise IndependenceError("codes must be a 2-D matrix")
        if codes.shape[1] != len(names):
            raise IndependenceError("names do not match matrix width")
        if method not in ("g2", "x2"):
            raise IndependenceError(f"unknown method: {method!r}")
        self._n_rows = codes.shape[0]
        self._names: list[str] = []
        self._positions: dict[str, int] = {}
        self._columns: list[np.ndarray] = []
        self._cardinalities: list[int] = []
        self._missing: list[np.ndarray | None] = []
        for i, name in enumerate(names):
            self._store(name, codes[:, i])
        self.alpha = alpha
        self.method = method
        self.min_samples_per_dof = min_samples_per_dof
        self._memo: dict[tuple, CIResult] = {}
        self.n_queries = 0

    @classmethod
    def from_relation(
        cls, relation: Relation, alpha: float = 0.05, method: str = "g2"
    ) -> "CITester":
        """Build a tester from a relation's encoded categorical columns."""
        names = relation.schema.categorical_names()
        return cls(relation.codes_matrix(names), names, alpha=alpha, method=method)

    @property
    def names(self) -> list[str]:
        """The variable names, in column order."""
        return list(self._names)

    def _store(self, name: str, codes: np.ndarray) -> None:
        """Cache one column: narrow codes, cardinality, missing mask."""
        column = _narrow(codes)
        missing = column == MISSING
        self._positions[name] = len(self._names)
        self._names.append(name)
        self._columns.append(column)
        self._cardinalities.append(
            max(int(column.max()) + 1, 1) if column.size else 1
        )
        self._missing.append(missing if missing.any() else None)

    def add_column(self, name: str, codes: np.ndarray) -> None:
        """Add a code column (e.g. a composite of several) as ``name``."""
        codes = np.asarray(codes)
        if name in self._positions:
            raise IndependenceError(f"duplicate column: {name!r}")
        if codes.shape != (self._n_rows,):
            raise IndependenceError(
                f"column shape {codes.shape} does not match "
                f"{self._n_rows} rows"
            )
        self._store(name, codes)

    def column(self, name: str) -> np.ndarray:
        """The (read-only) code column ``name``."""
        return self._columns[self._position(name)]

    def _position(self, name: str) -> int:
        try:
            return self._positions[name]
        except KeyError:
            raise IndependenceError(f"unknown column: {name!r}") from None

    def test(
        self, x: str, y: str, given: Sequence[str] = ()
    ) -> CIResult:
        """Test ``x ⊥ y | given`` and return the full result."""
        if x == y:
            raise IndependenceError("x and y must differ")
        z = tuple(sorted(given))
        if x in z or y in z:
            raise IndependenceError("conditioning set cannot contain x or y")
        key = (min(x, y), max(x, y), z)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        self.n_queries += 1
        result = self._run_test(x, y, z)
        self._memo[key] = result
        return result

    def independent(self, x: str, y: str, given: Sequence[str] = ()) -> bool:
        """Convenience wrapper returning only the verdict."""
        return self.test(x, y, given).independent

    def _run_test(self, x: str, y: str, z: tuple[str, ...]) -> CIResult:
        """One query's whole stratified table, built by ``np.bincount``.

        Each kept row lands in cell ``(s·|X| + x)·|Y| + y``, where ``s``
        is the row's stratum: the conditioning columns read as one
        mixed-radix number, so strata come out in lexicographic order
        of their ``z`` values.  Strata are counted in consecutive
        chunks of at most ``max(rows, |X|·|Y|)`` cells.
        """
        positions = [self._position(name) for name in (x, y, *z)]
        masks = [
            self._missing[p] for p in positions if self._missing[p] is not None
        ]
        keep = ~np.logical_or.reduce(masks) if masks else None

        n_rows = self._n_rows if keep is None else int(np.count_nonzero(keep))
        if n_rows == 0:
            return CIResult(0.0, 1.0, 0, True)

        def digits(position: int) -> np.ndarray:
            column = self._columns[position]
            return column if keep is None else column[keep]

        def push(
            key: "np.ndarray | None", digit: np.ndarray, radix: int
        ) -> np.ndarray:
            """Append ``digit`` as the key's lowest mixed-radix digit.

            The arithmetic runs in place on one intp array; the ufunc
            widens a narrow column as it goes.
            """
            if key is None:
                return digit.astype(np.intp)
            key *= radix
            key += digit
            return key

        x_position, y_position, *z_positions = positions
        x_codes, n_x = digits(x_position), self._cardinalities[x_position]
        y_codes, n_y = digits(y_position), self._cardinalities[y_position]
        if n_x * n_y > n_rows:
            # A code range wider than the data: size the tables by the
            # values that occur (empty rows and columns add nothing to
            # the statistic or the dof).
            x_codes, n_x = _dense_ids(x_codes)
            y_codes, n_y = _dense_ids(y_codes)
        n_cells = n_x * n_y
        bound = max(n_rows, n_cells)
        key, n_strata = None, 1
        for position in z_positions:
            radix = self._cardinalities[position]
            if n_strata * radix > _MAX_KEY_SPAN:
                key, n_strata = _dense_ids(key)
            key = push(key, digits(position), radix)
            n_strata *= radix
        if n_strata * n_cells > bound:
            key, n_strata = _dense_ids(key)
        key = push(push(key, x_codes, n_x), y_codes, n_y)

        statistics, dofs = [], []
        for tables in _stratum_tables(key, n_strata, n_x, n_y, bound):
            s, d = table_statistics(tables, self.method)
            if self.min_samples_per_dof > 0:
                sizes = tables.sum(axis=(1, 2))
                sparse = (d > 0) & (sizes < self.min_samples_per_dof * d)
                if not z and sparse[0]:
                    # Too sparse to be informative (standard discrete-PC
                    # practice): treat as independent.
                    return CIResult(float(s[0]), 1.0, 0, True)
                s, d = s[~sparse], d[~sparse]
            statistics.append(s)
            dofs.append(d)
        kept = np.concatenate(statistics)
        # Left to right, one stratum at a time, in stratum order; empty
        # strata add an exact 0.0.
        statistic = float(np.cumsum(kept)[-1]) if kept.size else 0.0
        dof = int(np.concatenate(dofs).sum())
        if dof == 0:
            # Degenerate tables (a constant margin everywhere) carry no
            # evidence of dependence.
            return CIResult(statistic, 1.0, 0, True)
        p_value = float(chdtrc(dof, statistic))
        return CIResult(statistic, p_value, dof, p_value > self.alpha)


def _stratum_tables(
    key: np.ndarray, n_strata: int, n_x: int, n_y: int, bound: int
):
    """Count tables of strata ``[0, n_strata)``, in consecutive chunks.

    ``key`` holds each row's cell ``(stratum·n_x + x)·n_y + y``.  Each
    yielded ``(strata, |X|, |Y|)`` stack holds the tables of one chunk
    of strata and has at most ``bound`` cells.  When there is more than
    one chunk, each chunk's tables are sized by the ``x`` and ``y``
    values that occur in it, so a table wide enough to fill a chunk
    alone costs its stratum's rows, not ``|X|·|Y|`` cells.
    """
    n_cells = n_x * n_y
    per_chunk = max(1, bound // n_cells)
    if n_strata <= per_chunk:
        counts = np.bincount(key, minlength=n_strata * n_cells)
        yield counts.reshape(n_strata, n_x, n_y)
        return
    key = np.sort(key)
    for start in range(0, n_strata, per_chunk):
        stop = min(start + per_chunk, n_strata)
        lo, hi = np.searchsorted(key, (start * n_cells, stop * n_cells))
        strata, cells = np.divmod(key[lo:hi] - start * n_cells, n_cells)
        x_ids, width_x = _dense_ids(cells // n_y)
        y_ids, width_y = _dense_ids(cells % n_y)
        counts = np.bincount(
            (strata * width_x + x_ids) * width_y + y_ids,
            minlength=(stop - start) * width_x * width_y,
        )
        yield counts.reshape(stop - start, width_x, width_y)
