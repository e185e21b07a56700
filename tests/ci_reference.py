"""Reference CI test: one contingency table per stratum, built by sorting.

The straightforward formulation of ``X ⊥ Y | Z`` that
:class:`repro.pgm.CITester` must reproduce: rows with a missing cell in
any queried column are dropped, rows are grouped into strata by their
``Z`` values (``np.lexsort``), each stratum gets its own ``np.unique``
cross-tabulation, and the per-stratum statistics and degrees of freedom
are summed in stratum order.  Tests use it as the oracle.
"""

from __future__ import annotations

import numpy as np
from scipy import stats

from repro.pgm import CIResult
from repro.relation import MISSING


def crosstab(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dense contingency table of two code columns (observed values only)."""
    x_vals, x_idx = np.unique(x, return_inverse=True)
    y_vals, y_idx = np.unique(y, return_inverse=True)
    table = np.zeros((len(x_vals), len(y_vals)), dtype=np.float64)
    np.add.at(table, (x_idx, y_idx), 1.0)
    return table


def g2_from_table(table: np.ndarray) -> tuple[float, int]:
    """G² statistic and structural-zero dof of one table."""
    total = table.sum()
    if total == 0:
        return 0.0, 0
    rows = table.sum(axis=1, keepdims=True)
    cols = table.sum(axis=0, keepdims=True)
    expected = rows @ cols / total
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(table > 0, table / expected, 1.0)
        g2 = 2.0 * float(np.sum(table * np.log(ratio)))
    dof = max(int(np.count_nonzero(rows)) - 1, 0) * max(
        int(np.count_nonzero(cols)) - 1, 0
    )
    return max(g2, 0.0), dof


def x2_from_table(table: np.ndarray) -> tuple[float, int]:
    """Pearson χ² statistic and structural-zero dof of one table."""
    total = table.sum()
    if total == 0:
        return 0.0, 0
    rows = table.sum(axis=1, keepdims=True)
    cols = table.sum(axis=0, keepdims=True)
    expected = rows @ cols / total
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(expected > 0, (table - expected) ** 2 / expected, 0.0)
    dof = max(int(np.count_nonzero(rows)) - 1, 0) * max(
        int(np.count_nonzero(cols)) - 1, 0
    )
    return float(terms.sum()), dof


def stratify(z_cols: list[np.ndarray]) -> list[np.ndarray]:
    """Row indices of each observed combination of the z columns."""
    stacked = np.column_stack(z_cols)
    order = np.lexsort(stacked.T[::-1])
    ordered = stacked[order]
    changes = np.any(np.diff(ordered, axis=0) != 0, axis=1)
    bounds = np.concatenate([[0], np.nonzero(changes)[0] + 1, [len(order)]])
    return [order[s:e] for s, e in zip(bounds[:-1], bounds[1:])]


def reference_test(
    columns: dict[str, np.ndarray],
    x: str,
    y: str,
    z: tuple[str, ...] = (),
    alpha: float = 0.05,
    method: str = "g2",
    min_samples_per_dof: float = 0.0,
) -> CIResult:
    """``x ⊥ y | z`` over ``columns``, one stratum at a time."""
    x_col, y_col = columns[x], columns[y]
    keep = (x_col != MISSING) & (y_col != MISSING)
    z_cols = [columns[name] for name in z]
    for col in z_cols:
        keep &= col != MISSING
    x_col, y_col = x_col[keep], y_col[keep]
    z_cols = [col[keep] for col in z_cols]
    if x_col.size == 0:
        return CIResult(0.0, 1.0, 0, True)

    stat_fn = g2_from_table if method == "g2" else x2_from_table
    statistic = 0.0
    dof = 0
    if not z:
        statistic, dof = stat_fn(crosstab(x_col, y_col))
        if (
            min_samples_per_dof > 0
            and dof > 0
            and x_col.size < min_samples_per_dof * dof
        ):
            return CIResult(statistic, 1.0, 0, True)
    else:
        for indices in stratify(z_cols):
            s, d = stat_fn(crosstab(x_col[indices], y_col[indices]))
            if (
                min_samples_per_dof > 0
                and d > 0
                and indices.size < min_samples_per_dof * d
            ):
                continue
            statistic += s
            dof += d
    if dof == 0:
        return CIResult(statistic, 1.0, 0, True)
    p_value = float(stats.chi2.sf(statistic, dof))
    return CIResult(statistic, p_value, dof, p_value > alpha)
