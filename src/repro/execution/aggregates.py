"""Global and grouped aggregation over column vectors.

Grouped aggregation is sort-based: group keys are lexicographically sorted
once, segment boundaries are found with one vectorized comparison, and each
aggregate reduces over segments with ``np.add.reduceat`` and friends.  This
keeps per-group Python work at zero, which matters because the paper's
"DBMS wins after loading" story depends on the engine actually being fast
once data is columnar.

A string column (:class:`~repro.strings.StringColumn`) never sorts as
``str``: it groups, counts distinct values and takes ``min``/``max`` over
its integer ranks (string order), and ``min``/``max`` map the winning
ranks back to strings.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ExecutionError
from repro.strings import StringColumn

#: Column values an aggregate reads: numbers, or a string column.
Values = np.ndarray | StringColumn


def global_aggregate(func: str, values: Values | None, nrows: int, distinct: bool = False):
    """Aggregate a whole column (or row count for ``count(*)``)."""
    if isinstance(values, StringColumn):
        _check_string_aggregate(func)
        ranks = values.ranks()
        out = global_aggregate(func, ranks, nrows, distinct)
        if func == "count" or len(ranks) == 0:
            return out
        return values.at_ranks(ranks, [out]).decode()[0]
    if func == "count":
        if values is None:
            return np.int64(nrows)
        if distinct:
            return np.int64(len(np.unique(values)))
        return np.int64(len(values))
    if values is None:
        raise ExecutionError(f"{func}() requires an argument")
    if distinct:
        values = np.unique(values)
    if len(values) == 0:
        # SQL semantics: aggregates over empty input are NULL; the closest
        # honest analogue without a NULL system is NaN for numerics.
        return np.nan
    if func == "sum":
        return values.sum()
    if func == "min":
        return values.min()
    if func == "max":
        return values.max()
    if func == "avg":
        return float(values.mean())
    raise ExecutionError(f"unknown aggregate {func!r}")


def _check_string_aggregate(func: str) -> None:
    if func in ("sum", "avg"):
        # Summing strings has no meaning (NumPy would concatenate them).
        # This matters since schema widening can legitimately turn a
        # sampled-as-numeric column into strings.
        raise ExecutionError(f"{func}() over a string column is not defined")


def group_ids(keys: list[Values]) -> tuple[np.ndarray, np.ndarray, list[Values]]:
    """Compute group structure for one or more key columns.

    Returns ``(order, segment_starts, key_values)`` where ``order`` sorts
    the input rows by key, ``segment_starts`` indexes the first row of each
    group within the sorted order, and ``key_values`` holds each key
    column's per-group value (in sorted group order; a string key's stay
    a :class:`~repro.strings.StringColumn` of one row per group).
    """
    if not keys:
        raise ExecutionError("group_ids needs at least one key")
    n = len(keys[0])
    sort_keys = [k.ranks() if isinstance(k, StringColumn) else k for k in keys]
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), [
            k[:0] for k in keys
        ]
    order = np.lexsort(tuple(reversed(sort_keys)))
    boundary = np.zeros(n, dtype=bool)
    boundary[0] = True
    for key in sort_keys:
        sorted_key = key[order]
        boundary[1:] |= sorted_key[1:] != sorted_key[:-1]
    starts = np.nonzero(boundary)[0]
    first_rows = order[starts]
    key_values = [key[first_rows] for key in keys]
    return order, starts, key_values


def _segmented_aggregate(
    func: str,
    sorted_vals: np.ndarray,
    starts: np.ndarray,
    n: int,
    distinct: bool,
) -> np.ndarray:
    """DISTINCT aggregation without per-group Python loops.

    Rows are re-sorted by (group, value) — a stable value sort chased by a
    stable group sort — so every group's values form a contiguous ascending
    run.  Duplicates then collapse with one shifted comparison, and each
    aggregate reduces over run boundaries (``reduceat`` / first / last).
    """
    ngroups = len(starts)
    sizes = np.diff(np.append(starts, n))
    gids = np.repeat(np.arange(ngroups, dtype=np.int64), sizes)
    by_value = np.argsort(sorted_vals, kind="stable")
    by_group = by_value[np.argsort(gids[by_value], kind="stable")]
    vals = sorted_vals[by_group]
    g = gids[by_group]
    if distinct and n > 1:
        same = (g[1:] == g[:-1]) & (vals[1:] == vals[:-1])
        if np.issubdtype(vals.dtype, np.floating):
            # np.unique collapses NaNs within a group; `nan != nan` would
            # keep them all, so match that explicitly.
            same |= (g[1:] == g[:-1]) & np.isnan(vals[1:]) & np.isnan(vals[:-1])
        keep = np.empty(n, dtype=bool)
        keep[0] = True
        keep[1:] = ~same
        vals = vals[keep]
        g = g[keep]
    # Every group is non-empty, so run starts are wherever g steps.
    run_starts = np.nonzero(np.r_[True, g[1:] != g[:-1]])[0]
    counts = np.diff(np.append(run_starts, len(vals)))
    if func == "count":
        return counts.astype(np.int64)
    if func == "sum":
        return np.add.reduceat(vals, run_starts)
    if func == "min":
        return vals[run_starts]
    if func == "max":
        return vals[np.append(run_starts[1:], len(vals)) - 1]
    if func == "avg":
        sums = np.add.reduceat(vals.astype(np.float64), run_starts)
        return sums / counts
    raise ExecutionError(f"unknown aggregate {func!r}")


def grouped_aggregate(
    func: str,
    values: Values | None,
    order: np.ndarray,
    starts: np.ndarray,
    distinct: bool = False,
) -> Values:
    """Aggregate ``values`` per group defined by ``(order, starts)``."""
    if isinstance(values, StringColumn):
        _check_string_aggregate(func)
        ranks = values.ranks()
        out = grouped_aggregate(func, ranks, order, starts, distinct)
        return values.at_ranks(ranks, out) if func in ("min", "max") else out
    ngroups = len(starts)
    n = len(order)
    if ngroups == 0:
        return np.empty(0)
    if func == "count" and values is None:
        sizes = np.diff(np.append(starts, n))
        return sizes.astype(np.int64)
    if values is None:
        raise ExecutionError(f"{func}() requires an argument")
    sorted_vals = values[order]
    if distinct:
        return _segmented_aggregate(func, sorted_vals, starts, n, distinct)
    if func == "count":
        return np.diff(np.append(starts, n)).astype(np.int64)
    if func == "sum":
        return np.add.reduceat(sorted_vals, starts)
    if func == "min":
        return np.minimum.reduceat(sorted_vals, starts)
    if func == "max":
        return np.maximum.reduceat(sorted_vals, starts)
    if func == "avg":
        sums = np.add.reduceat(sorted_vals.astype(np.float64), starts)
        sizes = np.diff(np.append(starts, n))
        return sums / sizes
    raise ExecutionError(f"unknown aggregate {func!r}")
