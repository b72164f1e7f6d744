"""The query executor.

``execute_bound_query`` turns a :class:`~repro.sql.binder.BoundQuery` plus
a column provider into a :class:`~repro.result.QueryResult`.  The column
provider abstraction is the heart of the reproduction's layering: the
executor neither knows nor cares whether base columns came from a full
up-front load, an adaptive column load, a partial load or a split file —
it just asks for vectors.  That is precisely the paper's point that
adaptive loading operators can be "plugged into query plans" beneath an
unchanged kernel.

Pipeline: per-table predicate pushdown -> joins (hash, smaller build side)
-> residual predicates -> grouping/aggregation -> projection -> DISTINCT ->
ORDER BY -> LIMIT -> decode.

A string column arrives as a :class:`~repro.strings.StringColumn` and
stays one through every stage: predicates, join keys, grouping, DISTINCT
and ORDER BY run on its codes or ranks.  Only the last stage decodes it,
so ``str`` exists for the rows that leave as the result and no others.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import ExecutionError, UnsupportedSQLError
from repro.execution.aggregates import global_aggregate, group_ids, grouped_aggregate
from repro.execution.expressions import eval_expr, eval_predicate
from repro.execution.joins import hash_join, hash_join_unique
from repro.result import QueryResult
from repro.sql.binder import (
    BAgg,
    BArith,
    BColumn,
    BCompare,
    BExpr,
    BIn,
    BLogical,
    BNeg,
    BNot,
    BoundQuery,
)
from repro.strings import StringColumn

#: ``get_column(binding, column_name)`` over all base rows: a NumPy array,
#: or a :class:`~repro.strings.StringColumn` for a STRING column.
ColumnProvider = Callable[[str, str], "np.ndarray | StringColumn"]


def execute_bound_query(
    query: BoundQuery,
    get_column: ColumnProvider,
    nrows_of: Callable[[str], int],
) -> QueryResult:
    """Execute ``query`` against base columns supplied by ``get_column``."""
    frame = _Frame(query, get_column, nrows_of)
    frame.apply_local_predicates()
    frame.apply_joins()
    frame.apply_residual_predicates()

    if query.is_aggregate:
        names, columns, order_keys = _project_aggregate(query, frame)
    else:
        names, columns = _project_plain(query, frame)
        order_keys = None

    if query.distinct:
        names, columns = _distinct(names, columns)
        order_keys = None  # row identity changed; keys recompute from outputs

    columns = _order_and_limit(query, frame, names, columns, order_keys)
    return QueryResult(
        names,
        [c.decode() if isinstance(c, StringColumn) else c for c in columns],
    )


# ---------------------------------------------------------------------------
# Frame: per-binding selection vectors over base columns
# ---------------------------------------------------------------------------


class _Frame:
    """Aligned selection vectors across all bindings of the query.

    A binding's selection is ``None`` while it holds all its base rows in
    order: its columns are then the base columns themselves, and an
    index is built only where a mask or a join first narrows or
    reorders the rows.
    """

    def __init__(
        self,
        query: BoundQuery,
        get_column: ColumnProvider,
        nrows_of: Callable[[str], int],
    ) -> None:
        self.query = query
        self.get_column = get_column
        self.base_rows = {b: nrows_of(b) for b in query.tables}
        # Selection per binding; joined bindings share one length.
        self.selections: dict[str, np.ndarray | None] = dict.fromkeys(self.base_rows)
        self.joined: list[str] = [next(iter(query.tables))] if query.tables else []
        self._conjuncts = _flatten_and(query.where) if query.where is not None else []

    # ------------------------------------------------------------ resolve

    def resolve(self, col: BColumn) -> np.ndarray | StringColumn:
        base = self.get_column(col.binding, col.name)
        sel = self.selections[col.binding]
        return base if sel is None else base[sel]  # a StringColumn takes codes

    def rows(self, binding: str) -> int:
        sel = self.selections[binding]
        return self.base_rows[binding] if sel is None else len(sel)

    def length(self) -> int:
        return self.rows(self.joined[0])

    def _narrow(self, binding: str, picked: np.ndarray) -> None:
        """Keep the rows ``picked`` (a mask or positions) of ``binding``'s
        selection."""
        sel = self.selections[binding]
        if sel is not None:
            picked = sel[picked]
        elif picked.dtype == bool:
            picked = np.flatnonzero(picked)
        self.selections[binding] = picked

    # ---------------------------------------------------------- predicates

    def apply_local_predicates(self) -> None:
        """Push single-table conjuncts below the joins."""
        remaining = []
        for conjunct in self._conjuncts:
            refs = _bindings_of(conjunct)
            if len(refs) == 1:
                binding = next(iter(refs))
                mask = eval_predicate(conjunct, self.resolve, self.rows(binding))
                self._narrow(binding, mask)
            else:
                remaining.append(conjunct)
        self._conjuncts = remaining

    def apply_residual_predicates(self) -> None:
        if not self._conjuncts:
            return
        n = self.length()
        mask = np.ones(n, dtype=bool)
        for conjunct in self._conjuncts:
            refs = _bindings_of(conjunct)
            missing = refs - set(self.joined)
            if missing:
                raise UnsupportedSQLError(
                    f"predicate references unjoined tables {sorted(missing)}"
                )
            mask &= eval_predicate(conjunct, self.resolve, n)
        for b in self.joined:
            self._narrow(b, mask)
        self._conjuncts = []

    # --------------------------------------------------------------- joins

    def apply_joins(self) -> None:
        pending = list(self.query.joins)
        if len(self.query.tables) > 1 and not pending:
            raise UnsupportedSQLError("cross joins without ON are not supported")
        guard = 0
        while pending:
            guard += 1
            if guard > 100:  # pragma: no cover - defensive
                raise ExecutionError("join resolution did not converge")
            progressed = False
            for jc in list(pending):
                sides = {jc.left.binding, jc.right.binding}
                known = sides & set(self.joined)
                if not known:
                    continue
                pending.remove(jc)
                progressed = True
                if len(known) == 2:
                    # Both sides already joined: a residual equality filter.
                    self._conjuncts.append(BCompare("=", jc.left, jc.right))
                    continue
                old = jc.left if jc.left.binding in self.joined else jc.right
                new = jc.right if old is jc.left else jc.left
                self._execute_join(old, new)
            if not progressed:
                names = sorted({jc.left.binding for jc in pending} | {jc.right.binding for jc in pending})
                raise UnsupportedSQLError(
                    f"join graph is disconnected around {names}"
                )

    def _execute_join(self, old: BColumn, new: BColumn) -> None:
        left_vals = self.resolve(old)
        right_vals = self.resolve(new)
        left_idx, right_idx = _best_join(*_join_keys(left_vals, right_vals))
        for b in self.joined:
            self._narrow(b, left_idx)
        self._narrow(new.binding, right_idx)
        self.joined.append(new.binding)


def _join_keys(left, right) -> tuple[np.ndarray, np.ndarray]:
    """Join keys as arrays: two string columns as ranks in one shared
    order; a string column against numbers matches nothing."""
    left_str, right_str = isinstance(left, StringColumn), isinstance(right, StringColumn)
    if left_str and right_str:
        return left.co_ranks(right)
    if left_str or right_str:
        nothing = np.empty(0, dtype=np.int64)
        return nothing, nothing
    return left, right


def _best_join(left_vals: np.ndarray, right_vals: np.ndarray):
    """Pick the vectorized unique-key join when legal, else the hash join."""
    if (
        len(right_vals) > 0
        and right_vals.dtype.kind in "if"
        and len(np.unique(right_vals)) == len(right_vals)
    ):
        return hash_join_unique(left_vals, right_vals)
    return hash_join(left_vals, right_vals)


# ---------------------------------------------------------------------------
# Projection
# ---------------------------------------------------------------------------


def _column(value) -> np.ndarray | StringColumn:
    """An output column: a string column as is, anything else an array."""
    return value if isinstance(value, StringColumn) else np.asarray(value)


def _project_plain(query: BoundQuery, frame: _Frame):
    n = frame.length()
    names = [o.name for o in query.outputs]

    def owned(col: BColumn) -> np.ndarray | StringColumn:
        # An unnarrowed binding resolves to the base column itself: copy
        # it, so no result shares memory with a stored column.
        value = frame.resolve(col)
        if frame.selections[col.binding] is None and isinstance(value, np.ndarray):
            return value.copy()
        return value

    columns = [_column(eval_expr(o.expr, owned, n)) for o in query.outputs]
    return names, columns


def _collect_aggs(expr: BExpr, out: list[BAgg]) -> None:
    if isinstance(expr, BAgg):
        if expr not in out:
            out.append(expr)
        return
    if isinstance(expr, (BArith, BCompare, BLogical)):
        _collect_aggs(expr.left, out)
        _collect_aggs(expr.right, out)
    elif isinstance(expr, (BNeg, BNot, BIn)):
        _collect_aggs(expr.operand, out)


def _group_leaf(
    agg_values: dict[BAgg, "np.ndarray | float"], key_map: dict[str, np.ndarray]
):
    """The leaf hook of a group-level expression (outputs, HAVING, ORDER
    BY keys): computed aggregates, and group-by key expressions matched
    structurally by their canonical string form."""

    def leaf(expr: BExpr):
        if isinstance(expr, BAgg):
            return agg_values[expr]
        return key_map.get(str(expr))

    return leaf


def _ungrouped(col: BColumn):
    """A bare column left in a group-level expression is no group key."""
    raise ExecutionError(
        f"expression {col} mixes aggregates with non-grouped columns"
    )


def _project_aggregate(query: BoundQuery, frame: _Frame):
    n = frame.length()
    aggs: list[BAgg] = []
    for out in query.outputs:
        _collect_aggs(out.expr, aggs)
    for expr, _ in query.order_by:
        _collect_aggs(expr, aggs)
    if query.having is not None:
        _collect_aggs(query.having, aggs)

    if query.group_by:
        key_arrays = [_column(eval_expr(k, frame.resolve, n)) for k in query.group_by]
        order, starts, key_values = group_ids(key_arrays)
        key_map = {str(k): kv for k, kv in zip(query.group_by, key_values)}
        agg_values: dict[BAgg, np.ndarray] = {}
        for agg in aggs:
            arg = None if agg.arg is None else _column(eval_expr(agg.arg, frame.resolve, n))
            agg_values[agg] = grouped_aggregate(
                agg.func, arg, order, starts, agg.distinct
            )
        ngroups = len(starts)
        if query.having is not None:
            mask = eval_predicate(
                query.having, _ungrouped, ngroups, _group_leaf(agg_values, key_map)
            )
            agg_values = {k: v[mask] for k, v in agg_values.items()}
            key_map = {k: v[mask] for k, v in key_map.items()}
            ngroups = int(mask.sum())
        leaf = _group_leaf(agg_values, key_map)
        names = [out.name for out in query.outputs]
        columns = [
            _column(eval_expr(out.expr, _ungrouped, ngroups, leaf))
            for out in query.outputs
        ]
        order_keys = [
            _column(eval_expr(expr, _ungrouped, ngroups, leaf))
            for expr, _ in query.order_by
        ]
        return names, columns, order_keys

    # Global aggregation: one output row.
    agg_values = {}
    for agg in aggs:
        arg = None if agg.arg is None else _column(eval_expr(agg.arg, frame.resolve, n))
        agg_values[agg] = global_aggregate(agg.func, arg, n, agg.distinct)
    leaf = _group_leaf(agg_values, {})
    names = [out.name for out in query.outputs]
    columns = [
        _column(eval_expr(out.expr, _ungrouped, 1, leaf)) for out in query.outputs
    ]
    return names, columns, None


# ---------------------------------------------------------------------------
# DISTINCT / ORDER BY / LIMIT
# ---------------------------------------------------------------------------


def _sort_key(column) -> np.ndarray:
    """Integer or numeric sort key of a column, in value order: a string
    column's ranks, a decoded string array's ``np.unique`` inverse."""
    if isinstance(column, StringColumn):
        return column.ranks()
    if column.dtype.kind in "OSU":
        return np.unique(column, return_inverse=True)[1].ravel()
    return column


def _distinct(names: list[str], columns: list):
    if not columns or len(columns[0]) == 0:
        return names, columns
    keys = [_sort_key(c) for c in columns]
    order = np.lexsort(tuple(reversed(keys)))
    keep_sorted = np.zeros(len(order), dtype=bool)
    keep_sorted[0] = True
    any_diff = np.zeros(len(order) - 1, dtype=bool)
    for key in keys:
        s = key[order]
        any_diff |= s[1:] != s[:-1]
    keep_sorted[1:] = any_diff
    kept = order[keep_sorted]
    kept.sort()  # preserve first-occurrence order
    return names, [c[kept] for c in columns]


def _order_and_limit(
    query: BoundQuery,
    frame: _Frame,
    names: list[str],
    columns: list,
    order_keys: list | None = None,
) -> list:
    if query.order_by and columns and len(columns[0]) > 1:
        by_name = {str(o.expr): col for o, col in zip(query.outputs, columns)}
        keys = []
        for i in reversed(range(len(query.order_by))):
            expr, desc = query.order_by[i]
            if order_keys is not None:
                key = order_keys[i]
            elif str(expr) in by_name:
                key = by_name[str(expr)]
            elif not query.is_aggregate:
                key = _column(eval_expr(expr, frame.resolve, frame.length()))
            else:
                raise UnsupportedSQLError(
                    f"ORDER BY {expr} must appear in the SELECT list of an aggregate query"
                )
            text = isinstance(key, StringColumn) or key.dtype.kind in "OSU"
            key = _sort_key(key)
            if desc:
                # Ranks negate exactly; numbers as float, as ever.
                key = -key if text else -key.astype(np.float64)
            keys.append(key)
        order = np.lexsort(tuple(keys))
        columns = [c[order] for c in columns]
    if query.limit is not None:
        columns = [c[: query.limit] for c in columns]
    return columns


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _flatten_and(expr: BExpr) -> list[BExpr]:
    if isinstance(expr, BLogical) and expr.op == "and":
        return _flatten_and(expr.left) + _flatten_and(expr.right)
    return [expr]


def _bindings_of(expr: BExpr) -> set[str]:
    out: set[str] = set()
    _walk_bindings(expr, out)
    return out


def _walk_bindings(expr: BExpr, out: set[str]) -> None:
    if isinstance(expr, BColumn):
        out.add(expr.binding)
    elif isinstance(expr, (BArith, BCompare, BLogical)):
        _walk_bindings(expr.left, out)
        _walk_bindings(expr.right, out)
    elif isinstance(expr, (BNeg, BNot, BIn)):
        _walk_bindings(expr.operand, out)
    elif isinstance(expr, BAgg) and expr.arg is not None:
        _walk_bindings(expr.arg, out)
