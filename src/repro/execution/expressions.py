"""Vectorized evaluation of bound expressions.

``eval_expr`` walks a bound expression tree and evaluates it column-at-a-
time over NumPy arrays.  Column references are resolved through a callable
so the same evaluator serves pre-join frames and post-join frames; a leaf
hook supplies a grouped query's aggregates and group keys, so outputs,
HAVING and ORDER BY keys over groups use it too.  An operator applied to
a type it does not take — a column the query's own load widened to
``str`` — is an :class:`~repro.errors.ExecutionError`, never a raw
``TypeError``.  Comparisons and logical operators produce boolean masks;
projecting a mask surfaces it as int64 (0/1), matching common SQL engines.
A string column stays a :class:`~repro.strings.StringColumn`: its
comparisons and ``IN`` run once per dictionary entry, never per row.
"""

from __future__ import annotations

import operator
from typing import Any, Callable

import numpy as np

from repro.errors import ExecutionError
from repro.sql.binder import (
    BAgg,
    BArith,
    BColumn,
    BCompare,
    BExpr,
    BIn,
    BLiteral,
    BLogical,
    BNeg,
    BNot,
)
from repro.strings import StringColumn

Resolver = Callable[[BColumn], "np.ndarray | StringColumn"]
#: Values computed before evaluation — a grouped query's aggregates and
#: group keys: the hook returns ``expr``'s value, or None when ``expr`` is
#: evaluated as usual.
Leaf = Callable[[BExpr], Any]

_ARITH = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": np.true_divide,
}
_COMPARE = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def eval_expr(
    expr: BExpr, resolve: Resolver, nrows: int, leaf: Leaf | None = None
) -> np.ndarray | StringColumn:
    """Evaluate ``expr`` to an array (or string column) of ``nrows`` rows.

    Without a ``leaf`` hook that supplies them, aggregates must have been
    replaced before calling (the executor evaluates aggregate inputs, not
    aggregate results, through this function); hitting a :class:`BAgg`
    then is an internal error.
    """
    out = _eval(expr, resolve, nrows, leaf)
    if isinstance(out, StringColumn):
        return out
    if np.isscalar(out) or out.ndim == 0:
        return np.full(nrows, out)
    return out


def _eval(expr: BExpr, resolve: Resolver, nrows: int, leaf: Leaf | None = None):
    if leaf is not None:
        value = leaf(expr)
        if value is not None:
            return value
    if isinstance(expr, BLiteral):
        return expr.value
    if isinstance(expr, BColumn):
        return resolve(expr)
    if isinstance(expr, (BArith, BCompare)):
        table = _ARITH if isinstance(expr, BArith) else _COMPARE
        if expr.op not in table:
            raise ExecutionError(f"unknown operator {expr.op!r}")
        left = _eval(expr.left, resolve, nrows, leaf)
        right = _eval(expr.right, resolve, nrows, leaf)
        return _apply(expr, table[expr.op], left, right)
    if isinstance(expr, BNeg):
        return _apply(expr, operator.neg, _eval(expr.operand, resolve, nrows, leaf))
    if isinstance(expr, BLogical):
        left = as_mask(_eval(expr.left, resolve, nrows, leaf), nrows)
        right = as_mask(_eval(expr.right, resolve, nrows, leaf), nrows)
        return (left & right) if expr.op == "and" else (left | right)
    if isinstance(expr, BNot):
        return ~as_mask(_eval(expr.operand, resolve, nrows, leaf), nrows)
    if isinstance(expr, BIn):
        mask = in_mask(_eval(expr.operand, resolve, nrows, leaf), expr.values, nrows)
        return ~mask if expr.negated else mask
    if isinstance(expr, BAgg):
        raise ExecutionError(
            "aggregate reached the scalar evaluator; executor bug"
        )
    raise ExecutionError(f"cannot evaluate expression {expr!r}")


def _apply(expr: BExpr, op: Callable, *operands):
    """``op(*operands)`` for ``expr``; a ``TypeError`` is an
    :class:`ExecutionError`: the load that served this query widened a
    column past the type the binder checked (a string deep in an int
    column)."""
    try:
        return op(*operands)
    except TypeError as exc:
        raise ExecutionError(f"cannot evaluate {expr}: {exc}") from exc


def in_mask(operand, values: tuple, nrows: int) -> np.ndarray:
    """Row mask of ``operand IN values`` (``operand`` may be a scalar)."""
    if isinstance(operand, StringColumn):
        return operand.isin(values)
    operand = np.asarray(operand) if not np.isscalar(operand) else np.full(nrows, operand)
    mask = np.zeros(nrows, dtype=bool)
    for v in values:
        mask |= operand == v
    return mask


def as_mask(value, nrows: int) -> np.ndarray:
    """``value`` as a row mask: a scalar broadcast, numbers by truth."""
    if isinstance(value, StringColumn):
        return value.compare("!=", "")  # a string is true when non-empty
    if np.isscalar(value):
        return np.full(nrows, bool(value))
    arr = np.asarray(value)
    if arr.dtype != bool:
        arr = arr.astype(bool)
    return arr


def eval_predicate(
    expr: BExpr, resolve: Resolver, nrows: int, leaf: Leaf | None = None
) -> np.ndarray:
    """Evaluate a WHERE- or HAVING-style expression to a boolean mask."""
    return as_mask(_eval(expr, resolve, nrows, leaf), nrows)
